"""Bit-exact functional model of the column-serial compute engine.

One engine lane multiplies a single weight bit column against full-precision
two's-complement int8 activations: AND gate per element, sign applied from
the shared sign column, partial products summed, then one shift for the
whole column. A group's dot product is the sum over its scheduled non-zero
columns; per-group cycles equal the non-zero magnitude column count (8 in
dense mode).

Sign columns load together with the activations and are modeled as free by
default; pass sign_cycle=True to charge one cycle whenever the sign column
is non-zero.

verify_layer is the one round-trip check of compress --verify and simulate
--verify: every group's decoded bytes must equal the manifest's group, -128
clamped. The engine's column partial sums add up to the dot of those decoded
weights (a byte's shifted magnitude bits sum to its magnitude), so equal
weights give equal dots for every activation, with no activations drawn.

The scalar per-group functions (packed_groups, bce_group, bce_column) are
the model as the paper states it. Whole layers run vectorized on the
shared core: codec.unpack_groups for the column payload and
mapper.lockstep_waves for the wave schedule, which the bank layout uses as
well; perf takes its bit-column cycle count from simulate_layer. Tests keep
the scalar loops as their reference.

PackedGroup.index, the zero-column index, hides tuple.index.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import codec
from .mapper import (SpatialUnrolling, check_kind_compatible, check_layer_shape,
                     lockstep_waves, output_steps)
from .workload import LayerShape


class ParsedIndex(NamedTuple):
    sign_rqst: bool
    schedule: tuple[int, ...]  # significances of set magnitude bits, descending
    nz_count: int


def parse_index(idx: int) -> ParsedIndex:
    if not 0 <= idx <= 0xFF:
        raise ValueError(f"index {idx} is not an 8-bit value")
    schedule = tuple(b for b in range(6, -1, -1) if idx >> b & 1)
    return ParsedIndex(bool(idx >> 7 & 1), schedule, len(schedule))


def bce_column(acts, bits, signs, shift: int) -> int:
    """Partial sum of one weight bit column, then a single shift."""
    if not 0 <= shift <= 6:
        raise ValueError(f"shift {shift} out of range")
    a = np.asarray(acts, dtype=np.int64)
    b = np.asarray(bits, dtype=np.int64)
    s = np.asarray(signs, dtype=np.int64)
    total = int((b * np.where(s, -a, a)).sum())
    return total << shift


class PackedGroup(NamedTuple):
    """One group's compressed form: index, sign column, magnitude columns."""

    index: int
    sign_bits: np.ndarray                 # (G,) uint8, zeros when column absent
    columns: dict[int, np.ndarray]        # significance -> (G,) uint8


def packed_groups(cl: codec.CompressedLayer) -> Iterator[PackedGroup]:
    """Unpack a bcs-mode layer group by group."""
    if cl.mode != "bcs":
        raise ValueError("packed_groups needs a bcs-mode layer")
    g = cl.group_size
    offs = codec.column_offsets(cl)
    for i in range(cl.n_groups):
        idx = int(cl.indexes[i])
        rows = cl.columns[offs[i]:offs[i + 1]]
        bits = np.unpackbits(rows, axis=1, bitorder="little")[:, :g] if len(rows) \
            else np.zeros((0, g), dtype=np.uint8)
        row = 0
        sign = np.zeros(g, dtype=np.uint8)
        if idx >> 7 & 1:
            sign = bits[row]
            row += 1
        cols = {}
        for b in range(6, -1, -1):
            if idx >> b & 1:
                cols[b] = bits[row]
                row += 1
        yield PackedGroup(idx, sign, cols)


def bce_group(acts, group: PackedGroup, sign_cycle: bool = False) -> tuple[int, int]:
    """Dot product and cycle count of one compressed group.

    Exactly equals dot_ref on the decompressed weights; cycles equal the
    non-zero magnitude column count (plus one for the sign column when
    sign_cycle is set and the column is non-zero).
    """
    acts = np.asarray(acts, dtype=np.int64)
    g = len(acts)
    parsed = parse_index(group.index)
    # sign request low: all sign bit columns are reset to 0
    signs = group.sign_bits if parsed.sign_rqst else np.zeros(g, dtype=np.uint8)
    if parsed.nz_count != len(group.columns):
        raise ValueError("schedule does not match stored columns")
    dot = 0
    bound = g * 128 * 127  # int8 activations reach -128, magnitudes 127
    for sig in parsed.schedule:
        dot += bce_column(acts, group.columns[sig], signs, sig)
        if abs(dot) > bound:
            raise ValueError(f"accumulator range exceeded: |{dot}| > {bound}")
    cycles = parsed.nz_count + (1 if sign_cycle and parsed.sign_rqst else 0)
    return dot, cycles


def dot_ref(acts, weights) -> int:
    """Exact integer dot product (verification reference)."""
    a = np.asarray(acts, dtype=np.int64)
    w = np.asarray(weights, dtype=np.int64)
    if a.shape != w.shape:
        raise ValueError("operand length mismatch")
    return int((a * w).sum())


class CycleCount(NamedTuple):
    group_cycles: np.ndarray   # per-group non-zero column counts
    total_cycles: int          # lockstep cycles including output-side repeats
    barrier_loss: int          # idle lane-cycles lost to the sync barrier
    wave_max_sum: int          # sum over waves of the max column count
    n_waves: int
    t_out: int                 # temporal repeats of the weight stream
    group_repeat: int          # column-stream slices per group (G / C_u)


def simulate_layer(cl: codec.CompressedLayer, shape: LayerShape,
                   su: SpatialUnrolling, sign_cycle: bool = False) -> CycleCount:
    """Lockstep cycle accounting of one layer on one spatial unrolling.

    Groups co-scheduled across the kernel lanes of a wave advance at the
    slowest lane's non-zero column count; the difference is reported as
    barrier loss in lane-cycles.
    """
    check_kind_compatible(shape, su)
    check_layer_shape(cl, shape)
    nz = codec.nz_columns(cl, sign_cycle)
    steps, loss, repeat = lockstep_waves(nz, shape, cl.group_size, su)
    wave_max_sum = int(steps.sum())
    t_out = output_steps(shape, su)
    return CycleCount(
        group_cycles=nz,
        total_cycles=wave_max_sum * repeat * t_out,
        barrier_loss=loss * repeat * t_out,
        wave_max_sum=wave_max_sum,
        n_waves=steps.size,
        t_out=t_out,
        group_repeat=repeat,
    )


def verify_layer(cl: codec.CompressedLayer, values: np.ndarray) -> int:
    """Round-trip check: the number of groups whose stored weights differ from
    the manifest's in any element (0 when the payload is exact).

    A bcs group decodes its sign-magnitude bytes; the reference clamps -128
    on its own, so a wrong codec clamp is counted. A group's channel padding
    is compared too. A dense layer compares its raw bytes.
    """
    want = codec.partition_groups(values, cl.group_size)
    if cl.mode == "dense":
        got = codec.partition_groups(cl.dense_values.reshape(values.shape), cl.group_size)
    else:
        got, want = codec.sm_decode(codec.unpack_groups(cl)), want + (want == -128)
    return int(np.count_nonzero(np.bincount(np.flatnonzero(got != want) // cl.group_size)))
