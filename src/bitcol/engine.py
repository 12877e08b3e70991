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

The scalar per-group functions (packed_groups, bce_group, bce_column, smm)
are the model as the paper states it. Whole layers run vectorized on the
shared core: codec.unpack_groups for the column payload and
mapper.lockstep_waves for the wave schedule, which the bank layout uses as
well; perf takes its bit-column cycle count from simulate_layer. Tests keep
the scalar loops as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import codec
from .mapper import SpatialUnrolling, check_kind_compatible, lockstep_waves
from .workload import LayerShape, MappingError

VERIFY_CHUNK = 1 << 14  # groups per activation draw; bounds verify_layer's working set


@dataclass(frozen=True)
class ParsedIndex:
    sign_rqst: bool
    schedule: tuple[int, ...]  # significances of set magnitude bits, descending
    nz_count: int


def parse_index(idx: int) -> ParsedIndex:
    if not 0 <= idx <= 0xFF:
        raise ValueError(f"index {idx} is not an 8-bit value")
    schedule = tuple(b for b in range(6, -1, -1) if idx >> b & 1)
    return ParsedIndex(bool(idx >> 7 & 1), schedule, len(schedule))


def smm(activation: int, wbit: int, wsign: int) -> int:
    """Sign-magnitude multiply of one weight bit: 0, +a or -a."""
    if not wbit:
        return 0
    return -activation if wsign else activation


def bce_column(acts, bits, signs, shift: int) -> int:
    """Partial sum of one weight bit column, then a single shift."""
    if not 0 <= shift <= 6:
        raise ValueError(f"shift {shift} out of range")
    a = np.asarray(acts, dtype=np.int64)
    b = np.asarray(bits, dtype=np.int64)
    s = np.asarray(signs, dtype=np.int64)
    total = int((b * np.where(s, -a, a)).sum())
    return total << shift


@dataclass
class PackedGroup:
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


@dataclass
class CycleCount:
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
    if shape.n_weights != cl.n_values:
        raise MappingError(f"layer {cl.name!r}: container does not match layer shape")
    blocks = math.ceil(shape.c / cl.group_size)
    if cl.n_groups != shape.k * shape.fy * shape.fx * blocks:
        raise MappingError(f"layer {cl.name!r}: group count does not match layer shape")
    nz = codec.nz_columns(cl, sign_cycle)
    steps, loss, repeat = lockstep_waves(nz, shape, cl.group_size, su)
    wave_max_sum = int(steps.sum())
    t_out = math.ceil(shape.ox / su.ox_u) * shape.oy * shape.b
    return CycleCount(
        group_cycles=nz,
        total_cycles=wave_max_sum * repeat * t_out,
        barrier_loss=loss * repeat * t_out,
        wave_max_sum=wave_max_sum,
        n_waves=steps.size,
        t_out=t_out,
        group_repeat=repeat,
    )


def verify_layer(cl: codec.CompressedLayer, values: np.ndarray,
                 rng: np.random.Generator) -> int:
    """Exactness check: compare every group's engine dot against dot_ref.

    Each group's activations are G int8 draws from rng, in group order. The
    engine dot sums the partial sums of the magnitude columns, each shifted
    once; the reference is the exact dot of the manifest weights (-128
    clamped). Returns the mismatch count (0 when the engine is exact).
    Dense-mode layers verify trivially against the raw values.
    """
    if cl.mode == "dense":
        stored = cl.dense_values.reshape(values.shape)
        return int(np.count_nonzero(stored != values))
    sm = codec.unpack_groups(cl)
    groups = codec.partition_groups(values, cl.group_size)
    mismatches = 0
    for lo in range(0, cl.n_groups, VERIFY_CHUNK):
        chunk, weights = sm[lo:lo + VERIFY_CHUNK], groups[lo:lo + VERIFY_CHUNK]
        acts = rng.integers(-128, 128, size=chunk.shape, dtype=np.int64)
        # bit 7 is set only where the group's index carries the sign column
        signed = np.where(chunk >> 7, -acts, acts)
        dot = sum((((chunk >> b) & 1) * signed).sum(axis=1) << b for b in range(7))
        ref = (np.clip(weights, -127, 127) * acts).sum(axis=1)
        mismatches += int(np.count_nonzero(dot != ref))
    return mismatches
