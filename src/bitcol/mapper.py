"""Spatial-unrolling catalog, per-layer Mapping records, and SU selection.

The engine deploys 512 column-serial lanes (4096 1b x 8b multipliers) and
reconfigures its spatial unrolling per layer from a 7-entry catalog. SU1-6
unroll (C, OX, K); SU7 is specialized for depthwise convolutions and
unrolls 64 kernel groups with OX_u=2 (128 lanes). OY, FX, FY and B are
always iterated temporally.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import codec
from .workload import LayerShape, MappingError


class SpatialUnrolling(NamedTuple):
    id: str
    ox_u: int
    k_u: int
    c_u: int = 0          # channel unroll (SU1-6 and custom entries)
    g_u: int = 0          # kernel-group unroll (depthwise entry)
    w_bw: int = 0         # weight bits/cycle
    act_bw: int = 0       # activation bits/cycle
    kinds: str = "no-dw"  # "no-dw" | "dw-only" | "any"

    @property
    def lanes(self) -> int:
        return (self.g_u or self.c_u) * self.ox_u * self.k_u


CATALOG = (
    SpatialUnrolling("SU1", ox_u=16, k_u=32, c_u=8, w_bw=256, act_bw=1024),
    SpatialUnrolling("SU2", ox_u=8, k_u=32, c_u=16, w_bw=512, act_bw=1024),
    SpatialUnrolling("SU3", ox_u=4, k_u=32, c_u=32, w_bw=1024, act_bw=1024),
    SpatialUnrolling("SU4", ox_u=1, k_u=128, c_u=8, w_bw=1024, act_bw=64),
    SpatialUnrolling("SU5", ox_u=1, k_u=64, c_u=16, w_bw=1024, act_bw=128),
    SpatialUnrolling("SU6", ox_u=1, k_u=32, c_u=32, w_bw=1024, act_bw=256),
    SpatialUnrolling("SU7", ox_u=2, k_u=1, g_u=64, w_bw=64, act_bw=1024, kinds="dw-only"),
)

_BY_ID = {su.id: su for su in CATALOG}


def catalog_su(su_id: str) -> SpatialUnrolling:
    try:
        return _BY_ID[su_id]
    except KeyError:
        raise MappingError(f"unknown spatial unrolling {su_id!r}") from None


def make_custom_su(c_u: int, ox_u: int, k_u: int, bit_serial: bool = False,
                   su_id: str | None = None) -> SpatialUnrolling:
    """Non-catalog SU (baseline accelerator dataflows); compatible with any kind."""
    w_bw = c_u * k_u * (1 if bit_serial else 8)
    return SpatialUnrolling(su_id or f"custom[{c_u},{ox_u},{k_u}]", ox_u=ox_u, k_u=k_u,
                            c_u=c_u, w_bw=w_bw, act_bw=c_u * ox_u * 8, kinds="any")


def is_compatible(shape: LayerShape, su: SpatialUnrolling) -> bool:
    if su.kinds == "any":
        return True
    dw = shape.kind == "depthwise-conv"
    return dw if su.kinds == "dw-only" else not dw


def check_kind_compatible(shape: LayerShape, su: SpatialUnrolling) -> None:
    if not is_compatible(shape, su):
        raise MappingError(f"{su.id} cannot map a {shape.kind} layer")


def check_group_size(group_size: int | str, su: SpatialUnrolling) -> None:
    """G must split into the C_u-channel slices `su` streams, else MappingError;
    "auto" needs one codec.AUTO_GROUP_SIZES entry that does. SU7 (no C_u) takes any G."""
    sizes = codec.AUTO_GROUP_SIZES if group_size == "auto" else (group_size,)
    if su.c_u and all(g % su.c_u for g in sizes):
        shown = f"auto ({'/'.join(map(str, sizes))})" if group_size == "auto" else group_size
        raise MappingError(f"group size {shown} is not a multiple of the unrolled "
                           f"channels C_u={su.c_u} of {su.id}")


def check_layer_shape(cl: codec.CompressedLayer, shape: LayerShape) -> None:
    """A container layer must hold exactly the values and groups of its shape."""
    if shape.n_weights != cl.n_values:
        raise MappingError(f"layer {cl.name!r}: container does not match layer shape")
    if cl.n_groups != shape.k * shape.fy * shape.fx * math.ceil(shape.c / cl.group_size):
        raise MappingError(f"layer {cl.name!r}: group count does not match layer shape")


class Mapping(NamedTuple):
    """One layer on one SU, built by map_layer and read by select_su, `map` and perf."""

    su: SpatialUnrolling
    steps: int            # temporal steps covering the loop nest at full lane occupancy
    utilization: float    # N_mac / (steps * lanes)


def output_steps(shape: LayerShape, su: SpatialUnrolling) -> int:
    """Temporal steps over the outputs, ceil(OX/OX_u) * OY * B: each one
    streams the layer's weights once more."""
    return math.ceil(shape.ox / su.ox_u) * shape.oy * shape.b


def map_layer(shape: LayerShape, su: SpatialUnrolling) -> Mapping:
    """The layer's Mapping on `su`; MappingError if `su` cannot map its kind."""
    check_kind_compatible(shape, su)
    steps = (output_steps(shape, su) * shape.fx * shape.fy
             * (math.ceil(shape.k / su.g_u) * shape.c if su.g_u
                else math.ceil(shape.c / su.c_u) * math.ceil(shape.k / su.k_u)))
    return Mapping(su, steps, shape.macs / (steps * su.lanes))


def utilization_table(shape: LayerShape) -> dict[str, Mapping | None]:
    """The layer's Mapping on each catalog entry; incompatible entries report None."""
    return {su.id: map_layer(shape, su) if is_compatible(shape, su) else None
            for su in CATALOG}


def best_su(table: dict[str, Mapping | None]) -> Mapping:
    """Best-utilization Mapping of a utilization_table; ties: lower w_bw, then catalog order."""
    return min((m for m in table.values() if m is not None),
               key=lambda m: (-m.utilization, m.su.w_bw))


def select_su(shape: LayerShape) -> Mapping:
    """best_su of the layer's table; every layer kind has a compatible entry."""
    return best_su(utilization_table(shape))


def lockstep_waves(nz: np.ndarray, shape: LayerShape, group_size: int,
                   su: SpatialUnrolling) -> tuple[np.ndarray, int, int]:
    """Lockstep wave schedule of a layer's per-group column counts on one SU.

    A wave co-schedules the groups of one kernel position and channel block
    across the SU's kernel lanes (kernel groups on the depthwise entry) and
    advances at its slowest lane; the gap to each real lane is barrier loss.
    Lanes past the last kernel are idle and lose nothing. Returns the wave
    steps in schedule order, shaped (positions, kernel blocks, channel
    blocks), the barrier loss in lane-cycles, and the group repeat (column
    stream slices per group, G / C_u; check_group_size rejects any other G).
    """
    check_group_size(group_size, su)
    lanes, repeat = (su.g_u, 1) if su.g_u else (su.k_u, group_size // su.c_u)
    positions, blocks = shape.fy * shape.fx, math.ceil(shape.c / group_size)
    kb = math.ceil(shape.k / lanes)
    grid = np.full((kb * lanes, positions, blocks), -1, dtype=np.int64)
    grid[:shape.k] = nz.reshape(shape.k, positions, blocks)
    steps = grid.reshape(kb, lanes, positions, blocks).max(axis=1)
    real = np.minimum(shape.k - lanes * np.arange(kb), lanes)  # kernels per block
    loss = int((steps.sum(axis=(1, 2)) * real).sum() - nz.sum())
    return steps.transpose(1, 0, 2), loss, repeat


BANK_ROW = np.dtype([("cycle", np.int64), ("bank", np.uint8), ("k_base", np.int64),
                     ("c_base", np.int64), ("significance", np.int8, 8), ("segment", np.uint64)])


def weight_bank_layout(cl: codec.CompressedLayer, shape: LayerShape,
                       su: SpatialUnrolling) -> np.ndarray:
    """SU1 weight-bank schedule: per cycle, 4 bank segments of 64 bits.

    Each segment carries one same-significance bit from 8 consecutive input
    channels across 8 consecutive kernels (element = channel i, kernel j at
    bit i + 8*j). Kernel groups co-scheduled in a wave advance in lockstep,
    so one group's surviving columns occupy consecutive cycle slots in
    codec.SLOT_BIT order; dense mode streams all 8 columns of every group.
    Returns BANK_ROW rows, 4 per cycle in (cycle, bank) order: k_base and
    c_base are the bank's first kernel and channel, significance[j] is kernel
    j's slot bit (7 sign, 6..0 magnitude, -1 idle lane), segment the word.
    """
    if su.id != "SU1":
        raise MappingError("the weight-bank layout is defined for SU1 only")
    check_layer_shape(cl, shape)
    g = cl.group_size
    if cl.mode == "bcs":
        index, columns = cl.indexes, cl.columns
    else:  # dense mode streams all 8 columns of every group
        sm = codec.sm_encode(codec.partition_groups(
            cl.dense_values.reshape(shape.weight_dims), g))
        index = np.full(cl.n_groups, 0xFF, dtype=np.uint8)
        columns = codec.pack_columns(sm, index)
    width = codec.nz_columns(cl, sign=True)
    steps, _, slices = lockstep_waves(width, shape, g, su)

    # per cycle: its wave (position, kernel block, channel block), the group
    # slice it streams and its slot within the wave
    positions, kb, blocks = steps.shape
    steps = steps.reshape(-1)
    per_wave = steps * slices
    n = int(per_wave.sum())
    wave = np.repeat(np.arange(steps.size), per_wave)
    sl, slot = divmod(np.arange(n) - (np.cumsum(per_wave) - per_wave)[wave], steps[wave])
    pos, rest = divmod(wave, kb * blocks)
    kblock, cb = divmod(rest, blocks)

    # per (cycle, lane): the SU's k_u kernel lanes form 4 banks of 8 kernels;
    # a lane streams byte `sl` (C_u = 8 channels) of its group's payload column
    # `slot`, or the zero row past the payload once the group has run out
    k = kblock[:, None] * su.k_u + np.arange(su.k_u)
    group = (np.minimum(k, shape.k - 1) * positions + pos[:, None]) * blocks + cb[:, None]
    bit = np.where(k < shape.k, codec.SLOT_BIT[index[group], slot[:, None]], -1)
    row = np.where(bit >= 0, (np.cumsum(width) - width)[group] + slot[:, None], len(columns))
    out = np.empty((n, 4), dtype=BANK_ROW)
    out["cycle"] = np.arange(n)[:, None]
    out["bank"] = np.arange(4)
    out["k_base"] = (kblock * su.k_u)[:, None] + 8 * np.arange(4)
    out["c_base"] = (cb * g + sl * su.c_u)[:, None]
    out["significance"] = bit.reshape(n, 4, 8)
    out["segment"] = np.pad(columns, ((0, 1), (0, 0)))[row, sl[:, None]].view("<u8")
    return out.reshape(-1)
