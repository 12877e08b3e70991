"""Spatial-unrolling catalog, per-layer utilization, and SU selection.

The engine deploys 512 column-serial lanes (4096 1b x 8b multipliers) and
reconfigures its spatial unrolling per layer from a 7-entry catalog. SU1-6
unroll (C, OX, K); SU7 is specialized for depthwise convolutions and
unrolls 64 kernel groups with OX_u=2 (128 lanes). OY, FX, FY and B are
always iterated temporally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .workload import ConfigError, LayerShape, MappingError


@dataclass(frozen=True)
class SpatialUnrolling:
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


def check_group_size(group_size: int, su: SpatialUnrolling) -> None:
    """A fixed G must split into the C_u-channel slices a fixed SU streams."""
    if su.c_u and group_size % su.c_u:
        raise ConfigError(f"group_size {group_size} is not a multiple of the unrolled "
                          f"channels C_u={su.c_u} of {su.id}")


def temporal_steps(shape: LayerShape, su: SpatialUnrolling) -> int:
    """Cycles needed at full lane occupancy to cover the layer loop nest."""
    check_kind_compatible(shape, su)
    if su.g_u:
        return (math.ceil(shape.k / su.g_u) * math.ceil(shape.ox / su.ox_u)
                * shape.c * shape.oy * shape.fx * shape.fy * shape.b)
    return (math.ceil(shape.c / su.c_u) * math.ceil(shape.ox / su.ox_u)
            * math.ceil(shape.k / su.k_u) * shape.oy * shape.fx * shape.fy * shape.b)


def spatial_utilization(shape: LayerShape, su: SpatialUnrolling) -> float:
    """Fraction of lane-cycles doing real MACs: N_mac / (steps * lanes)."""
    return shape.macs / (temporal_steps(shape, su) * su.lanes)


def utilization_table(shape: LayerShape) -> dict[str, float | None]:
    """Per-SU utilization; incompatible entries report None."""
    return {su.id: spatial_utilization(shape, su) if is_compatible(shape, su) else None
            for su in CATALOG}


def select_su(shape: LayerShape) -> SpatialUnrolling:
    """Best-utilization SU; ties break by lower weight bandwidth, then id."""
    best = None
    best_key = None
    for pos, su in enumerate(CATALOG):
        if not is_compatible(shape, su):
            continue
        key = (-spatial_utilization(shape, su), su.w_bw, pos)
        if best_key is None or key < best_key:
            best, best_key = su, key
    if best is None:
        raise MappingError(f"no catalog entry maps a {shape.kind} layer")
    return best


def lockstep_waves(nz: np.ndarray, shape: LayerShape, group_size: int,
                   su: SpatialUnrolling) -> tuple[np.ndarray, int, int]:
    """Lockstep wave schedule of a layer's per-group column counts on one SU.

    A wave co-schedules the groups of one kernel position and channel block
    across the SU's kernel lanes (kernel groups on the depthwise entry) and
    advances at its slowest lane; the gap to each real lane is barrier loss.
    Lanes past the last kernel are idle and lose nothing. Returns the wave
    steps in schedule order, shaped (positions, kernel blocks, channel
    blocks), the barrier loss in lane-cycles, and the group repeat (column
    stream slices per group, G / C_u).
    """
    if su.g_u:
        lanes, repeat = su.g_u, 1
    else:
        if group_size % su.c_u != 0:
            raise MappingError(
                f"group size {group_size} is not a multiple of the unrolled "
                f"channels C_u={su.c_u} of {su.id}")
        lanes, repeat = su.k_u, group_size // su.c_u
    positions, blocks = shape.fy * shape.fx, math.ceil(shape.c / group_size)
    kb = math.ceil(shape.k / lanes)
    grid = np.full((kb * lanes, positions, blocks), -1, dtype=np.int64)
    grid[:shape.k] = nz.reshape(shape.k, positions, blocks)
    steps = grid.reshape(kb, lanes, positions, blocks).max(axis=1)
    real = np.minimum(shape.k - lanes * np.arange(kb), lanes)  # kernels per block
    loss = int((steps.sum(axis=(1, 2)) * real).sum() - nz.sum())
    return steps.transpose(1, 0, 2), loss, repeat


def _slot_bits() -> np.ndarray:
    """_SLOT_BIT[i, t]: index bit streamed in slot t of a group with index i
    (sign column first, then significance descending), -1 past its columns."""
    table = np.full((256, 8), -1, dtype=np.int64)
    for i in range(256):
        bits = [b for b in range(7, -1, -1) if i >> b & 1]
        table[i, :len(bits)] = bits
    return table


_SLOT_BIT = _slot_bits()
_SLOT_LABEL = np.array(["-", "0", "1", "2", "3", "4", "5", "6", "sign"])  # by slot bit + 1


def weight_bank_layout(cl: codec.CompressedLayer, shape: LayerShape, su: SpatialUnrolling,
                       max_cycles: int | None = None) -> list[dict]:
    """SU1 weight-bank schedule: per cycle, 4 bank segments of 64 bits.

    Each segment carries one same-significance bit from 8 consecutive input
    channels across 8 consecutive kernels (element = channel i, kernel j at
    bit i + 8*j). Kernel groups co-scheduled in a wave advance in lockstep,
    so one group's surviving columns occupy consecutive cycle slots; dense
    mode streams 8 slots per group, significance descending (sign first).
    """
    if su.id != "SU1":
        raise MappingError("the weight-bank layout is defined for SU1 only")
    g = cl.group_size
    steps, _, slices = lockstep_waves(codec.nz_columns(cl, sign=True), shape, g, su)
    if cl.mode == "bcs":
        sm, index = codec.unpack_groups(cl), cl.indexes
    else:
        sm, _ = codec.sm_encode(codec.partition_groups(
            cl.dense_values.reshape(shape.weight_dims), g))
        index = np.full(cl.n_groups, 0xFF, dtype=np.uint8)

    # per cycle: its wave (position, kernel block, channel block), the group
    # slice it streams and its slot within the wave
    positions, kb, blocks = steps.shape
    steps = steps.reshape(-1)
    per_wave = steps * slices
    total = int(per_wave.sum())
    n = total if max_cycles is None else min(total, max(max_cycles, 1))
    wave = np.repeat(np.arange(steps.size), per_wave)[:n]
    sl, slot = divmod(np.arange(n) - (np.cumsum(per_wave) - per_wave)[wave], steps[wave])
    pos, rest = divmod(wave, kb * blocks)
    kblock, cb = divmod(rest, blocks)

    # per (cycle, lane): the SU's k_u kernel lanes form 4 banks of 8 kernels
    k = kblock[:, None] * su.k_u + np.arange(su.k_u)
    group = (np.minimum(k, shape.k - 1) * positions + pos[:, None]) * blocks + cb[:, None]
    bit = np.where(k < shape.k, _SLOT_BIT[index[group], slot[:, None]], -1)
    chans = sl[:, None, None] * su.c_u + np.arange(su.c_u)
    col = (sm[group[:, :, None], chans] >> np.maximum(bit, 0).astype(np.uint8)[:, :, None]) \
        & (bit >= 0)[:, :, None]
    segments = np.packbits(col, axis=2, bitorder="little").reshape(n, 4, 8) \
        .view("<u8").reshape(n, 4).tolist()
    labels = _SLOT_LABEL[bit + 1].reshape(n, 4, 8).tolist()
    k0, c_base = (kblock * su.k_u).tolist(), (cb * g + sl * su.c_u).tolist()
    return [{
        "cycle": c,
        "bank": bank,
        "k_base": k0[c] + bank * 8,
        "c_base": c_base[c],
        "significance": ",".join(labels[c][bank]),
        "segment": f"{segments[c][bank]:016x}",
    } for c in range(n) for bank in range(4)]
