"""Lossless bit-column compression of int8 weight tensors.

Weights are re-encoded as sign-magnitude (1 sign bit, 7 magnitude bits),
partitioned into groups of G consecutive input channels within one kernel
position, and examined column-wise: a bit column is zero when every group
element has a 0 at that significance. Zero columns are dropped; an 8-bit
zero-column index per group records which columns survive (bit 7 = sign
column, bits 6..0 = magnitude columns by significance).

Group order is K-major, then kernel position (FY, FX), then channel blocks
of G; the last channel block per (k, fy, fx) is zero padded. Payload column
order within a group is sign column first, then significance 6 down to 0.

Sign-magnitude cannot express -128; such values are clamped to -127 and
counted (the clamp bounds the error to 1 LSB and keeps the codec total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .workload import ContainerError

GROUP_SIZES = (1, 2, 4, 8, 16, 32, 64)
AUTO_GROUP_SIZES = (8, 16, 32)  # "auto" keeps the best CR of these; the smaller wins ties

POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

SIGN_BIT = 7  # index bit marking the sign column


def sm_encode(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized sign-magnitude bits (uint8) plus the -128 clamp count."""
    v = np.asarray(values, dtype=np.int16)
    clamps = int(np.count_nonzero(v == -128))
    v = np.clip(v, -127, 127)
    return ((v < 0).astype(np.uint8) << 7) | np.abs(v).astype(np.uint8), clamps


def sm_decode(bits: np.ndarray) -> np.ndarray:
    mag = (np.asarray(bits, dtype=np.uint8) & 0x7F).astype(np.int16)
    return np.where(bits & 0x80, -mag, mag).astype(np.int8)


def partition_groups(values: np.ndarray, group_size: int) -> np.ndarray:
    """(K, C, FY, FX) int8 tensor -> (n_groups, G) matrix of group values.

    Groups follow consecutive input channels of one kernel position; tail
    blocks are zero padded so every (k, fy, fx) slice yields ceil(C/G) groups.
    """
    if group_size not in GROUP_SIZES:
        raise ValueError(f"group size {group_size} not in {GROUP_SIZES}")
    values = np.asarray(values, dtype=np.int8)
    if values.ndim != 4:
        raise ValueError("expected a (K, C, FY, FX) tensor")
    c = values.shape[1]
    blocks = math.ceil(c / group_size)
    arr = np.moveaxis(values, 1, 3)  # (k, fy, fx, c)
    pad = blocks * group_size - c
    if pad:
        arr = np.pad(arr, [(0, 0), (0, 0), (0, 0), (0, pad)])
    return np.ascontiguousarray(arr).reshape(-1, group_size)


def unpartition_groups(groups: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Inverse of partition_groups: strip channel padding, restore axes."""
    k, c, fy, fx = dims
    arr = np.asarray(groups, dtype=np.int8).reshape(k, fy, fx, -1)[:, :, :, :c]
    return np.moveaxis(arr, 3, 1).copy()


def column_index(group: np.ndarray) -> np.ndarray | int:
    """8-bit zero-column index: bit b set iff any element has a 1 at column b.

    Accepts one group (G,) or a stack (n, G); returns a scalar or (n,) uint8.
    """
    bits, _ = sm_encode(group)
    idx = np.bitwise_or.reduce(bits, axis=-1)
    return int(idx) if np.ndim(idx) == 0 else idx


def twos_complement_index(group: np.ndarray) -> np.ndarray | int:
    """Column index over the plain two's-complement encoding (all 8 bits)."""
    bits = np.ascontiguousarray(group, dtype=np.int8).view(np.uint8)
    idx = np.bitwise_or.reduce(bits, axis=-1)
    return int(idx) if np.ndim(idx) == 0 else idx


def bcs_size(indexes: np.ndarray, group_size: int) -> int:
    """Bcs size in bits for these group indexes: 8 each plus G per column."""
    return 8 * len(indexes) + group_size * int(POPCOUNT[indexes].sum())


@dataclass
class CompressedLayer:
    """Bit-column-compressed (or dense passthrough) payload of one layer.

    BCS mode keeps, per group, the 8-bit index plus ceil(G/8) bytes for each
    surviving column (element j at bit j%8 of byte j//8). `dims` is in-memory
    bookkeeping only (the container format does not record tensor shape).
    """

    name: str
    group_size: int
    mode: str  # "dense" | "bcs"
    n_values: int
    n_groups: int
    indexes: np.ndarray | None = None    # (n_groups,) uint8
    columns: np.ndarray | None = None    # (total columns, ceil(G/8)) uint8
    dense_values: np.ndarray | None = None  # flat int8, K-major
    dims: tuple[int, int, int, int] | None = None
    clamp_count: int = 0

    def __post_init__(self):
        if self.mode not in ("dense", "bcs"):
            raise ContainerError(f"unknown mode {self.mode!r}")
        if self.group_size not in GROUP_SIZES:
            raise ContainerError(f"group size {self.group_size} not in {GROUP_SIZES}")
        if not math.ceil(self.n_values / self.group_size) <= self.n_groups <= self.n_values:
            raise ContainerError(f"layer {self.name!r}: {self.n_groups} groups cannot hold "
                                 f"{self.n_values} values at G={self.group_size}")
        if self.mode == "bcs":
            if self.indexes is None or self.columns is None:
                raise ContainerError("bcs layer needs indexes and columns")
            if len(self.indexes) != self.n_groups:
                raise ContainerError("index count does not match group count")
            if int(POPCOUNT[self.indexes].sum()) != len(self.columns):
                raise ContainerError("index popcounts do not match stored column count")
        elif self.dense_values is None or len(self.dense_values) != self.n_values:
            raise ContainerError("dense layer needs n_values raw bytes")

    @property
    def column_bytes(self) -> int:
        return math.ceil(self.group_size / 8)

    @property
    def dense_bits(self) -> int:
        return 8 * self.n_values

    @property
    def bcs_bits(self) -> int:
        """Size under the index+columns cost model (8 + popcount*G per group)."""
        if self.mode == "dense":
            return self.dense_bits
        return bcs_size(self.indexes, self.group_size)

    @property
    def payload_bits(self) -> int:
        """Bits of the column payload alone (no index)."""
        if self.mode == "dense":
            return self.dense_bits
        return self.group_size * len(self.columns)


def _pack_columns(sm_bits: np.ndarray, indexes: np.ndarray) -> np.ndarray:
    """Pack surviving columns, group-major, sign column first then bit 6..0."""
    n, g = sm_bits.shape
    # (n, 8, G) column bits ordered bit 7 down to bit 0
    shifts = np.arange(7, -1, -1, dtype=np.uint8)
    colbits = (sm_bits[:, None, :] >> shifts[None, :, None]) & 1
    packed = np.packbits(colbits.reshape(n * 8, g), axis=1, bitorder="little")
    packed = packed.reshape(n, 8, -1)
    keep = ((indexes[:, None] >> shifts[None, :]) & 1).astype(bool)
    return packed[keep]


def compress_layer(values: np.ndarray, group_size: int, mode: str = "auto",
                   name: str = "") -> CompressedLayer:
    """Compress a (K, C, FY, FX) int8 tensor.

    mode "auto" picks bcs iff its index+columns size beats the dense size;
    "dense" and "bcs" force the respective payload.
    """
    if mode not in ("auto", "dense", "bcs"):
        raise ValueError(f"unknown mode {mode!r}")
    values = np.asarray(values, dtype=np.int8)
    dims = values.shape
    n_values = values.size
    groups = partition_groups(values, group_size)
    sm_bits, clamps = sm_encode(groups)
    indexes = np.bitwise_or.reduce(sm_bits, axis=1)
    n_groups = len(groups)

    use_bcs = mode == "bcs" or (mode == "auto" and bcs_size(indexes, group_size) < 8 * n_values)
    if not use_bcs:
        return CompressedLayer(name, group_size, "dense", n_values, n_groups,
                               dense_values=values.reshape(-1).copy(), dims=dims,
                               clamp_count=clamps)
    columns = _pack_columns(sm_bits, indexes)
    return CompressedLayer(name, group_size, "bcs", n_values, n_groups,
                           indexes=indexes, columns=columns, dims=dims,
                           clamp_count=clamps)


def column_offsets(cl: CompressedLayer) -> np.ndarray:
    """Row offset of each group's first column in cl.columns, plus total."""
    offs = np.zeros(cl.n_groups + 1, dtype=np.int64)
    np.cumsum(POPCOUNT[cl.indexes], out=offs[1:])
    return offs


def unpack_groups(cl: CompressedLayer) -> np.ndarray:
    """A bcs layer's (n_groups, G) sign-magnitude bytes, one bit plane at a time.

    Columns absent from a group's index unpack as zero bits, so bit 7 is set
    only in groups whose index carries the sign column.
    """
    if cl.mode != "bcs":
        raise ValueError("unpack_groups needs a bcs-mode layer")
    g = cl.group_size
    offs = column_offsets(cl)
    if offs[-1] != len(cl.columns):
        raise ContainerError(f"layer {cl.name!r}: index/payload length mismatch")
    sm = np.zeros((cl.n_groups, g), dtype=np.uint8)
    for b in range(7, -1, -1):
        sel = ((cl.indexes >> b) & 1).astype(bool)
        if not sel.any():
            continue
        # rank of bit b within each index, payload is ordered bit 7 first
        rank = POPCOUNT[cl.indexes[sel] & (0xFF << (b + 1) & 0xFF)].astype(np.int64)
        rows = offs[:-1][sel] + rank
        bits = np.unpackbits(cl.columns[rows], axis=1, bitorder="little")[:, :g]
        sm[sel] |= bits << b
    return sm


def nz_columns(cl: CompressedLayer, sign: bool = False) -> np.ndarray:
    """Per-group count of scheduled columns: the non-zero magnitude columns,
    plus the sign column when `sign` is set and the column is non-zero.

    A dense-mode group streams all 8 columns.
    """
    if cl.mode == "dense":
        return np.full(cl.n_groups, 8, dtype=np.int64)
    return POPCOUNT[cl.indexes & (0xFF if sign else 0x7F)].astype(np.int64)


def decompress_layer(cl: CompressedLayer,
                     dims: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Exact inverse of compress_layer (post-clamp when -128 occurred).

    Needs the tensor dims to strip channel padding; they come from the
    in-memory layer or, after reading a container, from the manifest.
    """
    dims = dims or cl.dims
    if dims is None:
        raise ContainerError(f"layer {cl.name!r}: tensor dims required to decompress")
    k, c, fy, fx = dims
    if k * c * fy * fx != cl.n_values:
        raise ContainerError(f"layer {cl.name!r}: dims {dims} do not match element count {cl.n_values}")
    if cl.mode == "dense":
        return cl.dense_values.reshape(dims).copy()
    return unpartition_groups(sm_decode(unpack_groups(cl)), dims)


def compression_ratio(cl: CompressedLayer, include_index: bool = True) -> float:
    """CR = original bits / compressed bits; dense mode reports 1.0.

    Without the index (ideal) an all-zero layer has zero payload; the ratio
    is reported as inf.
    """
    if cl.mode == "dense":
        return 1.0
    denom = cl.bcs_bits if include_index else cl.payload_bits
    if denom == 0:
        return math.inf
    return cl.dense_bits / denom


def zre_size(values: np.ndarray) -> int:
    """Zero run-length encoding size in bits: 12 per entry (4-bit run + 8-bit value).

    Runs longer than 15 split by emitting a (15, 0) entry, which covers 16
    zeros; trailing zeros close with a (run-1, 0) entry.
    """
    flat = np.asarray(values).reshape(-1)
    nz = np.flatnonzero(flat)
    if len(nz) == 0:
        return 12 * math.ceil(len(flat) / 16) if len(flat) else 0
    gaps = np.diff(nz, prepend=-1) - 1  # zeros before each non-zero
    entries = len(nz) + int((gaps // 16).sum())
    trailing = len(flat) - 1 - int(nz[-1])
    entries += math.ceil(trailing / 16)
    return 12 * entries


def csr_size(values: np.ndarray, row_length: int) -> int:
    """Compressed sparse row size in bits.

    8 data bits plus ceil(log2(row_length)) column-index bits per non-zero,
    plus a (rows+1)-entry row-pointer array of ceil(log2(nnz+1)) bits each.
    """
    flat = np.asarray(values).reshape(-1)
    if row_length < 1:
        raise ValueError("row_length must be >= 1")
    rows = math.ceil(len(flat) / row_length)
    nnz = int(np.count_nonzero(flat))
    col_bits = math.ceil(math.log2(row_length)) if row_length > 1 else 0
    ptr_bits = (rows + 1) * math.ceil(math.log2(nnz + 1))
    return nnz * (8 + col_bits) + ptr_bits


@dataclass(frozen=True)
class SparsityStats:
    """Per-layer sparsity summary at a given group size.

    Column sparsities are fractions of zero columns over 8 * n_groups
    columns, under each encoding. Sparsity ratios (bit / value sparsity)
    are inf when the tensor has no zero values.
    """

    group_size: int
    n_values: int
    value_sparsity: float
    bit_sparsity_tc: float
    bit_sparsity_sm: float
    column_sparsity_tc: float
    column_sparsity_sm: float
    sr_tc: float
    sr_sm: float


def sparsity_stats(values: np.ndarray, group_size: int) -> SparsityStats:
    values = np.asarray(values, dtype=np.int8)
    n = values.size
    if n == 0:
        raise ValueError("empty tensor")
    value_sp = float(np.count_nonzero(values == 0) / n)

    bit_tc = 1.0 - float(POPCOUNT[values.view(np.uint8)].sum()) / (8 * n)
    sm_bits, _ = sm_encode(values)
    bit_sm = 1.0 - float(POPCOUNT[sm_bits].sum()) / (8 * n)

    groups = partition_groups(values, group_size)
    idx_sm = column_index(groups)
    idx_tc = twos_complement_index(groups)
    n_cols = 8 * len(groups)
    col_sm = 1.0 - float(POPCOUNT[idx_sm].sum()) / n_cols
    col_tc = 1.0 - float(POPCOUNT[idx_tc].sum()) / n_cols

    sr_tc = bit_tc / value_sp if value_sp > 0 else math.inf
    sr_sm = bit_sm / value_sp if value_sp > 0 else math.inf
    return SparsityStats(group_size, n, value_sp, bit_tc, bit_sm, col_tc, col_sm, sr_tc, sr_sm)
