"""Lossless bit-column compression of int8 weight tensors.

Weights are re-encoded as sign-magnitude (1 sign bit, 7 magnitude bits),
partitioned into groups of G consecutive input channels within one kernel
position, and examined column-wise: a bit column is zero when every group
element has a 0 at that significance. Zero columns are dropped; an 8-bit
zero-column index per group records which columns survive (bit 7 = sign
column, bits 6..0 = magnitude columns by significance).

Group order is K-major, then kernel position (FY, FX), then channel blocks
of G; the last channel block per (k, fy, fx) is zero padded. Within a group
the payload columns follow the index bits MSB first: sign column, then
significance 6 down to 0 (SLOT_BIT lists them per index for the bank
layout). Packing transposes each 8-byte word of sign-magnitude bytes as an
8x8 bit matrix (_transpose8, its own inverse) and keeps the columns that the
index bits mask; unpacking scatters them back and transposes again.
_transpose8 runs its swaps block by block (whole rows of a 2-D array), each
block small enough to stay in cache across the three swaps.

Sign-magnitude cannot express -128: sm_clamp reads it as -127 (1 LSB of error;
the codec stays total, and `compress` counts the -128 weights in its own
`clamped` column). An int8 array clamps in int8, without widening to int16.
sm_encode sets the sign and magnitude bits in place on sm_clamp's new
array and writes nothing else: partition_groups returns a view of its input
for 1x1 layers, so a write there would change the caller's tensor.

best_pack is the one group-size and mode choice: the auto-mode pack of best
CR over the candidate Gs, the smaller G on ties. sparsity_stats partitions a
layer once, at the smallest G it reports, and sign-magnitude encodes that
copy: both bit sparsities and both column index sets come from the two,
since the zero padding sets no bit. Each larger G ORs adjacent block pairs of
the G half its size (an odd row gets a zero block).

compress_layer defers a bcs layer's pack: the layer keeps its sign-magnitude
groups and packs them on the first read of `columns`, then drops them. The
group-size choice, the compression ratios and the cycle model read only the
indexes, so a candidate that is never written, laid out or unpacked is never
packed. Assigning `columns` replaces the deferred payload.

Popcounts run on np.bitwise_count (numpy >= 2.0); _popcount sums a byte
array's set bits 8 bytes at a time, as <u8 words. _or_index ORs the bytes of
each group 8 at a time, as <u8 words, then halves each word.

CompressedLayer validates its fields and stays a dataclass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .workload import ContainerError

GROUP_SIZES = (1, 2, 4, 8, 16, 32, 64)
AUTO_GROUP_SIZES = (8, 16, 32)  # "auto" keeps the best CR of these; the smaller wins ties

def _keep(indexes: np.ndarray) -> np.ndarray:
    """(n, 8) bool: slot s of each group's bit columns (index bit 7 - s) is stored."""
    return np.unpackbits(indexes).view(bool).reshape(-1, 8)


# SLOT_BIT[i, t]: the index bit of payload column t of a group whose index is i,
# -1 past that group's columns (the kept bits descend already; the -1s sort last)
SLOT_BIT = np.sort(np.where(_keep(np.arange(256, dtype=np.uint8)), np.arange(7, -1, -1), -1),
                   axis=1)[:, ::-1].astype(np.int8)


def sm_clamp(values: np.ndarray) -> np.ndarray:
    """The int8 values that sign-magnitude stores, in a new array: -128 reads
    as -127. An int8 array clamps without widening, as values + (values ==
    -128); any other input goes through int16, so a value outside int16 raises."""
    if isinstance(values, np.ndarray) and values.dtype == np.int8:
        v = (values == -128).view(np.int8)
        v += values
        return v
    return np.clip(np.asarray(values, dtype=np.int16), -127, 127).astype(np.int8)


def sm_encode(values: np.ndarray) -> np.ndarray:
    """Vectorized sign-magnitude bits (uint8) of the sm_clamp values, set in
    place on sm_clamp's result (never on `values`, which may be a view)."""
    v = np.asarray(sm_clamp(values))
    bits = v.view(np.uint8)
    sign = bits & 0x80
    np.abs(v, out=v)
    bits |= sign
    return bits


def sm_decode(bits: np.ndarray) -> np.ndarray:
    """Each sign-magnitude byte's int8 value (m ^ -s) + s, in place on an int8 copy."""
    v = np.array(bits, dtype=np.uint8).view(np.int8)
    neg = v >> 7  # -s, the one temporary besides the result
    v &= 0x7F
    v ^= neg
    v -= neg
    return v


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
    arr = np.moveaxis(values, 1, 3)  # (k, fy, fx, c)
    width = math.ceil(c / group_size) * group_size
    if width > c:  # zero pad the last block; np.pad's fixed cost per call is far higher
        padded = np.zeros((*arr.shape[:3], width), dtype=np.int8)
        padded[..., :c] = arr
        arr = padded
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
    bits = sm_encode(group)
    idx = _or_index(bits.reshape(-1, bits.shape[-1])).reshape(bits.shape[:-1])
    return int(idx) if idx.ndim == 0 else idx


def _or_index(sm: np.ndarray) -> np.ndarray:
    """(n,) uint8 OR of each row of an (n, G) int8 or uint8 array.

    For G a power of two from 8, the rows are <u8 words: halve the words per
    row, then OR each word's two halves, as <u4, <u2 and uint8 pairs.
    """
    g = sm.shape[1]
    if g < 8 or g & (g - 1):
        return np.bitwise_or.reduce(sm, axis=1).view(np.uint8)
    x = np.ascontiguousarray(sm).view("<u8")
    while x.shape[1] > 1:
        x = x[:, :x.shape[1] // 2] | x[:, x.shape[1] // 2:]
    for half in ("<u4", "<u2", np.uint8):
        x = x.view(half).reshape(-1, 2)
        x = x[:, 0] | x[:, 1]
    return x


def _popcount(x: np.ndarray) -> int:
    """Set bits in a byte array of any shape: whole <u8 words, then the tail bytes."""
    b = np.ascontiguousarray(x).reshape(-1).view(np.uint8)
    words = b.size // 8 * 8
    return (int(np.bitwise_count(b[:words].view("<u8")).sum())
            + int(np.bitwise_count(b[words:]).sum()))


def bcs_size(indexes: np.ndarray, group_size: int) -> int:
    """Bcs size in bits for these group indexes: 8 each plus G per column."""
    return 8 * len(indexes) + group_size * _popcount(indexes)


class _Unpacked(NamedTuple):
    """A bcs payload that pack_columns has not packed yet: its (n_groups, G)
    sign-magnitude bytes."""
    sm_bits: np.ndarray


class _Columns:
    """The `columns` field of CompressedLayer: a deferred payload packs on its
    first read and drops its groups; an assigned payload replaces it."""

    def __get__(self, cl, owner=None):
        if cl is None:
            return None  # the field's default
        payload = cl.__dict__["_columns"]
        if isinstance(payload, _Unpacked):
            payload = cl.__dict__["_columns"] = pack_columns(payload.sm_bits, cl.indexes)
        return payload

    def __set__(self, cl, value):
        cl.__dict__["_columns"] = value


@dataclass
class CompressedLayer:
    """Bit-column-compressed (or dense passthrough) payload of one layer.

    BCS mode keeps, per group, the 8-bit index plus ceil(G/8) bytes for each
    surviving column (element j at bit j%8 of byte j//8). The fields are the
    container record's: it stores no tensor shape, so decompress_layer takes
    the dims from the manifest. A bcs layer from compress_layer packs
    `columns` on its first read (see the module docstring); its column count
    is the index popcount either way.
    """

    name: str
    group_size: int
    mode: str  # "dense" | "bcs"
    n_values: int
    n_groups: int
    indexes: np.ndarray | None = None    # (n_groups,) uint8
    columns: np.ndarray | None = _Columns()  # (total columns, ceil(G/8)) uint8
    dense_values: np.ndarray | None = None  # flat int8, K-major

    def __post_init__(self):
        if self.mode not in ("dense", "bcs"):
            raise ContainerError(f"unknown mode {self.mode!r}")
        if self.group_size not in GROUP_SIZES:
            raise ContainerError(f"group size {self.group_size} not in {GROUP_SIZES}")
        if self.n_values == 0:
            raise ContainerError(f"layer {self.name!r} holds no values")
        if not math.ceil(self.n_values / self.group_size) <= self.n_groups <= self.n_values:
            raise ContainerError(f"layer {self.name!r}: {self.n_groups} groups cannot hold "
                                 f"{self.n_values} values at G={self.group_size}")
        if self.mode == "bcs":
            if self.indexes is None or self.__dict__["_columns"] is None:
                raise ContainerError("bcs layer needs indexes and columns")
            if len(self.indexes) != self.n_groups:
                raise ContainerError("index count does not match group count")
            payload = self.__dict__["_columns"]  # a deferred payload holds one column per set bit
            if not isinstance(payload, _Unpacked) and _popcount(self.indexes) != len(payload):
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
        return self.dense_bits if self.mode == "dense" else bcs_size(self.indexes, self.group_size)

    @property
    def payload_bits(self) -> int:
        """Bits of the column payload alone (no index)."""
        return self.dense_bits if self.mode == "dense" else self.group_size * _popcount(self.indexes)


_BLOCK_WORDS = 1 << 14  # <u8 words per _transpose8 block: 128 KiB stays in L2


def _transpose8(words: np.ndarray) -> np.ndarray:
    """Transpose each <u8 word in place as an 8x8 bit matrix: byte i, bit j <-> byte j, bit i.

    Three delta swaps (Hacker's Delight, 7-3) per block of about _BLOCK_WORDS
    words (whole rows of a 2-D array), so the block stays in cache across
    the swaps; the kernel is its own inverse. Returns `words`.
    """
    step = max(1, _BLOCK_WORDS // math.prod(words.shape[1:]))
    t_all = np.empty_like(words[:step])
    for start in range(0, len(words), step):
        block = words[start:start + step]
        t = t_all[:len(block)]
        for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                            (28, 0x00000000F0F0F0F0)):
            np.right_shift(block, shift, out=t)
            t ^= block
            t &= mask
            block ^= t
            t <<= shift
            block ^= t
    return words


def pack_columns(sm_bits: np.ndarray, indexes: np.ndarray) -> np.ndarray:
    """Pack the surviving columns, group-major, in payload order."""
    n, g = sm_bits.shape
    cb = math.ceil(g / 8)
    # the payload outlives this call: allocated after the temporaries, it
    # would pin their freed memory in the heap and raise peak RSS
    keep = _keep(indexes)
    columns = np.empty((_popcount(indexes), cb), dtype=np.uint8)
    words = np.zeros((n, cb), dtype="<u8")
    words.view(np.uint8)[:, :g] = sm_bits
    # byte s of word j: bit 7 - s of elements 8j..8j+7; a group's column item s
    # is byte s of each of its cb words, copied one word slab at a time
    planes = _transpose8(words).byteswap(inplace=True).view(np.uint8).reshape(n, cb, 8)
    items = np.empty((n, 8, cb), dtype=np.uint8)
    for j in range(cb):
        items[:, :, j] = planes[:, j]
    np.compress(keep.reshape(-1), items.view(f"<u{cb}").reshape(-1),
                out=columns.view(f"<u{cb}").reshape(-1))
    return columns


def compress_layer(values: np.ndarray, group_size: int, mode: str = "auto",
                   name: str = "") -> CompressedLayer:
    """Compress a (K, C, FY, FX) int8 tensor.

    mode "auto" picks bcs iff its index+columns size beats the dense size;
    "dense" and "bcs" force the respective payload.
    """
    if mode not in ("auto", "dense", "bcs"):
        raise ValueError(f"unknown mode {mode!r}")
    values = np.asarray(values, dtype=np.int8)
    n_values = values.size
    groups = partition_groups(values, group_size)
    sm_bits = sm_encode(groups)
    indexes = _or_index(sm_bits)
    n_groups = len(groups)

    use_bcs = mode == "bcs" or (mode == "auto" and bcs_size(indexes, group_size) < 8 * n_values)
    if not use_bcs:
        return CompressedLayer(name, group_size, "dense", n_values, n_groups,
                               dense_values=values.reshape(-1).copy())
    return CompressedLayer(name, group_size, "bcs", n_values, n_groups,
                           indexes=indexes, columns=_Unpacked(sm_bits))


def best_pack(values: np.ndarray, group_size: int | str, name: str = "") -> CompressedLayer:
    """The auto-mode compress_layer pack of best compression_ratio: at the one G
    given, or the first maximum over AUTO_GROUP_SIZES for "auto" (the smaller G
    wins ties). A layer that no candidate compresses packs dense at the first."""
    sizes = AUTO_GROUP_SIZES if group_size == "auto" else (group_size,)
    return max((compress_layer(values, g, "auto", name) for g in sizes), key=compression_ratio)


def column_offsets(cl: CompressedLayer) -> np.ndarray:
    """Row offset of each group's first column in cl.columns, plus total."""
    offs = np.zeros(cl.n_groups + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(cl.indexes), out=offs[1:])
    return offs


def unpack_groups(cl: CompressedLayer) -> np.ndarray:
    """A bcs layer's (n_groups, G) sign-magnitude bytes.

    The payload columns are scattered, under the index bits as mask, into a
    zero (n_groups, 8) array of column items; swapping the axes back,
    byteswapping and one more 8x8 bit transpose give the elements' bytes.
    Columns absent from a group's index unpack as zero bits, so bit 7 is set
    only in groups whose index carries the sign column.
    """
    g, cb, n = cl.group_size, cl.column_bytes, cl.n_groups
    offs = column_offsets(cl)
    if offs[-1] != len(cl.columns):
        raise ContainerError(f"layer {cl.name!r}: index/payload length mismatch")
    sm = np.empty((n, 8 * cb), dtype=np.uint8)  # before the temporaries, as in packing
    items = np.zeros((n, 8), dtype=f"<u{cb}")
    items.reshape(-1)[np.flatnonzero(_keep(cl.indexes))] = \
        np.ascontiguousarray(cl.columns, dtype=np.uint8).view(f"<u{cb}").reshape(-1)
    sm.reshape(n, cb, 8)[...] = items.view(np.uint8).reshape(n, 8, cb).transpose(0, 2, 1)
    _transpose8(sm.view("<u8").byteswap(inplace=True))
    return sm[:, :g]


def nz_columns(cl: CompressedLayer, sign: bool = False) -> np.ndarray:
    """Per-group count of scheduled columns: the non-zero magnitude columns,
    plus the sign column when `sign` is set and the column is non-zero.

    A dense-mode group streams all 8 columns.
    """
    if cl.mode == "dense":
        return np.full(cl.n_groups, 8, dtype=np.int64)
    return np.bitwise_count(cl.indexes & (0xFF if sign else 0x7F)).astype(np.int64)


def decompress_layer(cl: CompressedLayer, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Exact inverse of compress_layer (post-clamp when -128 occurred).

    The (K, C, FY, FX) tensor dims, which strip the channel padding, come
    from the manifest: the layer record does not hold them.
    """
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
    denom = cl.bcs_bits if include_index else cl.payload_bits
    if denom == 0:
        return math.inf
    return cl.dense_bits / denom


def zre_size(values: np.ndarray) -> int:
    """Zero run-length encoding size in bits: 12 per entry (4-bit run + 8-bit value).

    Runs longer than 15 split by emitting a (15, 0) entry, which covers 16
    zeros; trailing zeros close with a (run-1, 0) entry. So the entries are
    the non-zeros, floor(L/16) per zero run of length L, and one more when the
    trailing run's length is no multiple of 16. A run of L >= 16 zeros holds
    L - 15 consecutive starts of an all-zero 16-wide window, so floor(L/16) =
    ceil((L - 15)/16) over the runs of the window mask, which has few.
    """
    zero = np.asarray(values).reshape(-1) == 0
    win = zero  # win[i]: values i .. i+w-1 are all zero, for w = 1, 2, 4, 8, then 16
    for w in (1, 2, 4, 8):
        win = win[:-w] & win[w:]
    starts = np.flatnonzero(win)
    last = np.flatnonzero(np.diff(starts) != 1)  # the last start of each window run but one
    widths = np.diff(last, prepend=-1, append=starts.size - 1)  # L - 15 per run of L >= 16
    entries = zero.size - int(np.count_nonzero(zero)) + int(((widths + 15) // 16).sum())
    if win.size and win[-1]:  # a trailing run of widths[-1] + 15 zeros
        entries += bool((widths[-1] + 15) % 16)
    elif zero.size and zero[-1]:  # a trailing run of 1 to 15 zeros
        entries += 1
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


class SparsityStats(NamedTuple):
    """Per-layer sparsity summary at a given group size.

    Column sparsities are fractions of zero columns over 8 * n_groups
    columns, under each encoding. Sparsity ratios (bit / value sparsity)
    are inf when the tensor has no zero values.
    """

    n_values: int
    group_size: int
    value_sparsity: float
    bit_sparsity_tc: float
    bit_sparsity_sm: float
    column_sparsity_tc: float
    column_sparsity_sm: float
    sr_tc: float
    sr_sm: float


def sparsity_stats(values: np.ndarray, group_sizes: Sequence[int]) -> list[SparsityStats]:
    """One layer's SparsityStats at each G of `group_sizes`, in order, from one encode."""
    values = np.asarray(values, dtype=np.int8)
    n = values.size
    if n == 0:
        raise ValueError("empty tensor")
    value_sp = float(np.count_nonzero(values == 0) / n)
    if not set(group_sizes) <= set(GROUP_SIZES):
        raise ValueError(f"group sizes {list(group_sizes)} not all in {GROUP_SIZES}")
    if not group_sizes:
        return []
    g = min(group_sizes)  # the zero padding has no set bits in either encoding
    tc = partition_groups(values, g)
    sm = sm_encode(tc)
    bit_tc, bit_sm = (1.0 - _popcount(x) / (8 * n) for x in (tc, sm))
    sr_tc, sr_sm = (b / value_sp if value_sp > 0 else math.inf for b in (bit_tc, bit_sm))
    idx = [_or_index(x).reshape(-1, math.ceil(values.shape[1] / g))
           for x in (tc, sm)]  # one row of blocks per (k, fy, fx)
    stats = {}
    for target in sorted(set(group_sizes)):
        while g < target:  # block j at 2G covers blocks 2j and 2j+1 at G
            g *= 2
            if idx[0].shape[1] % 2:  # an odd row gets a zero block
                idx = [np.pad(x, [(0, 0), (0, 1)]) for x in idx]
            idx = [x[:, 0::2] | x[:, 1::2] for x in idx]
        set_tc, set_sm = (_popcount(x) for x in idx)
        n_cols = 8 * idx[0].size
        stats[g] = SparsityStats(n, g, value_sp, bit_tc, bit_sm, 1.0 - set_tc / n_cols,
                                 1.0 - set_sm / n_cols, sr_tc, sr_sm)
    return [stats[g] for g in group_sizes]
