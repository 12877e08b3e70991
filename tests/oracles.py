"""Reference versions of vectorized library code.

The wave walk and the SU1 bank layout are written as they were before the
engine, perf and the mapper moved onto one bit-plane unpack and one
lockstep wave kernel. They run on the engine's scalar per-group model
(packed_groups, parse_index) only, so the property tests that compare them
with the library stay independent of the code they check.
The round-trip check walks packed_groups too, rebuilding each element from
its sign and magnitude column bits, with no unpack_groups or sm_decode.

The flip solver is the sweep over all 256 (zeroed magnitude columns, sign)
candidates that the library used before it scored only the candidates
zeroing exactly z index bits; it tests every candidate's achieved index.
The loop solver scores those exact-z candidates one at a time, with a
strict-improvement update, as the library did before it scored every
candidate of a group in one pass over squared-error rows. Both build their
nearest-value tables with the per-mask loop the library used before it
derived them from one magnitude table.

The sign-magnitude decode looks each byte up in a 256-entry value table,
as the codec did before it decoded arithmetically. The encode is the
definition, in int16: the magnitude, plus bit 7 for a negative value, with
-128 read as -127.

The column packer builds every group's eight bit columns and keeps the
ones its index names, as the codec did before packing and unpacking walked
one payload slot table, and later one 8x8 bit-transpose kernel. The
reference transpose spells that kernel out bit by bit with unpackbits and
packbits.

The container reader walks a bcs payload one group at a time, finding each
group's column bytes from the index bytes before it, and checks each
layer's CRC32 over the bytes it walked; the library takes the index bytes
and the column bytes as two slices.

The two lockstep lane-set reductions of the perf model (value skipping's
slowest kernel, bit skipping's slowest lane) slice or zero-pad the lanes
into sets in Python, as they did before the library vectorized them: value
skipping as one numpy reduceat, bit skipping as one zero-padded reshape and
row max.

The greedy search and the proxy metric score flipped networks, as they did
before the search scored strategies: each candidate is a copy of the
network, and the metric rescans every weight against the clamped original.

The sparsity statistics partition and encode the layer anew for one group
size, as they did before one encode served every group size.

The ZRE size walks the stream one value at a time, emitting entries. The
CSR size builds the data, column-index and row-pointer arrays row by row.

The perf model's dense counts are the streaming model of the perf
module's docstring, spelled out with their own temporal-step count: the
ceiling of each loop dimension over its unroll, multiplied out.

The perf model's per-layer evaluation copies every dense count into an
effective-counts record divided by CR, overwrites the effective MACs,
cycles and register traffic, sums energy and latency terms from that
record, and patches the weight-port term of bit-column skipping afterwards,
as it did before one record was built from each effective quantity computed
once.
"""

import math
import struct
import zlib
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from bitcol import codec, engine, perf
from bitcol.codec import (GROUP_SIZES, CompressedLayer, SparsityStats, partition_groups,
                          sm_encode)
from bitcol.model_io import MAGIC, VERSION
from bitcol.workload import ContainerError
from bitcol.bitflip import flip_layer
from bitcol.engine import CycleCount, packed_groups
from bitcol.mapper import check_kind_compatible
from bitcol.perf import EnergyBreakdown, LatencyTerms
from bitcol.workload import MappingError, OracleError, check_layer_names


POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)  # set bits per byte
SM_VALUE = np.r_[0:128, 0:-128:-1].astype(np.int8)  # the value of each sign-magnitude byte


def sm_decode(bits) -> np.ndarray:
    return SM_VALUE[np.asarray(bits, dtype=np.uint8)]


def sm_bytes(values) -> np.ndarray:
    """Sign-magnitude bytes of int8 values: |v| with bit 7 for v < 0, -128 as -127."""
    v = np.clip(np.asarray(values, dtype=np.int16), -127, 127)
    return np.where(v < 0, 0x80 - v, v).astype(np.uint8)


def transpose8(words: np.ndarray) -> np.ndarray:
    """Each <u8 word as an 8x8 bit matrix (byte i, bit j), transposed bit by bit."""
    rows = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8, 1)
    bits = np.unpackbits(rows, axis=2, bitorder="little")  # [word, byte i, bit j]
    out = np.packbits(bits.transpose(0, 2, 1), axis=2, bitorder="little")
    return np.ascontiguousarray(out.reshape(-1, 8)).view("<u8").reshape(np.shape(words))


def pack_columns(sm_bits: np.ndarray, indexes: np.ndarray) -> np.ndarray:
    """Pack surviving columns, group-major, sign column first then bit 6..0."""
    n, g = sm_bits.shape
    # (n, 8, G) column bits ordered bit 7 down to bit 0
    shifts = np.arange(7, -1, -1, dtype=np.uint8)
    colbits = (sm_bits[:, None, :] >> shifts[None, :, None]) & 1
    packed = np.packbits(colbits.reshape(n * 8, g), axis=1, bitorder="little")
    packed = packed.reshape(n, 8, -1)
    keep = ((indexes[:, None] >> shifts[None, :]) & 1).astype(bool)
    return packed[keep]


def _group_nz(cl, sign_cycle):
    if cl.mode == "dense":
        return np.full(cl.n_groups, 8, dtype=np.int64)
    nz = POPCOUNT[cl.indexes & 0x7F].astype(np.int64)
    if sign_cycle:
        nz += (cl.indexes >> 7) & 1
    return nz


def simulate_layer(cl, shape, su, sign_cycle=False):
    """Lockstep cycle accounting of one layer on one spatial unrolling.

    Groups co-scheduled across the kernel lanes of a wave advance at the
    slowest lane's non-zero column count; the difference is reported as
    barrier loss in lane-cycles.
    """
    check_kind_compatible(shape, su)
    if shape.n_weights != cl.n_values:
        raise MappingError(f"layer {cl.name!r}: container does not match layer shape")
    nz = _group_nz(cl, sign_cycle)
    blocks = math.ceil(shape.c / cl.group_size)
    positions = shape.fy * shape.fx
    if cl.n_groups != shape.k * positions * blocks:
        raise MappingError(f"layer {cl.name!r}: group count does not match layer shape")

    if su.g_u:  # depthwise unrolling: lanes run across kernel groups
        lanes, repeat = su.g_u, 1
    else:
        if cl.group_size % su.c_u != 0:
            raise MappingError(
                f"group size {cl.group_size} is not a multiple of the unrolled "
                f"channels C_u={su.c_u} of {su.id}")
        lanes, repeat = su.k_u, cl.group_size // su.c_u

    # walk the schedule wave by wave; a wave co-schedules the groups of one
    # channel block across the kernel lanes
    wave_max_sum = 0
    loss = 0
    n_waves = 0
    for pos in range(positions):
        for k0 in range(0, shape.k, lanes):
            kernels = range(k0, min(k0 + lanes, shape.k))
            for cb in range(blocks):
                wave = [int(nz[(k * positions + pos) * blocks + cb]) for k in kernels]
                step = max(wave)
                wave_max_sum += step
                loss += sum(step - w for w in wave)
                n_waves += 1

    t_out = math.ceil(shape.ox / su.ox_u) * shape.oy * shape.b
    return CycleCount(
        group_cycles=nz,
        total_cycles=wave_max_sum * repeat * t_out,
        barrier_loss=loss * repeat * t_out,
        wave_max_sum=wave_max_sum,
        n_waves=n_waves,
        t_out=t_out,
        group_repeat=repeat,
    )



def verify_layer(cl, values):
    """Round-trip check, one group and one element at a time: the number of
    groups with an element whose stored value differs from the manifest's
    (-128 read as -127; channel padding compared with 0). A bcs element is
    rebuilt from its bit in each stored magnitude column and its sign bit.
    """
    g = cl.group_size
    want = partition_groups(values, g)
    if cl.mode == "dense":
        got = partition_groups(cl.dense_values.reshape(values.shape), g)
        return sum(any(int(a) != int(b) for a, b in zip(row, ref)) for row, ref in zip(got, want))
    mismatches = 0
    for pg, ref in zip(packed_groups(cl), want):
        for j in range(g):
            magnitude = sum(int(col[j]) << sig for sig, col in pg.columns.items())
            value = -magnitude if pg.sign_bits[j] else magnitude
            if value != max(int(ref[j]), -127):
                mismatches += 1
                break
    return mismatches


def weight_bank_layout(cl, shape, su):
    """SU1 weight-bank schedule: per cycle, 4 bank segments of 64 bits.

    Each segment carries one same-significance bit from 8 consecutive input
    channels across 8 consecutive kernels (element = channel i, kernel j at
    bit i + 8*j). Kernel groups co-scheduled in a wave advance in lockstep,
    so one group's surviving columns occupy consecutive cycle slots; dense
    mode streams 8 slots per group, significance descending (sign first).
    """
    if su.id != "SU1":
        raise MappingError("the weight-bank layout is defined for SU1 only")
    if cl.group_size % su.c_u != 0:
        raise MappingError(f"group size {cl.group_size} incompatible with C_u={su.c_u}")

    g = cl.group_size
    blocks = math.ceil(shape.c / g)
    positions = shape.fy * shape.fx
    slices = g // su.c_u

    if cl.mode == "bcs":
        schedules = []
        for pg in engine.packed_groups(cl):
            parsed = engine.parse_index(pg.index)
            sched = (["sign"] if parsed.sign_rqst else []) + list(parsed.schedule)
            bits = {}
            if parsed.sign_rqst:
                bits["sign"] = pg.sign_bits
            bits.update(pg.columns)
            schedules.append((sched, bits))
    else:
        groups = codec.partition_groups(cl.dense_values.reshape(shape.weight_dims), g)
        sm = codec.sm_encode(groups)
        schedules = []
        for row in sm:
            sched = ["sign"] + list(range(6, -1, -1))
            bits = {"sign": (row >> 7) & 1}
            for b in range(7):
                bits[b] = (row >> b) & 1
            schedules.append((sched, bits))

    def group_at(k, pos, cb):
        return (k * positions + pos) * blocks + cb

    rows = []
    cycle = 0
    kb_count = math.ceil(shape.k / su.k_u)
    for pos in range(positions):
        for kb in range(kb_count):
            k0 = kb * su.k_u
            kernels = range(k0, min(k0 + su.k_u, shape.k))
            for cb in range(blocks):
                slots = max(len(schedules[group_at(k, pos, cb)][0]) for k in kernels)
                for sl in range(slices):
                    c_base = cb * g + sl * su.c_u
                    for t in range(slots):
                        for bank in range(4):
                            seg = 0
                            sigs = []
                            for j in range(8):
                                k = k0 + bank * 8 + j
                                if k >= shape.k:
                                    sigs.append("-")
                                    continue
                                sched, bits = schedules[group_at(k, pos, cb)]
                                if t >= len(sched):
                                    sigs.append("-")
                                    continue
                                sig = sched[t]
                                sigs.append(str(sig))
                                col = np.asarray(bits[sig])[sl * su.c_u:(sl + 1) * su.c_u]
                                for i in range(su.c_u):
                                    seg |= int(col[i]) << (i + 8 * j)
                            rows.append({
                                "cycle": cycle,
                                "bank": bank,
                                "k_base": k0 + bank * 8,
                                "c_base": c_base,
                                "significance": ",".join(sigs),
                                "segment": f"{seg:016x}",
                            })
                        cycle += 1
    return rows


_TABLES: dict[bool, np.ndarray] = {}


def _nearest_table(nonneg: bool) -> np.ndarray:
    """(128 masks, 256 values) lookup of the nearest representable value.

    Entry [m, v+128] minimizes |v - v'| over v' whose magnitude is a submask
    of m (sign free, or restricted to v' >= 0). Ties prefer smaller |v'|,
    then no sign change.
    """
    if nonneg in _TABLES:
        return _TABLES[nonneg]
    mags = np.arange(128, dtype=np.int16)
    v = np.arange(-128, 128, dtype=np.int16)
    table = np.zeros((128, 256), dtype=np.int8)
    for mask in range(128):
        allowed = mags[(mags & ~mask & 0x7F) == 0]
        cands = allowed if nonneg else np.unique(np.concatenate([allowed, -allowed]))
        dist = np.abs(v[:, None] - cands[None, :]).astype(np.int32)
        sign_change = ((cands[None, :] < 0) != (v[:, None] < 0)).astype(np.int32)
        score = dist * 2048 + np.abs(cands[None, :]) * 8 + sign_change
        table[mask] = cands[np.argmin(score, axis=1)].astype(np.int8)
    _TABLES[nonneg] = table
    return table


def _candidate_tables(z: int) -> np.ndarray:
    """(candidates, 256) nearest values of the candidates zeroing exactly z >= 1 bits."""
    return np.array([_nearest_table(nonneg)[0x7F ^ sum(1 << c for c in cols)]
                     for nonneg, n_mag in ((True, z - 1), (False, z))
                     for cols in combinations(range(7), n_mag)])


def solve_groups_loop(groups: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-squared-error flip of every group to >= z zero index bits.

    Returns (flipped groups, achieved indexes, per-group squared error).
    """
    if not 0 <= z <= 8:
        raise ValueError("z must be in [0, 8]")
    flipped = np.array(groups, dtype=np.int8)
    err = np.zeros(len(flipped), dtype=np.int64)
    idx = codec.column_index(flipped)
    todo = np.flatnonzero(POPCOUNT[idx] > 8 - z)
    if todo.size:
        tables = _candidate_tables(z)
        v = np.arange(-128, 128, dtype=np.int32)
        sq = (tables.astype(np.int32) - v) ** 2
        vidx = flipped[todo].astype(np.intp) + 128
        best = np.full(todo.size, np.iinfo(np.int32).max, dtype=np.int32)
        pick = np.zeros(todo.size, dtype=np.intp)
        for c, row in enumerate(sq):  # a group's error is at most 64 * 127**2
            e = row[vidx].sum(axis=1, dtype=np.int32)
            better = e < best
            best[better] = e[better]
            pick[better] = c
        flipped[todo] = tables[pick[:, None], vidx]
        err[todo] = best
        idx[todo] = codec.column_index(flipped[todo])
    return flipped, idx, err


# Candidate order: fewer zeroed columns first, within a size ascending by
# significance (lexicographic), sign-free before sign-restricted. The first
# strict improvement wins, which makes ties deterministic.
_SUBSET_ORDER: list[tuple[int, bool]] = []
for _r in range(8):
    for _cols in combinations(range(7), _r):
        _mask = sum(1 << c for c in _cols)
        _SUBSET_ORDER.append((_mask, False))
        _SUBSET_ORDER.append((_mask, True))


def solve_groups(groups: np.ndarray, z: int, include_sign: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-squared-error flip of every group to >= z zero index bits.

    Returns (flipped groups, achieved indexes, per-group squared error,
    zeroed-column masks with bit 7 marking a sign-restricted candidate).
    """
    if not 0 <= z <= 8:
        raise ValueError("z must be in [0, 8]")
    groups = np.asarray(groups, dtype=np.int8)
    n, _ = groups.shape
    vidx = groups.astype(np.int16) + 128
    g32 = groups.astype(np.int32)

    best_err = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    best_flip = np.zeros_like(groups)
    best_idx = np.zeros(n, dtype=np.uint8)
    best_mask = np.zeros(n, dtype=np.uint8)

    for mag_mask, sign_forced in _SUBSET_ORDER:
        if sign_forced and not include_sign:
            continue
        table = _nearest_table(sign_forced)[0x7F ^ mag_mask]
        flip = table[vidx]
        bits = codec.sm_encode(flip)
        idx = np.bitwise_or.reduce(bits, axis=1)
        feasible = (8 - POPCOUNT[idx]) >= z
        if not feasible.any():
            continue
        err = ((g32 - flip.astype(np.int32)) ** 2).sum(axis=1, dtype=np.int64)
        upd = feasible & (err < best_err)
        if upd.any():
            best_err[upd] = err[upd]
            best_flip[upd] = flip[upd]
            best_idx[upd] = idx[upd]
            best_mask[upd] = mag_mask | (0x80 if sign_forced else 0)
            if not best_err.any():  # every group flips error-free
                break
    return best_flip, best_idx, best_err, best_mask


def read_compressed(path: str | Path) -> list[CompressedLayer]:
    """Read a container; returned layers carry no tensor dims (see codec), and
    a name read twice is rejected."""
    data = Path(path).read_bytes()
    if len(data) < 5 or data[:4] != MAGIC:
        raise ContainerError(f"{path}: bad magic")
    if data[4] != VERSION:
        raise ContainerError(f"{path}: unsupported version {data[4]}")
    pos = 5
    layers = []
    while pos < len(data):
        if pos + 2 > len(data):
            raise ContainerError(f"{path}: truncated layer header")
        (nlen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + nlen + 10 > len(data):
            raise ContainerError(f"{path}: truncated layer header")
        name = data[pos:pos + nlen].decode("utf-8")
        if any(cl.name == name for cl in layers):
            raise ContainerError(f"{path}: container names layer {name!r} twice")
        pos += nlen
        gsize = data[pos]
        mode = data[pos + 1]
        pos += 2
        n_values, n_groups = struct.unpack_from("<II", data, pos)
        pos += 8
        if gsize not in GROUP_SIZES:
            raise ContainerError(f"{path}: layer {name!r} has invalid group size {gsize}")
        if mode not in (0, 1):
            raise ContainerError(f"{path}: layer {name!r} has invalid mode {mode}")
        start = pos
        if mode == 0:
            if pos + n_values > len(data):
                raise ContainerError(f"{path}: layer {name!r} payload truncated")
            dense = np.frombuffer(data, dtype=np.int8, count=n_values, offset=pos).copy()
            _check_crc(path, name, data, start, pos + n_values)
            pos += n_values + 4
            layers.append(CompressedLayer(name, gsize, "dense", n_values, n_groups,
                                          dense_values=dense))
        else:
            gb = math.ceil(gsize / 8)
            if pos + n_groups > len(data):
                raise ContainerError(f"{path}: layer {name!r} payload truncated")
            indexes = np.zeros(n_groups, dtype=np.uint8)
            cols = []
            col = pos + n_groups  # the column bytes follow all the index bytes
            for g in range(n_groups):
                idx = data[pos + g]
                indexes[g] = idx
                nbytes = int(POPCOUNT[idx]) * gb
                if col + nbytes > len(data):
                    raise ContainerError(f"{path}: layer {name!r} payload truncated")
                cols.append(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=col))
                col += nbytes
            columns = (np.concatenate(cols) if cols else np.zeros(0, dtype=np.uint8)).reshape(-1, gb)
            _check_crc(path, name, data, start, col)
            pos = col + 4
            layers.append(CompressedLayer(name, gsize, "bcs", n_values, n_groups,
                                          indexes=indexes, columns=columns))
    return layers


def _check_crc(path, name, data, start, end):
    """The u32-LE CRC32 after data[start:end] must match those bytes."""
    if end + 4 > len(data):
        raise ContainerError(f"{path}: layer {name!r} payload truncated")
    if zlib.crc32(data[start:end]) != struct.unpack_from("<I", data, end)[0]:
        raise ContainerError(f"{path}: layer {name!r} payload fails its CRC32")


def imbalance_adjust(lane_fractions, sync_lanes):
    """Mean over lane sets of the set's smallest skip fraction."""
    lanes = np.asarray(lane_fractions, dtype=float)
    sets = [lanes[i:i + sync_lanes] for i in range(0, lanes.size, sync_lanes)]
    return float(np.mean([s.min() for s in sets]))


def lockstep_bit_fraction(weights, sync_lanes):
    """Mean over lane sets of the slowest lane's two's-complement bit count / 8."""
    pops = POPCOUNT[np.ascontiguousarray(weights).view(np.uint8)].reshape(-1)
    pad = (-len(pops)) % sync_lanes
    if pad:
        pops = np.concatenate([pops, np.zeros(pad, dtype=pops.dtype)])
    return float(pops.reshape(-1, sync_lanes).max(axis=1).mean() / 8.0)


def proxy_metric(original):
    """-(squared error of a flipped network against the clamped original) / N."""
    ref = {l.name: np.clip(l.weights.astype(np.int32), -127, 127) for l in original.layers}

    def evaluate(flipped):
        sse = 0
        for layer in flipped.layers:
            if layer.name not in ref or layer.weights.shape != ref[layer.name].shape:
                raise OracleError(f"layer {layer.name!r} does not match the reference network")
            sse += int(((layer.weights.astype(np.int32) - ref[layer.name]) ** 2).sum())
        return -sse / original.n_weights

    return evaluate


def greedy_search(net, initial, macc, oracle):
    """The sweep search with `oracle` called on a flipped copy of the network."""
    check_layer_names(net, initial)
    strategy = {l.name: initial[l.name] for l in net.layers}
    cache = {}

    def flipped_weights(name, g, z):
        if (name, g, z) not in cache:
            cache[name, g, z] = flip_layer(net.layer(name).weights, g, z).values
        return cache[name, g, z]

    while True:
        committed = {l.name: flipped_weights(l.name, *strategy[l.name]) for l in net.layers}
        bacc = -math.inf
        move = None
        for name in strategy:
            for gs in codec.AUTO_GROUP_SIZES:
                z = strategy[name][1]
                if z + 1 > 8:
                    continue
                candidate = dict(committed)
                candidate[name] = flipped_weights(name, gs, z + 1)
                metric = oracle(net.with_weights(candidate))
                if not math.isfinite(metric):
                    raise OracleError(f"non-finite metric {metric!r} for layer {name!r}")
                if metric >= bacc:
                    bacc = metric
                    move = (name, gs, z + 1)
        if move is None or bacc < macc:
            return strategy
        strategy[move[0]] = (move[1], move[2])


def twos_complement_index(group: np.ndarray) -> np.ndarray | int:
    """Column index over the plain two's-complement encoding (all 8 bits)."""
    bits = np.ascontiguousarray(group, dtype=np.int8).view(np.uint8)
    idx = np.bitwise_or.reduce(bits, axis=-1)
    return int(idx) if np.ndim(idx) == 0 else idx


def sparsity_stats(values: np.ndarray, group_size: int) -> SparsityStats:
    values = np.asarray(values, dtype=np.int8)
    n = values.size
    if n == 0:
        raise ValueError("empty tensor")
    value_sp = float(np.count_nonzero(values == 0) / n)

    bit_tc = 1.0 - float(POPCOUNT[values.view(np.uint8)].sum()) / (8 * n)
    # the groups' zero padding encodes to no set bits
    groups = partition_groups(values, group_size)
    sm_bits = sm_encode(groups)
    bit_sm = 1.0 - float(POPCOUNT[sm_bits].sum()) / (8 * n)

    idx_sm = np.bitwise_or.reduce(sm_bits, axis=1)
    idx_tc = twos_complement_index(groups)
    n_cols = 8 * len(groups)
    col_sm = 1.0 - float(POPCOUNT[idx_sm].sum()) / n_cols
    col_tc = 1.0 - float(POPCOUNT[idx_tc].sum()) / n_cols

    sr_tc = bit_tc / value_sp if value_sp > 0 else math.inf
    sr_sm = bit_sm / value_sp if value_sp > 0 else math.inf
    return SparsityStats(n, group_size, value_sp, bit_tc, bit_sm, col_tc, col_sm, sr_tc, sr_sm)


def zre_size(values):
    """ZRE size in bits: 12 per entry; a non-zero closes its run of zeros,
    each full 16 zeros of a run take a (15, 0) entry, and a trailing partial
    run takes one more."""
    entries = 0
    run = 0
    for v in np.asarray(values).reshape(-1):
        if v != 0:
            entries += run // 16 + 1
            run = 0
        else:
            run += 1
    full, rest = divmod(run, 16)
    entries += full + (1 if rest else 0)
    return 12 * entries


def csr_size(values, row_length):
    """CSR size in bits of the three arrays built row by row: an 8-bit datum
    and a column index (wide enough for row_length - 1) per non-zero, and
    rows + 1 row pointers (wide enough for the non-zero count)."""
    flat = [int(v) for v in np.asarray(values).reshape(-1)]
    data, cols, pointers = [], [], [0]
    for lo in range(0, len(flat), row_length):
        for j, v in enumerate(flat[lo:lo + row_length]):
            if v:
                data.append(v)
                cols.append(j)
        pointers.append(len(data))
    return (8 * len(data) + len(cols) * (row_length - 1).bit_length()
            + len(pointers) * len(data).bit_length())


def temporal_steps(shape, su):
    """Temporal steps of a layer on `su`: the product over loop dimensions of
    ceil(dim / unroll), with G_u unrolling K on a depthwise unrolling."""
    unrolls = {"ox": su.ox_u, "k": su.g_u} if su.g_u else {"ox": su.ox_u, "k": su.k_u, "c": su.c_u}
    loops = {"b": shape.b, "k": shape.k, "c": shape.c, "oy": shape.oy, "ox": shape.ox,
             "fy": shape.fy, "fx": shape.fx}
    return math.prod(math.ceil(n / unrolls.get(dim, 1)) for dim, n in loops.items())


def perf_dense_activity(shape, spec, su):
    """STEP 1: dense counts of one layer mapped on `su`. Every streamed
    tensor moves DRAM->SRAM once per pass, where the pass count is max over
    tensors of ceil(tensor bytes / its SRAM capacity); outputs are written
    back once. Per temporal step the SU reads C_u*OX_u activation and
    C_u*K_u weight elements (G_u for C_u on a depthwise unrolling); each MAC
    makes two register reads and one write."""
    steps = temporal_steps(shape, su)
    n_mac = shape.b * shape.k * shape.c * shape.ox * shape.oy * shape.fx * shape.fy
    lanes = (su.g_u or su.c_u) * su.ox_u * su.k_u
    peak = (spec.peak_macs if spec.peak_macs is not None
            else lanes / (8 if spec.bit_serial else 1))
    util = n_mac / (steps * lanes)

    in_channels = shape.k if shape.kind == "depthwise-conv" else shape.c
    w_bytes = shape.k * shape.c * shape.fy * shape.fx
    a_bytes = (shape.b * in_channels * ((shape.ox - 1) * shape.stride + shape.fx)
               * ((shape.oy - 1) * shape.stride + shape.fy))
    o_bytes = shape.b * shape.k * shape.ox * shape.oy
    passes = max(math.ceil(w_bytes / spec.costs.weight_sram_bytes),
                 math.ceil((a_bytes + o_bytes) / spec.costs.act_sram_bytes), 1)
    per_step = su.g_u or su.c_u
    return SimpleNamespace(
        n_mac=n_mac, n_mac_cycle=peak * util, utilization=util, steps=steps, passes=passes,
        dram_read_w=w_bytes * passes, dram_read_a=a_bytes * passes, dram_write_a=float(o_bytes),
        sram_read_input=float(steps * per_step * su.ox_u),
        sram_read_weight=float(steps * per_step * su.k_u),
        sram_read_output=float(o_bytes), sram_write_input=float(a_bytes * passes),
        sram_write_weight=float(w_bytes * passes), sram_write_output=float(o_bytes),
        reg_read=2.0 * n_mac, reg_write=float(n_mac))


def perf_effective_memory(counts, cr_w, cr_a):
    """STEP 3b: memory traffic under compression (dense counts / CR). Weights
    are never written back, so their DRAM write count is 0."""
    if cr_w <= 0 or cr_a <= 0:
        raise ValueError("compression ratios must be > 0")
    eff = SimpleNamespace(**{**vars(counts), "dram_write_w": 0.0})
    eff.cr_w, eff.cr_a = cr_w, cr_a
    eff.dram_read_w = counts.dram_read_w / cr_w
    eff.dram_write_w = eff.dram_write_w / cr_w
    eff.sram_read_weight = counts.sram_read_weight / cr_w
    eff.sram_write_weight = counts.sram_write_weight / cr_w
    eff.dram_read_a = counts.dram_read_a / cr_a
    eff.dram_write_a = counts.dram_write_a / cr_a
    eff.sram_read_input = counts.sram_read_input / cr_a
    eff.sram_write_input = counts.sram_write_input / cr_a
    eff.sram_read_output = counts.sram_read_output / cr_a
    eff.sram_write_output = counts.sram_write_output / cr_a
    eff.n_mac_e = float(counts.n_mac)
    eff.cc_mac_e = counts.n_mac / counts.n_mac_cycle
    eff.reg_read_e = counts.reg_read
    eff.reg_write_e = counts.reg_write
    return eff


def perf_total_energy(eff, costs):
    """STEP 4a: unit-cost-weighted energy; memory counts are bytes, register
    accesses move 8-bit operands."""
    dram_bits = 8.0 * (eff.dram_read_w + eff.dram_read_a + eff.dram_write_w + eff.dram_write_a)
    sram_bits = 8.0 * (eff.sram_read_input + eff.sram_read_weight + eff.sram_read_output
                       + eff.sram_write_input + eff.sram_write_weight + eff.sram_write_output)
    reg_bits = 8.0 * (eff.reg_read_e + eff.reg_write_e)
    return EnergyBreakdown(
        mac=eff.n_mac_e * costs.e_mac,
        dram=dram_bits * costs.e_dram_bit,
        sram=sram_bits * costs.e_sram_bit,
        reg=reg_bits * costs.e_reg_bit,
    )


def perf_total_latency(terms):
    """STEP 4b: DRAM plus output writes, with the rest hidden under the max."""
    return terms.dram + terms.sram_write_output + max(
        terms.sram_read_input, terms.sram_read_weight,
        terms.reg_read, terms.reg_write, terms.cc_mac)


def perf_latency_terms(eff, spec, su):
    """Normalize effective access counts to port-cycles."""
    peak = max(spec.peak_macs_cycle(su), 1e-9)
    return LatencyTerms(
        dram=(eff.dram_read_w + eff.dram_read_a + eff.dram_write_w + eff.dram_write_a)
        / spec.dram_bytes_per_cycle,
        sram_write_output=eff.sram_write_output * 8.0 / su.act_bw,
        sram_read_input=eff.sram_read_input * 8.0 / su.act_bw,
        sram_read_weight=eff.sram_read_weight * 8.0 / su.w_bw,
        reg_read=eff.reg_read_e / (2.0 * peak),
        reg_write=eff.reg_write_e / peak,
        cc_mac=eff.cc_mac_e,
    )


def perf_evaluate_layer(layer, spec, su):
    """One layer's (effective counts, energy, latency terms, cycles): STEP 1
    from perf_dense_activity, the compression ratios from the library's step
    functions, STEP 2 written out here (Eq. 1/2 and the lockstep references
    above), then STEPs 3-4 through the overwritten effective-counts record
    and the after-the-fact bcs port term."""
    shape = layer.shape
    counts = perf_dense_activity(shape, spec, su)

    s_w = float(np.count_nonzero(layer.weights == 0) / layer.weights.size)
    s_a = layer.act_sparsity()
    cr_w, cl = perf.weight_compression(layer, spec)
    cr_a = perf.act_compression(layer, spec, s_a)

    mode = spec.sparsity_mode
    dense_cc = counts.n_mac / counts.n_mac_cycle
    if mode in ("none", "value-skip"):
        # Eq. 1/2: N_e = N (1 - S_a)(1 - S_w), CC = N_e / (MACs per cycle),
        # both sparsities zero when the design skips nothing
        s_w_e, s_a_e = 0.0, 0.0
        if mode == "value-skip":
            kernel_size = shape.c * shape.fy * shape.fx
            s_w_e = imbalance_adjust([np.count_nonzero(kernel == 0) / kernel_size
                                      for kernel in layer.weights], spec.sync_lanes)
            s_a_e = s_a
        n_mac_e = counts.n_mac * (1.0 - s_a_e) * (1.0 - s_w_e)
        cc = n_mac_e / counts.n_mac_cycle
    else:
        # bit and bit-column skipping keep every MAC and scale the dense cycles
        if mode == "bit-skip":
            frac = lockstep_bit_fraction(layer.weights, spec.sync_lanes)
        else:
            frac = engine.simulate_layer(cl, shape, su, spec.sign_cycle).total_cycles / dense_cc
        n_mac_e, cc = float(counts.n_mac), dense_cc * frac

    eff = perf_effective_memory(counts, cr_w, cr_a)
    eff.n_mac_e = n_mac_e
    eff.cc_mac_e = cc
    eff.s_w, eff.s_a = s_w, s_a
    # register traffic follows effective compute cycles (skipped columns and
    # skipped values both suppress the operand fetches of their cycles)
    scale = cc / dense_cc if dense_cc else 1.0
    eff.reg_read_e = counts.reg_read * scale
    eff.reg_write_e = counts.reg_write * scale

    energy = perf_total_energy(eff, spec.costs)
    terms = perf_latency_terms(eff, spec, su)
    if mode == "bit-column-skip":
        # the weight port streams one column slice per lane per cycle; index
        # bytes ride the parser side path, so the port term counts column
        # payload bits only (energy above still pays for the index via CR)
        port_bits = counts.sram_read_weight * 8.0 * cl.payload_bits / cl.dense_bits
        terms = terms._replace(sram_read_weight=port_bits / su.w_bw)
    cycles = perf_total_latency(terms)
    return eff, energy, terms, cycles
