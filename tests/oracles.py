"""Reference versions of vectorized library code.

The wave walk, the per-group exactness loop and the SU1 bank layout are
written as they were before the engine, perf and the mapper moved onto one
bit-plane unpack and one lockstep wave kernel. They run on the engine's
scalar per-group model (packed_groups, parse_index, bce_group, dot_ref)
only, so the property tests that compare them with the library stay
independent of the code they check.

The flip solver is the sweep over all 256 (zeroed magnitude columns, sign)
candidates that the library used before it scored only the candidates
zeroing exactly z index bits; it tests every candidate's achieved index.

The container reader walks a bcs payload one group at a time, as it did
before the library split each layer's records with one index-byte mask.

The two lockstep lane-set reductions of the perf model (value skipping's
slowest kernel, bit skipping's slowest lane) slice or zero-pad the lanes
into sets, as they did before each became one numpy reduceat.

The greedy search and the proxy metric score flipped networks, as they did
before the search scored strategies: each candidate is a copy of the
network, and the metric rescans every weight against the clamped original.
"""

import math
import struct
from itertools import combinations
from pathlib import Path

import numpy as np

from bitcol import codec, engine
from bitcol.codec import GROUP_SIZES, POPCOUNT, CompressedLayer
from bitcol.model_io import MAGIC, VERSION
from bitcol.workload import ContainerError
from bitcol.bitflip import _check_strategy, _nearest_table, flip_layer
from bitcol.engine import CycleCount, bce_group, dot_ref, packed_groups
from bitcol.mapper import check_kind_compatible
from bitcol.workload import MappingError, OracleError


def _group_nz(cl, sign_cycle):
    if cl.mode == "dense":
        return np.full(cl.n_groups, 8, dtype=np.int64)
    nz = codec.POPCOUNT[cl.indexes & 0x7F].astype(np.int64)
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



def verify_layer(cl, values, rng):
    """Exactness check: compare every group's engine dot against dot_ref.

    Returns the mismatch count (0 when the engine is exact). Dense-mode
    layers verify trivially against the raw values.
    """
    if cl.mode == "dense":
        stored = cl.dense_values.reshape(values.shape)
        return int(np.count_nonzero(stored != values))
    groups = codec.partition_groups(values, cl.group_size)
    clamped = np.clip(groups.astype(np.int16), -127, 127).astype(np.int8)
    mismatches = 0
    for i, pg in enumerate(packed_groups(cl)):
        acts = rng.integers(-128, 128, size=cl.group_size, dtype=np.int64)
        dot, _ = bce_group(acts, pg)
        if dot != dot_ref(acts, clamped[i]):
            mismatches += 1
    return mismatches


def weight_bank_layout(cl, shape, su, max_cycles=None):
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
        sm, _ = codec.sm_encode(groups)
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
                        if max_cycles is not None and cycle >= max_cycles:
                            return rows
    return rows


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
        bits, _ = codec.sm_encode(flip)
        idx = np.bitwise_or.reduce(bits, axis=1)
        feasible = (8 - codec.POPCOUNT[idx]) >= z
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
    """Read a container; returned layers carry no tensor dims (see codec)."""
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
        if mode == 0:
            if pos + n_values > len(data):
                raise ContainerError(f"{path}: layer {name!r} payload truncated")
            dense = np.frombuffer(data, dtype=np.int8, count=n_values, offset=pos).copy()
            pos += n_values
            layers.append(CompressedLayer(name, gsize, "dense", n_values, n_groups,
                                          dense_values=dense))
        else:
            gb = math.ceil(gsize / 8)
            indexes = np.zeros(n_groups, dtype=np.uint8)
            cols = []
            for g in range(n_groups):
                if pos >= len(data):
                    raise ContainerError(f"{path}: layer {name!r} payload truncated")
                idx = data[pos]
                pos += 1
                indexes[g] = idx
                nbytes = int(POPCOUNT[idx]) * gb
                if pos + nbytes > len(data):
                    raise ContainerError(f"{path}: layer {name!r} payload truncated")
                cols.append(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos))
                pos += nbytes
            columns = (np.concatenate(cols) if cols else np.zeros(0, dtype=np.uint8)).reshape(-1, gb)
            layers.append(CompressedLayer(name, gsize, "bcs", n_values, n_groups,
                                          indexes=indexes, columns=columns))
    return layers


def imbalance_adjust(raw_sparsity, sync_lanes, lane_fractions):
    """Mean over lane sets of the set's smallest skip fraction."""
    lanes = np.asarray(lane_fractions, dtype=float)
    if lanes.size == 0:
        return raw_sparsity
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
    _check_strategy(net, initial)
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
