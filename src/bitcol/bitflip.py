"""Retraining-free bit-flip enhancement of bit-column sparsity.

Per group, the solver finds the minimum-squared-error vector whose
zero-column index has at least z zero bits. Groups that already have z zero
columns keep their values. For the others, a candidate zeroes a set of
index bits and rounds each element to its nearest value under them, which
is optimal for that set. Zeroing more bits only shrinks what a group can
take, so an optimum zeroes exactly z bits: z magnitude columns with the
sign free, or the sign column (values >= 0) and z-1 magnitude columns.
These C(7,z) + C(7,z-1) candidates are feasible by construction.

Kernel: per z, one row of squared errors over every candidate for each of
the 256 int8 values, built once. One chunked pass over the groups to flip
sums their elements' rows over blocks of a given width. The solver's
blocks are whole groups, and argmin picks each group's candidate.

The proxy search needs only a layer's total error, at each of several G.
A candidate rounds each element on its own, so a 2g-group's error row is
the sum of its two g-halves' rows: the pass partitions at the largest G,
sums rows over blocks of the smallest, and folds the rows in pairs, adding
each size's row minima on the way. Padding rounds to 0 at no error, and a
group that already has z zero columns has a zero-error candidate, so the
totals equal flip_layer's.

Ties: the first candidate of minimum error wins (argmin's first minimum),
sign-restricted before sign-free, each by ascending zeroed-column tuple; an
element rounds to the smaller magnitude, then to its own sign.

A network-level greedy search (one committed (layer, group size, z+1) move
per sweep, driven by an accuracy oracle) tunes per-layer constraints. Both
oracles read a strategy from one (layer, G, z) table, each key filled once.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
from itertools import combinations
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import codec, model_io
from .workload import ManifestError, Network, OracleError, check_layer_names

Strategy = dict[str, tuple[int, int]]  # layer name -> (group size, zero columns)

_TABLES: dict[bool, np.ndarray] = {}
_ROWS: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_CHUNK_SUMS = 1 << 18  # (block, candidate) error sums an _error_chunks chunk holds


def _nearest_table(nonneg: bool) -> np.ndarray:
    """(128 masks, 256 values) lookup of the nearest representable value.

    Entry [m, v+128] minimizes |v - v'| over v' whose magnitude is a submask
    of m (sign free, or restricted to v' >= 0). Ties prefer smaller |v'|,
    then no sign change.
    """
    if not _TABLES:
        # mag[m, a]: nearest magnitude under mask m to a in 0..128, ties to the
        # smaller; 128 (|-128|) is never a submask, so only its lower side counts
        a = np.arange(129)
        allowed = (a & ~np.arange(128)[:, None]) == 0
        below = np.maximum.accumulate(np.where(allowed, a, 0), axis=1)
        above = np.minimum.accumulate(np.where(allowed, a, 1 << 9)[:, ::-1], axis=1)[:, ::-1]
        mag = np.where(a - below <= above - a, below, above).astype(np.int8)
        v = np.arange(-128, 128)
        near = mag[:, np.abs(v)]
        _TABLES[False] = np.where(v < 0, -near, near)
        _TABLES[True] = np.where(v < 0, 0, near).astype(np.int8)
    return _TABLES[nonneg]


def _candidate_rows(z: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidates zeroing exactly z >= 1 bits: their (candidates, 256) nearest
    values and (256 values, candidates) uint16 squared errors (at most 128**2).

    Raises RuntimeError if a candidate's nearest value sets a column that the
    candidate zeroes: then a group rounded under it could keep < z zero columns.
    """
    if z not in _ROWS:
        cands = [(nonneg, sum(1 << c for c in cols))
                 for nonneg, n_mag in ((True, z - 1), (False, z))
                 for cols in combinations(range(7), n_mag)]
        tables = np.array([_nearest_table(nonneg)[0x7F ^ mags] for nonneg, mags in cands])
        zeroed = np.array([0x80 * nonneg | mags for nonneg, mags in cands], dtype=np.uint8)
        if (codec.sm_encode(tables) & zeroed[:, None]).any():
            raise RuntimeError(f"a z={z} candidate sets a column it zeroes")
        sq = (tables.astype(np.int32) - np.arange(-128, 128)) ** 2
        _ROWS[z] = tables, np.ascontiguousarray(sq.T, dtype=np.uint16)
    return _ROWS[z]


def _check_z(z: int) -> None:
    if not 0 <= z <= 8:
        raise ValueError("z must be in [0, 8]")


def _error_sums(vidx: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(n, candidates) int32 squared errors of n groups given as (n, G) value
    indexes (v + 128): the sum of each group's elements' error rows."""
    e = sq[vidx[:, 0]].astype(np.int32)
    for col in vidx.T[1:]:  # a group's error is at most 64 * 128**2
        e += sq[col]
    return e


def _error_chunks(groups: np.ndarray, idx: np.ndarray, z: int, width: int):
    """Yield (rows, vidx, e) for each chunk of the (n, G) int8 groups whose
    indexes idx have more than 8 - z set bits: the chunk's row numbers, its
    (rows, G) value indexes (v + 128), and the _error_sums rows of its blocks
    of `width` elements (G / width consecutive rows per group)."""
    todo = np.flatnonzero(np.bitwise_count(idx) > 8 - z)
    if todo.size:
        sq = _candidate_rows(z)[1]
        step = max(1, _CHUNK_SUMS // (sq.shape[1] * (groups.shape[1] // width)))
        for start in range(0, todo.size, step):
            rows = todo[start:start + step]
            vidx = groups[rows].view(np.uint8) ^ 0x80
            yield rows, vidx, _error_sums(vidx.reshape(-1, width), sq)


def _solve_groups(groups: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-squared-error flip of every group to >= z zero index bits.

    Returns (flipped groups, achieved indexes, per-group squared error).
    """
    _check_z(z)
    flipped = np.array(groups, dtype=np.int8)
    err = np.zeros(len(flipped), dtype=np.int64)
    idx = codec.column_index(flipped)
    for rows, vidx, e in _error_chunks(flipped, idx, z, flipped.shape[1]):
        pick = e.argmin(axis=1)  # first minimum: the candidate order is the tie rule
        err[rows] = e[np.arange(rows.size), pick]
        flipped[rows] = _candidate_rows(z)[0][pick[:, None], vidx]
        idx[rows] = codec.column_index(flipped[rows])
    return flipped, idx, err


def _sse_by_group_size(values: np.ndarray, z: int, sizes) -> dict[int, int]:
    """flip_layer(values, g, z).total_sq_error for each g in sizes (powers of
    two), from one pass over the groups at the largest size."""
    _check_z(z)
    lo, hi = min(sizes), max(sizes)
    groups = codec.sm_clamp(codec.partition_groups(values, hi))
    sse = dict.fromkeys(sizes, 0)
    for _, _, e in _error_chunks(groups, codec.column_index(groups), z, lo):
        g = lo
        while True:
            if g in sse:
                sse[g] += int(e.min(axis=1).sum(dtype=np.int64))
            if g == hi:
                break
            e = e[0::2] + e[1::2]  # rows of adjacent blocks of one group
            g *= 2
    return sse


class FlipResult(NamedTuple):
    values: np.ndarray            # flipped (K, C, FY, FX) int8 tensor
    indexes: np.ndarray           # (n_groups,) achieved zero-column indexes
    total_sq_error: int
    max_abs_error: int
    zero_col_hist: np.ndarray     # (9,) groups by achieved zero-bit count
    compression_ratio: float      # real CR of the achieved indexes at the same G
    group_size: int
    zero_cols: int


def flip_layer(values: np.ndarray, group_size: int, z: int) -> FlipResult:
    """Flip every group of a layer independently to >= z zero index bits.

    Error is measured against the sign-magnitude-clamped input (-128 reads
    as -127, matching the codec); |error| <= 254, so it is taken in int16.
    The error statistics come from the groups that the solver changed (those
    of non-zero squared error): every other group has zero error.
    """
    values = np.asarray(values, dtype=np.int8)
    groups = codec.partition_groups(values, group_size)
    clamped = codec.sm_clamp(groups)
    flipped, idx, err = _solve_groups(clamped, z)
    zero_bits = 8 - np.bitwise_count(idx)
    if zero_bits.min(initial=8) < z:
        raise RuntimeError(f"flip left a group with {zero_bits.min()} < z={z} zero columns")
    changed = np.flatnonzero(err)
    return FlipResult(
        values=codec.unpartition_groups(flipped, values.shape),
        indexes=idx,
        total_sq_error=int(err.sum()),
        max_abs_error=int(np.abs(np.subtract(flipped[changed], clamped[changed],
                                             dtype=np.int16)).max(initial=0)),
        zero_col_hist=np.bincount(zero_bits, minlength=9),
        compression_ratio=8 * values.size / codec.bcs_size(idx, group_size),
        group_size=group_size,
        zero_cols=z,
    )


def default_strategy(net: Network, group_size: int = 8, z: int = 0) -> Strategy:
    return {l.name: (group_size, z) for l in net.layers}


def apply_strategy(net: Network, strategy: Mapping[str, tuple[int, int]]
                   ) -> tuple[Network, dict[str, FlipResult]]:
    """Flip every layer of a network per its (group size, z) entry."""
    check_layer_names(net, strategy)
    results = {l.name: flip_layer(l.weights, *strategy[l.name]) for l in net.layers}
    return net.with_weights({name: res.values for name, res in results.items()}), results


def _strategy_table(net: Network, fill: Callable[[np.ndarray, int, int], Mapping]) -> Callable:
    """Per-layer entries of a strategy, in layer order, from one table over
    (layer, G, z). A missing key is filled by fill(weights, G, z), which
    returns {G': entry} for that layer and z, with G among its keys.

    A strategy must name exactly the network's layers (OracleError otherwise).
    """
    weights = {l.name: l.weights for l in net.layers}
    table: dict[tuple[str, int, int], object] = {}

    def lookup(strategy: Mapping[str, tuple[int, int]]) -> list:
        if strategy.keys() != weights.keys():
            check_layer_names(net, strategy, OracleError)
        out = []
        for name, w in weights.items():
            key = (name, *strategy[name])
            entry = table.get(key)
            if entry is None:
                for g, value in fill(w, *key[1:]).items():
                    table[name, g, key[2]] = value
                entry = table[key]
            out.append(entry)
        return out

    return lookup


def proxy_oracle(net: Network) -> Callable[[Mapping[str, tuple[int, int]]], float]:
    """Dataset-free metric of a strategy: -(total squared flip error / total weight count).

    The error is flip_layer's total_sq_error (against the codec-clamped
    weights), additive over layers, so only each (layer, G, z)'s error is
    kept. A miss at a G in AUTO_GROUP_SIZES scores all of them for that
    (layer, z) in one _sse_by_group_size pass; any other G is scored alone.
    """
    auto = codec.AUTO_GROUP_SIZES
    sse = _strategy_table(net, lambda w, g, z: _sse_by_group_size(
        w, z, auto if g in auto else (g,)))
    total = net.n_weights
    return lambda strategy: -sum(sse(strategy)) / total


class ExternalOracle:
    """Runs a command on the network flipped per a strategy and parses the metric.

    The template's `{manifest}` placeholder receives the path of a freshly
    written manifest of apply_strategy's network; the metric is the last
    non-empty line of standard output parsed as a decimal float.
    """

    def __init__(self, command_template: str, net: Network):
        self.argv = shlex.split(command_template)
        if not self.argv:
            raise OracleError("empty oracle command")
        self.net = net
        self._flipped = _strategy_table(net, lambda w, g, z: {g: flip_layer(w, g, z).values})

    def __call__(self, strategy: Mapping[str, tuple[int, int]]) -> float:
        flipped = self.net.with_weights(
            {l.name: v for l, v in zip(self.net.layers, self._flipped(strategy))})
        with tempfile.TemporaryDirectory(prefix="bitcol-oracle-") as tmp:
            manifest = model_io.save_network(flipped, Path(tmp))
            argv = [a.replace("{manifest}", str(manifest)) for a in self.argv]
            proc = subprocess.run(argv, capture_output=True)
            if proc.returncode != 0:
                stderr = proc.stderr.decode("utf-8", errors="replace").strip()
                raise OracleError(f"oracle command failed with exit {proc.returncode}: {stderr}")
            try:
                stdout = proc.stdout.decode("utf-8")
            except UnicodeDecodeError as e:
                raise OracleError(f"oracle output is not UTF-8: {e}") from None
            lines = [l for l in stdout.splitlines() if l.strip()]
            if not lines:
                raise OracleError("oracle produced no output")
            try:
                return float(lines[-1])
            except ValueError:
                raise OracleError(f"unparseable oracle output: {lines[-1]!r}") from None


def greedy_search(net: Network, initial: Mapping[str, tuple[int, int]], macc: float,
                  oracle: Callable[[Strategy], float]) -> Strategy:
    """Greedy per-sweep search for the deepest strategy above the metric floor.

    Each sweep scores, for every layer and group size, the strategy that
    bumps that layer's zero-column target by one; the single best move
    commits. Later candidates win ties, as in the reference procedure.
    Stops when the best tentative metric drops below macc or every slot is
    saturated at z=8; macc = -inf sets no floor, and a NaN macc is rejected.
    """
    if math.isnan(macc):
        raise ValueError("macc is nan; give -inf for no metric floor")
    check_layer_names(net, initial)
    strategy = {l.name: initial[l.name] for l in net.layers}
    while True:
        bacc = -math.inf
        move = None
        for name, (_, z) in strategy.items():
            if z + 1 > 8:
                continue
            for gs in codec.AUTO_GROUP_SIZES:
                metric = oracle({**strategy, name: (gs, z + 1)})
                if not math.isfinite(metric):
                    raise OracleError(f"non-finite metric {metric!r} for layer {name!r}")
                if metric >= bacc:
                    bacc = metric
                    move = (name, gs, z + 1)
        if move is None or bacc < macc:
            return strategy
        strategy[move[0]] = (move[1], move[2])


def save_strategy(strategy: Mapping[str, tuple[int, int]], path) -> None:
    lines = [f"layer={name} G={g} z={z}" for name, (g, z) in strategy.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_strategy(path) -> Strategy:
    """Read `layer=NAME G=.. z=..` lines, each layer once, as strictly as a manifest."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ManifestError(f"strategy {path} is not UTF-8: {e}") from e
    strategy: Strategy = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = model_io._parse_fields(line, lineno)
            if fields.keys() != {"layer", "G", "z"}:
                raise ValueError(f"keys {sorted(fields)}, need exactly layer, G and z")
            name, g, z = fields["layer"], int(fields["G"]), int(fields["z"])
            if g not in codec.GROUP_SIZES or not 0 <= z <= 8:
                raise ValueError(f"G={g} z={z}, need G in {codec.GROUP_SIZES} and z in 0..8")
            if name in strategy:
                raise ValueError(f"layer {name!r} is named on an earlier line")
        except ManifestError as e:  # _parse_fields names the line itself
            raise ManifestError(f"strategy {e}") from e
        except ValueError as e:
            raise ManifestError(f"strategy line {lineno}: {e}") from e
        strategy[name] = (g, z)
    return strategy
