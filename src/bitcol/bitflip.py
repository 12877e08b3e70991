"""Retraining-free bit-flip enhancement of bit-column sparsity.

Per group, the solver finds the minimum-squared-error vector whose
zero-column index has at least z zero bits. Groups that already have z zero
columns keep their values. For the others, a candidate zeroes a set of
index bits and rounds each element to its nearest value under them, which
is optimal for that set. Zeroing more bits only shrinks what a group can
take, so an optimum zeroes exactly z bits: z magnitude columns with the
sign free, or the sign column (values >= 0) and z-1 magnitude columns.
These C(7,z) + C(7,z-1) candidates are feasible by construction.

Ties: the first candidate of minimum error wins, sign-restricted before
sign-free, each by ascending zeroed-column tuple; an element rounds to the
smaller magnitude, then to its own sign.

A network-level greedy search (one committed (layer, group size, z+1) move
per sweep, driven by an accuracy oracle) tunes per-layer constraints.
"""

from __future__ import annotations

import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import codec, model_io
from .workload import ManifestError, Network, OracleError

Strategy = dict[str, tuple[int, int]]  # layer name -> (group size, zero columns)

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


def nearest_with_mask(v: int, allowed_mask: int, allow_negative: bool = True) -> int:
    """Nearest int8 whose magnitude is a submask of allowed_mask."""
    if not 0 <= allowed_mask <= 0x7F:
        raise ValueError("allowed_mask must be a 7-bit mask")
    if not -128 <= v <= 127:
        raise ValueError(f"{v} is not an int8 value")
    return int(_nearest_table(not allow_negative)[allowed_mask, v + 128])


def _candidate_tables(z: int) -> np.ndarray:
    """(candidates, 256) nearest values of the candidates zeroing exactly z >= 1 bits."""
    return np.array([_nearest_table(nonneg)[0x7F ^ sum(1 << c for c in cols)]
                     for nonneg, n_mag in ((True, z - 1), (False, z))
                     for cols in combinations(range(7), n_mag)])


def _solve_groups(groups: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-squared-error flip of every group to >= z zero index bits.

    Returns (flipped groups, achieved indexes, per-group squared error).
    """
    if not 0 <= z <= 8:
        raise ValueError("z must be in [0, 8]")
    flipped = np.array(groups, dtype=np.int8)
    err = np.zeros(len(flipped), dtype=np.int64)
    idx = np.bitwise_or.reduce(codec.sm_encode(flipped)[0], axis=1)
    todo = np.flatnonzero(codec.POPCOUNT[idx] > 8 - z)
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
        idx[todo] = np.bitwise_or.reduce(codec.sm_encode(flipped[todo])[0], axis=1)
    return flipped, idx, err


@dataclass
class BestFlip:
    flipped: np.ndarray   # (G,) int8
    index: int
    sq_error: int


def best_column_set(group, z: int) -> BestFlip:
    """Optimal flip of a single group (values clamped to [-127, 127])."""
    g = np.clip(np.asarray(group, dtype=np.int16), -127, 127).astype(np.int8)
    flip, idx, err = _solve_groups(g[None, :], z)
    return BestFlip(flip[0], int(idx[0]), int(err[0]))


@dataclass
class FlipResult:
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
    as -127, matching the codec).
    """
    values = np.asarray(values, dtype=np.int8)
    groups = codec.partition_groups(values, group_size)
    clamped = np.clip(groups.astype(np.int16), -127, 127).astype(np.int8)
    flipped, idx, err = _solve_groups(clamped, z)
    zero_bits = 8 - codec.POPCOUNT[idx]
    if zero_bits.min(initial=8) < z:
        raise RuntimeError(f"flip left a group with {zero_bits.min()} < z={z} zero columns")
    return FlipResult(
        values=codec.unpartition_groups(flipped, values.shape),
        indexes=idx,
        total_sq_error=int(err.sum()),
        max_abs_error=int(np.abs(flipped.astype(np.int32) - clamped).max(initial=0)),
        zero_col_hist=np.bincount(zero_bits, minlength=9),
        compression_ratio=8 * values.size / codec.bcs_size(idx, group_size),
        group_size=group_size,
        zero_cols=z,
    )


def default_strategy(net: Network, group_size: int = 8, z: int = 0) -> Strategy:
    return {l.name: (group_size, z) for l in net.layers}


def _check_strategy(net: Network, strategy: Mapping[str, tuple[int, int]],
                    error: type[Exception] = ManifestError) -> None:
    """Raise `error` unless the strategy names exactly the network's layers."""
    names = [l.name for l in net.layers]
    missing = [name for name in names if name not in strategy]
    if missing:
        raise error(f"strategy is missing layers: {missing}")
    unknown = [name for name in strategy if name not in names]
    if unknown:
        raise error(f"strategy names layers the network does not have: {unknown}")


def apply_strategy(net: Network, strategy: Mapping[str, tuple[int, int]]
                   ) -> tuple[Network, dict[str, FlipResult]]:
    """Flip every layer of a network per its (group size, z) entry."""
    _check_strategy(net, strategy)
    results = {l.name: flip_layer(l.weights, *strategy[l.name]) for l in net.layers}
    return net.with_weights({name: res.values for name, res in results.items()}), results


def _flip_table(net: Network, keep: Callable[[FlipResult], object]) -> Callable:
    """Per-layer `keep(flip_layer(...))` of a strategy, one flip per distinct (layer, G, z).

    A strategy must name exactly the network's layers (OracleError otherwise).
    """
    weights = {l.name: l.weights for l in net.layers}
    table: dict[tuple[str, int, int], object] = {}

    def lookup(strategy: Mapping[str, tuple[int, int]]) -> dict[str, object]:
        if strategy.keys() != weights.keys():
            _check_strategy(net, strategy, OracleError)
        out = {}
        for name, w in weights.items():
            key = (name, *strategy[name])
            if key not in table:
                table[key] = keep(flip_layer(w, key[1], key[2]))
            out[name] = table[key]
        return out

    return lookup


def proxy_oracle(net: Network) -> Callable[[Mapping[str, tuple[int, int]]], float]:
    """Dataset-free metric of a strategy: -(total squared flip error / total weight count).

    The error is flip_layer's total_sq_error (against the codec-clamped
    weights), additive over layers, so only each (layer, G, z)'s error is kept.
    """
    sse = _flip_table(net, lambda res: res.total_sq_error)
    total = net.n_weights

    def evaluate(strategy: Mapping[str, tuple[int, int]]) -> float:
        return -sum(sse(strategy).values()) / total

    return evaluate


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
        self._flipped = _flip_table(net, lambda res: res.values)

    def __call__(self, strategy: Mapping[str, tuple[int, int]]) -> float:
        flipped = self.net.with_weights(self._flipped(strategy))
        with tempfile.TemporaryDirectory(prefix="bitcol-oracle-") as tmp:
            manifest = model_io.save_network(flipped, Path(tmp))
            argv = [a.replace("{manifest}", str(manifest)) for a in self.argv]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                raise OracleError(
                    f"oracle command failed with exit {proc.returncode}: {proc.stderr.strip()}")
            lines = [l for l in proc.stdout.splitlines() if l.strip()]
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
    saturated at z=8.
    """
    _check_strategy(net, initial)
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
    strategy: Strategy = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = dict(tok.split("=", 1) for tok in line.split())
            name, g, z = fields["layer"], int(fields["G"]), int(fields["z"])
            if g not in codec.GROUP_SIZES or not 0 <= z <= 8:
                raise ValueError(f"G={g} z={z}, need G in {codec.GROUP_SIZES} and z in 0..8")
        except (KeyError, ValueError) as e:
            raise ManifestError(f"strategy line {lineno}: {e}") from e
        strategy[name] = (g, z)
    return strategy
