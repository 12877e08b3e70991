"""Retraining-free bit-flip enhancement of bit-column sparsity.

Per group, the solver searches column subsets to force to zero, replaces
every element with its nearest representable value under the surviving
magnitude columns, and keeps the minimum-squared-error candidate whose
achieved zero-column index has at least z zero bits. The sign column is
never zeroed directly; instead each magnitude subset is also tried with the
search restricted to non-negative values, which covers candidates whose
feasibility relies on a zero sign column (and makes the solver exhaustive
over all value vectors meeting the constraint).

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
from typing import Callable, Mapping, Sequence

import numpy as np

from . import codec, model_io
from .workload import ManifestError, Network, OracleError

GREEDY_GROUP_SIZES = (8, 16, 32)

Strategy = dict[str, tuple[int, int]]  # layer name -> (group size, zero columns)

_TABLES: dict[bool, np.ndarray] = {}

# Candidate order: fewer zeroed columns first, within a size ascending by
# significance (lexicographic), sign-free before sign-restricted. The first
# strict improvement wins, which makes ties deterministic.
_SUBSET_ORDER: list[tuple[int, bool]] = []
for _r in range(8):
    for _cols in combinations(range(7), _r):
        _mask = sum(1 << c for c in _cols)
        _SUBSET_ORDER.append((_mask, False))
        _SUBSET_ORDER.append((_mask, True))


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


def _solve_groups(groups: np.ndarray, z: int, include_sign: bool
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


@dataclass
class BestFlip:
    zeroed_mask: int      # zeroed magnitude columns; bit 7 = sign restricted
    flipped: np.ndarray   # (G,) int8
    index: int
    sq_error: int


def best_column_set(group, z: int, include_sign_candidates: bool = True) -> BestFlip:
    """Optimal flip of a single group (values clamped to [-127, 127])."""
    g = np.clip(np.asarray(group, dtype=np.int16), -127, 127).astype(np.int8)
    flip, idx, err, mask = _solve_groups(g[None, :], z, include_sign_candidates)
    return BestFlip(int(mask[0]), flip[0], int(idx[0]), int(err[0]))


@dataclass
class FlipResult:
    values: np.ndarray            # flipped (K, C, FY, FX) int8 tensor
    indexes: np.ndarray           # (n_groups,) achieved zero-column indexes
    total_sq_error: int
    max_abs_error: int
    zero_col_hist: np.ndarray     # (9,) groups by achieved zero-bit count
    compression_ratio: float      # real CR after re-encoding at the same G
    group_size: int
    zero_cols: int


def flip_layer(values: np.ndarray, group_size: int, z: int,
               include_sign_candidates: bool = True) -> FlipResult:
    """Flip every group of a layer independently to >= z zero index bits.

    Error is measured against the sign-magnitude-clamped input (-128 reads
    as -127, matching the codec).
    """
    values = np.asarray(values, dtype=np.int8)
    dims = values.shape
    groups = codec.partition_groups(values, group_size)
    clamped = np.clip(groups.astype(np.int16), -127, 127).astype(np.int8)
    flipped, idx, err, _ = _solve_groups(clamped, z, include_sign_candidates)
    zero_bits = 8 - codec.POPCOUNT[idx]
    assert int(zero_bits.min(initial=8)) >= z
    out = codec.unpartition_groups(flipped, dims)
    cl = codec.compress_layer(out, group_size, mode="bcs")
    return FlipResult(
        values=out,
        indexes=idx,
        total_sq_error=int(err.sum()),
        max_abs_error=int(np.abs(flipped.astype(np.int32) - clamped).max(initial=0)),
        zero_col_hist=np.bincount(zero_bits, minlength=9),
        compression_ratio=codec.compression_ratio(cl),
        group_size=group_size,
        zero_cols=z,
    )


def default_strategy(net: Network, group_size: int = 8, z: int = 0) -> Strategy:
    return {l.name: (group_size, z) for l in net.layers}


def apply_strategy(net: Network, strategy: Mapping[str, tuple[int, int]],
                   include_sign_candidates: bool = True
                   ) -> tuple[Network, dict[str, FlipResult]]:
    """Flip every layer of a network per its (group size, z) entry."""
    missing = [l.name for l in net.layers if l.name not in strategy]
    if missing:
        raise ManifestError(f"strategy is missing layers: {missing}")
    results = {}
    weights = {}
    for layer in net.layers:
        g, z = strategy[layer.name]
        res = flip_layer(layer.weights, g, z, include_sign_candidates)
        results[layer.name] = res
        weights[layer.name] = res.values
    return net.with_weights(weights), results


def proxy_oracle(original: Network) -> Callable[[Network], float]:
    """Dataset-free metric: -(total squared flip error / total weight count)."""
    ref = {l.name: l.weights.astype(np.int32) for l in original.layers}
    total = original.n_weights

    def evaluate(flipped: Network) -> float:
        sse = 0
        for layer in flipped.layers:
            if layer.name not in ref or layer.weights.shape != ref[layer.name].shape:
                raise OracleError(f"layer {layer.name!r} does not match the reference network")
            sse += int(((layer.weights.astype(np.int32) - ref[layer.name]) ** 2).sum())
        return -sse / total

    return evaluate


class ExternalOracle:
    """Runs a command on the flipped model and parses the metric.

    The template's `{manifest}` placeholder receives the path of a freshly
    written manifest; the metric is the last non-empty line of standard
    output parsed as a decimal float.
    """

    def __init__(self, command_template: str):
        self.argv = shlex.split(command_template)
        if not self.argv:
            raise OracleError("empty oracle command")

    def __call__(self, net: Network) -> float:
        with tempfile.TemporaryDirectory(prefix="bitcol-oracle-") as tmp:
            manifest = model_io.save_network(net, Path(tmp))
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


def external_oracle(command_template: str) -> ExternalOracle:
    """Accuracy oracle backed by an external command."""
    return ExternalOracle(command_template)


def greedy_search(net: Network, initial: Mapping[str, tuple[int, int]], macc: float,
                  oracle: Callable[[Network], float],
                  gs_options: Sequence[int] = GREEDY_GROUP_SIZES,
                  layer_subset: Sequence[str] | None = None,
                  include_sign_candidates: bool = True) -> Strategy:
    """Greedy per-sweep search for the deepest strategy above the metric floor.

    Each sweep evaluates, for every layer and group size, bumping that
    layer's zero-column target by one (flips always start from the pristine
    weights); the single best move commits. Later candidates win ties, as in
    the reference procedure. Stops when the best tentative metric drops
    below macc or every slot is saturated at z=8.
    """
    strategy = dict(default_strategy(net))
    strategy.update(initial)
    missing = [l.name for l in net.layers if l.name not in strategy]
    if missing:
        raise ManifestError(f"initial strategy is missing layers: {missing}")
    sweep_layers = list(layer_subset) if layer_subset is not None else [l.name for l in net.layers]

    # candidates differ from the committed strategy in one layer, so flips
    # are cached per (layer, gs, z); all flips start from the pristine weights
    cache: dict[tuple[str, int, int], np.ndarray] = {}

    def flipped_weights(name: str, g: int, z: int) -> np.ndarray:
        key = (name, g, z)
        if key not in cache:
            cache[key] = flip_layer(net.layer(name).weights, g, z,
                                    include_sign_candidates).values
        return cache[key]

    while True:
        committed = {l.name: flipped_weights(l.name, *strategy[l.name]) for l in net.layers}
        bacc = -math.inf
        move = None
        for name in sweep_layers:
            for gs in gs_options:
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
            strategy[fields["layer"]] = (int(fields["G"]), int(fields["z"]))
        except (KeyError, ValueError) as e:
            raise ManifestError(f"strategy line {lineno}: {e}") from e
    return strategy
