"""The flip solver against the 256-candidate sweep and the candidate loop
in oracles.py.

The library scores only the candidates that zero exactly z index bits; the
oracle tries every (zeroed magnitude columns, sign) candidate and tests each
achieved index. Per-group squared error must match at every group size and
every z, the achieved index must be the OR of the flipped sign-magnitude
bytes with at least z zero bits, and error must not fall as z grows.

The library scores all candidates of a chunk of groups at once; the loop
oracle scores one candidate at a time. Flipped values, indexes and errors
must be identical, with any chunk size, which pins the tie rule. The
nearest-value tables must equal the oracle's per-mask loop.

The proxy's one-pass layer error at several group sizes must equal
flip_layer's total error at each of them, with any chunk size, and a
candidate table that sets a column it zeroes must be refused.

flip_layer takes its error statistics from the groups the solver changed;
its maximum and total error and its zero-column histogram must equal a
recount over the whole flipped tensor against the clamped input, also on
layers holding -128 and on layers in which no group changes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import group_flip
import oracles
from bitcol import bitflip, codec
from bitcol.workload import Layer, LayerShape, Network

PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def group_stacks(draw, max_groups=12):
    """(n, G) int8 groups clamped to [-127, 127]: bell-shaped, uniform, or
    capped at a magnitude mask so some columns are already zero."""
    g = draw(st.sampled_from(codec.GROUP_SIZES))
    n = draw(st.integers(1, max_groups))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bell", "uniform", "capped"]))
    if kind == "bell":
        vals = np.rint(rng.normal(0, draw(st.sampled_from([2, 6, 30])), size=(n, g)))
    elif kind == "uniform":
        vals = rng.integers(-127, 128, size=(n, g))
    else:
        vals = rng.integers(0, 128, size=(n, g)) & draw(st.integers(0, 127))
        vals = np.where(rng.random((n, g)) < draw(st.sampled_from([0.0, 0.5])), -vals, vals)
    vals[rng.random((n, g)) < 0.2] = 0
    return np.clip(vals, -127, 127).astype(np.int8)


@PROPERTY
@given(group_stacks(), st.integers(0, 8))
def test_error_matches_full_candidate_sweep(groups, z):
    _, _, err = bitflip._solve_groups(groups, z)
    _, _, want, _ = oracles.solve_groups(groups, z)
    assert np.array_equal(err, want)


@PROPERTY
@given(group_stacks(), st.integers(0, 8))
def test_index_is_achieved_and_feasible(groups, z):
    flipped, idx, err = bitflip._solve_groups(groups, z)
    bits = codec.sm_encode(flipped)
    assert not (flipped == -128).any()
    assert np.array_equal(idx, np.bitwise_or.reduce(bits, axis=1))
    assert int((8 - oracles.POPCOUNT[idx]).min()) >= z
    d = flipped.astype(np.int64) - groups
    assert np.array_equal(err, (d * d).sum(axis=1))


@PROPERTY
@given(group_stacks())
def test_error_monotone_in_z(groups):
    errs = np.stack([bitflip._solve_groups(groups, z)[2] for z in range(9)])
    assert (np.diff(errs, axis=0) >= 0).all()


def bell_sample() -> np.ndarray:
    """A layer-sized sample, where equal-error ties between candidates occur."""
    rng = np.random.default_rng(7)
    groups = np.clip(np.rint(rng.normal(0, 6, size=(4096, 8))), -127, 127).astype(np.int8)
    groups[rng.random(groups.shape) < 0.2] = 0
    return groups


def chunk_sums(n_groups: int | None, z: int) -> int:
    """The solver's chunk bound that holds n_groups groups at z (None: the default)."""
    if n_groups is None:
        return bitflip._CHUNK_SUMS
    return n_groups * bitflip._candidate_rows(z)[1].shape[1] if z else 1


def assert_solves_like_loop(groups: np.ndarray, z: int, n_groups: int | None = None) -> None:
    with mock.patch.object(bitflip, "_CHUNK_SUMS", chunk_sums(n_groups, z)):
        got = bitflip._solve_groups(groups, z)
    want = oracles.solve_groups_loop(groups, z)
    for name, g, w in zip(("flipped", "indexes", "errors"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), (name, z, n_groups)


@pytest.mark.parametrize("n_groups", [None, 1, 3])
@PROPERTY
@given(group_stacks(), st.integers(0, 8))
def test_identical_to_candidate_loop(n_groups, groups, z):
    assert_solves_like_loop(groups, z, n_groups)


@pytest.mark.parametrize("n_groups", [None, 1, 3])
def test_bell_sample_identical_to_candidate_loop(n_groups):
    groups = bell_sample()
    for z in range(9):
        assert_solves_like_loop(groups, z, n_groups)


@pytest.mark.parametrize("z", [7, 8])
def test_widest_errors_fit(z):
    # 127**2 per element and 64 * 127**2 per group, the largest errors of
    # clamped groups; -128 (unclamped) gives 128**2 and 64 * 128**2
    mixed = np.where(np.arange(64) % 3 == 0, 127, -127)
    groups = np.array([[127] * 64, [-127] * 64, mixed, [-128] * 64], dtype=np.int8)
    err = bitflip._solve_groups(groups, z)[2]
    n_pos = int((mixed > 0).sum())
    if z == 8:  # every value flips to 0
        want = [64 * 127**2] * 3 + [64 * 128**2]
    else:  # a non-negative value keeps bit 6 (127 -> 64), a negative one flips to 0
        want = [64 * 63**2, 64 * 127**2, n_pos * 63**2 + (64 - n_pos) * 127**2, 64 * 128**2]
    assert err.tolist() == want
    assert err[1] == 1_032_256
    assert_solves_like_loop(groups, z)
    assert_solves_like_loop(groups, z, 1)


@pytest.mark.parametrize("nonneg", [False, True])
def test_nearest_tables_equal_the_mask_loop(nonneg):
    # every (mask, value) entry: 128 masks x 256 values
    got = bitflip._nearest_table(nonneg)
    want = oracles._nearest_table(nonneg)
    assert got.dtype == want.dtype == np.int8 and got.shape == (128, 256)
    assert np.array_equal(got, want)


def test_bell_sample_matches_sweep_at_every_z():
    groups = bell_sample()
    for z in range(9):
        _, _, err = bitflip._solve_groups(groups, z)
        assert np.array_equal(err, oracles.solve_groups(groups, z)[2]), z


def test_feasible_groups_keep_their_values():
    # 0x11 leaves six zero columns, so any z <= 6 costs nothing
    groups = np.array([[0x11, 0, 0x10, 1], [3, -3, 2, 1]], dtype=np.int8)
    flipped, _, err = bitflip._solve_groups(groups, 6)
    assert flipped[0].tolist() == groups[0].tolist() and err[0] == 0
    assert err[1] > 0


def test_tie_rule_first_candidate_wins():
    # 3 at z=7 keeps one magnitude column of a non-negative value: 2 and 4
    # both cost 1. Zeroing (0, 1, 3, 4, 5, 6) comes before (0, 2, 3, 4, 5, 6),
    # so 4 wins; the sweep took 2, reached from zeroing column 0 alone.
    assert group_flip.best_column_set([3], 7).flipped.tolist() == [4]
    assert oracles.solve_groups(np.array([[3]], dtype=np.int8), 7)[0].tolist() == [[2]]
    # (7, -1) at z=5: (7, 0) drops the sign column, (8, -1) two magnitude
    # columns, both at cost 1; sign-restricted candidates come first
    assert group_flip.best_column_set([7, -1], 5).flipped.tolist() == [7, 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.integers(1, 3),
       p_min=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       moves=st.lists(st.tuples(st.sampled_from(codec.GROUP_SIZES), st.integers(0, 8)),
                      min_size=3, max_size=3))
def test_proxy_metric_is_the_reported_flip_error(seed, n_layers, p_min, moves):
    """On nets holding -128, proxy * N is minus the summed flip-report error."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        shape = LayerShape(k=int(rng.integers(1, 4)), c=int(rng.integers(1, 40)), fy=1, fx=1,
                           ox=1, oy=1)
        w = rng.integers(-128, 128, size=shape.weight_dims)
        w[rng.random(w.shape) < p_min] = -128
        layers.append(Layer(f"l{i}", shape, w.astype(np.int8)))
    net = Network("n", layers)
    strategy = {l.name: moves[i] for i, l in enumerate(layers)}
    flipped, results = bitflip.apply_strategy(net, strategy)
    sse = sum(r.total_sq_error for r in results.values())
    assert bitflip.proxy_oracle(net)(strategy) == -sse / net.n_weights
    assert oracles.proxy_metric(net)(flipped) == -sse / net.n_weights


@st.composite
def layers(draw):
    """(K, C, FY, FX) int8 layers, C from 1 to 80: wide with some -128, bell,
    or near zero (where many groups already have z zero columns)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.sampled_from([1, 2]))
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 80)), f, f)
    kind = draw(st.sampled_from(["wide", "bell", "near-zero"]))
    if kind == "wide":
        vals = rng.integers(-128, 128, size=dims)
        vals[rng.random(dims) < 0.05] = -128
    elif kind == "bell":
        vals = np.clip(np.rint(rng.normal(0, 6, size=dims)), -128, 127)
    else:
        vals = rng.integers(-1, 2, size=dims) * (rng.random(dims) < 0.3)
    return vals.astype(np.int8)


@pytest.mark.parametrize("n_groups", [None, 1])
@PROPERTY
@given(layers(), st.integers(0, 8))
def test_sse_by_group_size_is_the_flip_error(n_groups, values, z):
    with mock.patch.object(bitflip, "_CHUNK_SUMS", chunk_sums(n_groups, z)):
        for sizes in [codec.AUTO_GROUP_SIZES, *[(g,) for g in codec.GROUP_SIZES]]:
            got = bitflip._sse_by_group_size(values, z, sizes)
            want = {g: bitflip.flip_layer(values, g, z).total_sq_error for g in sizes}
            assert got == want, (sizes, z)


def test_candidate_that_sets_a_zeroed_column_is_refused(monkeypatch):
    # a table that rounds every value to 127 sets every magnitude column
    monkeypatch.setattr(bitflip, "_ROWS", {})
    monkeypatch.setattr(bitflip, "_nearest_table", lambda nonneg: np.full((128, 256), 127,
                                                                           dtype=np.int8))
    scores = []
    real_sums = bitflip._error_sums
    monkeypatch.setattr(bitflip, "_error_sums", lambda *a: scores.append(1) or real_sums(*a))
    net = Network("n", [Layer("l", LayerShape(k=2, c=16, fy=1, fx=1, ox=1, oy=1),
                              np.arange(-16, 16, dtype=np.int8).reshape(2, 16, 1, 1))])
    with pytest.raises(RuntimeError, match="z=4 candidate sets a column it zeroes"):
        bitflip.proxy_oracle(net)({"l": (8, 4)})
    assert scores == []


def _check_flip_statistics(values, g, z):
    res = bitflip.flip_layer(values, g, z)
    diff = res.values.astype(np.int64) - np.clip(values, -127, 127)
    assert res.max_abs_error == np.abs(diff).max()
    assert res.total_sq_error == (diff ** 2).sum()
    idx = np.bitwise_or.reduce(oracles.sm_bytes(codec.partition_groups(res.values, g)), axis=1)
    assert np.array_equal(res.indexes, idx)
    assert res.zero_col_hist.tolist() == np.bincount(8 - oracles.POPCOUNT[idx],
                                                     minlength=9).tolist()
    return res


@PROPERTY
@given(layers(), st.sampled_from(codec.GROUP_SIZES), st.integers(0, 8))
def test_flip_statistics_match_a_full_tensor_recount(values, g, z):
    _check_flip_statistics(values, g, z)


@pytest.mark.parametrize("g", [1, 8, 32])
def test_flip_statistics_when_no_group_changes(g):
    # magnitudes of bit 0 only, no sign: seven zero columns in every group
    values = np.random.default_rng(g).integers(0, 2, size=(4, 40, 3, 3)).astype(np.int8)
    for z in range(8):
        res = _check_flip_statistics(values, g, z)
        assert res.max_abs_error == res.total_sq_error == 0
        assert np.array_equal(res.values, values)


@pytest.mark.parametrize("z", [0, 2, 5, 8])
def test_flip_statistics_on_a_layer_holding_minus_128(z):
    rng = np.random.default_rng(z)
    values = np.clip(np.rint(rng.normal(0, 20, size=(5, 24, 3, 3))), -128, 127).astype(np.int8)
    values[rng.random(values.shape) < 0.1] = -128
    res = _check_flip_statistics(values, 8, z)
    assert (res.max_abs_error == 0) == (z == 0)  # -128 -> -127 is the clamp, not a flip
