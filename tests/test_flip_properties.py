"""The flip solver against the 256-candidate sweep in oracles.py.

The library scores only the candidates that zero exactly z index bits; the
oracle tries every (zeroed magnitude columns, sign) candidate and tests each
achieved index. Per-group squared error must match at every group size and
every z, the achieved index must be the OR of the flipped sign-magnitude
bytes with at least z zero bits, and error must not fall as z grows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    bits, clamps = codec.sm_encode(flipped)
    assert clamps == 0
    assert np.array_equal(idx, np.bitwise_or.reduce(bits, axis=1))
    assert int((8 - codec.POPCOUNT[idx]).min()) >= z
    d = flipped.astype(np.int64) - groups
    assert np.array_equal(err, (d * d).sum(axis=1))


@PROPERTY
@given(group_stacks())
def test_error_monotone_in_z(groups):
    errs = np.stack([bitflip._solve_groups(groups, z)[2] for z in range(9)])
    assert (np.diff(errs, axis=0) >= 0).all()


def test_bell_sample_matches_sweep_at_every_z():
    # a layer-sized sample, where equal-error ties between candidates occur
    rng = np.random.default_rng(7)
    groups = np.clip(np.rint(rng.normal(0, 6, size=(4096, 8))), -127, 127).astype(np.int8)
    groups[rng.random(groups.shape) < 0.2] = 0
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
    assert bitflip.best_column_set([3], 7).flipped.tolist() == [4]
    assert oracles.solve_groups(np.array([[3]], dtype=np.int8), 7)[0].tolist() == [[2]]
    # (7, -1) at z=5: (7, 0) drops the sign column, (8, -1) two magnitude
    # columns, both at cost 1; sign-restricted candidates come first
    assert bitflip.best_column_set([7, -1], 5).flipped.tolist() == [7, 0]


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
