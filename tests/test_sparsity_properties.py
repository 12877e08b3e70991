"""One-encode sparsity statistics against the per-G reference in oracles.py.

The reference partitions and encodes the layer anew for each group size.
The library encodes it once, ORs the column indexes once at the smallest
requested G and folds adjacent block pairs for each larger G, so each
returned SparsityStats must equal the
reference's at its G, field by field and exactly: analyze writes them to
CSV. The draws cover every G in any order, channel counts that are no
multiple of G, depthwise C=1 and tensors with -128.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import codec

PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

GROUP_ORDERS = st.one_of(st.permutations(codec.GROUP_SIZES),
                         st.lists(st.sampled_from(codec.GROUP_SIZES), min_size=1, max_size=9))


@st.composite
def tensors(draw):
    """(K, C, F, F) int8: C from 1 past 64, values all zero, narrow or wide,
    with some zeros and some -128."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.one_of(st.just(1), st.integers(1, 70)))
    f = draw(st.sampled_from([1, 3]))
    cap = draw(st.sampled_from([0, 1, 7, 127]))
    w = rng.integers(-cap, cap + 1, size=(draw(st.integers(1, 3)), c, f, f))
    w[rng.random(w.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0
    w[rng.random(w.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = -128
    return w.astype(np.int8)


def assert_matches_reference(values, sizes):
    got = codec.sparsity_stats(values, sizes)
    assert [s.group_size for s in got] == list(sizes)
    for st_, g in zip(got, sizes):
        want = oracles.sparsity_stats(values, g)
        for f in codec.SparsityStats._fields:
            assert getattr(st_, f) == getattr(want, f), (g, f)


@PROPERTY
@given(values=tensors(), sizes=GROUP_ORDERS)
def test_matches_per_group_size_reference(values, sizes):
    assert_matches_reference(values, sizes)


@pytest.mark.parametrize("c", [1, 37, 64])
def test_matches_reference_with_minus_128(c):
    # C=1 is a depthwise layer's; 37 pads every G above 1; 64 pads none
    rng = np.random.default_rng(c)
    values = rng.integers(-128, 128, size=(4, c, 3, 3)).astype(np.int8)
    values[0, 0] = -128
    assert_matches_reference(values, codec.GROUP_SIZES[::-1])


def test_no_group_size_gives_no_stats():
    assert codec.sparsity_stats(np.ones((1, 8, 1, 1), dtype=np.int8), ()) == []
