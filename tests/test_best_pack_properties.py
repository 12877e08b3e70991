"""codec.best_pack, the one group-size choice, against compress_layer itself.

best_pack(values, G, mode) is compress_layer at G; best_pack(values, "auto",
mode) is the first maximum of compression_ratio over AUTO_GROUP_SIZES, so the
smaller G wins ties. compress picks G with mode "bcs" and perf with mode
"auto"; the two picks agree whenever the auto pick is bcs, and differ only
when no candidate compresses.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitcol import codec

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def layers(draw):
    """A small (K, C, FY, FX) int8 tensor; a low magnitude bound makes it compress."""
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 80)),
            draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from((0, 1, 3, 15, 127, 128)))
    vals = rng.integers(-bound, min(bound, 127) + 1, size=dims)
    vals[rng.random(dims) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0
    return vals.astype(np.int8)


def assert_same_pack(got, want):
    assert (got.mode, got.group_size, got.n_groups, got.clamp_count) == \
        (want.mode, want.group_size, want.n_groups, want.clamp_count)
    for field in ("indexes", "columns", "dense_values"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b)


@PROPERTY
@given(vals=layers(), g=st.sampled_from(codec.GROUP_SIZES),
       mode=st.sampled_from(("auto", "bcs", "dense")))
def test_one_group_size_is_that_pack(vals, g, mode):
    assert_same_pack(codec.best_pack(vals, g, mode, "l"), codec.compress_layer(vals, g, mode, "l"))


@PROPERTY
@given(vals=layers(), mode=st.sampled_from(("auto", "bcs")))
def test_auto_is_the_first_maximum(vals, mode):
    packs = [codec.compress_layer(vals, g, mode) for g in codec.AUTO_GROUP_SIZES]
    crs = [codec.compression_ratio(cl) for cl in packs]
    assert_same_pack(codec.best_pack(vals, "auto", mode), packs[crs.index(max(crs))])


@PROPERTY
@given(vals=layers())
def test_forced_and_auto_picks_agree_when_auto_packs_bcs(vals):
    auto = codec.best_pack(vals, "auto", "auto")
    forced = codec.best_pack(vals, "auto", "bcs")
    if auto.mode == "bcs":
        assert_same_pack(forced, auto)
    else:  # no candidate compresses, so every auto-mode pack is dense at CR 1.0
        assert auto.group_size == codec.AUTO_GROUP_SIZES[0]
        assert codec.compression_ratio(forced) <= 1.0


def test_uniform_layer_picks_differ():
    # Today's policies, kept as they are: compress keeps the best forced-bcs
    # pack and perf the best auto-mode pack. On a layer where every group
    # needs all 8 columns they differ; one size-only chooser (ROADMAP open
    # item 3) is where this would change.
    vals = np.random.default_rng(0).integers(-128, 128, size=(4, 64, 3, 3)).astype(np.int8)
    forced = codec.best_pack(vals, "auto", "bcs")
    auto = codec.best_pack(vals, "auto", "auto")
    assert (forced.mode, forced.group_size) == ("bcs", 32)
    assert round(codec.compression_ratio(forced), 3) == 0.970  # 32 / 33
    assert (auto.mode, auto.group_size, codec.compression_ratio(auto)) == ("dense", 8, 1.0)
