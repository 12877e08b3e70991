"""codec.best_pack, the one group-size choice, against compress_layer itself.

best_pack(values, G) is the auto-mode compress_layer pack at G;
best_pack(values, "auto") is the first maximum of compression_ratio over
AUTO_GROUP_SIZES, so the smaller G wins ties. compress, simulate and perf all
take each layer's pack from it; compress's CR row reports the bcs pack at its G.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitcol import codec
from bitcol.workload import Layer, LayerShape, Network

from conftest import stage_outputs

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
    assert (got.mode, got.group_size, got.n_groups) == (want.mode, want.group_size, want.n_groups)
    for field in ("indexes", "columns", "dense_values"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b)


@PROPERTY
@given(vals=layers(), g=st.sampled_from(codec.GROUP_SIZES))
def test_one_group_size_is_that_pack(vals, g):
    assert_same_pack(codec.best_pack(vals, g, "l"), codec.compress_layer(vals, g, "auto", "l"))


@PROPERTY
@given(vals=layers())
def test_auto_is_the_first_maximum(vals):
    packs = [codec.compress_layer(vals, g) for g in codec.AUTO_GROUP_SIZES]
    crs = [codec.compression_ratio(cl) for cl in packs]
    assert_same_pack(codec.best_pack(vals, "auto"), packs[crs.index(max(crs))])


@PROPERTY
@given(vals=layers())
def test_row_pack_is_the_bcs_pack_at_the_chosen_group_size(vals):
    chosen = codec.best_pack(vals, "auto")
    row = codec.compress_layer(vals, chosen.group_size, "bcs")
    if chosen.mode == "bcs":
        assert_same_pack(row, chosen)
    else:  # no candidate compresses, so every auto-mode pack is dense at CR 1.0
        assert chosen.group_size == codec.AUTO_GROUP_SIZES[0]
        assert codec.compression_ratio(row) <= 1.0


def test_uniform_layer_picks_agree(tmp_path):
    # Every group of a uniform-random layer needs nearly all 8 columns, so no
    # candidate G compresses: compress, simulate and perf all pick the
    # smallest G, dense, at CR 1.0. compress's CR row still reports the bcs
    # pack at that G.
    vals = np.random.default_rng(0).integers(-128, 128, size=(4, 64, 3, 3)).astype(np.int8)
    net = Network("uniform", [Layer("conv", LayerShape(k=4, c=64, fy=3, fx=3, ox=16, oy=16),
                                    vals)])
    out = stage_outputs(net, tmp_path)
    for stage in ("compress", "report", "simulate"):
        assert (out[stage]["conv"]["group_size"], out[stage]["conv"]["mode"]) == ("8", "dense")
    assert out["perf_pack"] == {"conv": (8, "dense")}
    assert out["report"]["conv"]["cr_real"] == out["perf"]["conv"]["cr_w"] == "1"
    row_cr = codec.compression_ratio(codec.compress_layer(vals, 8, "bcs"))
    assert out["compress"]["conv"]["cr_real"] == format(row_cr, ".6g") == "0.893023"
