"""The vectorized core against the scalar oracles in oracles.py.

simulate_layer must give exactly the scalar wave walk's CycleCount,
weight_bank_layout exactly the scalar layout's rows, and verify_layer the
scalar bce_group loop's mismatch count for the same seed, over random
shapes, group sizes, spatial unrollings and both payload modes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import codec, engine, mapper
from bitcol.workload import LayerShape, MappingError

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def bell_weights(rng, dims):
    """int8 weights whose magnitude cap varies per kernel, so column counts
    (and with them the wave steps) differ across lanes; a few are -128."""
    caps = rng.choice([0, 1, 3, 7, 15, 31, 63, 127], size=dims[0])
    vals = rng.integers(0, 128, size=dims) & caps[:, None, None, None]
    vals = np.where(rng.random(dims) < 0.5, -vals, vals)
    vals[rng.random(dims) < 0.02] = -128
    return vals.astype(np.int8)


@st.composite
def layers(draw, max_k=80, max_c=40, max_f=3, kinds=("conv", "depthwise-conv",
                                                     "pointwise-conv")):
    kind = draw(st.sampled_from(kinds))
    unit = kind == "pointwise-conv"
    shape = LayerShape(
        k=draw(st.integers(1, max_k)),
        c=1 if kind == "depthwise-conv" else draw(st.integers(1, max_c)),
        fy=1 if unit else draw(st.integers(1, max_f)),
        fx=1 if unit else draw(st.integers(1, max_f)),
        ox=draw(st.integers(1, 40)), oy=draw(st.integers(1, 3)), b=draw(st.integers(1, 2)),
        kind=kind)
    g = draw(st.sampled_from(codec.GROUP_SIZES))
    mode = draw(st.sampled_from(["bcs", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = bell_weights(rng, shape.weight_dims)
    return shape, values, codec.compress_layer(values, g, mode=mode)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except MappingError as e:
        return None, e


@PROPERTY
@given(layers())
def test_simulate_layer_matches_scalar_wave_walk(layer):
    shape, _, cl = layer
    sus = [su for su in mapper.CATALOG if mapper.is_compatible(shape, su)]
    sus.append(mapper.make_custom_su(32, 4, 32, su_id="fixed"))
    for su in sus:
        for sign_cycle in (False, True):
            got, err = outcome(engine.simulate_layer, cl, shape, su, sign_cycle)
            want, want_err = outcome(oracles.simulate_layer, cl, shape, su, sign_cycle)
            assert str(err) == str(want_err)
            if want is None:
                continue
            assert np.array_equal(got.group_cycles, want.group_cycles)
            assert (got.total_cycles, got.barrier_loss, got.wave_max_sum, got.n_waves,
                    got.t_out, got.group_repeat) == \
                (want.total_cycles, want.barrier_loss, want.wave_max_sum, want.n_waves,
                 want.t_out, want.group_repeat)


@PROPERTY
@given(layers(max_k=70, max_f=2, kinds=("conv", "pointwise-conv")),
       st.one_of(st.none(), st.integers(0, 60)))
def test_bank_layout_matches_scalar_layout(layer, max_cycles):
    shape, _, cl = layer
    su1 = mapper.catalog_su("SU1")
    got, err = outcome(mapper.weight_bank_layout, cl, shape, su1, max_cycles)
    want, want_err = outcome(oracles.weight_bank_layout, cl, shape, su1, max_cycles)
    assert (err is None) == (want_err is None)
    assert got == want


@pytest.mark.parametrize("max_cycles", [None, -1, 0, 1, 7])
@pytest.mark.parametrize("mode", ["bcs", "dense"])
def test_bank_layout_cycle_limit(max_cycles, mode):
    shape = LayerShape(k=40, c=20, fy=2, fx=1, ox=16, oy=1)
    values = bell_weights(np.random.default_rng(3), shape.weight_dims)
    cl = codec.compress_layer(values, 16, mode=mode)
    su1 = mapper.catalog_su("SU1")
    assert mapper.weight_bank_layout(cl, shape, su1, max_cycles) == \
        oracles.weight_bank_layout(cl, shape, su1, max_cycles)


def corrupt(cl, rng, n_flips):
    """Flip n random bytes of a bcs layer's column payload (on a copy)."""
    if cl.mode == "bcs" and cl.columns.size and n_flips:
        cl.columns = cl.columns.copy()
        flat = cl.columns.reshape(-1)
        at = rng.integers(0, flat.size, size=n_flips)
        flat[at] ^= rng.integers(1, 256, size=n_flips).astype(np.uint8)
    return cl


@PROPERTY
@given(layers(max_k=40, max_c=64, max_f=2), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_verify_layer_matches_scalar_loop(layer, n_flips, seed):
    _, values, cl = layer
    cl = corrupt(cl, np.random.default_rng(seed), n_flips)
    got = engine.verify_layer(cl, values, np.random.default_rng(seed))
    assert got == oracles.verify_layer(cl, values, np.random.default_rng(seed))


@pytest.mark.parametrize("g", [8, 16, 32])
def test_verify_layer_chunks_keep_the_activation_stream(g, monkeypatch):
    rng = np.random.default_rng(g)
    values = bell_weights(rng, (16, 64, 3, 3))
    cl = corrupt(codec.compress_layer(values, g, mode="bcs"), rng, 40)
    want = oracles.verify_layer(cl, values, np.random.default_rng(5))
    assert want > 0
    monkeypatch.setattr(engine, "VERIFY_CHUNK", 97)
    assert engine.verify_layer(cl, values, np.random.default_rng(5)) == want
