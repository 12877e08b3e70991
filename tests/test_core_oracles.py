"""The vectorized core against the scalar oracles in oracles.py.

simulate_layer must give exactly the scalar wave walk's CycleCount,
weight_bank_layout exactly the scalar layout's rows (rendered back to the
scalar layout's hex and label strings by render_rows), and verify_layer the
per-element scalar decode's count of mismatching groups, over random
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


def render_rows(layout):
    """The bank layout as the scalar layout's rows: 16 hex digits per segment
    and comma-joined slot labels (sign, a magnitude digit, - for idle)."""
    label = {-1: "-", 7: "sign"}
    return [{
        "cycle": int(r["cycle"]),
        "bank": int(r["bank"]),
        "k_base": int(r["k_base"]),
        "c_base": int(r["c_base"]),
        "significance": ",".join(label.get(b, str(b)) for b in r["significance"].tolist()),
        "segment": f"{int(r['segment']):016x}",
    } for r in layout]


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
@given(layers(max_k=70, max_f=2, kinds=("conv", "pointwise-conv")))
def test_bank_layout_matches_scalar_layout(layer):
    shape, _, cl = layer
    su1 = mapper.catalog_su("SU1")
    got, err = outcome(mapper.weight_bank_layout, cl, shape, su1)
    want, want_err = outcome(oracles.weight_bank_layout, cl, shape, su1)
    assert (err is None) == (want_err is None)
    if want is not None:
        assert got.dtype == mapper.BANK_ROW
        assert render_rows(got) == want


@pytest.mark.parametrize("mode", ["bcs", "dense"])
def test_bank_layout_full_length(mode):
    shape = LayerShape(k=40, c=20, fy=2, fx=1, ox=16, oy=1)
    values = bell_weights(np.random.default_rng(3), shape.weight_dims)
    cl = codec.compress_layer(values, 16, mode=mode)
    su1 = mapper.catalog_su("SU1")
    assert render_rows(mapper.weight_bank_layout(cl, shape, su1)) == \
        oracles.weight_bank_layout(cl, shape, su1)


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
    assert engine.verify_layer(cl, values) == oracles.verify_layer(cl, values)


@st.composite
def capped_layers(draw):
    """A bcs layer of one group per kernel whose magnitude caps differ: a 127
    group stores a bit-6 column, a 15 group only bits 0-3, a 0 group none.
    Returns (values, layer)."""
    g = draw(st.sampled_from(codec.GROUP_SIZES))
    caps = draw(st.permutations(draw(st.lists(st.sampled_from([0, 1, 15, 127]), max_size=4))
                                + [127, 15]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = np.array(caps)[:, None]
    mags = rng.integers(0, 128, size=(len(cap), g)) & cap
    mags[:, 0] |= cap[:, 0] & 64
    vals = np.where(rng.random(mags.shape) < 0.5, -mags, mags)
    vals[(cap == 127) & (rng.random(mags.shape) < 0.05)] = -128
    values = vals.reshape(-1, g, 1, 1).astype(np.int8)
    return values, codec.compress_layer(values, g, mode="bcs")


@PROPERTY
@given(capped_layers(), st.data())
def test_verify_layer_counts_one_flipped_bit_in_any_stored_column(layer, data):
    # flip element j's bit in each stored column of one group in turn, the
    # sign column and every significance the group stores included: the
    # group is counted unless the bit is the sign of a zero magnitude
    values, cl = layer
    i = data.draw(st.sampled_from(np.flatnonzero(cl.indexes).tolist()))
    j = data.draw(st.integers(0, cl.group_size - 1))
    payload = cl.columns
    first = codec.column_offsets(cl)[i]
    magnitude = abs(max(int(values[i, j, 0, 0]), -127))
    for row in range(first, first + int(np.bitwise_count(cl.indexes[i]))):
        cl.columns = payload.copy()
        cl.columns[row, j // 8] ^= np.uint8(1 << j % 8)
        sign_of_zero = row == first and cl.indexes[i] & 0x80 and magnitude == 0
        assert engine.verify_layer(cl, values) == oracles.verify_layer(cl, values) \
            == (0 if sign_of_zero else 1)
