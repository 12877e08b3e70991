import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitcol import codec, engine, mapper
from bitcol.mapper import (
    CATALOG,
    catalog_su,
    make_custom_su,
    map_layer,
    select_su,
    utilization_table,
    weight_bank_layout,
)
from bitcol.workload import LAYER_KINDS, LayerShape, MappingError

import oracles
from conftest import CANONICAL_SHAPES


class TestCatalog:
    def test_table_values(self):
        rows = {su.id: ((su.c_u or su.g_u), su.ox_u, su.k_u, su.w_bw, su.act_bw)
                for su in CATALOG}
        assert rows == {
            "SU1": (8, 16, 32, 256, 1024),
            "SU2": (16, 8, 32, 512, 1024),
            "SU3": (32, 4, 32, 1024, 1024),
            "SU4": (8, 1, 128, 1024, 64),
            "SU5": (16, 1, 64, 1024, 128),
            "SU6": (32, 1, 32, 1024, 256),
            "SU7": (64, 2, 1, 64, 1024),
        }

    def test_lane_products(self):
        # as printed: SU1-3 span the full 4096-multiplier array, the K-heavy
        # entries drive 1024 weight lanes, the depthwise entry 128
        products = {su.id: su.lanes for su in CATALOG}
        assert products == {"SU1": 4096, "SU2": 4096, "SU3": 4096,
                            "SU4": 1024, "SU5": 1024, "SU6": 1024, "SU7": 128}

    def test_bandwidth_formula(self):
        for su in CATALOG:
            w, act = su.w_bw, su.act_bw
            c = su.g_u or su.c_u
            assert w == c * su.k_u          # one bit per weight lane per cycle
            assert act == c * su.ox_u * 8   # full-precision activations

    def test_su1_su4_su7_rows(self):
        for su_id, bw in (("SU1", (256, 1024)), ("SU4", (1024, 64)), ("SU7", (64, 1024))):
            su = catalog_su(su_id)
            assert (su.w_bw, su.act_bw) == bw

    def test_unknown_id(self):
        with pytest.raises(MappingError):
            catalog_su("SU9")


class TestUtilization:
    def test_exact_fit_is_one(self):
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        assert map_layer(shape, catalog_su("SU1")).utilization == 1.0

    def test_early_conv_su1(self):
        shape = LayerShape(k=64, c=3, fy=1, fx=1, ox=224, oy=1)
        assert map_layer(shape, catalog_su("SU1")).utilization == pytest.approx(0.375)

    def test_pointwise_su4_beats_su1(self):
        shape = LayerShape(k=256, c=128, fy=1, fx=1, ox=1, oy=1, kind="pointwise-conv")
        su1 = map_layer(shape, catalog_su("SU1")).utilization
        su4 = map_layer(shape, catalog_su("SU4")).utilization
        assert su4 > su1
        assert su4 == 1.0

    def test_never_exceeds_one(self, rng):
        for _ in range(100):
            shape = LayerShape(
                k=int(rng.integers(1, 600)), c=int(rng.integers(1, 600)),
                fy=int(rng.integers(1, 8)), fx=int(rng.integers(1, 8)),
                ox=int(rng.integers(1, 250)), oy=int(rng.integers(1, 250)),
            )
            for su in CATALOG[:-1]:
                assert 0 < map_layer(shape, su).utilization <= 1.0

    def test_depthwise_only_su7(self):
        dw = CANONICAL_SHAPES["depthwise"]
        assert map_layer(dw, catalog_su("SU7")).utilization == 0.5
        with pytest.raises(MappingError):
            map_layer(dw, catalog_su("SU1"))
        with pytest.raises(MappingError):
            map_layer(CANONICAL_SHAPES["early"], catalog_su("SU7"))


class TestSelectSu:
    def test_depthwise_selects_su7(self):
        assert select_su(CANONICAL_SHAPES["depthwise"]).su.id == "SU7"

    def test_exact_fit_selects_su1(self):
        assert select_su(LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)).su.id == "SU1"

    def test_deep_narrow_selects_k_heavy(self):
        chosen = select_su(LayerShape(k=512, c=512, fy=1, fx=1, ox=7, oy=7))
        assert chosen.su.id in ("SU4", "SU5", "SU6")

    def test_choice_attains_max(self):
        for shape in CANONICAL_SHAPES.values():
            table = utilization_table(shape)
            best = max(m.utilization for m in table.values() if m is not None)
            assert table[select_su(shape).su.id].utilization == best

    def test_tie_breaks_by_bandwidth_then_id(self):
        # pointwise 512-channel shape: SU1/SU2/SU3/SU6 tie; SU1 has lowest W BW
        shape = CANONICAL_SHAPES["pointwise"]
        assert select_su(shape).su.id == "SU1"

    def test_fc_maps_as_1x1(self):
        # single-token fully-connected layer: only the OX_u=1 entries fit fully
        shape = LayerShape(k=128, c=512, fy=1, fx=1, ox=1, oy=1, kind="fully-connected")
        m = select_su(shape)
        assert m.su.id in ("SU4", "SU5", "SU6")
        assert m.utilization == 1.0


    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_every_kind_has_a_compatible_entry(self, kind):
        shape = LayerShape(k=8, c=1 if kind == "depthwise-conv" else 8, fy=1, fx=1, ox=4,
                           oy=1, kind=kind)
        su = select_su(shape).su
        assert su in CATALOG and mapper.is_compatible(shape, su)


def oracle_utilization(shape, su):
    return shape.macs / (oracles.temporal_steps(shape, su) * su.lanes)


class TestFig7Style:
    """Utilization from the oracle's own step count, not from map_layer."""

    def test_no_single_su_covers_all_four(self):
        for su in CATALOG:
            utils = [oracle_utilization(s, su) if mapper.is_compatible(s, su) else 0.0
                     for s in CANONICAL_SHAPES.values()]
            assert min(utils) < 0.80

    def test_selection_attains_per_layer_max(self):
        for shape in CANONICAL_SHAPES.values():
            best = max(oracle_utilization(shape, su) for su in CATALOG
                       if mapper.is_compatible(shape, su))
            chosen = select_su(shape)
            assert oracle_utilization(shape, chosen.su) == chosen.utilization == best


@st.composite
def shapes(draw, kind):
    unit = kind in ("pointwise-conv", "fully-connected", "matmul")
    window = st.just(1) if unit else st.integers(1, 7)
    return LayerShape(k=draw(st.integers(1, 600)),
                      c=1 if kind == "depthwise-conv" else draw(st.integers(1, 600)),
                      fy=draw(window), fx=draw(window), ox=draw(st.integers(1, 250)),
                      oy=draw(st.integers(1, 250)), b=draw(st.integers(1, 4)),
                      stride=draw(st.integers(1, 3)), kind=kind)


@pytest.mark.parametrize("su", [*CATALOG, make_custom_su(32, 4, 32),
                                make_custom_su(8, 8, 8, bit_serial=True),
                                make_custom_su(3, 5, 7)], ids=lambda su: su.id)
@pytest.mark.parametrize("kind", LAYER_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mapping_record_matches_the_oracle_step_count(kind, su, data):
    shape = data.draw(shapes(kind))
    if not mapper.is_compatible(shape, su):
        with pytest.raises(MappingError) as e:
            map_layer(shape, su)
        assert str(e.value) == f"{su.id} cannot map a {kind} layer"
        return
    m = map_layer(shape, su)
    assert m.su is su
    assert m.steps == oracles.temporal_steps(shape, su)
    assert m.utilization == shape.macs / (m.steps * su.lanes)
    assert 0 < m.utilization <= 1


class TestCustomSu:
    def test_bit_parallel_bandwidth(self):
        su = make_custom_su(64, 1, 64)
        assert su.lanes == 4096
        assert su.w_bw == 64 * 64 * 8
        assert su.act_bw == 64 * 1 * 8

    def test_any_kind(self):
        su = make_custom_su(8, 1, 8)
        assert mapper.is_compatible(CANONICAL_SHAPES["depthwise"], su)


def layout_layer(values, g, shape, mode="bcs"):
    cl = codec.compress_layer(np.asarray(values, dtype=np.int8).reshape(shape.weight_dims),
                              g, mode=mode)
    return weight_bank_layout(cl, shape, catalog_su("SU1"))


class TestWeightBankLayout:
    def test_bank_row_fields(self):
        assert mapper.BANK_ROW.names == ("cycle", "bank", "k_base", "c_base",
                                         "significance", "segment")
        assert mapper.BANK_ROW["cycle"] == np.int64
        assert mapper.BANK_ROW["bank"] == np.uint8
        assert mapper.BANK_ROW["k_base"] == np.int64
        assert mapper.BANK_ROW["c_base"] == np.int64
        assert mapper.BANK_ROW["significance"] == np.dtype((np.int8, (8,)))
        assert mapper.BANK_ROW["segment"] == np.uint64

    def test_four_segments_of_64_bits_per_cycle(self, rng):
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
        rows = layout_layer(vals, 8, shape)
        assert rows.dtype == mapper.BANK_ROW
        assert rows.dtype["segment"] == np.uint64  # 64 bits per segment
        cycles = rows["cycle"][-1] + 1
        assert len(rows) == 4 * cycles
        assert np.array_equal(rows["cycle"], np.repeat(np.arange(cycles), 4))
        assert np.array_equal(rows["bank"], np.tile(np.arange(4), cycles))
        assert np.array_equal(rows["k_base"], np.tile(8 * np.arange(4), cycles))

    def test_group_columns_occupy_consecutive_slots(self):
        shape = LayerShape(k=1, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.full(shape.weight_dims, 21, dtype=np.int8)  # bits 0,2,4
        rows = layout_layer(vals, 8, shape)
        bank0 = rows[rows["bank"] == 0]
        assert bank0["significance"][:, 0].tolist() == [4, 2, 0]
        assert bank0["cycle"].tolist() == [0, 1, 2]

    def test_dense_mode_eight_slots_significance_descending(self):
        shape = LayerShape(k=1, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.full(shape.weight_dims, 21, dtype=np.int8)
        rows = layout_layer(vals, 8, shape, mode="dense")
        bank0 = rows[rows["bank"] == 0]
        assert len(bank0) == 8
        assert bank0["significance"][:, 0].tolist() == [7, 6, 5, 4, 3, 2, 1, 0]  # 7 = sign

    def test_idle_lanes_are_minus_one(self):
        shape = LayerShape(k=1, c=8, fy=1, fx=1, ox=16, oy=1)
        rows = layout_layer(np.full(shape.weight_dims, 21, dtype=np.int8), 8, shape)
        assert (rows["significance"][:, 1:] == -1).all()  # kernels 1..7 of bank 0
        assert (rows["significance"][rows["bank"] > 0] == -1).all()
        assert (rows["segment"][rows["bank"] > 0] == 0).all()

    def test_segment_bit_positions(self):
        # kernel 1, channel 2 carries magnitude bit 0; expect bit 2 + 8*1 set
        shape = LayerShape(k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.zeros(shape.weight_dims, dtype=np.int8)
        vals[1, 2] = 1
        rows = layout_layer(vals, 8, shape)
        seg = int(rows[0]["segment"])
        assert seg == 1 << (2 + 8 * 1)

    def test_non_su1_rejected(self, rng):
        shape = LayerShape(k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        cl = codec.compress_layer(rng.integers(-127, 128, size=shape.weight_dims,
                                               dtype=np.int8), 8)
        with pytest.raises(MappingError, match="SU1"):
            weight_bank_layout(cl, shape, catalog_su("SU2"))


@pytest.mark.parametrize("layer_dims, shape, message", [
    ((1, 16, 1, 1), LayerShape(k=1, c=24, fy=1, fx=1, ox=16, oy=1),
     "container does not match layer shape"),
    ((1, 16, 1, 1), LayerShape(k=4, c=4, fy=1, fx=1, ox=16, oy=1),
     "group count does not match layer shape"),
])
def test_layer_shape_mismatch_is_one_typed_error(rng, layer_dims, shape, message):
    cl = codec.compress_layer(rng.integers(-127, 128, size=layer_dims, dtype=np.int8), 8,
                              name="x")
    su1 = catalog_su("SU1")
    for fn in (engine.simulate_layer, weight_bank_layout):
        with pytest.raises(MappingError) as e:
            fn(cl, shape, su1)
        assert str(e.value) == f"layer 'x': {message}"


def _mapping_error(fn, *args):
    try:
        fn(*args)
    except MappingError as e:
        return str(e)
    return None


@pytest.mark.parametrize("su", [*CATALOG, make_custom_su(4, 4, 8), make_custom_su(12, 2, 8),
                                make_custom_su(64, 4, 32)], ids=lambda su: su.id)
def test_group_size_rule_is_stated_once(su):
    # the up-front check and the lockstep schedule accept and reject the
    # same G with the same text: a G must split into C_u-channel slices
    shape = LayerShape(k=3, c=40, fy=1, fx=1, ox=1, oy=1)
    for g in codec.GROUP_SIZES:
        nz = np.zeros(shape.k * -(-shape.c // g), dtype=np.int64)
        checked = _mapping_error(mapper.check_group_size, g, su)
        assert checked == _mapping_error(mapper.lockstep_waves, nz, shape, g, su)
        fits = not su.c_u or g % su.c_u == 0
        assert checked == (None if fits else f"group size {g} is not a multiple of the "
                                             f"unrolled channels C_u={su.c_u} of {su.id}")
