import numpy as np
import pytest

from bitcol import codec, mapper
from bitcol.mapper import (
    CATALOG,
    catalog_su,
    make_custom_su,
    select_su,
    spatial_utilization,
    utilization_table,
    weight_bank_layout,
)
from bitcol.workload import LayerShape, MappingError

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
        assert spatial_utilization(shape, catalog_su("SU1")) == 1.0

    def test_early_conv_su1(self):
        shape = LayerShape(k=64, c=3, fy=1, fx=1, ox=224, oy=1)
        assert spatial_utilization(shape, catalog_su("SU1")) == pytest.approx(0.375)

    def test_pointwise_su4_beats_su1(self):
        shape = LayerShape(k=256, c=128, fy=1, fx=1, ox=1, oy=1, kind="pointwise-conv")
        su1 = spatial_utilization(shape, catalog_su("SU1"))
        su4 = spatial_utilization(shape, catalog_su("SU4"))
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
                assert 0 < spatial_utilization(shape, su) <= 1.0

    def test_depthwise_only_su7(self):
        dw = CANONICAL_SHAPES["depthwise"]
        assert spatial_utilization(dw, catalog_su("SU7")) == 0.5
        with pytest.raises(MappingError):
            spatial_utilization(dw, catalog_su("SU1"))
        with pytest.raises(MappingError):
            spatial_utilization(CANONICAL_SHAPES["early"], catalog_su("SU7"))


class TestSelectSu:
    def test_depthwise_selects_su7(self):
        assert select_su(CANONICAL_SHAPES["depthwise"]).id == "SU7"

    def test_exact_fit_selects_su1(self):
        assert select_su(LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)).id == "SU1"

    def test_deep_narrow_selects_k_heavy(self):
        chosen = select_su(LayerShape(k=512, c=512, fy=1, fx=1, ox=7, oy=7))
        assert chosen.id in ("SU4", "SU5", "SU6")

    def test_choice_attains_max(self):
        for shape in CANONICAL_SHAPES.values():
            table = utilization_table(shape)
            best = max(v for v in table.values() if v is not None)
            assert table[select_su(shape).id] == best

    def test_tie_breaks_by_bandwidth_then_id(self):
        # pointwise 512-channel shape: SU1/SU2/SU3/SU6 tie; SU1 has lowest W BW
        shape = CANONICAL_SHAPES["pointwise"]
        assert select_su(shape).id == "SU1"

    def test_fc_maps_as_1x1(self):
        # single-token fully-connected layer: only the OX_u=1 entries fit fully
        shape = LayerShape(k=128, c=512, fy=1, fx=1, ox=1, oy=1, kind="fully-connected")
        su = select_su(shape)
        assert su.id in ("SU4", "SU5", "SU6")
        assert spatial_utilization(shape, su) == 1.0


class TestFig7Style:
    def test_no_single_su_covers_all_four(self):
        for su in CATALOG:
            utils = [spatial_utilization(s, su) if mapper.is_compatible(s, su) else 0.0
                     for s in CANONICAL_SHAPES.values()]
            assert min(utils) < 0.80

    def test_selection_attains_per_layer_max(self):
        for shape in CANONICAL_SHAPES.values():
            table = utilization_table(shape)
            best = max(v for v in table.values() if v is not None)
            assert spatial_utilization(shape, select_su(shape)) == best


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
    def test_four_segments_of_64_bits_per_cycle(self, rng):
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
        rows = layout_layer(vals, 8, shape)
        by_cycle = {}
        for r in rows:
            by_cycle.setdefault(r["cycle"], []).append(r)
        for cycle, segs in by_cycle.items():
            assert len(segs) == 4
            for seg in segs:
                assert len(seg["segment"]) == 16  # 64 bits as hex

    def test_group_columns_occupy_consecutive_slots(self):
        shape = LayerShape(k=1, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.full(shape.weight_dims, 21, dtype=np.int8)  # bits 0,2,4
        rows = layout_layer(vals, 8, shape)
        bank0 = [r for r in rows if r["bank"] == 0]
        sigs = [r["significance"].split(",")[0] for r in bank0]
        assert sigs == ["4", "2", "0"]
        assert [r["cycle"] for r in bank0] == [0, 1, 2]

    def test_dense_mode_eight_slots_significance_descending(self):
        shape = LayerShape(k=1, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.full(shape.weight_dims, 21, dtype=np.int8)
        rows = layout_layer(vals, 8, shape, mode="dense")
        bank0 = [r for r in rows if r["bank"] == 0]
        assert len(bank0) == 8
        sigs = [r["significance"].split(",")[0] for r in bank0]
        assert sigs == ["sign", "6", "5", "4", "3", "2", "1", "0"]

    def test_segment_bit_positions(self):
        # kernel 1, channel 2 carries magnitude bit 0; expect bit 2 + 8*1 set
        shape = LayerShape(k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = np.zeros(shape.weight_dims, dtype=np.int8)
        vals[1, 2] = 1
        rows = layout_layer(vals, 8, shape)
        seg = int(rows[0]["segment"], 16)
        assert seg == 1 << (2 + 8 * 1)

    def test_non_su1_rejected(self, rng):
        shape = LayerShape(k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        cl = codec.compress_layer(rng.integers(-127, 128, size=shape.weight_dims,
                                               dtype=np.int8), 8)
        with pytest.raises(MappingError, match="SU1"):
            weight_bank_layout(cl, shape, catalog_su("SU2"))
