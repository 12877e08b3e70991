import numpy as np
import pytest

import oracles
from bitcol import codec, engine, mapper
from bitcol.engine import (
    CycleCount,
    bce_column,
    bce_group,
    dot_ref,
    packed_groups,
    parse_index,
    simulate_layer,
    verify_layer,
)
from bitcol.workload import LayerShape, MappingError


def layer_of_groups(groups):
    """Stack of (G,) rows as a K=n, C=G layer so each row is one group."""
    arr = np.asarray(groups, dtype=np.int8)
    return arr.reshape(arr.shape[0], arr.shape[1], 1, 1)


def compress_groups(groups, g=None):
    arr = np.asarray(groups, dtype=np.int8)
    return codec.compress_layer(layer_of_groups(arr), g or arr.shape[1], mode="bcs")


class TestParseIndex:
    def test_zero(self):
        p = parse_index(0x00)
        assert (p.sign_rqst, p.schedule, p.nz_count) == (False, (), 0)

    def test_0x86(self):
        p = parse_index(0x86)
        assert (p.sign_rqst, p.schedule, p.nz_count) == (True, (2, 1), 2)

    def test_full_mask(self):
        p = parse_index(0x7F)
        assert p.schedule == (6, 5, 4, 3, 2, 1, 0)
        assert p.nz_count == 7 and not p.sign_rqst

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parse_index(256)


class TestBceColumn:
    def test_mixed_signs_bit0(self):
        assert bce_column([3, -2], [1, 1], [0, 1], 0) == 5

    def test_all_bits_zero(self):
        assert bce_column([9, -9, 5], [0, 0, 0], [0, 1, 0], 4) == 0

    def test_single_shift(self):
        assert bce_column([1], [1], [0], 6) == 64

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            bce_column([1], [1], [0], 7)


class TestBceGroup:
    def test_worked_example(self):
        cl = compress_groups([[5, -1]])
        pg = next(packed_groups(cl))
        assert pg.index == 0x85
        dot, cycles = bce_group([3, -2], pg)
        assert dot == 17 and cycles == 2
        assert dot_ref([3, -2], [5, -1]) == 17

    def test_all_zero_group_skipped(self):
        cl = compress_groups([[0, 0, 0, 0]])
        dot, cycles = bce_group([7, -7, 1, 2], next(packed_groups(cl)))
        assert (dot, cycles) == (0, 0)

    def test_random_exactness(self, rng):
        for g in (8, 16, 32):
            weights = rng.integers(-127, 128, size=(300, g), dtype=np.int8)
            cl = compress_groups(weights)
            for i, pg in enumerate(packed_groups(cl)):
                acts = rng.integers(-128, 128, size=g)
                dot, cycles = bce_group(acts, pg)
                assert dot == dot_ref(acts, weights[i])
                assert cycles == int(oracles.POPCOUNT[cl.indexes[i] & 0x7F])

    def test_sign_cycle_option(self):
        cl = compress_groups([[5, -1]])
        _, cycles = bce_group([3, -2], next(packed_groups(cl)), sign_cycle=True)
        assert cycles == 3

    def test_clamped_group_dot_within_bound(self, rng):
        weights = np.array([[-128, 0, 4, -7]], dtype=np.int8)
        cl = compress_groups(weights)
        acts = rng.integers(-128, 128, size=4)
        dot, _ = bce_group(acts, next(packed_groups(cl)))
        assert abs(dot - dot_ref(acts, weights[0])) <= 127 * 4

    def test_accumulator_at_bound(self):
        g = 8
        weights = np.full((1, g), -127, dtype=np.int8)
        cl = compress_groups(weights)
        acts = np.full(g, 127, dtype=np.int64)
        dot, _ = bce_group(acts, next(packed_groups(cl)))
        assert dot == -g * 127 * 127

    def test_accumulator_holds_minus_128_activations(self):
        g = 8
        weights = np.full((1, g), 127, dtype=np.int8)
        cl = compress_groups(weights)
        acts = np.full(g, -128, dtype=np.int64)
        dot, _ = bce_group(acts, next(packed_groups(cl)))
        assert dot == dot_ref(acts, weights[0]) == -g * 128 * 127

    def test_accumulator_overflow_raises_value_error(self):
        # activations outside int8 overrun the accumulator width
        cl = compress_groups(np.full((1, 8), 127, dtype=np.int8))
        with pytest.raises(ValueError, match="accumulator range exceeded"):
            bce_group(np.full(8, 129, dtype=np.int64), next(packed_groups(cl)))

    def test_skip_soundness_full_walk(self, rng):
        # summing all 8 columns (zero columns included) equals the scheduled walk
        weights = rng.integers(-16, 17, size=(20, 8), dtype=np.int8)
        cl = compress_groups(weights)
        sm = codec.sm_encode(weights)
        for i, pg in enumerate(packed_groups(cl)):
            acts = rng.integers(-128, 128, size=8)
            dot, _ = bce_group(acts, pg)
            signs = (sm[i] >> 7) & 1
            full = sum(bce_column(acts, (sm[i] >> b) & 1, signs, b) for b in range(7))
            assert dot == full


class TestDotRef:
    def test_simple(self):
        assert dot_ref([1, 2], [3, 4]) == 11

    def test_minus128(self):
        assert dot_ref([-128, 0], [1, 0]) == -128

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot_ref([1], [1, 2])


def simulate(values, g, su_id, **shape_kw):
    shape = LayerShape(**shape_kw)
    cl = codec.compress_layer(np.asarray(values, dtype=np.int8).reshape(shape.weight_dims),
                              g, mode="bcs")
    return simulate_layer(cl, shape, mapper.catalog_su(su_id))


class TestSimulateLayer:
    def test_uniform_workload_no_loss(self):
        # every element +21 (bits 0,2,4): nz=3 for every group
        vals = np.full((32, 8, 1, 1), 21, dtype=np.int8)
        cc = simulate(vals, 8, "SU1", k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        assert cc.total_cycles == 3
        assert cc.barrier_loss == 0
        assert cc.n_waves == 1

    def test_max_rule_loss(self):
        # kernel 0 groups have nz=1, kernel 1 groups nz=5: step cost 5, loss 4
        vals = np.empty((2, 8, 1, 1), dtype=np.int8)
        vals[0] = 1    # bit 0 only
        vals[1] = 87   # bits 0,1,2,4,6
        cc = simulate(vals, 8, "SU1", k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        assert cc.total_cycles == 5
        assert cc.barrier_loss == 4

    def test_t_out_scales_cycles(self):
        vals = np.full((32, 8, 1, 1), 21, dtype=np.int8)
        cc = simulate(vals, 8, "SU1", k=32, c=8, fy=1, fx=1, ox=32, oy=4)
        assert cc.t_out == 2 * 4
        assert cc.total_cycles == 3 * 8

    def test_group_larger_than_cu_repeats(self):
        vals = np.full((32, 16, 1, 1), 21, dtype=np.int8)
        cc = simulate(vals, 16, "SU1", k=32, c=16, fy=1, fx=1, ox=16, oy=1)
        assert cc.group_repeat == 2
        assert cc.total_cycles == 3 * 2

    def test_dense_mode_eight_cycles_per_group(self, rng):
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
        cl = codec.compress_layer(vals, 8, mode="dense")
        cc = simulate_layer(cl, shape, mapper.catalog_su("SU1"))
        assert cc.total_cycles == 8
        assert cc.barrier_loss == 0

    def test_group_not_multiple_of_cu_rejected(self, rng):
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
        cl = codec.compress_layer(vals, 4, mode="bcs")
        with pytest.raises(MappingError, match="multiple"):
            simulate_layer(cl, shape, mapper.catalog_su("SU1"))

    def test_depthwise_on_su7(self, rng):
        shape = LayerShape(k=64, c=1, fy=1, fx=1, ox=4, oy=1, kind="depthwise-conv")
        vals = np.full(shape.weight_dims, 21, dtype=np.int8)
        cl = codec.compress_layer(vals, 8, mode="bcs")
        cc = simulate_layer(cl, shape, mapper.catalog_su("SU7"))
        assert cc.n_waves == 1
        assert cc.total_cycles == 3 * 2  # t_out = ceil(4/2)

    def test_depthwise_needs_su7(self, rng):
        shape = LayerShape(k=8, c=1, fy=1, fx=1, ox=4, oy=1, kind="depthwise-conv")
        cl = codec.compress_layer(np.zeros(shape.weight_dims, np.int8), 8, mode="bcs")
        with pytest.raises(MappingError):
            simulate_layer(cl, shape, mapper.catalog_su("SU1"))

    def test_post_flip_uniform_z_has_no_loss(self, rng):
        from bitcol.bitflip import flip_layer
        shape = LayerShape(k=64, c=8, fy=1, fx=1, ox=16, oy=1)
        vals = -rng.integers(1, 121, size=shape.weight_dims).astype(np.int8)
        vals[:, 0] = -127
        res = flip_layer(vals, 8, 4)
        cl = codec.compress_layer(res.values, 8, mode="bcs")
        cc = simulate_layer(cl, shape, mapper.catalog_su("SU1"))
        assert cc.barrier_loss == 0


    def test_group_count_checked_before_column_counts(self, monkeypatch):
        shape = LayerShape(k=2, c=8, fy=1, fx=1, ox=16, oy=1)
        cl = codec.compress_layer(np.ones(shape.weight_dims, np.int8), 8, mode="dense")
        cl.n_groups = 2**32 - 1  # a header the container reader would reject

        def nz_columns(*_):
            raise AssertionError("nz_columns sized by an unchecked group count")
        monkeypatch.setattr(codec, "nz_columns", nz_columns)
        with pytest.raises(MappingError, match="group count"):
            simulate_layer(cl, shape, mapper.catalog_su("SU1"))


class TestVerifyLayer:
    def test_clean_layer_verifies(self, rng):
        shape = LayerShape(k=4, c=16, fy=1, fx=1, ox=4, oy=4)
        vals = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
        cl = codec.compress_layer(vals, 8, mode="bcs")
        assert verify_layer(cl, vals) == 0

    def test_corrupted_layer_caught(self, rng):
        shape = LayerShape(k=4, c=16, fy=1, fx=1, ox=4, oy=4)
        vals = rng.integers(1, 128, size=shape.weight_dims, dtype=np.int8)
        cl = codec.compress_layer(vals, 8, mode="bcs")
        cl.columns = cl.columns.copy()
        cl.columns[0] ^= 0xFF  # every element of group 0 changes one magnitude bit
        assert verify_layer(cl, vals) == 1
