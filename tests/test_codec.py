import math

import numpy as np
import pytest

import oracles
from bitcol import codec
from bitcol.codec import (
    CompressedLayer,
    column_index,
    compress_layer,
    compression_ratio,
    csr_size,
    decompress_layer,
    partition_groups,
    sparsity_stats,
    zre_size,
)


def tensor(values, k=1, c=None, fy=1, fx=1):
    arr = np.asarray(values, dtype=np.int8)
    c = c if c is not None else arr.size // (k * fy * fx)
    return arr.reshape(k, c, fy, fx)


class TestSignMagnitude:
    def test_minus_three(self):
        bits = codec.sm_encode(np.array([-3]))
        assert (bits[0] >> 7, bits[0] & 0x7F) == (1, 3)
        assert bits[0] == 0b1000_0011

    def test_zero_normalized(self):
        bits = codec.sm_encode(np.array([0]))
        assert bits[0] == 0

    def test_minus_128_clamps(self):
        bits = codec.sm_encode(np.array([-128]))
        assert (bits[0] >> 7, bits[0] & 0x7F) == (1, 127)

    def test_sm_clamp_reads_minus_128_as_minus_127(self):
        vals = np.arange(-128, 128, dtype=np.int8)
        clamped = codec.sm_clamp(vals)
        assert clamped.dtype == np.int8
        assert clamped[0] == -127 and np.array_equal(clamped[1:], vals[1:])
        # the codec stores exactly the clamped values
        assert np.array_equal(codec.sm_decode(codec.sm_encode(vals)), clamped)

    def test_clamp_and_encode_keep_the_int16_formulas(self):
        def clamp(v):
            return np.clip(np.asarray(v, dtype=np.int16), -127, 127).astype(np.int8)

        for vals in (np.arange(-128, 128, dtype=np.int8),
                     np.array([-40000, -300, -129, -128, -127, 0, 127, 128, 300, 40000]),
                     [-300, -129, -128, -1, 0, 1, 127, 128, 300]):
            got, want = codec.sm_clamp(vals), clamp(vals)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            bits = codec.sm_encode(vals)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, ((want < 0).astype(np.uint8) << 7)
                                  | np.abs(want).astype(np.uint8))
        # a list value outside int16 is an error, not a wrapped sign flip
        for fn in (clamp, codec.sm_clamp, codec.sm_encode):
            with pytest.raises(OverflowError):
                fn([5, 40000, -3])

    def test_roundtrip_all_values(self):
        vals = np.arange(-127, 128, dtype=np.int8)
        assert np.array_equal(codec.sm_decode(codec.sm_encode(vals)), vals)


class TestPartition:
    def test_exact_fit_single_group(self):
        groups = partition_groups(tensor([1, 2, 3, 4]), 4)
        assert groups.shape == (1, 4)

    def test_tail_padding(self):
        groups = partition_groups(tensor([5, 6, 7]), 4)
        assert groups.shape == (1, 4)
        assert list(groups[0]) == [5, 6, 7, 0]

    def test_group_order_k_major_then_channel_blocks(self):
        # values encode their (k, c) coordinate so ordering is observable
        vals = np.arange(16, dtype=np.int8).reshape(2, 8, 1, 1)
        groups = partition_groups(vals, 4)
        assert groups.shape == (4, 4)
        expect = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        assert groups.tolist() == expect

    def test_position_before_channel_block(self):
        vals = np.arange(8, dtype=np.int8).reshape(1, 4, 2, 1)  # c0..c3 x fy0..fy1
        groups = partition_groups(vals, 2)
        # element (c, fy) stored value 2*c + fy; group order: fy outer, c-block inner
        assert groups.tolist() == [[0, 2], [4, 6], [1, 3], [5, 7]]

    def test_coords(self):
        # group i starts at (k, channel offset) (0, 0), (0, 4), (1, 0)
        vals = np.arange(16, dtype=np.int8).reshape(2, 8, 1, 1)
        groups = partition_groups(vals, 4)
        assert [groups[i][0] for i in range(3)] == [vals[0, 0, 0, 0], vals[0, 4, 0, 0],
                                                   vals[1, 0, 0, 0]]

    def test_unpartition_inverse(self, rng):
        for _ in range(20):
            k, c = int(rng.integers(1, 5)), int(rng.integers(1, 40))
            fy, fx = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            vals = rng.integers(-127, 128, size=(k, c, fy, fx), dtype=np.int8)
            for g in (1, 4, 8, 32):
                groups = partition_groups(vals, g)
                assert np.array_equal(codec.unpartition_groups(groups, vals.shape), vals)

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            partition_groups(tensor([1]), 3)


class TestColumnIndex:
    def test_example_group(self):
        # {+2,+6,+4,+4}: bits 1 and 2 occur, sign column clear
        assert column_index(np.array([2, 6, 4, 4], dtype=np.int8)) == 0b0000_0110

    def test_all_zero(self):
        assert column_index(np.zeros(8, dtype=np.int8)) == 0x00

    def test_negative_sets_sign_bit(self, rng):
        for _ in range(50):
            g = rng.integers(-127, 128, size=8, dtype=np.int8)
            g[rng.integers(0, 8)] = -int(rng.integers(1, 128))
            assert column_index(g) & 0x80


class TestCompression:
    def test_example_cost_16_bits(self):
        cl = compress_layer(tensor([2, 6, 4, 4]), 4, mode="bcs")
        assert cl.bcs_bits == 16
        assert cl.dense_bits == 32
        assert compression_ratio(cl) == 2.0

    def test_all_zero_costs_index_only(self):
        cl = compress_layer(np.zeros((2, 16, 1, 1), dtype=np.int8), 8, mode="bcs")
        assert cl.bcs_bits == 8 * cl.n_groups
        assert compression_ratio(cl) == 8.0

    def test_dense_payload_identity(self, rng):
        vals = rng.integers(-128, 128, size=(3, 7, 2, 2), dtype=np.int8)
        cl = compress_layer(vals, 8, mode="dense")
        assert np.array_equal(cl.dense_values, vals.reshape(-1))
        assert np.array_equal(decompress_layer(cl, vals.shape), vals)
        assert compression_ratio(cl) == 1.0

    def test_auto_prefers_smaller(self, rng):
        zeros = np.zeros((1, 64, 1, 1), dtype=np.int8)
        assert compress_layer(zeros, 8).mode == "bcs"
        dense_bits = rng.choice([-86, 85, -127, 127], size=(1, 64, 1, 1)).astype(np.int8)
        assert compress_layer(dense_bits, 8).mode == "dense"

    def test_roundtrip_randomized(self, rng):
        for _ in range(60):
            k, c = int(rng.integers(1, 6)), int(rng.integers(1, 50))
            fy, fx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            vals = rng.integers(-127, 128, size=(k, c, fy, fx), dtype=np.int8)
            for g in (1, 2, 4, 8, 16, 32, 64):
                cl = compress_layer(vals, g, mode="bcs")
                assert np.array_equal(decompress_layer(cl, vals.shape), vals)

    def test_minus_128_roundtrips_clamped(self):
        vals = tensor([-128, 1, -128, 0])
        cl = compress_layer(vals, 4, mode="bcs")
        assert decompress_layer(cl, vals.shape).reshape(-1).tolist() == [-127, 1, -127, 0]

    def test_index_soundness(self, rng):
        vals = rng.integers(-127, 128, size=(4, 32, 1, 1), dtype=np.int8)
        cl = compress_layer(vals, 8, mode="bcs")
        assert int(oracles.POPCOUNT[cl.indexes].sum()) == len(cl.columns)

    def test_truncation_detected(self, rng):
        vals = rng.integers(-127, 128, size=(2, 16, 1, 1), dtype=np.int8)
        cl = compress_layer(vals, 8, mode="bcs")
        broken = CompressedLayer.__new__(CompressedLayer)
        broken.__dict__.update(vars(cl))
        broken.columns = cl.columns[:-1]
        with pytest.raises(codec.ContainerError):
            decompress_layer(broken, vals.shape)

    @pytest.mark.parametrize("mode", ["bcs", "dense"])
    def test_dims_must_hold_the_value_count(self, rng, mode):
        vals = rng.integers(-127, 128, size=(2, 16, 1, 1), dtype=np.int8)
        cl = compress_layer(vals, 8, mode=mode)
        with pytest.raises(codec.ContainerError, match="do not match element count 32"):
            decompress_layer(cl, (2, 16, 1, 2))

    @pytest.mark.parametrize("g", [8, 64])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_unpack_rejects_index_payload_length_mismatch(self, rng, g, extra):
        vals = rng.integers(-127, 128, size=(3, 70, 1, 1), dtype=np.int8)
        cl = compress_layer(vals, g, mode="bcs")
        broken = CompressedLayer.__new__(CompressedLayer)
        broken.__dict__.update(vars(cl))
        broken.columns = cl.columns[:extra] if extra < 0 else \
            np.concatenate([cl.columns, cl.columns[:extra]])
        with pytest.raises(codec.ContainerError, match="index/payload length mismatch"):
            codec.unpack_groups(broken)

    @pytest.mark.parametrize("g,c", [(1, 7), (64, 5), (64, 70), (64, 130)])
    def test_roundtrip_channel_tail(self, rng, g, c):
        # at G=64 the last channel block of every kernel position is zero padded
        vals = rng.integers(-127, 128, size=(3, c, 2, 3), dtype=np.int8)
        vals[rng.random(vals.shape) < 0.3] = 0
        cl = compress_layer(vals, g, mode="bcs")
        assert cl.n_groups == 3 * 2 * 3 * math.ceil(c / g)
        assert np.array_equal(decompress_layer(cl, vals.shape), vals)

    @pytest.mark.parametrize("n_groups", [0, 3, 17, 2**32 - 1])
    def test_group_count_outside_value_bounds_rejected(self, n_groups):
        # 16 values at G=4 need between ceil(16/4) = 4 and 16 groups
        with pytest.raises(codec.ContainerError, match="groups cannot hold"):
            CompressedLayer("d", 4, "dense", 16, n_groups, dense_values=np.zeros(16, np.int8))
        for ok in (4, 16):
            CompressedLayer("d", 4, "dense", 16, ok, dense_values=np.zeros(16, np.int8))


class TestCompressionRatio:
    def test_every_column_nonzero_g8(self):
        # magnitude 127 everywhere with one negative: all 8 columns live
        vals = np.full((1, 8, 1, 1), 127, dtype=np.int8)
        vals[0, 0] = -127
        cl = compress_layer(vals, 8, mode="bcs")
        assert compression_ratio(cl) == pytest.approx(64 / 72)

    def test_ideal_without_index(self):
        cl = compress_layer(tensor([2, 6, 4, 4]), 4, mode="bcs")
        assert compression_ratio(cl, include_index=False) == 32 / 8

    def test_all_zero_ideal_is_inf(self):
        cl = compress_layer(np.zeros((1, 8, 1, 1), dtype=np.int8), 8, mode="bcs")
        assert compression_ratio(cl, include_index=False) == math.inf

    def test_with_index_never_beats_ideal_g1(self, rng):
        for _ in range(20):
            vals = rng.integers(-127, 128, size=(1, 24, 1, 1), dtype=np.int8)
            vals[0, rng.integers(0, 24, size=10)] = 0
            cl = compress_layer(vals, 1, mode="bcs")
            assert compression_ratio(cl) <= compression_ratio(cl, include_index=False)

    def test_ideal_cr_monotone_in_group_size(self, rng):
        for _ in range(50):
            k, c = int(rng.integers(1, 4)), int(rng.integers(1, 40))
            vals = rng.integers(-64, 65, size=(k, c, 1, 1), dtype=np.int8)
            crs = [compression_ratio(compress_layer(vals, g, mode="bcs"), include_index=False)
                   for g in (1, 2, 4, 8, 16, 32, 64)]
            for a, b in zip(crs, crs[1:]):
                assert a >= b or (math.isinf(a) and math.isinf(b))


class TestBaselineCodecs:
    def test_zre_all_zero_row(self):
        assert zre_size(np.zeros(16, dtype=np.int8)) == 12

    def test_zre_dense_row(self):
        assert zre_size(np.ones(16, dtype=np.int8)) == 16 * 12

    def test_zre_run_splitting(self):
        # 17 zeros: a (15, 0) entry covering 16, then a (0, 0) closer
        assert zre_size(np.zeros(17, dtype=np.int8)) == 24
        # 16 zeros then a value: (15, 0) + (0, v)
        vals = np.zeros(17, dtype=np.int8)
        vals[16] = 9
        assert zre_size(vals) == 24

    def test_zre_brute_force_small(self, rng):
        for _ in range(100):
            vals = rng.choice([0, 0, 0, 1, -5], size=rng.integers(1, 60)).astype(np.int8)
            assert zre_size(vals) == oracles.zre_size(vals)

    def test_csr_between_ideal_and_dense_at_half_sparsity(self, rng):
        vals = rng.integers(1, 127, size=256, dtype=np.int8)
        vals[rng.permutation(256)[:128]] = 0
        size = csr_size(vals, 16)
        nnz = int(np.count_nonzero(vals))
        assert 8 * nnz < size < 8 * vals.size

    def test_csr_formula(self):
        vals = np.array([0, 3, 0, 0, 5, 6, 0, 0], dtype=np.int8)
        # 2 rows of 4, nnz=3: 3*(8+2) + 3*ceil(log2(4)) pointers
        assert csr_size(vals, 4) == 3 * (8 + 2) + 3 * 2


class TestSparsityStats:
    def test_all_zero(self):
        (st,) = sparsity_stats(np.zeros((1, 16, 1, 1), dtype=np.int8), (8,))
        assert st.value_sparsity == 1.0
        assert st.bit_sparsity_tc == 1.0
        assert st.bit_sparsity_sm == 1.0
        assert st.column_sparsity_sm == 1.0
        assert st.column_sparsity_tc == 1.0

    def test_all_127_sm_bit_sparsity(self):
        (st,) = sparsity_stats(np.full((1, 8, 1, 1), 127, dtype=np.int8), (8,))
        assert st.bit_sparsity_sm == pytest.approx(1 / 8)

    def test_value_sparsity_half(self):
        (st,) = sparsity_stats(tensor([0, 0, 1, 3]), (4,))
        assert st.value_sparsity == 0.5

    def test_nonnegative_encodings_agree(self, rng):
        vals = rng.integers(0, 128, size=(2, 16, 1, 1), dtype=np.int8)
        (st,) = sparsity_stats(vals, (8,))
        assert st.bit_sparsity_sm == pytest.approx(st.bit_sparsity_tc)
        assert st.column_sparsity_sm == pytest.approx(st.column_sparsity_tc)

    def test_sr_guard(self):
        (st,) = sparsity_stats(np.full((1, 4, 1, 1), 3, dtype=np.int8), (4,))
        assert math.isinf(st.sr_sm) and math.isinf(st.sr_tc)

    @pytest.mark.parametrize("g", codec.GROUP_SIZES)
    def test_bit_sparsity_counts_the_unpadded_tensor(self, rng, g):
        # C = 37 pads every kernel position's last group; -128 clamps in sm
        vals = rng.integers(-128, 128, size=(3, 37, 3, 3), dtype=np.int8)
        vals[rng.random(vals.shape) < 0.25] = 0
        n = vals.size
        (st,) = sparsity_stats(vals, (g,))
        tc, sm = vals.view(np.uint8), codec.sm_encode(vals)
        assert st.bit_sparsity_tc == 1.0 - float(oracles.POPCOUNT[tc].sum()) / (8 * n)
        assert st.bit_sparsity_sm == 1.0 - float(oracles.POPCOUNT[sm].sum()) / (8 * n)
        groups = partition_groups(vals, g)
        assert st.column_sparsity_sm == \
            1.0 - float(oracles.POPCOUNT[column_index(groups)].sum()) / (8 * len(groups))

    def test_sm_beats_tc_on_small_negatives(self, rng):
        vals = -rng.integers(1, 16, size=(2, 32, 1, 1)).astype(np.int8)
        (st,) = sparsity_stats(vals, (4,))
        assert st.column_sparsity_sm > st.column_sparsity_tc
        assert st.bit_sparsity_sm > st.bit_sparsity_tc


def _bcs(n_groups=1, indexes=(), columns=0):
    return CompressedLayer("x", 8, "bcs", 8, n_groups, indexes=np.array(indexes, dtype=np.uint8),
                           columns=np.zeros((columns, 1), dtype=np.uint8))


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: partition_groups(np.zeros((1, 8, 1, 1, 1), dtype=np.int8), 8),
                 ValueError, r"expected a \(K, C, FY, FX\) tensor", id="partition-5d"),
    pytest.param(lambda: CompressedLayer("x", 8, "zip", 8, 1), codec.ContainerError,
                 "unknown mode 'zip'", id="layer-mode"),
    pytest.param(lambda: CompressedLayer("x", 3, "dense", 8, 3, dense_values=np.zeros(8)),
                 codec.ContainerError, "group size 3 not in", id="layer-group-size"),
    pytest.param(lambda: CompressedLayer("x", 8, "bcs", 8, 1), codec.ContainerError,
                 "bcs layer needs indexes and columns", id="layer-no-indexes"),
    pytest.param(lambda: _bcs(indexes=[0, 0]), codec.ContainerError,
                 "index count does not match group count", id="layer-index-count"),
    pytest.param(lambda: _bcs(indexes=[1]), codec.ContainerError,
                 "index popcounts do not match stored column count", id="layer-column-count"),
    pytest.param(lambda: CompressedLayer("x", 8, "dense", 8, 1, dense_values=np.zeros(7)),
                 codec.ContainerError, "dense layer needs n_values raw bytes",
                 id="layer-dense-length"),
    pytest.param(lambda: compress_layer(np.zeros((1, 8, 1, 1), dtype=np.int8), 8, mode="zip"),
                 ValueError, "unknown mode 'zip'", id="compress-mode"),
    pytest.param(lambda: csr_size(np.zeros(4), 0), ValueError, "row_length must be >= 1",
                 id="csr-row-length"),
    pytest.param(lambda: sparsity_stats(np.zeros((0, 8, 1, 1), dtype=np.int8), [8]),
                 ValueError, "empty tensor", id="stats-empty"),
    pytest.param(lambda: sparsity_stats(np.zeros((1, 8, 1, 1), dtype=np.int8), [8, 3]),
                 ValueError, r"group sizes \[8, 3\] not all in", id="stats-group-size"),
])
def test_public_guard_rejects(call, error, message):
    with pytest.raises(error, match=message):
        call()
