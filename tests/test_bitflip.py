import math

import numpy as np
import pytest

from bitcol import bitflip, codec
from bitcol.bitflip import (
    ExternalOracle,
    apply_strategy,
    best_column_set,
    default_strategy,
    flip_layer,
    greedy_search,
    load_strategy,
    nearest_with_mask,
    proxy_oracle,
    save_strategy,
)
from bitcol.workload import ManifestError, Network, OracleError

from conftest import make_layer, make_network


def brute_force_error(group, z):
    """Exhaustive minimum squared error over all candidate vectors with
    >= z zero bits in the achieved 8-bit index (G <= 2)."""
    vals = np.arange(-127, 128, dtype=np.int64)
    bits, _ = codec.sm_encode(vals)
    if len(group) == 1:
        idx = bits
        err = (vals - int(group[0])) ** 2
    else:
        idx = np.bitwise_or(bits[:, None], bits[None, :])
        err = (vals[:, None] - int(group[0])) ** 2 + (vals[None, :] - int(group[1])) ** 2
    feasible = (8 - codec.POPCOUNT[idx]) >= z
    return int(err[feasible].min())


class TestNearestWithMask:
    def test_minus3_under_bit2_only_mask(self):
        assert nearest_with_mask(-3, 0b0000100) == -4

    def test_identity_when_unconstrained(self):
        assert nearest_with_mask(5, 0x7F) == 5

    def test_tie_breaks_toward_smaller_magnitude(self):
        # -1 with bit0 forbidden: 0 and -2 tie at distance 1
        assert nearest_with_mask(-1, 0x7E) == 0

    def test_identity_for_all_values(self):
        for v in range(-127, 128):
            assert nearest_with_mask(v, 0x7F) == v

    def test_optimal_against_scan(self, rng):
        # independent check: scan all magnitudes directly
        for _ in range(200):
            v = int(rng.integers(-127, 128))
            mask = int(rng.integers(0, 128))
            allowed = [m for m in range(128) if (m & ~mask) == 0]
            cands = sorted({c for m in allowed for c in (m, -m)})
            best = min(abs(v - c) for c in cands)
            got = nearest_with_mask(v, mask)
            assert (got & 0x7F if got >= 0 else (-got)) & ~mask == 0
            assert abs(v - got) == best

    def test_nonnegative_restriction(self):
        assert nearest_with_mask(-3, 0x7F, allow_negative=False) == 0
        assert nearest_with_mask(-100, 0b1100000, allow_negative=False) == 0

    def test_minus_128(self):
        assert nearest_with_mask(-128, 0x7F) == -127


class TestBestColumnSet:
    def test_z0_is_identity(self, rng):
        g = rng.integers(-127, 128, size=8, dtype=np.int8)
        res = best_column_set(g, 0)
        assert res.sq_error == 0
        assert np.array_equal(res.flipped, g)

    def test_fig4c_style_group(self):
        # 4-element group where the minimum-error 5-zero-column flip is
        # exactly -3 -> -4 with squared error 1
        res = best_column_set(np.array([-3, 4, -5, 4], dtype=np.int8), 5)
        assert res.sq_error == 1
        assert res.flipped.tolist() == [-4, 4, -5, 4]
        assert 8 - int(codec.POPCOUNT[res.index]) == 5

    def test_single_minus3_z5_feasible_unchanged(self):
        # -3 already has exactly five zero index bits
        res = best_column_set(np.array([-3], dtype=np.int8), 5)
        assert res.sq_error == 0 and res.flipped.tolist() == [-3]

    def test_single_minus3_z6_needs_distance_1(self):
        res = best_column_set(np.array([-3], dtype=np.int8), 6)
        assert res.sq_error == 1

    def test_z8_forces_zero(self, rng):
        g = rng.integers(-127, 128, size=4, dtype=np.int8)
        res = best_column_set(g, 8)
        assert res.flipped.tolist() == [0, 0, 0, 0]
        assert res.index == 0

    def test_sign_restricted_candidates_needed(self):
        # optimum (96, 0) relies on the zero sign column counting toward z
        res = best_column_set(np.array([96, -17], dtype=np.int8), 6)
        assert res.sq_error == brute_force_error([96, -17], 6) == 289
        assert res.flipped.tolist() == [96, 0]

    def test_matches_brute_force_g2(self, rng):
        for _ in range(40):
            g = rng.integers(-127, 128, size=2, dtype=np.int8)
            for z in (4, 5, 6):
                assert best_column_set(g, z).sq_error == brute_force_error(g, z)

    def test_matches_brute_force_g1(self, rng):
        for _ in range(40):
            g = rng.integers(-127, 128, size=1, dtype=np.int8)
            for z in range(9):
                assert best_column_set(g, z).sq_error == brute_force_error(g, z)

    def test_error_monotone_in_z(self, rng):
        for _ in range(20):
            g = rng.integers(-127, 128, size=8, dtype=np.int8)
            errs = [best_column_set(g, z).sq_error for z in range(9)]
            assert errs == sorted(errs)

    def test_feasibility_recomputed(self, rng):
        for _ in range(20):
            g = rng.integers(-127, 128, size=16, dtype=np.int8)
            z = int(rng.integers(0, 9))
            res = best_column_set(g, z)
            idx = codec.column_index(res.flipped)
            assert 8 - int(codec.POPCOUNT[idx]) >= z
            assert idx == res.index

    def test_bad_z(self):
        with pytest.raises(ValueError):
            best_column_set(np.zeros(4, dtype=np.int8), 9)


class TestFlipLayer:
    def test_z0_unchanged(self, rng):
        vals = rng.integers(-127, 128, size=(2, 16, 1, 1), dtype=np.int8)
        res = flip_layer(vals, 8, 0)
        assert np.array_equal(res.values, vals)
        assert res.total_sq_error == 0
        assert res.max_abs_error == 0

    def test_all_zero_any_z(self):
        vals = np.zeros((1, 16, 1, 1), dtype=np.int8)
        res = flip_layer(vals, 8, 7)
        assert np.array_equal(res.values, vals)
        assert res.zero_col_hist[8] == res.indexes.size

    def test_flip_improves_cr(self, rng):
        vals = rng.integers(-127, 128, size=(4, 32, 1, 1), dtype=np.int8)
        base = codec.compression_ratio(codec.compress_layer(vals, 8, mode="bcs"))
        res = flip_layer(vals, 8, 4)
        assert res.compression_ratio >= base

    def test_feasibility_every_group(self, rng):
        vals = rng.integers(-127, 128, size=(3, 24, 2, 2), dtype=np.int8)
        res = flip_layer(vals, 8, 5)
        idx = codec.column_index(codec.partition_groups(res.values, 8))
        assert int((8 - codec.POPCOUNT[idx]).min()) >= 5

    def test_values_stay_in_sm_range(self, rng):
        vals = rng.integers(-128, 128, size=(2, 32, 1, 1), dtype=np.int8)
        res = flip_layer(vals, 8, 3)
        assert res.values.min() >= -127

    def test_cr_equals_repacked_layer(self, rng):
        vals = rng.integers(-128, 128, size=(3, 40, 2, 1), dtype=np.int8)
        for g in codec.GROUP_SIZES:
            for z in range(9):
                res = flip_layer(vals, g, z)
                cl = codec.compress_layer(res.values, g, mode="bcs")
                assert res.compression_ratio == codec.compression_ratio(cl), (g, z)
                assert np.array_equal(res.indexes, cl.indexes)

    def test_postcondition_checked(self, rng, monkeypatch):
        # a solver that misses the target must not pass silently, even
        # under python -O
        def short(groups, z):
            flipped = np.asarray(groups, dtype=np.int8)
            idx = np.full(len(flipped), 0xFF, dtype=np.uint8)
            return flipped, idx, np.zeros(len(flipped), dtype=np.int64)

        monkeypatch.setattr(bitflip, "_solve_groups", short)
        vals = rng.integers(-127, 128, size=(1, 8, 1, 1), dtype=np.int8)
        with pytest.raises(RuntimeError, match="zero columns"):
            flip_layer(vals, 8, 3)

    def test_deterministic(self, rng):
        vals = rng.integers(-127, 128, size=(2, 32, 1, 1), dtype=np.int8)
        a = flip_layer(vals, 16, 4)
        b = flip_layer(vals, 16, 4)
        assert np.array_equal(a.values, b.values)
        assert a.total_sq_error == b.total_sq_error


class TestOracles:
    def test_proxy_zero_without_flips(self, small_net):
        for g in codec.AUTO_GROUP_SIZES:
            assert proxy_oracle(small_net)(default_strategy(small_net, g, 0)) == 0.0

    def test_proxy_one_unit_change(self):
        # z=7 leaves one magnitude column: 3 moves to 2 or 4, every 0 stays
        net = make_network("m", [make_layer("conv1", values=[3] + [0] * 15, k=2, c=8, fy=1,
                                            fx=1, ox=1, oy=1)])
        flipped, _ = apply_strategy(net, {"conv1": (8, 7)})
        delta = int(flipped.layers[0].weights[0, 0, 0, 0]) - 3
        assert abs(delta) == 1
        assert proxy_oracle(net)({"conv1": (8, 7)}) == pytest.approx(-delta ** 2 / net.n_weights)

    def test_proxy_matches_brute_sum(self, small_net, rng):
        strategy = {l.name: (8, 3) for l in small_net.layers}
        flipped, _ = apply_strategy(small_net, strategy)
        sse = sum(((f.weights.astype(np.int64) - o.weights.astype(np.int64)) ** 2).sum()
                  for f, o in zip(flipped.layers, small_net.layers))
        assert proxy_oracle(small_net)(strategy) == pytest.approx(-sse / small_net.n_weights)

    def test_proxy_measures_against_the_clamped_original(self):
        # -128 reads as -127, so the proxy counts the error the flip report counts
        layer = make_layer("l", values=[-128, 5, 3, 1, 0, 0, 0, 0], k=1, c=8, fy=1, fx=1,
                           ox=1, oy=1)
        net = make_network("m", [layer])
        flipped, results = apply_strategy(net, {"l": (8, 4)})
        assert results["l"].total_sq_error == 260
        assert proxy_oracle(net)({"l": (8, 4)}) == -260 / 8

    def test_proxy_unknown_layer(self, small_net):
        strategy = {**default_strategy(small_net), "fc": (8, 1)}
        with pytest.raises(OracleError, match=r"does not have: \['fc'\]"):
            proxy_oracle(small_net)(strategy)

    def test_proxy_missing_layer(self, small_net):
        with pytest.raises(OracleError, match=r"missing layers: \['conv2'\]"):
            proxy_oracle(small_net)({"conv1": (8, 1)})

    def test_external_strategy_must_name_the_layers(self, small_net):
        oracle = ExternalOracle("echo 0", small_net)
        with pytest.raises(OracleError, match=r"does not have: \['fc'\]"):
            oracle({**default_strategy(small_net), "fc": (8, 1)})
        with pytest.raises(OracleError, match=r"missing layers: \['conv2'\]"):
            oracle({"conv1": (8, 1)})

    def test_external_echo(self, small_net):
        assert ExternalOracle("echo 0.75", small_net)(default_strategy(small_net)) == 0.75

    def test_external_nonzero_exit(self, small_net):
        with pytest.raises(OracleError, match="exit"):
            ExternalOracle("false", small_net)(default_strategy(small_net))

    def test_external_unparseable(self, small_net):
        with pytest.raises(OracleError, match="unparseable"):
            ExternalOracle("echo not-a-float", small_net)(default_strategy(small_net))

    def test_external_stub_script_reads_manifest(self, small_net, tmp_path):
        # stub inference: metric derived from the manifest it receives
        script = tmp_path / "oracle.py"
        script.write_text(
            "import sys\n"
            "lines = open(sys.argv[1], encoding='utf-8').read().splitlines()\n"
            "layers = [l for l in lines if l.startswith('layer=')]\n"
            "print('log: evaluating')\n"
            "print(0.5 + 0.1 * len(layers))\n"
        )
        oracle = ExternalOracle(f"python3 {script} {{manifest}}", small_net)
        assert oracle(default_strategy(small_net)) == pytest.approx(0.7)


class TestGreedySearch:
    def test_floor_above_initial_returns_unchanged(self, small_net):
        calls = []

        def oracle(net):
            calls.append(1)
            return 0.5

        strategy = default_strategy(small_net)
        out = greedy_search(small_net, strategy, macc=0.7, oracle=oracle)
        assert out == strategy
        assert len(calls) == 2 * 3  # one full sweep ran

    def test_constant_oracle_saturates(self, rng):
        net = make_network("one", [make_layer("l", rng, k=1, c=8, fy=1, fx=1, ox=1, oy=1)])
        out = greedy_search(net, default_strategy(net), macc=0.9, oracle=lambda n: 1.0)
        assert out["l"][1] == 8

    def test_greedy_prefers_cheap_layer_first(self):
        # layer "free" already has >= 4 zero columns per group at z=1..4;
        # layer "costly" pays for any flip
        free = make_layer("free", values=np.full(8, 0x11, dtype=np.int8),
                          k=1, c=8, fy=1, fx=1, ox=1, oy=1)
        costly = make_layer("costly", values=np.array([-127, 85, -86, 73, -127, 85, -86, 73],
                                                      dtype=np.int8),
                            k=1, c=8, fy=1, fx=1, ox=1, oy=1)
        net = make_network("two", [costly, free])
        out = greedy_search(net, default_strategy(net), macc=-0.4, oracle=proxy_oracle(net))
        # the free layer absorbs deeper targets before the costly one moves
        assert out["free"][1] > out["costly"][1]

    def test_saturation_tie_last_slot_wins(self, rng):
        net = make_network("two", [
            make_layer("a", rng, k=1, c=8, fy=1, fx=1, ox=1, oy=1),
            make_layer("b", rng, k=1, c=8, fy=1, fx=1, ox=1, oy=1),
        ])
        seen = []

        def oracle(flipped):
            seen.append(1)
            return 1.0

        out = greedy_search(net, default_strategy(net), macc=0.0, oracle=oracle)
        assert out["a"][1] == 8 and out["b"][1] == 8
        # ties keep the later candidate: every committed move used gs=32
        assert out["a"][0] == 32 and out["b"][0] == 32

    def test_search_tries_the_auto_group_sizes(self, rng, monkeypatch):
        monkeypatch.setattr(codec, "AUTO_GROUP_SIZES", (16, 4))
        net = make_network("one", [make_layer("l", rng, k=1, c=16, fy=1, fx=1, ox=1, oy=1)])
        out = greedy_search(net, default_strategy(net), macc=0.0, oracle=lambda n: 1.0)
        assert out["l"] == (4, 8)

    def test_nonfinite_metric_raises(self, small_net):
        with pytest.raises(OracleError, match="non-finite"):
            greedy_search(small_net, default_strategy(small_net), macc=0.0,
                          oracle=lambda n: math.nan)

    def test_missing_layer_in_strategy(self, small_net):
        with pytest.raises(ManifestError):
            apply_strategy(small_net, {"conv1": (8, 0)})

    def test_determinism(self, small_net):
        oracle = proxy_oracle(small_net)
        a = greedy_search(small_net, default_strategy(small_net), macc=-0.2, oracle=oracle)
        b = greedy_search(small_net, default_strategy(small_net), macc=-0.2, oracle=oracle)
        assert a == b


class TestStrategyFile:
    def test_roundtrip(self, tmp_path):
        strategy = {"conv1": (8, 4), "fc": (32, 7)}
        path = tmp_path / "strategy.txt"
        save_strategy(strategy, path)
        assert load_strategy(path) == strategy

    def test_bad_line(self, tmp_path):
        path = tmp_path / "strategy.txt"
        path.write_text("layer=x G=eight z=1\n")
        with pytest.raises(ManifestError):
            load_strategy(path)

    def test_group_size_not_supported(self, tmp_path):
        path = tmp_path / "strategy.txt"
        path.write_text("layer=a G=8 z=1\nlayer=b G=12 z=1\n")
        with pytest.raises(ManifestError, match="strategy line 2: G=12 z=1"):
            load_strategy(path)

    def test_z_out_of_range(self, tmp_path):
        path = tmp_path / "strategy.txt"
        for z in (-1, 9, 12):
            path.write_text(f"layer=a G=8 z=1\n\nlayer=b G=8 z={z}\n")
            with pytest.raises(ManifestError, match=f"strategy line 3: G=8 z={z}, need"):
                load_strategy(path)

    def test_token_without_equals(self, tmp_path):
        path = tmp_path / "strategy.txt"
        path.write_text("# header\nlayer=a G=8 z\n")
        with pytest.raises(ManifestError, match="strategy line 2"):
            load_strategy(path)
