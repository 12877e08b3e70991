import configparser
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bitcol import codec, engine, mapper, perf
from bitcol.perf import (
    AcceleratorSpec,
    ActivityCounts,
    EffectiveCounts,
    EnergyBreakdown,
    LatencyTerms,
    UnitCosts,
    compare,
    dense_activity,
    effective_macs,
    effective_memory,
    evaluate_network,
    imbalance_adjust,
    latency_terms,
    load_spec_configs,
    preset,
    total_energy,
    total_latency,
    weight_compression,
)
from bitcol.workload import ConfigError, LayerShape, Network

from conftest import make_layer, make_network


def stub_counts(n_mac=100, n_mac_cycle=10.0, **overrides):
    base = dict(
        n_mac=n_mac, n_mac_cycle=n_mac_cycle, utilization=1.0, steps=1, passes=1,
        dram_read_w=0.0, dram_read_a=0.0, dram_write_w=0.0, dram_write_a=0.0,
        sram_read_input=0.0, sram_read_weight=0.0, sram_read_output=0.0,
        sram_write_input=0.0, sram_write_weight=0.0, sram_write_output=0.0,
        reg_read=0.0, reg_write=0.0,
    )
    base.update(overrides)
    return ActivityCounts(**base)


class TestEffectiveMacs:
    def test_value_skip_substitution(self):
        n_e, cc = effective_macs(stub_counts(), 0.2, 0.1, "value-skip")
        assert n_e == 72.0
        assert cc == 7.2

    def test_zero_sparsity_identity(self):
        n_e, cc = effective_macs(stub_counts(), 0.0, 0.0, "value-skip")
        assert n_e == 100.0 and cc == 10.0

    def test_none_mode_forces_terms_to_zero(self):
        n_e, _ = effective_macs(stub_counts(), 0.9, 0.9, "none")
        assert n_e == 100.0

    def test_bit_mode_keeps_macs_scales_cycles(self):
        n_e, cc = effective_macs(stub_counts(), 0.0, 0.0, "bit-column-skip", nz_fraction=3 / 8)
        assert n_e == 100.0
        assert cc == pytest.approx(10 * 3 / 8)

    def test_bit_mode_needs_fraction(self):
        with pytest.raises(ValueError):
            effective_macs(stub_counts(), 0.0, 0.0, "bit-skip")

    def test_bound_property(self, rng):
        for _ in range(50):
            sa, sw = rng.random(), rng.random()
            n_e, _ = effective_macs(stub_counts(), sa, sw, "value-skip")
            assert n_e <= 100.0
            assert (n_e == 100.0) == (sa == 0 and sw == 0)


class TestEffectiveMemory:
    def test_identity_at_cr_one(self):
        counts = stub_counts(dram_read_w=64, dram_read_a=32, sram_read_weight=128)
        eff = effective_memory(counts, 1.0, 1.0)
        assert eff.dram_read_w == 64 and eff.dram_read_a == 32
        assert eff.sram_read_weight == 128

    def test_weight_cr_halves_weight_traffic_only(self):
        counts = stub_counts(dram_read_w=64, dram_read_a=32, sram_write_weight=10)
        eff = effective_memory(counts, 2.0, 1.0)
        assert eff.dram_read_w == 32 and eff.sram_write_weight == 5
        assert eff.dram_read_a == 32

    def test_cr_guard(self):
        with pytest.raises(ValueError):
            effective_memory(stub_counts(), 0.0, 1.0)

    def test_bcs_cr_matches_container_byte_count(self, rng, tmp_path):
        # independent oracle: effective weight DRAM reads equal the actual
        # container payload bytes times the pass count
        from bitcol import model_io
        layer = make_layer("w", rng, k=4, c=32, fy=3, fx=3, ox=8, oy=8)
        layer.weights[rng.random(size=layer.weights.shape) < 0.6] = 0
        spec = replace(preset("bitcol"), group_size=8)
        cr_w, cl = weight_compression(layer, spec)
        counts = dense_activity(layer.shape, spec)
        eff = effective_memory(counts, cr_w, 1.0)
        path = tmp_path / "c.bcsw"
        model_io.write_compressed(path, [cl])
        payload_bytes = len(path.read_bytes()) - (5 + 2 + len("w") + 2 + 8)
        assert eff.dram_read_w == pytest.approx(payload_bytes * counts.passes)


class TestTotalEnergy:
    def test_all_zero_costs(self):
        eff = effective_memory(stub_counts(dram_read_w=100), 1.0, 1.0)
        br = total_energy(eff, UnitCosts(e_mac=0, e_dram_bit=0, e_sram_bit=0, e_reg_bit=0))
        assert br.total == 0.0

    def test_ten_macs_at_unit_cost(self):
        eff = effective_memory(stub_counts(n_mac=10, n_mac_cycle=1.0), 1.0, 1.0)
        eff.n_mac_e = 10
        br = total_energy(eff, UnitCosts(e_mac=1.0, e_dram_bit=0, e_sram_bit=0, e_reg_bit=0))
        assert br.total == 10.0

    def test_hand_computed_breakdown(self):
        counts = stub_counts(n_mac=50, dram_read_w=8, dram_write_a=2,
                             sram_read_input=4, reg_read=6, reg_write=3)
        eff = effective_memory(counts, 1.0, 1.0)
        eff.n_mac_e = 50
        eff.reg_read_e, eff.reg_write_e = 6, 3
        costs = UnitCosts(e_mac=2.0, e_dram_bit=1.0, e_sram_bit=0.5, e_reg_bit=0.25)
        br = total_energy(eff, costs)
        assert br.mac == 100.0
        assert br.dram == (8 + 2) * 8 * 1.0
        assert br.sram == 4 * 8 * 0.5
        assert br.reg == (6 + 3) * 8 * 0.25
        assert br.total == br.mac + br.dram + br.sram + br.reg

    def test_additivity_random(self, rng):
        for _ in range(20):
            counts = stub_counts(**{f: float(rng.integers(0, 100)) for f in (
                "dram_read_w", "dram_read_a", "dram_write_a", "sram_read_input",
                "sram_read_weight", "sram_write_output", "reg_read", "reg_write")})
            eff = effective_memory(counts, 1.0, 1.0)
            br = total_energy(eff, UnitCosts())
            assert br.total == pytest.approx(br.mac + br.dram + br.sram + br.reg)


class TestTotalLatency:
    def test_compute_bound_case(self):
        t = LatencyTerms(dram=100, sram_write_output=10, sram_read_input=5,
                         sram_read_weight=7, reg_read=3, reg_write=2, cc_mac=50)
        assert total_latency(t) == 100 + 10 + 50

    def test_memory_bound_case(self):
        t = LatencyTerms(dram=100, sram_write_output=10, sram_read_input=5,
                         sram_read_weight=80, reg_read=3, reg_write=2, cc_mac=50)
        assert total_latency(t) == 100 + 10 + 80

    def test_register_terms_participate(self):
        t = LatencyTerms(dram=0, sram_write_output=0, sram_read_input=0,
                         sram_read_weight=0, reg_read=9, reg_write=11, cc_mac=5)
        assert total_latency(t) == 11

    def test_monotone_in_every_term(self, rng):
        base = LatencyTerms(10, 5, 3, 4, 2, 1, 6)
        t0 = total_latency(base)
        for field in vars(base):
            bumped = LatencyTerms(**{**vars(base), field: getattr(base, field) + 5})
            assert total_latency(bumped) >= t0


class TestImbalance:
    def test_uniform_no_adjustment(self):
        spec = preset("scnn")
        assert imbalance_adjust(0.5, spec, np.full(32, 0.5)) == pytest.approx(0.5)

    def test_lockstep_max_work(self):
        spec = replace(preset("scnn"), sync_lanes=2)
        assert imbalance_adjust(0.25, spec, np.array([0.5, 0.0])) == 0.0

    def test_scalar_passthrough(self):
        assert imbalance_adjust(0.3, preset("scnn")) == 0.3

    def test_none_mode_identity(self):
        assert imbalance_adjust(0.3, preset("dense")) == 0.3


class TestDenseActivity:
    def test_single_mac_layer(self):
        spec = AcceleratorSpec("one", su=mapper.make_custom_su(1, 1, 1, su_id="pe1"))
        counts = dense_activity(LayerShape(k=1, c=1, fy=1, fx=1, ox=1, oy=1), spec)
        assert counts.n_mac == 1
        assert counts.dram_read_w == 1
        assert counts.passes == 1

    def test_single_pass_when_fits(self, rng):
        spec = preset("bitcol")
        shape = LayerShape(k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        counts = dense_activity(shape, spec)
        assert counts.passes == 1
        assert counts.dram_read_w == shape.n_weights

    def test_two_passes_double_weight_reads(self):
        shape = LayerShape(k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        spec = preset("bitcol")
        spec = replace(spec, costs=replace(spec.costs, weight_sram_bytes=shape.n_weights // 2))
        counts = dense_activity(shape, spec)
        assert counts.passes == 2
        assert counts.dram_read_w == 2 * shape.n_weights

    def test_mac_count(self):
        shape = LayerShape(k=4, c=3, fy=2, fx=2, ox=5, oy=6, b=2)
        counts = dense_activity(shape, preset("bitcol"))
        assert counts.n_mac == 2 * 4 * 3 * 5 * 6 * 2 * 2

    def test_sram_reads_follow_su(self):
        spec = AcceleratorSpec("fixed", su="SU1", bit_serial=True)
        shape = LayerShape(k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        counts = dense_activity(shape, spec)
        assert counts.steps == 1
        assert counts.sram_read_input == 8 * 16
        assert counts.sram_read_weight == 8 * 32


class TestBitColumnCycles:
    def test_uniform_three_columns_is_three_eighths(self):
        spec = AcceleratorSpec("col", su="SU1", bit_serial=True,
                               sparsity_mode="bit-column-skip", weight_codec="bcs",
                               group_size=8)
        layer = make_layer("u", values=np.full(32 * 8, 21, dtype=np.int8),
                           k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        rep = perf.evaluate_layer(layer, spec)
        counts = dense_activity(layer.shape, spec)
        assert rep.eff.cc_mac_e == pytest.approx((counts.n_mac / counts.n_mac_cycle) * 3 / 8)
        # cross-check against the functional simulator
        cl = codec.compress_layer(layer.weights, 8, mode="bcs")
        sim = engine.simulate_layer(cl, layer.shape, mapper.catalog_su("SU1"))
        assert rep.eff.cc_mac_e == pytest.approx(sim.total_cycles)

    @pytest.mark.parametrize("sign_cycle", [False, True])
    def test_cycles_are_the_simulator_count_of_the_one_pack(self, rng, monkeypatch, sign_cycle):
        spec = AcceleratorSpec("col", su="SU1", bit_serial=True, sparsity_mode="bit-column-skip",
                               weight_codec="bcs", group_size=8, sign_cycle=sign_cycle)
        layer = make_layer("r", rng, k=48, c=16, fy=3, fx=3, ox=20, oy=5)
        packs = []
        real = codec.compress_layer
        monkeypatch.setattr(codec, "compress_layer",
                            lambda *a, **k: packs.append(a[1]) or real(*a, **k))
        rep = perf.evaluate_layer(layer, spec)
        assert packs == [8]  # weight_compression packs once; nothing else packs
        sim = engine.simulate_layer(real(layer.weights, 8), layer.shape,
                                    mapper.catalog_su("SU1"), sign_cycle)
        assert rep.eff.cc_mac_e == pytest.approx(sim.total_cycles, rel=1e-12)

    def test_model_matches_simulator_on_random_net(self, rng):
        spec = replace(preset("bitcol"), dram_bytes_per_cycle=512)
        net = make_network("synth", [
            make_layer("l1", rng, k=32, c=32, fy=3, fx=3, ox=32, oy=32),
            make_layer("l2", rng, k=64, c=32, fy=3, fx=3, ox=16, oy=16),
            make_layer("l3", rng, k=64, c=64, fy=1, fx=1, ox=16, oy=16,
                       kind="pointwise-conv"),
        ])
        model = evaluate_network(net, spec).total_cycles
        sim = 0
        for layer in net.layers:
            su = spec.resolve_su(layer.shape)
            _, cl = weight_compression(layer, spec)
            sim += engine.simulate_layer(cl, layer.shape, su).total_cycles
        assert abs(model - sim) / sim <= 0.06


class TestCompare:
    def test_self_baseline_is_one(self, small_net):
        reports = compare(small_net, [preset("bitcol")])
        assert reports[0].speedup == 1.0
        assert reports[0].energy_ratio == 1.0

    def test_speedup_formula(self, small_net):
        reports = compare(small_net, [preset("scnn"), preset("bitcol"), preset("dense")],
                          baseline="scnn")
        base = next(r for r in reports if r.spec == "scnn")
        for r in reports:
            assert r.speedup == pytest.approx(base.total_cycles / r.total_cycles)
            assert r.energy_ratio == pytest.approx(base.total_energy / r.total_energy)

    def test_missing_baseline(self, small_net):
        with pytest.raises(ConfigError):
            compare(small_net, [preset("bitcol")], baseline="scnn")

    def test_uniform_four_columns_doubles_over_none_mode(self):
        # all weights +85 (bits 0,2,4,6): every group has exactly 4 non-zero
        # columns, so column skipping halves compute in a compute-bound layer
        layer = make_layer("u", values=np.full(32 * 256, 85, dtype=np.int8),
                           k=32, c=256, fy=1, fx=1, ox=64, oy=64, kind="pointwise-conv")
        net = make_network("uniform", [layer])
        roomy = UnitCosts(act_sram_bytes=4 * 1024 * 1024)
        none_mode = AcceleratorSpec("plain", su="SU3", bit_serial=True,
                                    dram_bytes_per_cycle=1024, costs=roomy)
        col_mode = AcceleratorSpec("cols", su="SU3", bit_serial=True,
                                   sparsity_mode="bit-column-skip", weight_codec="bcs",
                                   dram_bytes_per_cycle=1024, costs=roomy)
        reports = compare(net, [none_mode, col_mode])
        speedup = reports[1].speedup
        assert 1.85 <= speedup <= 2.15


class TestPresetsAndConfig:
    def test_all_presets_build_and_run(self, small_net):
        for name in perf.PRESET_NAMES:
            rep = evaluate_network(small_net, preset(name))
            assert rep.total_cycles > 0
            assert rep.total_energy > 0
            assert rep.breakdown.total == pytest.approx(rep.total_energy)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("tpu")

    def test_value_skip_saves_energy_even_when_stream_bound(self, rng):
        # without compression, operand streaming pins the cycle count, but
        # skipped MACs still save energy
        layer = make_layer("s", rng, k=16, c=32, fy=3, fx=3, ox=16, oy=16)
        layer.weights[rng.random(size=layer.weights.shape) < 0.7] = 0
        net = make_network("sparse", [layer])
        none_spec = AcceleratorSpec("plain", su=mapper.make_custom_su(8, 8, 8))
        skip_spec = AcceleratorSpec("skip", su=mapper.make_custom_su(8, 8, 8),
                                    sparsity_mode="value-skip")
        reports = compare(net, [none_spec, skip_spec])
        assert reports[1].energy_ratio > 1.0
        assert reports[1].speedup >= 1.0

    def test_value_skip_with_compression_gains_cycles(self, rng):
        # high value sparsity plus ZRE on both tensors unblocks the operand
        # ports, so the skip shows up in latency as well
        layer = make_layer("s", rng, k=16, c=32, fy=3, fx=3, ox=16, oy=16)
        layer.weights[rng.random(size=layer.weights.shape) < 0.7] = 0
        layer.s_a = 0.8
        net = make_network("sparse", [layer])
        none_spec = AcceleratorSpec("plain", su=mapper.make_custom_su(8, 8, 8))
        skip_spec = AcceleratorSpec("skip", su=mapper.make_custom_su(8, 8, 8),
                                    sparsity_mode="value-skip",
                                    weight_codec="zre", act_codec="zre")
        reports = compare(net, [none_spec, skip_spec])
        assert reports[1].speedup > 1.5

    def test_config_file(self, tmp_path, small_net):
        cfg = tmp_path / "specs.ini"
        cfg.write_text(
            "[fast-dram]\n"
            "base = bitcol\n"
            "dram_bytes_per_cycle = 128\n"
            "group_size = 16\n"
            "e_mac = 0.5\n"
            "weight_sram_bytes = 131072\n"
            "\n"
            "[fixed-su]\n"
            "base = stripes\n"
            "su = SU1\n"
            "\n"
            "[custom-array]\n"
            "base = dense\n"
            "bit_serial = false\n"
            "su = custom:16,4,16\n"
        )
        specs = load_spec_configs(cfg)
        assert set(specs) == {"fast-dram", "fixed-su", "custom-array"}
        assert specs["fast-dram"].dram_bytes_per_cycle == 128
        assert specs["fast-dram"].group_size == 16
        assert specs["fast-dram"].costs.e_mac == 0.5
        assert specs["fast-dram"].costs.weight_sram_bytes == 131072
        assert specs["fixed-su"].su == "SU1"
        assert specs["custom-array"].su.w_bw == 16 * 16 * 8
        for spec in specs.values():
            evaluate_network(small_net, spec)

    def test_config_bad_key(self, tmp_path):
        cfg = tmp_path / "specs.ini"
        cfg.write_text("[x]\nbase = bitcol\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            load_spec_configs(cfg)

    @pytest.mark.parametrize("value", ["12", "0", "128"])
    def test_config_group_size_outside_group_sizes_rejected_at_load(self, tmp_path, value):
        cfg = tmp_path / "specs.ini"
        cfg.write_text(f"[x]\nbase = bitcol\ngroup_size = {value}\n")
        with pytest.raises(ConfigError, match="group_size must be"):
            load_spec_configs(cfg)

    def test_auto_group_size_is_best_cr_smaller_on_ties(self):
        # G=8 and G=16 both cost 24 bits (see test_cli); G=32 costs 40
        tie = make_layer("tie", values=np.repeat([0, 1], 8), k=1, c=16, fy=1, fx=1, ox=1, oy=1)
        cr, cl = perf.weight_compression(tie, preset("bitcol"))
        assert (cl.group_size, cr) == (8, 128 / 24)
        zero = make_layer("zero", values=np.zeros(32), k=1, c=32, fy=1, fx=1, ox=1, oy=1)
        assert perf.weight_compression(zero, preset("bitcol"))[1].group_size == 32

    def test_auto_group_sizes_drive_weight_compression(self, rng, monkeypatch):
        layer = make_layer("a", rng, k=4, c=32, fy=1, fx=1, ox=4, oy=4)
        calls = []
        real = codec.compress_layer
        monkeypatch.setattr(codec, "compress_layer", lambda w, g, *a, **k: calls.append(g)
                            or real(w, g, *a, **k))
        monkeypatch.setattr(codec, "AUTO_GROUP_SIZES", (16, 64))
        _, cl = perf.weight_compression(layer, preset("bitcol"))
        assert calls == [16, 64] and cl.group_size in (16, 64)

    def test_presets_do_not_share_costs(self):
        first = preset("bitcol")
        with pytest.raises(FrozenInstanceError):
            first.costs.e_mac = 9.0
        assert preset("bitcol").costs.e_mac == UnitCosts().e_mac

    def test_spec_fields_cannot_skip_validation(self):
        # bit-column skipping without bcs weights is rejected at construction;
        # a field set afterwards would reach evaluate_network unchecked
        spec = preset("bitcol")
        with pytest.raises(FrozenInstanceError):
            spec.weight_codec = "none"
        with pytest.raises(ConfigError, match="needs weight_codec bcs"):
            replace(spec, weight_codec="none")
        assert spec.weight_codec == "bcs"

    @pytest.mark.parametrize("su,group_size,ok", [
        ("SU3", 16, False), ("SU3", 32, True), ("SU3", 64, True), ("SU3", "auto", True),
        ("SU1", 8, True), ("SU2", 8, False), ("SU7", 8, True), ("auto", 8, True),
        (mapper.make_custom_su(16, 4, 16), 8, False), (mapper.make_custom_su(16, 4, 16), 16, True),
    ])
    def test_fixed_su_and_group_size_checked_for_column_skip(self, su, group_size, ok):
        kw = dict(su=su, group_size=group_size, bit_serial=True, weight_codec="bcs")
        AcceleratorSpec("other", sparsity_mode="bit-skip", **kw)  # only column skip groups by G
        if ok:
            AcceleratorSpec("col", sparsity_mode="bit-column-skip", **kw)
        else:
            with pytest.raises(ConfigError, match="is not a multiple of the unrolled channels"):
                AcceleratorSpec("col", sparsity_mode="bit-column-skip", **kw)

    @pytest.mark.parametrize("weight_codec", ["none", "zre", "csr"])
    def test_column_skip_needs_bcs(self, weight_codec):
        with pytest.raises(ConfigError, match="needs weight_codec bcs"):
            AcceleratorSpec("col", sparsity_mode="bit-column-skip", weight_codec=weight_codec)

    def test_unknown_catalog_su_rejected_at_construction(self):
        with pytest.raises(mapper.MappingError, match="SU9"):
            AcceleratorSpec("x", su="SU9")

    @pytest.mark.parametrize("line,message", [
        ("peak_macs = 0", "peak_macs must be"),
        pytest.param("peak_macs = " + "9" * 400, "peak_macs must be", id="peak_macs-huge"),
        ("sync_lanes = 0", "sync_lanes must be"),
        ("dram_bytes_per_cycle = nan", "dram_bytes_per_cycle must be"),
        ("dram_bytes_per_cycle = 1e400", "dram_bytes_per_cycle must be"),
        ("e_reg_bit = inf", "unit cost e_reg_bit must be"),
        ("act_sram_bytes = -1", "SRAM capacities must be"),
        ("su = custom:0,4,4", "bad value for 'su'"),
        ("su = custom:8,4", "bad value for 'su'"),
        ("su = custom:8,4,2048", "bad value for 'su'"),
        ("sign_cycle = maybe", "bad value for 'sign_cycle'"),
        ("group_size = eight", "bad value for 'group_size'"),
    ])
    def test_config_value_checked_at_load(self, tmp_path, line, message):
        cfg = tmp_path / "specs.ini"
        cfg.write_text(f"[x]\nbase = bitcol\n{line}\n")
        with pytest.raises(ConfigError, match=r"^\[x\] " + message):
            load_spec_configs(cfg)

    @pytest.mark.parametrize("word", [*configparser.ConfigParser.BOOLEAN_STATES, "TRUE", "Off"])
    def test_config_boolean_words(self, tmp_path, word):
        cfg = tmp_path / "specs.ini"
        cfg.write_text(f"[x]\nbase = bitcol\nsign_cycle = {word}\nbit_serial = {word}\n")
        spec = load_spec_configs(cfg)["x"]
        want = configparser.ConfigParser.BOOLEAN_STATES[word.lower()]
        assert spec.sign_cycle is want and spec.bit_serial is want

    def test_act_bcs_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorSpec("bad", act_codec="bcs")

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigError):
            UnitCosts(e_mac=-1.0)

    def test_act_compression_paths(self, rng):
        layer = make_layer("a", rng, k=2, c=8, fy=1, fx=1, ox=4, oy=4)
        layer.s_a = 0.5
        spec = preset("scnn")
        cr = perf.act_compression(layer, spec, 0.5)
        assert cr == pytest.approx(8.0 / (12.0 * (0.5 + 0.5 / 16)))
        layer.acts = np.zeros(64, dtype=np.int8)
        cr_sample = perf.act_compression(layer, spec, 0.5)
        assert cr_sample == 8 * 64 / codec.zre_size(layer.acts)


class TestDepthwiseEvaluation:
    def test_depthwise_layer_runs_end_to_end(self, rng):
        layer = make_layer("dw", rng, k=32, c=1, fy=3, fx=3, ox=16, oy=16,
                           kind="depthwise-conv")
        net = make_network("dwnet", [layer])
        for name in perf.PRESET_NAMES:
            rep = evaluate_network(net, preset(name))
            assert rep.total_cycles > 0
