import configparser
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bitcol import codec, engine, mapper, perf
from bitcol.perf import (
    AcceleratorSpec,
    EnergyBreakdown,
    LatencyTerms,
    UnitCosts,
    compare,
    load_spec_configs,
    preset,
    total_latency,
    weight_compression,
)
from bitcol.workload import ConfigError

import oracles
from conftest import make_layer, make_network, record_map_layer


# Eq. 1/2 on a crafted layer: N = 100 MACs, one kernel of 100 weights on a
# [100, 1, 1] unrolling (utilization 1) with a 10 MAC/cycle peak, so the
# dense compute is 10 cycles and S_w is the kernel's zero share
EQ_SU = mapper.make_custom_su(100, 1, 1, su_id="eq100")


def evaluate(layer, spec, su):
    """evaluate_layer on the layer's mapping onto `su`."""
    return perf.evaluate_layer(layer, spec, mapper.map_layer(layer.shape, su))


def eq_layer_perf(mode, s_a, weights):
    layer = make_layer("eq", values=weights, k=1, c=100, fy=1, fx=1, ox=1, oy=1)
    layer.s_a = s_a
    spec = AcceleratorSpec("eq", su=EQ_SU, sparsity_mode=mode, peak_macs=10)
    return evaluate(layer, spec, EQ_SU)


def with_zeros(n_zeros, value=1):
    return [0] * n_zeros + [value] * (100 - n_zeros)


class TestEffectiveMacs:
    def test_value_skip_substitution(self):
        rep = eq_layer_perf("value-skip", 0.2, with_zeros(10))
        assert rep.s_w == 0.1
        assert rep.n_mac_e == 72.0
        assert rep.cc_mac_e == 7.2

    def test_zero_sparsity_identity(self):
        rep = eq_layer_perf("value-skip", 0.0, with_zeros(0))
        assert rep.n_mac_e == 100.0 and rep.cc_mac_e == 10.0

    def test_none_mode_forces_terms_to_zero(self):
        rep = eq_layer_perf("none", 0.9, with_zeros(90))
        assert rep.n_mac_e == 100.0 and rep.cc_mac_e == 10.0

    def test_bit_mode_keeps_macs_scales_cycles(self):
        rep = eq_layer_perf("bit-skip", 0.0, with_zeros(0, value=7))  # 3 of 8 bits set
        assert rep.n_mac_e == 100.0
        assert rep.cc_mac_e == pytest.approx(10 * 3 / 8)

    def test_bound_property(self, rng):
        for _ in range(50):
            sa, zeros = rng.random(), int(rng.integers(0, 101))
            n_e = eq_layer_perf("value-skip", sa, with_zeros(zeros)).n_mac_e
            assert n_e <= 100.0
            assert (n_e == 100.0) == (sa == 0 and zeros == 0)


PE1 = mapper.make_custom_su(1, 1, 1, su_id="pe1")
UNIT_FREE = UnitCosts(e_mac=0, e_dram_bit=0, e_sram_bit=0, e_reg_bit=0)


class TestEffectiveMemory:
    def test_identity_at_cr_one(self, rng):
        spec = AcceleratorSpec("plain", su=mapper.make_custom_su(8, 4, 8))
        layer = make_layer("p", rng, k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        rep = evaluate(layer, spec, spec.su)
        counts = oracles.perf_dense_activity(layer.shape, spec, spec.su)
        assert rep.cr_w == rep.cr_a == 1.0
        assert rep.terms.dram * spec.dram_bytes_per_cycle == pytest.approx(
            counts.dram_read_w + counts.dram_read_a + counts.dram_write_a)
        assert rep.terms.sram_read_weight == counts.sram_read_weight * 8 / spec.su.w_bw
        assert rep.terms.sram_read_input == counts.sram_read_input * 8 / spec.su.act_bw

    def test_weight_cr_halves_weight_traffic_only(self):
        # 21 = bits 0, 2, 4: every G=8 group keeps 3 of 8 columns plus its
        # index byte, so CR is 2048 / (768 + 256) = 2
        spec = AcceleratorSpec("bcs", su="SU1", bit_serial=True, weight_codec="bcs",
                               group_size=8, costs=replace(UNIT_FREE, e_dram_bit=1.0))
        layer = make_layer("u", values=np.full(32 * 8, 21, dtype=np.int8),
                           k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        su1 = mapper.catalog_su("SU1")
        rep = evaluate(layer, spec, su1)
        counts = oracles.perf_dense_activity(layer.shape, spec, su1)
        assert rep.cr_w == 2.0 and rep.cr_a == 1.0
        dram = counts.dram_read_w / 2 + counts.dram_read_a + counts.dram_write_a
        assert rep.terms.dram * spec.dram_bytes_per_cycle == pytest.approx(dram)
        assert rep.energy.dram == 8 * dram
        assert rep.terms.sram_read_weight == counts.sram_read_weight / 2 * 8 / su1.w_bw
        assert rep.terms.sram_read_input == counts.sram_read_input * 8 / su1.act_bw
        assert rep.terms.sram_write_output == counts.sram_write_output * 8 / su1.act_bw

    def test_bcs_cr_matches_container_byte_count(self, rng, tmp_path):
        # independent oracle: effective weight DRAM reads equal the actual
        # container payload bytes (no header, no CRC) times the pass count
        from bitcol import model_io
        layer = make_layer("w", rng, k=4, c=32, fy=3, fx=3, ox=8, oy=8)
        layer.weights[rng.random(size=layer.weights.shape) < 0.6] = 0
        spec = replace(preset("bitcol"), group_size=8)
        su1 = mapper.catalog_su("SU1")
        rep = evaluate(layer, spec, su1)
        counts = oracles.perf_dense_activity(layer.shape, spec, su1)
        path = tmp_path / "c.bcsw"
        model_io.write_compressed(path, [weight_compression(layer, spec)[1]])
        payload_bytes = len(path.read_bytes()) - (5 + 2 + len("w") + 2 + 8) - 4
        weight_dram = payload_bytes * counts.passes
        assert counts.dram_read_w / rep.cr_w == pytest.approx(weight_dram)
        assert rep.terms.dram * spec.dram_bytes_per_cycle == pytest.approx(
            weight_dram + counts.dram_read_a + counts.dram_write_a)

    def test_bcs_weight_port_counts_payload_only_energy_counts_index(self):
        # test_weight_cr_halves_weight_traffic_only's layer under column
        # skipping: the port streams the 3 kept columns, while energy pays
        # for them and for the index byte (CR 2)
        spec = AcceleratorSpec("col", su="SU1", bit_serial=True, sparsity_mode="bit-column-skip",
                               weight_codec="bcs", group_size=8,
                               costs=replace(UNIT_FREE, e_sram_bit=1.0))
        layer = make_layer("u", values=np.full(32 * 8, 21, dtype=np.int8),
                           k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        su1 = mapper.catalog_su("SU1")
        rep = evaluate(layer, spec, su1)
        counts = oracles.perf_dense_activity(layer.shape, spec, su1)
        cl = codec.compress_layer(layer.weights, 8)
        assert rep.cr_w == 2.0 and rep.cr_a == 1.0
        assert rep.terms.sram_read_weight == (
            counts.sram_read_weight * 8 * cl.payload_bits / cl.dense_bits / su1.w_bw)
        assert rep.terms.sram_read_weight == 256 * 8 * 3 / 8 / 256
        assert rep.energy.sram == pytest.approx(8 * (
            counts.sram_read_input + counts.sram_read_weight / rep.cr_w
            + counts.sram_read_output + counts.sram_write_input
            + counts.sram_write_weight / rep.cr_w + counts.sram_write_output))


class TestTotalEnergy:
    def test_all_zero_costs(self, rng):
        spec = replace(preset("scnn"), costs=UNIT_FREE)
        layer = make_layer("s", rng, k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        rep = evaluate(layer, spec, spec.su)
        assert rep.energy == EnergyBreakdown(0.0, 0.0, 0.0, 0.0)

    def test_ten_macs_at_unit_cost(self, rng):
        spec = AcceleratorSpec("one", su=PE1, costs=replace(UNIT_FREE, e_mac=1.0))
        layer = make_layer("m", rng, k=1, c=10, fy=1, fx=1, ox=1, oy=1, kind="pointwise-conv")
        assert evaluate(layer, spec, PE1).energy.total == 10.0

    def test_hand_computed_breakdown(self, rng):
        # 2x3 pointwise over 2 pixels on one PE: 12 MACs; DRAM 6 weight +
        # 6 input + 4 output bytes; SRAM 12 input and 12 weight reads, 4
        # output reads, 6 input and 6 weight writes, 4 output writes;
        # 24 register reads and 12 writes
        spec = AcceleratorSpec("one", su=PE1, costs=UnitCosts(e_mac=2.0, e_dram_bit=1.0,
                                                              e_sram_bit=0.5, e_reg_bit=0.25))
        layer = make_layer("h", rng, k=2, c=3, fy=1, fx=1, ox=2, oy=1, kind="pointwise-conv")
        br = evaluate(layer, spec, PE1).energy
        assert br.mac == 12 * 2.0
        assert br.dram == (6 + 6 + 4) * 8 * 1.0
        assert br.sram == (12 + 12 + 4 + 6 + 6 + 4) * 8 * 0.5
        assert br.reg == (24 + 12) * 8 * 0.25
        assert br.total == br.mac + br.dram + br.sram + br.reg


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
        for field in base._fields:
            bumped = LatencyTerms(**{**base._asdict(), field: getattr(base, field) + 5})
            assert total_latency(bumped) >= t0


class TestImbalance:
    """Value skipping in lockstep: each set of sync_lanes kernels skips only
    its smallest zero share."""

    def test_uniform_no_adjustment(self):
        layer = make_layer("u", values=[0, 5] * 32, k=32, c=2, fy=1, fx=1, ox=1, oy=1)
        rep = evaluate(layer, replace(preset("scnn"), su=PE1), PE1)
        assert rep.n_mac_e == pytest.approx(rep.n_mac * 0.5)

    def test_lockstep_max_work(self):
        layer = make_layer("m", values=[0, 5, 5, 5], k=2, c=2, fy=1, fx=1, ox=1, oy=1)
        rep = evaluate(layer, replace(preset("scnn"), su=PE1, sync_lanes=2), PE1)
        assert rep.s_w == 0.25 and rep.n_mac_e == rep.n_mac


class TestDenseActivity:
    """STEP 1 read back from the record: at CR 1 each DRAM byte is one
    DRAM-cycle sixteenth (16 B/cycle), and each SRAM read one port bit in 8."""

    def test_single_mac_layer(self):
        spec = AcceleratorSpec("one", su=mapper.make_custom_su(1, 1, 1, su_id="pe1"))
        layer = make_layer("one", values=[1], k=1, c=1, fy=1, fx=1, ox=1, oy=1)
        rep = evaluate(layer, spec, spec.su)
        assert rep.n_mac == 1
        # 1 weight byte and 1 input byte, each streamed in 1 pass, plus 1 output byte
        assert rep.terms.dram * spec.dram_bytes_per_cycle == 1 + 1 + 1

    def test_single_pass_when_fits(self, rng):
        spec = AcceleratorSpec("plain", bit_serial=True)  # bitcol's costs, no codec
        layer = make_layer("p", rng, k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        rep = perf.evaluate_layer(layer, spec, mapper.select_su(layer.shape))
        # weights, 8 input channels of 10x10 and 8 output channels of 8x8, once each
        assert rep.terms.dram * spec.dram_bytes_per_cycle == layer.shape.n_weights + 800 + 512

    def test_two_passes_double_weight_reads(self, rng):
        layer = make_layer("p", rng, k=8, c=8, fy=3, fx=3, ox=8, oy=8)
        spec = AcceleratorSpec("plain", bit_serial=True)
        spec = replace(spec, costs=replace(spec.costs,
                                           weight_sram_bytes=layer.shape.n_weights // 2))
        rep = perf.evaluate_layer(layer, spec, mapper.select_su(layer.shape))
        # weights and inputs stream twice; outputs are written back once
        assert rep.terms.dram * spec.dram_bytes_per_cycle == (
            2 * layer.shape.n_weights + 2 * 800 + 512)

    def test_mac_count(self, rng):
        layer = make_layer("m", rng, k=4, c=3, fy=2, fx=2, ox=5, oy=6, b=2)
        rep = perf.evaluate_layer(layer, AcceleratorSpec("plain"), mapper.select_su(layer.shape))
        assert rep.n_mac == 2 * 4 * 3 * 5 * 6 * 2 * 2

    def test_sram_reads_follow_su(self, rng):
        spec = AcceleratorSpec("fixed", su="SU1", bit_serial=True)
        layer = make_layer("s", rng, k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        su1 = mapper.catalog_su("SU1")
        rep = evaluate(layer, spec, su1)
        assert rep.mapping.utilization == 1.0  # N_mac = lanes: one temporal step
        assert rep.terms.sram_read_input * su1.act_bw / 8 == 8 * 16
        assert rep.terms.sram_read_weight * su1.w_bw / 8 == 8 * 32


class TestBitColumnCycles:
    def test_uniform_three_columns_is_three_eighths(self):
        spec = AcceleratorSpec("col", su="SU1", bit_serial=True,
                               sparsity_mode="bit-column-skip", weight_codec="bcs",
                               group_size=8)
        layer = make_layer("u", values=np.full(32 * 8, 21, dtype=np.int8),
                           k=32, c=8, fy=1, fx=1, ox=16, oy=1)
        su1 = mapper.catalog_su("SU1")
        rep = evaluate(layer, spec, su1)
        counts = oracles.perf_dense_activity(layer.shape, spec, su1)
        assert rep.cc_mac_e == pytest.approx((counts.n_mac / counts.n_mac_cycle) * 3 / 8)
        # cross-check against the functional simulator
        cl = codec.compress_layer(layer.weights, 8, mode="bcs")
        sim = engine.simulate_layer(cl, layer.shape, mapper.catalog_su("SU1"))
        assert rep.cc_mac_e == pytest.approx(sim.total_cycles)

    @pytest.mark.parametrize("sign_cycle", [False, True])
    def test_cycles_are_the_simulator_count_of_the_one_pack(self, rng, monkeypatch, sign_cycle):
        spec = AcceleratorSpec("col", su="SU1", bit_serial=True, sparsity_mode="bit-column-skip",
                               weight_codec="bcs", group_size=8, sign_cycle=sign_cycle)
        layer = make_layer("r", rng, k=48, c=16, fy=3, fx=3, ox=20, oy=5)
        packs = []
        real = codec.compress_layer
        monkeypatch.setattr(codec, "compress_layer",
                            lambda *a, **k: packs.append(a[1]) or real(*a, **k))
        rep = evaluate(layer, spec, mapper.catalog_su("SU1"))
        assert packs == [8]  # weight_compression packs once; nothing else packs
        sim = engine.simulate_layer(real(layer.weights, 8), layer.shape,
                                    mapper.catalog_su("SU1"), sign_cycle)
        assert rep.cc_mac_e == pytest.approx(sim.total_cycles, rel=1e-12)

    def test_model_matches_simulator_on_random_net(self, rng):
        spec = replace(preset("bitcol"), dram_bytes_per_cycle=512)
        net = make_network("synth", [
            make_layer("l1", rng, k=32, c=32, fy=3, fx=3, ox=32, oy=32),
            make_layer("l2", rng, k=64, c=32, fy=3, fx=3, ox=16, oy=16),
            make_layer("l3", rng, k=64, c=64, fy=1, fx=1, ox=16, oy=16,
                       kind="pointwise-conv"),
        ])
        model = compare(net, [spec])[0].total_cycles
        sim = 0
        for layer, m in zip(net.layers, spec.map_layers(net)):
            _, cl = weight_compression(layer, spec)
            sim += engine.simulate_layer(cl, layer.shape, m.su).total_cycles
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

    def test_each_spec_maps_each_layer_once(self, rng, monkeypatch):
        # every layer maps to SU1, so both the fixed-G and the fixed-SU spec run
        net = make_network("su1net", [make_layer(f"pw{i}", rng, k=32, c=8, fy=1, fx=1,
                                                 ox=16, oy=1, kind="pointwise-conv")
                                      for i in range(3)])
        # built first: __post_init__ looks up a fixed SU too
        specs = [replace(preset("bitcol"), name="g8", group_size=8),
                 replace(preset("bitcol"), name="su1", su="SU1")]
        calls = []
        for name in ("select_su", "catalog_su"):
            monkeypatch.setattr(perf, name, lambda *a, _name=name, _real=getattr(perf, name):
                                calls.append(_name) or _real(*a))
        mapped = record_map_layer(monkeypatch)
        reports = compare(net, specs)
        assert calls == ["select_su"] * 3 + ["catalog_su"] * 3
        assert [[l.mapping.su.id for l in r.layers] for r in reports] == [["SU1"] * 3] * 2
        # each (layer, SU) is mapped once per spec: the auto-SU spec on every
        # compatible catalog entry, the fixed-SU spec on SU1 alone
        assert mapped == [(l.shape, su.id) for l in net.layers for su in mapper.CATALOG
                          if mapper.is_compatible(l.shape, su)] + [
                              (l.shape, "SU1") for l in net.layers]

    def test_reports_carry_the_baseline_and_its_ratios(self, small_net):
        reports = compare(small_net, [preset("scnn"), preset("bitcol")], baseline="scnn")
        assert [r.baseline for r in reports] == ["scnn", "scnn"]
        assert (reports[0].speedup, reports[0].energy_ratio) == (1.0, 1.0)
        bitcol = reports[1]
        assert bitcol.speedup == reports[0].total_cycles / bitcol.total_cycles
        assert bitcol.energy_ratio == reports[0].total_energy / bitcol.total_energy
        # a report is a tuple: compare builds new ones instead of writing fields
        with pytest.raises(AttributeError):
            bitcol.speedup = 2.0

    def test_missing_baseline(self, small_net):
        with pytest.raises(ConfigError):
            compare(small_net, [preset("bitcol")], baseline="scnn")

    def test_no_specs(self, small_net):
        with pytest.raises(ConfigError, match="no accelerator specs to evaluate"):
            compare(small_net, [])

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
            rep = compare(small_net, [preset(name)])[0]
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
            compare(small_net, [spec])

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
        (mapper.make_custom_su(64, 4, 32), "auto", False),
        (mapper.make_custom_su(64, 4, 32), 64, True),
    ])
    def test_fixed_su_and_group_size_checked_for_column_skip(self, su, group_size, ok):
        kw = dict(su=su, group_size=group_size, bit_serial=True, weight_codec="bcs")
        AcceleratorSpec("other", sparsity_mode="bit-skip", **kw)  # only column skip groups by G
        if ok:
            AcceleratorSpec("col", sparsity_mode="bit-column-skip", **kw)
        else:
            with pytest.raises(mapper.MappingError,
                               match="is not a multiple of the unrolled channels"):
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
        ("sparsity_mode = bogus", "unknown sparsity mode 'bogus'"),
        ("weight_codec = bogus", "unknown weight codec 'bogus'"),
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

    def test_csr_weight_compression_is_exact(self, rng):
        # rows of C*FY*FX = 36 values take 6-bit column indexes
        layer = make_layer("w", rng, k=4, c=4, fy=3, fx=3, ox=4, oy=4)
        layer.weights[rng.random(layer.weights.shape) < 0.6] = 0
        spec = replace(preset("scnn"), weight_codec="csr")
        assert weight_compression(layer, spec) == \
            (8 * 144 / oracles.csr_size(layer.weights, 36), None)
        layer.weights[...] = 0
        layer.weights[0, 0, 0, 0] = 5  # one datum, 6 index bits, 5 pointers of 1 bit
        assert weight_compression(layer, spec) == (8 * 144 / (8 + 6 + 5), None)

    def test_csr_act_compression_on_a_sample_is_exact(self, rng):
        layer = make_layer("a", rng, k=2, c=8, fy=1, fx=1, ox=4, oy=4)
        spec = replace(preset("scnn"), act_codec="csr")
        layer.acts = rng.integers(-128, 128, size=600).astype(np.int8)
        layer.acts[rng.random(600) < 0.7] = 0
        assert perf.act_compression(layer, spec, 0.5) == \
            8 * 600 / oracles.csr_size(layer.acts, 256)
        layer.acts = np.zeros(300, dtype=np.int8)
        layer.acts[[3, 299]] = 1  # 2 data, 8 index bits each, 3 pointers of 2 bits
        assert perf.act_compression(layer, spec, 0.5) == 8 * 300 / (2 * 16 + 3 * 2)
        layer.acts = None  # analytic: 16 bits per non-zero, capped at 64
        assert perf.act_compression(layer, spec, 0.75) == 2.0
        assert perf.act_compression(layer, spec, 1.0) == 64.0


class TestDepthwiseEvaluation:
    def test_depthwise_layer_runs_end_to_end(self, rng):
        layer = make_layer("dw", rng, k=32, c=1, fy=3, fx=3, ox=16, oy=16,
                           kind="depthwise-conv")
        net = make_network("dwnet", [layer])
        for name in perf.PRESET_NAMES:
            rep = compare(net, [preset(name)])[0]
            assert rep.total_cycles > 0
