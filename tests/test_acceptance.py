"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a `[acceptance] ...: PASS/FAIL` line on the real stdout so
a plain `pytest tests/test_acceptance.py` run shows the per-criterion
verdicts. Expected values are frozen from independent oracles: brute-force
candidate enumeration, the exact integer dot product, hand-packed payloads
and ceiling arithmetic.
"""

import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from bitcol import bitflip, codec, engine, mapper, model_io, perf
from bitcol.perf import AcceleratorSpec, LatencyTerms, UnitCosts
from bitcol.workload import LayerShape

from conftest import CANONICAL_SHAPES, make_layer, make_network


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


@contextmanager
def criterion(announce, num, desc):
    try:
        yield
    except BaseException:
        announce(f"[acceptance] {num:>2}. {desc}: FAIL")
        raise
    announce(f"[acceptance] {num:>2}. {desc}: PASS")


def test_01_codec_losslessness(announce):
    with criterion(announce, 1, "codec losslessness, 10000 tensors x G in {8,16,32}"):
        rng = np.random.default_rng(2024)
        t0 = time.monotonic()
        for i in range(10_000):
            k = int(rng.integers(1, 9))
            c = int(rng.integers(1, 65))
            fy = int(rng.integers(1, 4))
            fx = int(rng.integers(1, 4))
            vals = rng.integers(-127, 128, size=(k, c, fy, fx), dtype=np.int8)
            if i % 3 == 0:  # mix in value-sparse tensors
                vals[rng.random(size=vals.shape) < 0.5] = 0
            for g in (8, 16, 32):
                cl = codec.compress_layer(vals, g, mode="bcs")
                assert np.array_equal(codec.decompress_layer(cl), vals)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_02_engine_exactness(announce):
    with criterion(announce, 2, "engine dot exactness, 10000 groups per G"):
        rng = np.random.default_rng(7)
        for g in (8, 16, 32):
            weights = rng.integers(-127, 128, size=(10_000, g, 1, 1), dtype=np.int8)
            cl = codec.compress_layer(weights, g, mode="bcs")
            acts = rng.integers(-128, 128, size=(10_000, g))
            for i, pg in enumerate(engine.packed_groups(cl)):
                dot, cycles = engine.bce_group(acts[i], pg)
                assert dot == engine.dot_ref(acts[i], weights[i, :, 0, 0])
                assert cycles == int(codec.POPCOUNT[cl.indexes[i] & 0x7F])


def test_03_flip_example_minus3(announce):
    with criterion(announce, 3, "nearest-vector search flips -3 to -4 at distance 1"):
        # surviving-column mask from the five-zero-column running example
        flipped = bitflip.nearest_with_mask(-3, 0b0000100)
        assert flipped == -4
        assert (-3 - flipped) ** 2 == 1
        # group-level reconstruction: the minimum-error five-zero-column flip
        # of this group tunes exactly its -3 element to -4
        res = bitflip.best_column_set(np.array([-3, 4, -5, 4], dtype=np.int8), 5)
        assert res.flipped.tolist() == [-4, 4, -5, 4]
        assert res.sq_error == 1


def test_04_flip_solver_optimality(announce):
    with criterion(announce, 4, "flip solver equals brute force, G=2, z in {4,5,6}"):
        t0 = time.monotonic()
        rng = np.random.default_rng(99)
        vals = np.arange(-127, 128, dtype=np.int64)
        bits, _ = codec.sm_encode(vals)
        pair_idx = np.bitwise_or(bits[:, None], bits[None, :])
        zero_bits = 8 - codec.POPCOUNT[pair_idx]
        for _ in range(100):
            group = rng.integers(-127, 128, size=2, dtype=np.int8)
            err = (vals[:, None] - int(group[0])) ** 2 + (vals[None, :] - int(group[1])) ** 2
            for z in (4, 5, 6):
                brute = int(err[zero_bits >= z].min())
                assert bitflip.best_column_set(group, z).sq_error == brute
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_05_cr_formula_checks(announce):
    with criterion(announce, 5, "compression-ratio formula checks"):
        example = np.array([2, 6, 4, 4], dtype=np.int8).reshape(1, 4, 1, 1)
        assert codec.compression_ratio(codec.compress_layer(example, 4, mode="bcs")) == 2.0

        zeros = np.zeros((2, 16, 1, 1), dtype=np.int8)
        assert codec.compression_ratio(codec.compress_layer(zeros, 8, mode="bcs")) == 8.0

        dense_cols = np.full((1, 8, 1, 1), 127, dtype=np.int8)
        dense_cols[0, 0] = -127  # all 8 columns non-zero
        cl = codec.compress_layer(dense_cols, 8, mode="bcs")
        assert codec.compression_ratio(cl) == 64 / 72


def test_06_ideal_cr_monotone(announce):
    with criterion(announce, 6, "ideal CR non-increasing over G = 1..64, 1000 tensors"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            c = int(rng.integers(1, 49))
            vals = rng.integers(-96, 97, size=(k, c, 1, 1), dtype=np.int8)
            if rng.random() < 0.5:
                vals[rng.random(size=vals.shape) < 0.6] = 0
            prev = math.inf
            for g in (1, 2, 4, 8, 16, 32, 64):
                groups = codec.partition_groups(vals, g)
                idx = codec.column_index(groups)
                payload = g * int(codec.POPCOUNT[idx].sum())
                cr = (8 * vals.size / payload) if payload else math.inf
                assert cr <= prev or (math.isinf(cr) and math.isinf(prev))
                prev = cr


def test_07_equation_reproduction(announce):
    with criterion(announce, 7, "effective-MAC, energy and latency equations"):
        # Eq. 1/2: N_mac=100, S_a=0.2, S_w=0.1
        counts = perf.ActivityCounts(
            n_mac=100, n_mac_cycle=10.0, utilization=1.0, steps=1, passes=1,
            dram_read_w=0, dram_read_a=0, dram_write_w=0, dram_write_a=0,
            sram_read_input=0, sram_read_weight=0, sram_read_output=0,
            sram_write_input=0, sram_write_weight=0, sram_write_output=0,
            reg_read=0, reg_write=0)
        n_mac_e, cc = perf.effective_macs(counts, 0.2, 0.1, "value-skip")
        assert n_mac_e == 72.0
        assert cc == 7.2

        # Eq. 4: breakdown components sum exactly to the total
        rng = np.random.default_rng(3)
        for _ in range(25):
            fields = {f: float(rng.integers(0, 1000)) for f in (
                "dram_read_w", "dram_read_a", "dram_write_w", "dram_write_a",
                "sram_read_input", "sram_read_weight", "sram_read_output",
                "sram_write_input", "sram_write_weight", "sram_write_output",
                "reg_read", "reg_write")}
            c2 = perf.ActivityCounts(n_mac=50, n_mac_cycle=5.0, utilization=1.0,
                                     steps=1, passes=1, **fields)
            eff = perf.effective_memory(c2, 1.5, 1.25)
            eff.n_mac_e = 37.0
            eff.reg_read_e, eff.reg_write_e = fields["reg_read"], fields["reg_write"]
            br = perf.total_energy(eff, UnitCosts())
            assert br.total == br.mac + br.dram + br.sram + br.reg

        # Eq. 5: max-term selection on constructed cases
        compute_bound = LatencyTerms(dram=100, sram_write_output=10, sram_read_input=5,
                                     sram_read_weight=7, reg_read=3, reg_write=2, cc_mac=50)
        assert perf.total_latency(compute_bound) == 160
        memory_bound = LatencyTerms(dram=100, sram_write_output=10, sram_read_input=5,
                                    sram_read_weight=80, reg_read=3, reg_write=2, cc_mac=50)
        assert perf.total_latency(memory_bound) == 190


def test_08_model_simulator_agreement(announce):
    with criterion(announce, 8, "analytical model within 6% of the functional simulator"):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        net = make_network("synth3", [
            make_layer("l1", rng, k=32, c=32, fy=3, fx=3, ox=32, oy=32),
            make_layer("l2", rng, k=64, c=32, fy=3, fx=3, ox=16, oy=16),
            make_layer("l3", rng, k=64, c=64, fy=1, fx=1, ox=16, oy=16,
                       kind="pointwise-conv"),
        ])
        spec = replace(perf.preset("bitcol"), dram_bytes_per_cycle=512)
        model_cycles = perf.evaluate_network(net, spec).total_cycles
        sim_cycles = 0
        for layer in net.layers:
            su = spec.resolve_su(layer.shape)
            _, cl = perf.weight_compression(layer, spec)
            sim_cycles += engine.simulate_layer(cl, layer.shape, su).total_cycles
        deviation = abs(model_cycles - sim_cycles) / sim_cycles
        assert deviation <= 0.06, f"deviation {deviation:.3f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_09_no_single_su_covers_all(announce):
    with criterion(announce, 9, "no fixed SU reaches 0.80 on all four canonical shapes"):
        shapes = list(CANONICAL_SHAPES.values())
        for su in mapper.CATALOG:
            utils = [mapper.spatial_utilization(s, su) if mapper.is_compatible(s, su)
                     else 0.0 for s in shapes]
            assert min(utils) < 0.80
        for shape in shapes:
            table = mapper.utilization_table(shape)
            best = max(v for v in table.values() if v is not None)
            assert mapper.spatial_utilization(shape, mapper.select_su(shape)) == best


def test_10_bitflip_speedup_property(announce):
    with criterion(announce, 10, "uniform z=4 flip: >= 1.8x over the pre-flip column"
                                 " average and zero barrier loss"):
        rng = np.random.default_rng(5)
        shape = LayerShape(k=64, c=64, fy=1, fx=1, ox=16, oy=1)
        # all-negative weights with a -127 element per group: every magnitude
        # column of every group is non-zero before flipping
        vals = -rng.integers(1, 121, size=shape.weight_dims).astype(np.int8)
        vals[:, ::8] = -127
        su = mapper.catalog_su("SU1")

        pre = engine.simulate_layer(codec.compress_layer(vals, 8, mode="bcs"), shape, su)
        assert int(pre.group_cycles.min()) == 7  # fully dense magnitude columns

        res = bitflip.flip_layer(vals, 8, 4)
        assert res.zero_col_hist[4] == res.indexes.size  # uniformly z=4
        post = engine.simulate_layer(codec.compress_layer(res.values, 8, mode="bcs"),
                                     shape, su)

        predicted_pre = (float(pre.group_cycles.mean()) * pre.n_waves
                         * pre.group_repeat * pre.t_out)
        factor = predicted_pre / post.total_cycles
        assert factor >= (8 / (8 - 4)) * 0.9, f"factor {factor:.3f}"
        assert post.barrier_loss == 0
        assert post.total_cycles < pre.total_cycles


@pytest.mark.skipif("BITCOL_RESNET18_MANIFEST" not in os.environ,
                    reason="optional: set BITCOL_RESNET18_MANIFEST to a manifest "
                           "with real int8 ResNet18 weights")
def test_11_resnet18_conv2_column_sparsity(announce):
    with criterion(announce, 11, "ResNet18 conv2 sign-magnitude column sparsity"):
        net = model_io.load_network(os.environ["BITCOL_RESNET18_MANIFEST"])
        convs = [l for l in net.layers if "conv2" in l.name] or net.layers[1:2]
        layer = convs[0]
        st = codec.sparsity_stats(layer.weights, 4)
        assert abs(st.column_sparsity_sm - 0.59) <= 0.10
        assert st.column_sparsity_sm > st.column_sparsity_tc
