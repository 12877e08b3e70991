"""The benchmark's own tests: tracer span counts, self times, `from`-import
patching, and a smoke-size run of every workload (no timing gates)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import flow, nets
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Smoke-size resnet20 through compress, simulate and perf under one tracer."""
    d = tmp_path_factory.mktemp("bench")
    manifest = nets.write_net("resnet20", 3, d / "net", small=True)
    n_layers = len(nets.read_manifest(manifest))
    wl = flow.WORKLOADS["resnet20-search"]
    tracer = Tracer()
    walls = {}
    for stage in ("compress", "simulate", "perf"):
        tracer.run = stage
        op = flow.run_stage(stage, wl, manifest, d, 0, tracer)
        assert op.ok, op.error
        walls[stage] = op.seconds
    spec = d / "spec.ini"
    spec.write_text("[pinned]\nbase = bitcol\nsu = SU1\ngroup_size = 8\n")
    tracer.run = "perf-bitcol"
    rc, walls["perf-bitcol"], _ = flow.call_cli(
        ["perf", "--manifest", str(manifest), "--preset", "bitcol", "--spec-config", str(spec)],
        "perf-bitcol", tracer)
    assert rc == 0
    return tracer, walls, n_layers, d


def _spans(tracer, run, name):
    return [s for s in tracer.spans if s.run == run and s.name == name]


def test_span_counts_match_call_counts(traced):
    tracer, _, n, out = traced
    assert len(_spans(tracer, "compress", "codec.compress_layer")) == 4 * n
    # --preset bitcol packs 3 candidates per layer; the pinned spec packs 1
    assert len(_spans(tracer, "perf-bitcol", "codec.compress_layer")) == 3 * n + n
    assert len(_spans(tracer, "simulate", "engine.simulate_layer")) == n
    assert len(_spans(tracer, "simulate", "engine.verify_layer")) == n


def test_self_times_sum_to_stage_wall(traced):
    tracer, walls, _, _ = traced
    kids = tracer.children()
    for run, wall in walls.items():
        (stage,) = [s for s in tracer.spans if s.run == run and s.parent is None]
        subtree, todo = [], [stage]
        while todo:
            s = todo.pop()
            subtree.append(s)
            todo.extend(kids.get(s.id, ()))
        total = sum(tracer.self_time(s, kids) for s in subtree)
        assert total == pytest.approx(stage.duration, rel=1e-9)
        assert total == pytest.approx(wall, rel=0.03, abs=0.005)


def test_from_imports_are_patched(traced):
    tracer, _, n, out = traced
    # perf reaches select_su and catalog_su only through its own `from` imports
    assert _spans(tracer, "perf", "mapper.select_su")
    assert tracer.counts[("perf-bitcol", "mapper.catalog_su")] >= n
    # simulate_layer checks the SU kind through engine's `from` import, once per layer
    sim = {s.id for s in _spans(tracer, "simulate", "engine.simulate_layer")}
    assert sum(s.parent in sim for s in _spans(tracer, "simulate",
                                               "mapper.check_kind_compatible")) == n
    # write_compressed (model_io's import) and decompress_layer (codec's own name)
    # each take the column offsets of every bcs layer once
    bcs = sum(r["mode"] == "bcs" for r in flow.read_csv(out / "compress.csv"))
    assert bcs > 0
    assert tracer.counts[("compress", "codec.column_offsets")] == 2 * bcs


def test_uninstall_restores_the_modules():
    import bitcol.engine
    import bitcol.perf
    before = (bitcol.perf.select_su, bitcol.engine.check_kind_compatible)
    tracer = Tracer()
    tracer.install()
    assert bitcol.perf.select_su is not before[0]
    assert bitcol.perf.select_su.__wrapped__ is before[0]
    tracer.uninstall()
    assert (bitcol.perf.select_su, bitcol.engine.check_kind_compatible) == before


def test_clock_samples_during_a_call():
    clock = flow.ScaledClock()
    before = len(clock.samples)
    with clock.timing() as timing:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    # five references on each side, and at least two from the timer inside
    assert len(clock.samples) - before >= 12
    assert 0 < timing["probe_s"] < 0.3 and timing["speed"] > 0


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("resnet18", 1), ("mobilenetv2", 1),
                                            ("resnet20-search", 0)])
def test_smoke_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in cfg["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == want
    if workload == "mobilenetv2":
        assert "known defect (ROADMAP 4b)" in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "resnet18",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
