"""Benchmark of the bitcol CLI flow on seeded synthetic nets.

    python3 perfbench/run.py --workload resnet18 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; bitcol is imported from its `src/`.
The net is generated from the seed and written as a manifest; then the
workload's CLI stages run in-process, again and again until `--seconds`
have passed. `--trace 0` reports the end-to-end metrics, `--trace 1` runs
one untraced pass and then traced passes, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `--workload all`
runs every workload in its own process and prints a summary table.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

# (name, unit) of the figures in the `--workload all` summary
SUMMARY = (
    ("setup_s", "s"), ("analyze_s", "s"), ("compress_s", "s"), ("report_s", "s"),
    ("map_s", "s"), ("simulate_s", "s"), ("perf_s", "s"), ("bitflip_s", "s"),
    ("search_s", "s"), ("flow_s", "s"), ("peak_rss_mb", "MB"), ("failed_ops", "failed/attempted"),
    ("cr_real", "ratio"), ("sim_cycles", "cycles"), ("bitcol_speedup", "ratio"),
    ("flip_sse", "LSB^2"), ("search_cr", "ratio"),
)


def bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


def setup(wl, seed: int, work: Path, small: bool, clock):
    """Generate and write the net at least 3 times and (full size) for at least 2 s; returns
    (manifest, [(host seconds, scaled seconds)] per set-up, op checking that
    every set-up wrote the same bytes)."""
    from perfbench import flow, nets
    times, scaled = [], []
    first = None
    same = True
    while len(times) < 3 or (not small and sum(times) < 2.0 and len(times) < 200):
        d = work / f"net{min(len(times), 1)}"
        shutil.rmtree(d, ignore_errors=True)
        with clock.timing() as timing:
            t0 = time.perf_counter()
            manifest = nets.write_net(wl.net, seed, d, small)
            times.append(time.perf_counter() - t0)
        scaled.append(clock.scale(times[-1], timing))
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        if first is None:
            first = files
        else:
            same &= files == first
    shutil.rmtree(work / "net1", ignore_errors=True)
    op = flow.Op("check.setup_deterministic", same,
                 error="" if same else "the same seed wrote different nets")
    return work / "net0" / "manifest.txt", list(zip(times, scaled)), op


def end_to_end(flows, setup_times, scaled: bool) -> dict:
    """The workload's end-to-end figures (medians over passes); None where it has none."""
    res = {"setup_s": statistics.median(t[scaled] for t in setup_times)}
    for stage in ("analyze", "compress", "report", "map", "simulate", "perf", "bitflip", "search"):
        xs = [(f.scaled if scaled else f.raw)[stage] for f in flows if stage in f.timed]
        res[f"{stage}_s"] = statistics.median(xs) if xs else None
    res["flow_s"] = statistics.median(
        sum((f.scaled if scaled else f.raw)[s] for s in f.timed) for f in flows)
    if not scaled:
        return res
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for k in ("cr_real", "sim_cycles", "bitcol_speedup", "flip_sse", "search_cr"):
        res[k] = flows[0].outputs.get(k)
    return res


def determinism_op(flows):
    """Every flow in this process gave the same model outputs."""
    from perfbench import flow
    bad = [f"{k}: {flows[0].outputs.get(k)} then {v}"
           for f in flows[1:] for k, v in f.outputs.items() if flows[0].outputs.get(k) != v]
    return flow.Op("check.deterministic", not bad, error="; ".join(bad[:3]))


def per_layer(tracer, runs: list[str], n_layers: int, untraced_wall: float,
              traced_walls: list[float]) -> dict:
    """Per-layer figures of each traced pass, then the median over passes."""
    from perfbench import flow
    kids = tracer.children()
    per_run = []
    for run in runs:
        spans = [s for s in tracer.spans if s.run.startswith(run + ".")]
        counts = {name: n for (r, name), n in tracer.counts.items() if r.startswith(run + ".")}

        def total(name, key=None):
            return sum(s.attrs.get(key, 0) if key else s.duration for s in spans if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        m = {}
        for fn in ("read_compressed", "write_compressed", "save_network", "load_network"):
            m[f"model_io.{fn}.s"] = total(f"model_io.{fn}")
        m["model_io.read_compressed.calls"] = calls("model_io.read_compressed")
        m["model_io.container_bytes"] = max((s.attrs["bytes"] for s in spans
                                             if s.name == "model_io.write_compressed"), default=0)
        m["codec.compress_layer.s"] = total("codec.compress_layer")
        m["codec.compress_layer.calls"] = calls("codec.compress_layer")
        compress_spans = {s.id for s in spans if s.name == "cli.compress"}
        packs = sum(1 for s in spans if s.name == "codec.compress_layer"
                    and s.parent in compress_spans)
        m["codec.compress_layer.kept_ratio"] = n_layers / packs if packs else 0.0
        m["codec.decompress_layer.s"] = total("codec.decompress_layer")
        m["codec.sparsity_stats.s"] = total("codec.sparsity_stats")
        m["engine.verify_layer.s"] = total("engine.verify_layer")
        m["engine.verify_layer.groups"] = total("engine.verify_layer", "groups")
        m["engine.bce_group.calls"] = counts.get("engine.bce_group", 0)
        m["engine.simulate_layer.s"] = total("engine.simulate_layer")
        m["engine.simulate_layer.waves"] = total("engine.simulate_layer", "waves")
        m["mapper.weight_bank_layout.s"] = total("mapper.weight_bank_layout")
        m["mapper.weight_bank_layout.rows"] = total("mapper.weight_bank_layout", "rows")
        m["mapper.select_su.s"] = total("mapper.select_su")
        m["mapper.select_su.calls"] = calls("mapper.select_su")
        for p in flow.PRESETS:
            m[f"perf.evaluate_network.s.{p}"] = sum(
                s.duration for s in spans
                if s.name == "perf.evaluate_network" and s.attrs.get("preset") == p)
        m["perf.weight_compression.s"] = total("perf.weight_compression")
        flip_s = total("bitflip.flip_layer")
        m["bitflip.flip_layer.s"] = flip_s
        m["bitflip.flip_layer.calls"] = calls("bitflip.flip_layer")
        m["bitflip.flip_layer.groups_per_s"] = (total("bitflip.flip_layer", "groups") / flip_s
                                                if flip_s else 0.0)
        m["bitflip.apply_strategy.s"] = total("bitflip.apply_strategy")
        m["bitflip.oracle.calls"] = calls("bitflip.oracle")
        for stage in ("analyze", "compress", "report", "map", "simulate", "perf", "bitflip"):
            m[f"cli.{stage}.self_s"] = sum(tracer.self_time(s, kids) for s in spans
                                           if s.name == f"cli.{stage}")
        per_run.append(m)
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    out["trace.overhead_s"] = statistics.median(traced_walls) - untraced_wall
    return out


def search_detail(tracer, run: str) -> dict:
    """Figures of one traced pass that exist on some workloads only (printed, not gated)."""
    spans = [s for s in tracer.spans if s.run.startswith(run + ".")]
    d = {}
    for s in spans:
        if s.name == "bitflip.flip_layer":
            key = f"bitflip.flip_layer.s.z{s.attrs['z']}"
            d[key] = d.get(key, 0.0) + s.duration
    search = [s for s in spans if s.run == f"{run}.search"]
    oracle = [s for s in search if s.name == "bitflip.oracle"]
    if oracle:
        d["bitflip.oracle.s"] = sum(s.duration for s in oracle)
        d["bitflip.greedy_search.s"] = sum(s.duration for s in search
                                           if s.name == "bitflip.greedy_search")
        d["bitflip.flips_per_candidate"] = sum(
            s.name == "bitflip.flip_layer" for s in search) / len(oracle)
    return d


def bench(args) -> int:
    if not (ROOT / "src" / "bitcol" / "cli.py").is_file():
        print(f"error: no bitcol sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import flow, nets
    from perfbench.tracer import Tracer

    cfg = bench_config()
    wl = flow.WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = flow.ScaledClock()
    manifest, setup_times, setup_op = setup(wl, args.seed, work, args.smoke, clock)
    layers = nets.read_manifest(manifest)

    def run_flow(**kw):
        return flow.run_flow(wl, manifest, work / "out", args.seed, layers, clock, **kw)

    flows, tracer = [], None
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        flows.append(run_flow())
        tracer = Tracer()
        runs = []
        while not runs or time.perf_counter() < deadline:
            runs.append(f"pass{len(runs)}")
            flows.append(run_flow(tracer=tracer, run=runs[-1]))
        tracer.dump(work / "spans.jsonl")
    else:
        while not flows or time.perf_counter() < deadline:
            flows.append(run_flow())

    ops = [setup_op] + [op for f in flows for op in f.ops] + [determinism_op(flows)]
    failed = [op for op in ops if not op.ok and not op.known_defect]
    known = [op for op in ops if op.known_defect]
    untraced = flows[:1] if args.trace else flows
    e2e = end_to_end(untraced, setup_times, scaled=True)
    e2e["failed_ops"] = f"{len(failed)}/{len(ops)}"
    detail = {"env": environment(args), "end_to_end": e2e,
              "host_seconds": end_to_end(untraced, setup_times, scaled=False),
              "setup_seconds": setup_times,
              "passes": [{s: [f.raw[s], f.scaled[s]] for s in f.raw} for f in flows],
              "failures": [f"{op.name}: {op.error}" for op in failed],
              "known_defects": sorted({f"{op.name}: {op.error}" for op in known})}
    if args.trace:
        metrics = per_layer(tracer, runs, len(layers), flows[0].total(),
                            [f.total() for f in flows[1:]])
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in cfg["per_layer"]}
        detail["search"] = search_detail(tracer, runs[0])
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in cfg["end_to_end"]}
    for line in detail["known_defects"]:
        print(f"known defect (ROADMAP 4b), not counted as failed: {line}")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    print("detail " + json.dumps(detail))
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work / "net0", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints the summary metrics side by side."""
    from perfbench import flow
    details, rc = {}, 0
    for name in flow.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), None)
        if proc.returncode or detail is None:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            rc = 1
            continue
        details[name] = detail
        for line in lines:
            if not line.startswith(("detail ", "{")):
                print(line)
    names = list(details)
    print(f"{'metric':<16}{'unit':<18}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in SUMMARY:
        cells = []
        for n in names:
            v = details[n]["end_to_end"].get(metric)
            cells.append("n/a" if v is None else v if isinstance(v, str) else f"{v:.6g}")
        print(f"{metric:<16}{unit:<18}" + "".join(f"{c:>18}" for c in cells))
    return rc


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import flow
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*flow.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the smoke-size variant of the net (for tests; no timing value)")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
