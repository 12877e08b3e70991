"""Workloads, the in-process CLI stage runner, output checks and metrics.

Every stage calls `bitcol.cli.main` with the arguments a user would type,
on a fresh import of bitcol, so module-level caches and lazily built tables
are paid by every call as they are by a CLI user. The tables the CLI prints
are silenced at the file-descriptor level: `cli._print_table` binds
`sys.stdout` when it is imported, so `redirect_stdout` cannot reach them.
"""

from __future__ import annotations

import csv
import gc
import importlib
import io
import os
import re
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nets

STAGES = ("analyze", "compress", "report", "map", "simulate", "perf", "bitflip", "search")
PRESETS = ("dense", "stripes", "pragmatic", "bitlet", "scnn", "huaa", "bitcol")
# ROADMAP 4b: perf and simulate pick the group size without the SU
DEFECT_4B = re.compile(r"group size \d+ .*C_u=\d+")


@dataclass(frozen=True)
class Workload:
    name: str
    net: str
    zero_cols: int          # one-shot bitflip target at G=8
    bank_layer: str         # layer laid out on SU1 banks during `map`
    search: bool = False    # run the proxy-oracle greedy search
    probes: tuple[str, ...] = ()  # stages that hit defect 4b: run as a user would, never timed

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(s for s in STAGES if s != "search" or self.search)


# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("resnet18", "resnet18", zero_cols=2, bank_layer="layer3.0.conv2"),
    Workload("mobilenetv2", "mobilenetv2", zero_cols=2, bank_layer="conv_last",
             probes=("simulate", "perf")),
    Workload("resnet20-search", "resnet20", zero_cols=4, bank_layer="stage3.0.conv2",
             search=True, probes=("simulate", "perf")),  # 4b fires on `fc` for a few seeds
)}


@dataclass
class Op:
    """One attempted operation: a CLI stage run or a benchmark-side check."""
    name: str
    ok: bool
    seconds: float = 0.0
    error: str = ""
    known_defect: bool = False


@contextmanager
def quiet_stdout():
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def _bitcol_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "bitcol" or k.startswith("bitcol.")}


@contextmanager
def fresh_bitcol():
    """Import bitcol from scratch; put the caller's modules back afterwards."""
    saved = _bitcol_modules()
    for k in saved:
        del sys.modules[k]
    try:
        yield importlib.import_module("bitcol.cli")
    finally:
        for k in _bitcol_modules():
            del sys.modules[k]
        sys.modules.update(saved)


def stage_argv(stage: str, wl: Workload, manifest: Path, out: Path, seed: int) -> list[str]:
    m, c = str(manifest), str(out / "model.bcsw")
    return {
        "analyze": ["analyze", "--manifest", m, "--out", str(out / "analyze.csv")],
        "compress": ["compress", "--manifest", m, "--out", c, "--csv", str(out / "compress.csv"),
                     "--verify"],
        "report": ["report", "--container", c, "--out", str(out / "report.csv")],
        "map": ["map", "--manifest", m, "--out", str(out / "map.csv")],
        "simulate": ["simulate", "--manifest", m, "--container", c, "--verify",
                     "--seed", str(seed), "--out", str(out / "simulate.csv")],
        "perf": ["perf", "--manifest", m, *(a for p in PRESETS for a in ("--preset", p)),
                 "--baseline", "scnn", "--out", str(out / "perf.csv")],
        "bitflip": ["bitflip", "--manifest", m, "--out", str(out / "flip"),
                    "--csv", str(out / "bitflip.csv"), "--group-size", "8",
                    "--zero-cols", str(wl.zero_cols)],
        "search": ["bitflip", "--manifest", m, "--out", str(out / "search"),
                   "--csv", str(out / "search.csv"), "--proxy-oracle", "--macc", "-1.0"],
    }[stage]


def _bank_layout(manifest: Path, layer: str) -> None:
    """Library call made with `map`: the SU1 weight-bank layout of one layer at G=8."""
    from bitcol import codec, mapper, model_io  # the fresh import of this stage
    lay = model_io.load_network(manifest).layer(layer)
    cl = codec.compress_layer(lay.weights, 8, name=layer)
    mapper.weight_bank_layout(cl, lay.shape, mapper.catalog_su("SU1"))


def call_cli(argv: list[str], name: str, tracer=None, then=None) -> tuple[int | None, float, str]:
    """`bitcol.cli.main(argv)` on a fresh import, then `then()` if it exited 0.

    Returns (exit code or None after a crash, host seconds, standard error).
    """
    err = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    with quiet_stdout(), redirect_stderr(err):
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            try:
                with fresh_bitcol() as cli:
                    if tracer:
                        tracer.install()
                    rc = cli.main(argv)
                    if then and rc == 0:
                        then()
                    seconds = time.perf_counter() - t0
            except Exception:  # a crash is this stage's failure, not the benchmark's
                rc, seconds = None, time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
            finally:
                if tracer:
                    tracer.uninstall()
    return rc, seconds, err.getvalue().strip()


def run_stage(stage: str, wl: Workload, manifest: Path, out: Path, seed: int,
              tracer=None) -> Op:
    """Run one CLI stage; the op records exit status, host time and error text."""
    then = (lambda: _bank_layout(manifest, wl.bank_layer)) if stage == "map" else None
    rc, seconds, text = call_cli(stage_argv(stage, wl, manifest, out, seed), stage, tracer, then)
    op = Op(stage, rc == 0, seconds, "" if rc == 0 else f"exit {rc}: {text}")
    op.known_defect = stage in wl.probes and rc == 1 and bool(DEFECT_4B.search(text))
    return op


# ---------------------------------------------------------------------------
# Model outputs, read back from the CSVs the stages wrote
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def modelled(stage: str, out: Path, dense_bits: dict[str, int]) -> dict[str, float]:
    """Model outputs of one stage run (empty for stages without one)."""
    if stage == "report":
        rows = read_csv(out / "report.csv")
        return {"cr_real": sum(8 * int(r["elements"]) for r in rows)
                / sum(int(r["bits"]) for r in rows)}
    if stage == "simulate":
        return {"sim_cycles": sum(int(r["cycles"]) for r in read_csv(out / "simulate.csv"))}
    if stage == "perf":
        row = next(r for r in read_csv(out / "perf.csv") if r["spec"] == "bitcol")
        return {"bitcol_speedup": float(row["speedup"])}
    if stage == "bitflip":
        return {"flip_sse": sum(int(r["total_sq_error"]) for r in read_csv(out / "bitflip.csv"))}
    if stage == "search":
        rows = read_csv(out / "search.csv")
        return {"search_cr": sum(dense_bits[r["layer"]] for r in rows)
                / sum(dense_bits[r["layer"]] / float(r["cr_real"]) for r in rows)}
    return {}


# ---------------------------------------------------------------------------
# Benchmark-side checks, recomputed with plain numpy (never with bitcol.codec)
# ---------------------------------------------------------------------------

def sm_indexes(w: np.ndarray, g: int) -> np.ndarray:
    """Per-group OR of the sign-magnitude bytes: bit b set iff column b is non-zero."""
    k, c, fy, fx = w.shape
    v = np.moveaxis(w.astype(np.int16), 1, 3)
    v = np.pad(v, [(0, 0)] * 3 + [(0, -c % g)]).reshape(-1, g)
    v = np.clip(v, -127, 127)
    sm = (np.abs(v) | np.where(v < 0, 0x80, 0)).astype(np.uint8)
    return np.bitwise_or.reduce(sm, axis=1)


def popcount(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x[:, None], axis=1).sum(axis=1)


def check_report_cr(out: Path) -> str:
    comp = {r["layer"]: r for r in read_csv(out / "compress.csv")}
    for r in read_csv(out / "report.csv"):
        want = comp[r["layer"]]["cr_real"] if r["mode"] == "bcs" else "1"
        if r["cr_real"] != want or r["group_size"] != comp[r["layer"]]["group_size"]:
            return f"layer {r['layer']}: report CR {r['cr_real']} != compress CR {want}"
    return ""


def check_cr_recompute(layers, out: Path) -> str:
    for r in read_csv(out / "report.csv"):
        w = layers[r["layer"]][1]
        g = int(r["group_size"])
        idx = sm_indexes(w, g)
        bits = 8 * len(idx) + g * int(popcount(idx).sum()) if r["mode"] == "bcs" else 8 * w.size
        if int(r["bits"]) != bits or int(r["elements"]) != w.size:
            return f"layer {r['layer']}: report says {r['bits']} bits, numpy gives {bits}"
    return ""


def check_flip(layers, flip_dir: Path, csv_path: Path, strategy: dict[str, tuple[int, int]]) -> str:
    """Every group keeps >= z zero columns, and the CSV's squared error is the real one."""
    flipped = nets.read_manifest(flip_dir / "manifest.txt")
    sse = 0
    for name, (g, z) in strategy.items():
        orig, new = layers[name][1], flipped[name][1]
        zeros = 8 - popcount(sm_indexes(new, g))
        if zeros.min() < z:
            return f"layer {name}: a group has {zeros.min()} zero columns, target z={z}"
        d = np.clip(orig.astype(np.int32), -127, 127) - new.astype(np.int32)
        sse += int((d * d).sum())
    reported = sum(int(r["total_sq_error"]) for r in read_csv(csv_path))
    if sse != reported:
        return f"flip error: CSV says {reported}, numpy gives {sse}"
    return ""


def read_strategy(path: Path) -> dict[str, tuple[int, int]]:
    strategy = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        f = dict(tok.split("=", 1) for tok in line.split())
        strategy[f["layer"]] = (int(f["G"]), int(f["z"]))
    return strategy


def checks(wl: Workload, ok: set[str], layers, out: Path) -> list[Op]:
    """Output checks for the stages that succeeded in this flow."""
    todo = []
    if {"compress", "report"} <= ok:
        todo.append(("check.report_cr", lambda: check_report_cr(out)))
        todo.append(("check.cr_recompute", lambda: check_cr_recompute(layers, out)))
    if "bitflip" in ok:
        strat = {name: (8, wl.zero_cols) for name in layers}
        todo.append(("check.flip", lambda: check_flip(layers, out / "flip", out / "bitflip.csv",
                                                      strat)))
    if "search" in ok:
        todo.append(("check.search", lambda: check_flip(
            layers, out / "search", out / "search.csv",
            read_strategy(out / "search" / "strategy.txt"))))
    ops = []
    for name, fn in todo:
        error = fn()
        ops.append(Op(name, not error, error=error))
    return ops


# ---------------------------------------------------------------------------
# One pass over the workload's stages
# ---------------------------------------------------------------------------

class ScaledClock:
    """Scales host seconds to a fixed machine speed.

    The host is a shared VM whose speed drifts by +-20% over minutes and
    swings up to 2x within seconds, which moves every call alike. The clock
    measures the speed with a fixed reference workload (interpreter loops
    over small arrays, like the per-group code, plus a numpy pass) run five
    times before and after each timed call and, from a timer signal, every
    PERIOD_S during it. A call's scaled seconds are its host seconds, less
    the probes run inside it, times REF_S / mean(reference seconds): the
    time it would take at the speed where one reference takes REF_S.
    """

    REF_S = 0.001
    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []  # reference seconds, in the order taken
        self._small = [np.arange(8, dtype=np.int64) + i for i in range(64)]
        self._big = np.random.default_rng(0).integers(-127, 128, size=(1 << 13, 8),
                                                      dtype=np.int8)
        self._bracket()  # warm up

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        for a in self._small:
            for _ in range(4):
                int((a * a).sum())
        np.bitwise_or.reduce(self._big, axis=1)
        self.samples.append(time.perf_counter() - t0)

    def _bracket(self) -> None:
        for _ in range(5):
            self._probe()

    @contextmanager
    def timing(self):
        """Yields a dict that holds, after the block, `probe_s` (probe time
        inside the block) and `speed` (REF_S / mean reference seconds)."""
        first = len(self.samples)
        self._bracket()
        inside = len(self.samples)
        result = {}
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            result["probe_s"] = sum(self.samples[inside:])
            self._bracket()
            result["speed"] = self.REF_S / statistics.mean(self.samples[first:])

    @staticmethod
    def scale(seconds: float, timing: dict) -> float:
        return (seconds - timing["probe_s"]) * timing["speed"]


@dataclass
class Flow:
    raw: dict[str, float] = field(default_factory=dict)     # stage -> host seconds
    scaled: dict[str, float] = field(default_factory=dict)  # stage -> scaled seconds
    timed: list[str] = field(default_factory=list)  # stages in flow_s: succeeded, not probes
    ops: list[Op] = field(default_factory=list)
    outputs: dict[str, float] = field(default_factory=dict)  # model outputs

    def total(self, stages=None) -> float:
        """Scaled seconds of the given stages (default: every stage run, probes included)."""
        return sum(self.scaled[s] for s in (self.scaled if stages is None else stages))


def run_flow(wl: Workload, manifest: Path, out: Path, seed: int, layers, clock: ScaledClock,
             tracer=None, run: str = "") -> Flow:
    """Run every stage of the workload once, then check the outputs."""
    out.mkdir(parents=True, exist_ok=True)
    dense_bits = {name: 8 * w.size for name, (_, w) in layers.items()}
    flow = Flow()
    ok = set()
    for stage in wl.stages:
        if tracer:
            tracer.run = f"{run}.{stage}"
        with clock.timing() as timing:
            op = run_stage(stage, wl, manifest, out, seed, tracer)
        gc.collect()  # garbage of this stage must not raise the next one's peak memory
        flow.raw[stage] = op.seconds
        flow.scaled[stage] = clock.scale(op.seconds, timing)
        flow.ops.append(op)
        if op.ok:
            ok.add(stage)
            flow.outputs.update(modelled(stage, out, dense_bits))
            if stage not in wl.probes:
                flow.timed.append(stage)
    flow.ops.extend(checks(wl, ok, layers, out))
    return flow
