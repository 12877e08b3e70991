"""Golden outputs: every subcommand on two seeded nets, pinned byte for byte.

The nets are generated here (seeded N(0, 6) int8 weights, clipped to +-127,
20% zeros) and written as raw tensor files plus a manifest, so the program
under test only reads them. Each output file is pinned by its SHA-256; a few
headline numbers (cycles and energy per spec, flip SSE, CR per layer) sit
next to the hashes so that a change reads as numbers in a diff.

- `resnet20`: a CIFAR ResNet20-shaped net (20 layers, 268,336 weights)
  through analyze, compress --verify, report, map, simulate --container
  --verify, perf (every preset plus a spec INI), a one-shot bitflip and the
  proxy greedy search.
- `mobilenetv2-slice`: the first blocks of MobileNetV2, with depthwise
  layers that map onto SU7, through compress, map, simulate and perf at
  auto G as a user runs them. simulate and perf choose G by CR alone, so
  today they stop at a layer whose G is not a multiple of its SU's C_u
  (ROADMAP defect 4b); the pinned exit and message record that.

A change that claims unchanged outputs leaves tests/golden/ untouched. After
an intended change, rewrite the files and see which headline numbers moved:

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from bitcol import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 1
PRESETS = ("dense", "stripes", "pragmatic", "bitlet", "scnn", "huaa", "bitcol")
SPEC_INI = """\
[custom-su]
base = bitcol
su = custom:16,4,16
group_size = 16

[sign-cycle]
base = bitcol
sign_cycle = true

[costs]
base = scnn
e_mac = 0.5
e_dram_bit = 4.0
weight_sram_bytes = 65536
dram_bytes_per_cycle = 8

[fixed-g]
base = bitcol
su = SU3
group_size = 32
"""


def _conv(name, k, c, f, ox, stride=1):
    return (name, "conv" if f > 1 else "pointwise-conv", k, c, f, ox, stride)


def resnet20_shapes() -> list[tuple]:
    """CIFAR ResNet20 at 32x32 with identity shortcuts: (name, kind, K, C, F, OX, stride)."""
    shapes = [_conv("conv1", 16, 3, 3, 32)]
    c_in, ox = 16, 32
    for stage, width in enumerate((16, 32, 64), 1):
        for block in range(3):
            stride = 2 if stage > 1 and block == 0 else 1
            ox //= stride
            shapes.append(_conv(f"stage{stage}.{block}.conv1", width, c_in, 3, ox, stride))
            shapes.append(_conv(f"stage{stage}.{block}.conv2", width, width, 3, ox))
            c_in = width
    shapes.append(("fc", "fully-connected", 10, 64, 1, 1, 1))
    return shapes


def mobilenetv2_slice_shapes() -> list[tuple]:
    """MobileNetV2 at 224x224, the stem and its first four inverted-residual blocks."""
    shapes = [_conv("features.0", 32, 3, 3, 112, 2)]
    c_in, ox, idx = 32, 112, 1
    for t, c, n, s in ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 1, 2)):
        for i in range(n):
            stride = s if i == 0 else 1
            hidden = c_in * t
            p = f"features.{idx}"
            if t != 1:
                shapes.append(_conv(f"{p}.expand", hidden, c_in, 1, ox))
            ox //= stride
            shapes.append((f"{p}.dw", "depthwise-conv", hidden, 1, 3, ox, stride))
            shapes.append(_conv(f"{p}.project", c, hidden, 1, ox))
            c_in, idx = c, idx + 1
    return shapes


def write_net(name: str, shapes: list[tuple], out_dir: Path) -> Path:
    """Raw K-major int8 tensors plus a manifest, written without bitcol."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    lines = [f"network={name}"]
    for layer, kind, k, c, f, ox, stride in shapes:
        w = rng.normal(0, 6, size=(k, c, f, f)).round().clip(-127, 127).astype(np.int8)
        w[rng.random(size=w.shape) < 0.2] = 0
        w.tofile(out_dir / f"{layer}.w.bin")
        lines.append(f"layer={layer} kind={kind} K={k} C={c} FX={f} FY={f} OX={ox} OY={ox} "
                     f"B=1 stride={stride} weights={layer}.w.bin")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _cli(*argv: str) -> tuple[int, str]:
    """cli.main in-process; returns the exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue().strip()


def _ok(*argv: str) -> None:
    rc, err = _cli(*argv)
    if rc != 0:
        raise AssertionError(f"bitcol {argv[0]} exited {rc}: {err}")


def _sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def run_resnet20(work: Path) -> dict:
    m = write_net("resnet20", resnet20_shapes(), work / "net")
    box = work / "model.bcsw"
    _ok("analyze", "--manifest", m, "--out", work / "analyze.csv")
    _ok("compress", "--manifest", m, "--out", box, "--csv", work / "cr.csv", "--verify")
    _ok("report", "--container", box, "--out", work / "report.csv")
    _ok("map", "--manifest", m, "--out", work / "map.csv")
    _ok("simulate", "--manifest", m, "--container", box, "--verify", "--seed", SEED,
        "--out", work / "simulate.csv")
    (work / "specs.ini").write_text(SPEC_INI, encoding="utf-8")
    _ok("perf", "--manifest", m, *(a for p in PRESETS for a in ("--preset", p)),
        "--spec-config", work / "specs.ini", "--baseline", "scnn",
        "--out", work / "perf.csv", "--per-layer", work / "perf_layers.csv")
    _ok("bitflip", "--manifest", m, "--out", work / "flip", "--csv", work / "flip.csv",
        "--group-size", 8, "--zero-cols", 4)
    _ok("bitflip", "--manifest", m, "--out", work / "search", "--csv", work / "search.csv",
        "--proxy-oracle", "--macc", -1.0)

    artifacts = {name: _sha(work / name) for name in (
        "analyze.csv", "model.bcsw", "cr.csv", "report.csv", "map.csv", "simulate.csv",
        "perf.csv", "perf_layers.csv", "flip.csv", "search.csv")}
    names = [s[0] for s in resnet20_shapes()]
    for out in ("flip", "search"):
        artifacts[f"{out}/manifest.txt"] = _sha(work / out / "manifest.txt")
        artifacts[f"{out}/*.w.bin"] = _sha(*(work / out / f"{n}.w.bin" for n in names))
        artifacts[f"{out}/strategy.txt"] = _sha(work / out / "strategy.txt")
    perf_rows = _rows(work / "perf.csv")
    headline = {
        "cycles": {r["spec"]: float(r["cycles"]) for r in perf_rows},
        "energy": {r["spec"]: float(r["energy"]) for r in perf_rows},
        "sim_cycles": sum(int(r["cycles"]) for r in _rows(work / "simulate.csv")),
        "flip_sse": sum(int(r["total_sq_error"]) for r in _rows(work / "flip.csv")),
        "search_sse": sum(int(r["total_sq_error"]) for r in _rows(work / "search.csv")),
        "search_strategy": (work / "search" / "strategy.txt").read_text().splitlines(),
        "cr_real": {r["layer"]: float(r["cr_real"]) for r in _rows(work / "report.csv")},
    }
    return {"artifacts": artifacts, "headline": headline}


def run_mobilenetv2_slice(work: Path) -> dict:
    m = write_net("mobilenetv2-slice", mobilenetv2_slice_shapes(), work / "net")
    _ok("compress", "--manifest", m, "--out", work / "model.bcsw", "--csv", work / "cr.csv")
    _ok("map", "--manifest", m, "--out", work / "map.csv")
    sim_rc, sim_err = _cli("simulate", "--manifest", m, "--verify", "--seed", SEED,
                           "--out", work / "simulate.csv")
    perf_rc, perf_err = _cli("perf", "--manifest", m, "--preset", "bitcol",
                             "--out", work / "perf.csv", "--per-layer", work / "perf_layers.csv")
    artifacts = {name: _sha(work / name) for name in ("model.bcsw", "cr.csv", "map.csv")}
    for name, rc in (("simulate.csv", sim_rc), ("perf.csv", perf_rc),
                     ("perf_layers.csv", perf_rc)):
        if rc == 0:
            artifacts[name] = _sha(work / name)
    headline = {
        "simulate": {"exit": sim_rc, "stderr": sim_err},
        "perf": {"exit": perf_rc, "stderr": perf_err},
        "su": {r["layer"]: r["chosen"] for r in _rows(work / "map.csv")},
        "cr_real": {r["layer"]: float(r["cr_real"]) for r in _rows(work / "cr.csv")},
    }
    return {"artifacts": artifacts, "headline": headline}


RUNS = {"resnet20": run_resnet20, "mobilenetv2-slice": run_mobilenetv2_slice}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def test_resnet20_outputs_unchanged(tmp_path):
    assert run_resnet20(tmp_path) == _golden("resnet20")


def test_mobilenetv2_slice_outputs_unchanged(tmp_path):
    assert run_mobilenetv2_slice(tmp_path) == _golden("mobilenetv2-slice")


def _flat(tree, prefix=""):
    if isinstance(tree, dict):
        for key, val in tree.items():
            yield from _flat(val, f"{prefix}{key}.")
    else:
        yield prefix[:-1], tree


def update() -> None:
    """Rewrite tests/golden/*.json and print every headline number that moved."""
    GOLDEN.mkdir(exist_ok=True)
    for name, run in RUNS.items():
        with tempfile.TemporaryDirectory(prefix="bitcol-golden-") as tmp:
            new = run(Path(tmp))
        path = GOLDEN / f"{name}.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        before, after = (dict(_flat(d.get("headline", {}))) for d in (old, new))
        changed = [k for k in sorted(before.keys() | after.keys())
                   if before.get(k) != after.get(k)]
        moved = [k for k in new["artifacts"] if old.get("artifacts", {}).get(k)
                 != new["artifacts"][k]]
        print(f"{name}: {len(moved)} artifacts changed {moved}")
        for k in changed:
            print(f"  {k}: {before.get(k)!r} -> {after.get(k)!r}")
        path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    update()
