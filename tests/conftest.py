import csv

import numpy as np
import pytest

from bitcol import codec, mapper, model_io, perf
from bitcol.cli import main
from bitcol.workload import Layer, LayerShape, Network


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_layer(name, rng=None, values=None, **shape_kw):
    shape = LayerShape(**shape_kw)
    if values is None:
        values = rng.integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
    else:
        values = np.asarray(values, dtype=np.int8).reshape(shape.weight_dims)
    return Layer(name, shape, values)


def make_network(name, layers):
    return Network(name, layers)


def record_map_layer(monkeypatch):
    """Wrap mapper.map_layer, in mapper and in perf's `from` import; returns
    the (layer shape, SU id) of each call, in call order."""
    mapped, real = [], mapper.map_layer
    for module in (mapper, perf):
        monkeypatch.setattr(module, "map_layer", lambda shape, su:
                            mapped.append((shape, su.id)) or real(shape, su))
    return mapped


def stage_outputs(net, work, group_size="auto"):
    """Run compress, report, simulate and perf on `net` at one group size.

    perf runs `--preset bitcol`, or at a fixed G an INI `bitcol` section with
    that `group_size`. Returns each stage's CSV rows by layer name (`compress`
    is the cr.csv table, `perf` the per-layer rows), plus `perf_pack`: the
    (G, mode) of the pack perf took from codec.best_pack for each layer, which
    its CSV does not show.
    """
    m = str(model_io.save_network(net, work / "model"))
    box, fixed = str(work / "model.bcsw"), [] if group_size == "auto" else [
        "--group-size", str(group_size)]
    spec = ["--preset", "bitcol"]
    if group_size != "auto":
        (work / "spec.ini").write_text(f"[bitcol]\ngroup_size = {group_size}\n")
        spec = ["--spec-config", str(work / "spec.ini")]
    csvs = {stage: work / f"{stage}.csv" for stage in ("compress", "report", "simulate", "perf")}
    perf_pack, best_pack = {}, codec.best_pack

    def spy(values, g, name=""):
        cl = best_pack(values, g, name)
        perf_pack[name] = (cl.group_size, cl.mode)
        return cl

    assert main(["compress", "--manifest", m, "--out", box, "--csv", str(csvs["compress"]),
                 *fixed]) == 0
    assert main(["report", "--container", box, "--out", str(csvs["report"])]) == 0
    assert main(["simulate", "--manifest", m, "--out", str(csvs["simulate"]), *fixed]) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "best_pack", spy)
        assert main(["perf", "--manifest", m, *spec, "--per-layer", str(csvs["perf"])]) == 0
    out = {}
    for stage, path in csvs.items():
        with open(path, newline="") as f:
            out[stage] = {r["layer"]: r for r in csv.DictReader(f)}
    out["perf_pack"] = perf_pack
    return out


# layer shapes used across the mapper and acceptance suites: early conv,
# late conv, depthwise and pointwise, parameterized from the usual
# ResNet18 / MobileNetV2 dimensions
CANONICAL_SHAPES = {
    "early": LayerShape(k=64, c=3, fy=7, fx=7, ox=112, oy=112, stride=2),
    "late": LayerShape(k=512, c=512, fy=3, fx=3, ox=7, oy=7),
    "depthwise": LayerShape(k=32, c=1, fy=3, fx=3, ox=112, oy=112, kind="depthwise-conv"),
    "pointwise": LayerShape(k=16, c=32, fy=1, fx=1, ox=112, oy=112, kind="pointwise-conv"),
}


@pytest.fixture
def small_net(rng):
    return make_network("smallnet", [
        make_layer("conv1", rng, k=4, c=8, fy=3, fx=3, ox=8, oy=8),
        make_layer("conv2", rng, k=8, c=8, fy=1, fx=1, ox=8, oy=8, kind="pointwise-conv"),
    ])
