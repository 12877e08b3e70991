"""compress, simulate and perf model and write the same pack per layer.

On small manifests of a compressible conv layer, a depthwise layer and a
near-uniform conv layer that does not compress, per layer: compress's CR row
and simulate's cycle row name the same (G, mode), which is also the
container's and the pack perf models; report's cr_real on the container is
perf's cr_w; and a fixed --group-size N is every stage's G.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitcol import mapper
from bitcol.workload import Layer, LayerShape, Network

from conftest import stage_outputs

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def networks(draw):
    """Three layers whose SUs (SU1, C_u=8, and the depthwise SU7) take G = 8, 16 and 32."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fy = draw(st.sampled_from((1, 3)))
    shapes = {
        "conv": LayerShape(k=draw(st.integers(1, 8)), c=8 * draw(st.integers(1, 8)),
                           fy=fy, fx=fy, ox=16, oy=16),
        "dw": LayerShape(k=draw(st.integers(1, 16)), c=1, fy=3, fx=3, ox=16, oy=16,
                         kind="depthwise-conv"),
        "uniform": LayerShape(k=draw(st.integers(1, 4)), c=8 * draw(st.integers(1, 8)),
                              fy=3, fx=3, ox=16, oy=16),
    }
    bound = {"conv": draw(st.sampled_from((1, 3, 15))), "dw": draw(st.sampled_from((0, 3, 127))),
             "uniform": 127}
    layers = []
    for name, shape in shapes.items():
        vals = rng.integers(-bound[name], bound[name] + 1, size=shape.weight_dims)
        if name != "uniform":
            vals[rng.random(shape.weight_dims) < draw(st.sampled_from((0.0, 0.5)))] = 0
        layers.append(Layer(name, shape, vals.astype(np.int8)))
    return Network("cross", layers)


@PROPERTY
@given(net=networks(), group_size=st.sampled_from(("auto", 8, 16, 32)))
def test_stages_pick_the_same_pack_per_layer(net, group_size):
    assert [mapper.select_su(l.shape).su.id for l in net.layers] == ["SU1", "SU7", "SU1"]
    with tempfile.TemporaryDirectory() as tmp:
        out = stage_outputs(net, Path(tmp), group_size)
    for l in net.layers:
        pick = (out["compress"][l.name]["group_size"], out["compress"][l.name]["mode"])
        for stage in ("report", "simulate"):
            assert (out[stage][l.name]["group_size"], out[stage][l.name]["mode"]) == pick
        assert out["perf_pack"][l.name] == (int(pick[0]), pick[1])
        assert out["report"][l.name]["cr_real"] == out["perf"][l.name]["cr_w"]
        if group_size != "auto":
            assert pick[0] == str(group_size)
    assert out["compress"]["uniform"]["mode"] == "dense"
