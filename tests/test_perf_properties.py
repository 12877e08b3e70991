"""The perf model's per-layer record against the reference evaluation.

`perf.evaluate_layer` must give exactly the floats of the reference in
`oracles.perf_evaluate_layer`: the four energy fields, all seven latency
terms, the cycle count and every per-layer output column, compared with
`==`. Layers are small random conv, pointwise and depthwise layers, with or
without an activation sample; specs are every preset under random unit
costs, DRAM bandwidth, SRAM sizes small enough to force several passes,
peak MACs, lane-set sizes, sign cycles and group sizes.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import perf
from bitcol.codec import GROUP_SIZES
from bitcol.perf import PRESET_NAMES
from bitcol.workload import BitcolError, MappingError

from conftest import make_layer, make_network

PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def layers(draw):
    kind = draw(st.sampled_from(["conv", "pointwise-conv", "depthwise-conv"]))
    c = 1 if kind == "depthwise-conv" else draw(st.integers(1, 40))
    f = 1 if kind == "pointwise-conv" else draw(st.integers(1, 3))
    shape = dict(k=draw(st.integers(1, 40)), c=c, fy=f, fx=f, ox=draw(st.integers(1, 12)),
                 oy=draw(st.integers(1, 6)), b=draw(st.integers(1, 2)),
                 stride=draw(st.integers(1, 2)), kind=kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = make_layer("l", rng, **shape)
    layer.weights[rng.random(layer.weights.shape) < draw(st.floats(0, 1))] = 0
    if draw(st.booleans()):
        acts = rng.integers(-128, 128, size=draw(st.integers(1, 300)), dtype=np.int8)
        acts[rng.random(acts.shape) < draw(st.floats(0, 1))] = 0
        layer.acts = acts
    return layer


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def specs(draw):
    # half the draws take the bit-column path, the only one with a port-term patch
    spec = perf.preset(draw(st.one_of(st.just("bitcol"), st.sampled_from(PRESET_NAMES))))
    costs = {name: value for name, value in (
        ("e_mac", draw(_maybe(st.floats(0, 10)))),
        ("e_dram_bit", draw(_maybe(st.floats(0, 10)))),
        ("e_sram_bit", draw(_maybe(st.floats(0, 10)))),
        ("e_reg_bit", draw(_maybe(st.floats(0, 10)))),
        # a few hundred bytes split most drawn layers into several passes
        ("weight_sram_bytes", draw(_maybe(st.integers(1, 512)))),
        ("act_sram_bytes", draw(_maybe(st.integers(1, 512)))),
    ) if value is not None}
    keys = {name: value for name, value in (
        ("dram_bytes_per_cycle", draw(_maybe(st.floats(0.25, 1024)))),
        ("peak_macs", draw(_maybe(st.integers(1, 4096)))),
        ("sync_lanes", draw(_maybe(st.integers(1, 200)))),
        ("sign_cycle", draw(_maybe(st.booleans()))),
        ("group_size", draw(_maybe(st.sampled_from(["auto", *GROUP_SIZES])))),
    ) if value is not None}
    return replace(spec, costs=replace(spec.costs, **costs), **keys)


@PROPERTY
@given(layer=layers(), spec=specs())
def test_layer_record_equals_reference_exactly(layer, spec):
    try:
        (m,) = spec.map_layers(make_network("n", [layer]))
    except MappingError:
        assume(False)
    try:
        rep = perf.evaluate_layer(layer, spec, m)
    except BitcolError as e:  # defect 4b: the auto G does not split into C_u
        with pytest.raises(type(e), match=re.escape(str(e))):
            oracles.perf_evaluate_layer(layer, spec, m.su)
        return
    eff, energy, terms, cycles = oracles.perf_evaluate_layer(layer, spec, m.su)
    assert rep.energy._asdict() == energy._asdict()
    assert rep.energy.total == rep.energy.mac + rep.energy.dram + rep.energy.sram + rep.energy.reg
    assert rep.terms._asdict() == terms._asdict()
    assert rep.cycles == cycles
    assert rep.row() == {
        "layer": "l", "su": m.su.id, "utilization": eff.utilization, "n_mac": eff.n_mac,
        "n_mac_e": eff.n_mac_e, "cc_mac_e": eff.cc_mac_e, "cycles": cycles,
        "energy": energy.total, "cr_w": eff.cr_w, "cr_a": eff.cr_a, "s_w": eff.s_w,
        "s_a": eff.s_a}
