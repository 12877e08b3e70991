"""The strategy-scored greedy search against the network-scored one in oracles.py.

The reference search flips a copy of the network for every candidate and
the reference proxy metric rescans every weight. The library scores a
strategy from a table of flip errors per (layer, G, z), each (layer, z)
scored at every automatic G in one pass, so the searched strategy and the
metric must match the reference exactly, and the search must flip no layer,
score each (layer, z) once and copy no network.
"""

import sys
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import bitflip, codec, model_io
from bitcol.workload import Layer, LayerShape, Network

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def nets(draw, max_layers=3):
    """Small nets of 1x1 or 2x2 kernels: wide, narrow or near-zero values
    (near-zero layers give ties between moves), a few -128."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for i in range(draw(st.integers(1, max_layers))):
        f = draw(st.sampled_from([1, 2]))
        shape = LayerShape(k=draw(st.integers(1, 3)), c=draw(st.integers(1, 40)), fy=f, fx=f,
                           ox=1, oy=1)
        cap = draw(st.sampled_from([1, 7, 127]))
        w = rng.integers(-cap, cap + 1, size=shape.weight_dims)
        w[rng.random(w.shape) < 0.05] = -128
        layers.append(Layer(f"l{i}", shape, w.astype(np.int8)))
    return Network("n", layers)


def strategies_for(net):
    return st.fixed_dictionaries({l.name: st.tuples(st.sampled_from(codec.GROUP_SIZES),
                                                    st.integers(0, 8)) for l in net.layers})


@PROPERTY
@given(data=st.data())
def test_search_matches_the_network_scored_search(data):
    net = data.draw(nets())
    initial = data.draw(strategies_for(net))
    macc = data.draw(st.one_of(st.sampled_from([0.0, -1e9]), st.floats(-3000, 0)))
    want = oracles.greedy_search(net, initial, macc, oracles.proxy_metric(net))
    assert bitflip.greedy_search(net, initial, macc, bitflip.proxy_oracle(net)) == want


@PROPERTY
@given(data=st.data())
def test_proxy_equals_the_rescan_metric(data):
    net = data.draw(nets())
    oracle = bitflip.proxy_oracle(net)
    for strategy in data.draw(st.lists(strategies_for(net), min_size=1, max_size=4)):
        flipped, _ = bitflip.apply_strategy(net, strategy)
        assert oracle(strategy) == oracles.proxy_metric(net)(flipped)


def _flip_net(rng):
    return Network("n", [Layer(f"l{i}", LayerShape(k=k, c=c, fy=1, fx=1, ox=1, oy=1),
                               rng.integers(-127, 128, size=(k, c, 1, 1)).astype(np.int8))
                         for i, (k, c) in enumerate([(4, 32), (2, 24), (3, 64)])])


def _counted_search(monkeypatch, net, initial):
    """The proxy search's strategy, its flip_layer calls and its
    _sse_by_group_size calls by (layer, sizes, z); any network copy fails."""
    flips, scores = [], Counter()
    real_sse = bitflip._sse_by_group_size
    names = {id(l.weights): l.name for l in net.layers}

    def counted_sse(values, z, sizes):
        scores[names[id(values)], tuple(sizes), z] += 1
        return real_sse(values, z, sizes)

    def no_copy(*_):
        raise AssertionError("the proxy search copied the network")

    monkeypatch.setattr(bitflip, "flip_layer", lambda *a: flips.append(a))
    monkeypatch.setattr(bitflip, "_sse_by_group_size", counted_sse)
    monkeypatch.setattr(Network, "with_weights", no_copy)
    return bitflip.greedy_search(net, initial, -200.0, bitflip.proxy_oracle(net)), flips, scores


def test_proxy_search_flips_nothing_and_scores_each_layer_z_once(monkeypatch):
    net = _flip_net(np.random.default_rng(7))
    initial = bitflip.default_strategy(net, 8, 2)
    expected = oracles.greedy_search(net, initial, -200.0, oracles.proxy_metric(net))
    got, flips, scores = _counted_search(monkeypatch, net, initial)
    assert got == expected
    assert expected != initial  # the search committed moves
    assert flips == []
    assert set(scores.values()) == {1}
    # the first sweep scores each layer's initial z and its z + 1
    assert {(name, z) for name, _, z in scores} >= {(l.name, z) for l in net.layers
                                                   for z in (2, 3)}
    assert {sizes for _, sizes, _ in scores} == {codec.AUTO_GROUP_SIZES}


def test_proxy_search_scores_a_non_auto_group_size_alone(monkeypatch):
    net = _flip_net(np.random.default_rng(7))
    initial = {"l0": (4, 2), "l1": (64, 1), "l2": (16, 2)}
    expected = oracles.greedy_search(net, initial, -200.0, oracles.proxy_metric(net))
    got, flips, scores = _counted_search(monkeypatch, net, initial)
    assert got == expected
    assert flips == []
    assert set(scores.values()) == {1}
    alone = {key for key in scores if key[1] != codec.AUTO_GROUP_SIZES}
    assert alone == {("l0", (4,), 2), ("l1", (64,), 1)}


def test_external_oracle_writes_the_applied_strategy(tmp_path):
    net = _flip_net(np.random.default_rng(8))
    net.layers[1].weights[0, 0, 0, 0] = -128  # a z=0 layer is written clamped
    script = tmp_path / "copy.py"
    script.write_text(
        "import os, shutil, sys\n"
        "dest = os.path.join(sys.argv[2], str(len(os.listdir(sys.argv[2]))))\n"
        "shutil.copytree(os.path.dirname(sys.argv[1]), dest)\n"
        "print(0)\n")
    seen = tmp_path / "seen"
    seen.mkdir()
    oracle = bitflip.ExternalOracle(f"{sys.executable} {script} {{manifest}} {seen}", net)
    candidates = [{"l0": (8, 3), "l1": (16, 0), "l2": (32, 5)},
                  {"l0": (8, 3), "l1": (16, 1), "l2": (32, 5)},
                  {"l0": (4, 8), "l1": (16, 0), "l2": (32, 5)}]
    for i, candidate in enumerate(candidates):
        assert oracle(candidate) == 0.0
        ref = model_io.save_network(bitflip.apply_strategy(net, candidate)[0],
                                    tmp_path / f"ref{i}").parent
        files = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in (seen / str(i)).iterdir()) == files
        for name in files:
            assert (seen / str(i) / name).read_bytes() == (ref / name).read_bytes(), name


def test_external_search_flips_each_layer_g_z_once(monkeypatch):
    net = _flip_net(np.random.default_rng(7))
    names = {id(l.weights): l.name for l in net.layers}
    flips, calls = [], []
    real_flip = bitflip.flip_layer

    def counted_flip(values, g, z):
        flips.append((names[id(values)], g, z))
        return real_flip(values, g, z)

    monkeypatch.setattr(bitflip, "flip_layer", counted_flip)
    external = bitflip.ExternalOracle("echo 0", net)
    got = bitflip.greedy_search(net, bitflip.default_strategy(net, 8, 6), -1.0,
                                lambda strategy: calls.append(strategy) or external(strategy))
    # every metric ties, so the last candidate of each sweep commits
    assert got == bitflip.default_strategy(net, 32, 8)
    assert len(calls) == 36
    assert len(flips) == len(set(flips)) == 21
    assert set(flips) == {(name, *s[name]) for s in calls for name in s}
