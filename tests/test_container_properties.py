"""Container parse-or-reject properties.

The library reader walks each bcs layer's record starts through a 256-entry
step table and splits the record bytes with one index-byte mask; the
reference reader in oracles.py walks one group at a time. Written layers
must read back field by field, both readers must agree on valid and
truncated containers, and corrupt bytes may only raise ContainerError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import codec
from bitcol.model_io import read_compressed, write_compressed
from bitcol.workload import ContainerError

PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])


@st.composite
def layers(draw, g=None, mode=None):
    """One compressed layer: bell, uniform or all-zero values, with some
    all-zero groups, at a drawn (or given) group size and mode."""
    g = draw(st.sampled_from(codec.GROUP_SIZES)) if g is None else g
    mode = draw(st.sampled_from(["dense", "bcs", "auto"])) if mode is None else mode
    dims = tuple(draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 70), (1, 2), (1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bell", "uniform", "zero"]))
    if kind == "bell":
        vals = np.rint(rng.normal(0, draw(st.sampled_from([1, 6, 40])), size=dims))
    elif kind == "uniform":
        vals = rng.integers(-128, 128, size=dims)
    else:
        vals = np.zeros(dims)
    vals[:, rng.random(dims[1]) < 0.3] = 0  # whole channels zero: all-zero groups
    name = draw(st.text(max_size=6))
    return codec.compress_layer(np.clip(vals, -128, 127).astype(np.int8), g, mode, name)


containers = st.lists(layers(), max_size=4)


def _blob(tmp_path, data: bytes):
    path = tmp_path / "c.bcsw"
    path.write_bytes(data)
    return path


def _written(tmp_path, layer_list) -> bytes:
    path = tmp_path / "c.bcsw"
    write_compressed(path, layer_list)
    return path.read_bytes()


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.name, a.group_size, a.mode, a.n_values, a.n_groups) == \
            (b.name, b.group_size, b.mode, b.n_values, b.n_groups)
        for field in ("indexes", "columns", "dense_values"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y)


def _layer_ends(layer_list) -> set[int]:
    """Byte offsets at which a container of these layers ends a layer."""
    pos, ends = 5, {5}
    for cl in layer_list:
        payload = cl.n_values if cl.mode == "dense" else cl.n_groups + cl.columns.size
        pos += 2 + len(cl.name.encode("utf-8")) + 10 + payload
        ends.add(pos)
    return ends


@pytest.mark.parametrize("mode", ["dense", "bcs"])
@pytest.mark.parametrize("g", codec.GROUP_SIZES)
@PROPERTY
@given(data=st.data())
def test_round_trip_field_by_field(tmp_path, g, mode, data):
    written = data.draw(st.lists(layers(g, mode), min_size=1, max_size=3))
    _written(tmp_path, written)
    _assert_same(read_compressed(tmp_path / "c.bcsw"), written)


@PROPERTY
@given(layer_list=containers)
def test_matches_reference_reader(tmp_path, layer_list):
    path = _blob(tmp_path, _written(tmp_path, layer_list))
    _assert_same(read_compressed(path), oracles.read_compressed(path))


@settings(PROPERTY, max_examples=15)
@given(layer_list=containers)
def test_every_truncation_matches_reference_reader(tmp_path, layer_list):
    data = _written(tmp_path, layer_list)
    ends = _layer_ends(layer_list)
    assert max(ends) == len(data)
    for cut in range(len(data)):
        path = _blob(tmp_path, data[:cut])
        if cut in ends:  # a whole-layer prefix is itself a valid container
            _assert_same(read_compressed(path), oracles.read_compressed(path))
            continue
        with pytest.raises(ContainerError):
            read_compressed(path)
        with pytest.raises(ContainerError):
            oracles.read_compressed(path)


@settings(PROPERTY, max_examples=200)
@given(layer_list=containers, flip=st.integers(1, 255), cut=st.booleans(), data=st.data())
def test_corruption_raises_only_container_error(tmp_path, layer_list, flip, cut, data):
    blob = bytearray(_written(tmp_path, layer_list))
    at = data.draw(st.integers(0, len(blob) - 1))
    if cut:
        del blob[at:]
    else:
        blob[at] ^= flip
    path = _blob(tmp_path, bytes(blob))
    try:
        got = read_compressed(path)
    except ContainerError:
        return
    # whatever the reader accepts, it accepts exactly: the bytes write back
    assert _written(tmp_path, got) == bytes(blob)
