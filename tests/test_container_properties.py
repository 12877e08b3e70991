"""Container parse-or-reject properties.

The library reader takes each bcs layer's index bytes and column bytes as
two slices; the reference reader in oracles.py walks one group at a time.
Written layers must read back field by field, both readers must agree on
valid and truncated containers and reject a repeated layer name and a
version-1 container, corrupt bytes may only raise ContainerError, and a
changed payload or CRC byte always does.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import codec
from bitcol.cli import main
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


def _name(cl):
    return cl.name


containers = st.lists(layers(), max_size=4, unique_by=_name)  # a container's names are unique


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
    return {end for _, end in _payloads(layer_list)} | {5}


def _payloads(layer_list) -> list[tuple[int, int]]:
    """(start, end) byte offsets of each layer's payload plus CRC."""
    pos, spans = 5, []
    for cl in layer_list:
        payload = cl.n_values if cl.mode == "dense" else cl.n_groups + cl.columns.size
        pos += 2 + len(cl.name.encode("utf-8")) + 10
        spans.append((pos, pos + payload + 4))
        pos += payload + 4
    return spans


@pytest.mark.parametrize("mode", ["dense", "bcs"])
@pytest.mark.parametrize("g", codec.GROUP_SIZES)
@PROPERTY
@given(data=st.data())
def test_round_trip_field_by_field(tmp_path, g, mode, data):
    written = data.draw(st.lists(layers(g, mode), min_size=1, max_size=3, unique_by=_name))
    _written(tmp_path, written)
    _assert_same(read_compressed(tmp_path / "c.bcsw"), written)


@PROPERTY
@given(layer_list=containers)
def test_matches_reference_reader(tmp_path, layer_list):
    path = _blob(tmp_path, _written(tmp_path, layer_list))
    _assert_same(read_compressed(path), oracles.read_compressed(path))


@PROPERTY
@given(layer_list=st.lists(layers(), min_size=1, max_size=3), at=st.integers(0, 3))
def test_a_repeated_name_is_rejected_by_both_readers(tmp_path, layer_list, at):
    path = _blob(tmp_path, _written(tmp_path, [*layer_list, layer_list[at % len(layer_list)]]))
    for read in (read_compressed, oracles.read_compressed):
        with pytest.raises(ContainerError, match="names layer .* twice"):
            read(path)


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


@pytest.mark.parametrize("mode", [0, 1])
def test_zero_value_layer_rejected(tmp_path, mode):
    # a layer header with n_values = n_groups = 0 once ended in a bare IndexError
    header = b"BCSW\x02" + struct.pack("<H", 1) + b"x" + struct.pack("<BBII", 8, mode, 0, 0)
    path = _blob(tmp_path, header + struct.pack("<I", zlib.crc32(b"")))
    with pytest.raises(ContainerError, match="holds no values"):
        read_compressed(path)
    with pytest.raises(ContainerError, match="holds no values"):
        oracles.read_compressed(path)
    assert main(["report", "--container", str(path)]) == 1


@settings(PROPERTY, max_examples=100)
@given(layer_list=st.lists(layers(), min_size=1, max_size=3, unique_by=_name),
       flip=st.integers(1, 255), data=st.data())
def test_a_changed_payload_or_crc_byte_is_rejected(tmp_path, layer_list, flip, data):
    # CRC32 detects every burst of up to 32 bits, so one changed byte never passes;
    # a changed index byte also moves the end of its layer's column slice
    blob = bytearray(_written(tmp_path, layer_list))
    start, end = data.draw(st.sampled_from(_payloads(layer_list)))
    blob[data.draw(st.integers(start, end - 1))] ^= flip
    path = _blob(tmp_path, bytes(blob))
    for read in (read_compressed, oracles.read_compressed):
        with pytest.raises(ContainerError):
            read(path)


@PROPERTY
@given(layer_list=containers)
def test_version_1_is_rejected_by_both_readers(tmp_path, layer_list):
    blob = bytearray(_written(tmp_path, layer_list))
    blob[4] = 1
    path = _blob(tmp_path, bytes(blob))
    for read in (read_compressed, oracles.read_compressed):
        with pytest.raises(ContainerError, match="unsupported version 1"):
            read(path)
    assert main(["report", "--container", str(path)]) == 1


@pytest.mark.parametrize("change", [-1, 1])
def test_a_payload_of_the_wrong_length_is_not_written(tmp_path, change):
    cl = codec.compress_layer(np.arange(-8, 8, dtype=np.int8).reshape(1, 16, 1, 1), 8, "bcs", "w")
    cl.columns = np.zeros((len(cl.columns) + change, cl.column_bytes), dtype=np.uint8)
    path = tmp_path / "c.bcsw"
    with pytest.raises(ContainerError, match="layer 'w': index/payload length mismatch"):
        write_compressed(path, [cl])
    assert not path.exists()
