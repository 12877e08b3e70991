"""The deferred column pack of compress_layer.

A bcs layer from compress_layer keeps its sign-magnitude groups and packs
them on the first read of `columns`. Its payload and its container bytes
must equal those of the eager pack, assigning `columns` must replace it,
and the first read must drop the groups. The CLI packs only what it
writes, lays out or unpacks: `perf` packs nothing, `compress` one payload
per bcs layer it writes, `simulate` one per bcs layer when it verifies.
Verification must read the packed payload, so a packer that flips a bit
fails `--verify`.
"""

import contextlib
import io
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitcol import codec, model_io
from bitcol.cli import main

from conftest import make_layer, make_network

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tensors(draw):
    """A small (K, C, FY, FX) int8 tensor; a low magnitude bound makes auto pick bcs."""
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 80)),
            draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from((0, 3, 31, 128)))
    vals = rng.integers(-bound, min(bound, 127) + 1, size=dims)
    vals[rng.random(dims) < draw(st.sampled_from((0.0, 0.5)))] = 0
    return vals.astype(np.int8)


def _container(tmp_path, cl):
    path = tmp_path / "c.bcsw"
    model_io.write_compressed(path, [cl])
    return path.read_bytes()


@PROPERTY
@given(vals=tensors(), g=st.sampled_from(codec.GROUP_SIZES), mode=st.sampled_from(("auto", "bcs")))
def test_deferred_payload_is_the_eager_pack(tmp_path_factory, vals, g, mode):
    tmp_path = tmp_path_factory.mktemp("c")
    deferred = codec.compress_layer(vals, g, mode, "l")
    if deferred.mode == "dense":
        return
    sm = codec.sm_encode(codec.partition_groups(vals, g))
    eager = codec.CompressedLayer("l", g, "bcs", vals.size, len(sm), indexes=deferred.indexes,
                                  columns=codec.pack_columns(sm, deferred.indexes))
    assert deferred.payload_bits == eager.payload_bits
    assert _container(tmp_path, deferred) == _container(tmp_path, eager)
    got = deferred.columns
    assert got.dtype == eager.columns.dtype and np.array_equal(got, eager.columns)


@pytest.fixture
def packs(monkeypatch):
    """The sign-magnitude groups handed to codec.pack_columns, one weak reference per pack."""
    seen, pack = [], codec.pack_columns

    def counted(sm_bits, indexes):
        seen.append(weakref.ref(sm_bits))
        return pack(sm_bits, indexes)

    monkeypatch.setattr(codec, "pack_columns", counted)
    return seen


def test_assigned_columns_replace_the_deferred_payload(rng, packs):
    vals = rng.integers(-127, 128, size=(2, 16, 1, 1), dtype=np.int8)
    cl = codec.compress_layer(vals, 8, mode="bcs")
    payload = np.zeros((int(np.bitwise_count(cl.indexes).sum()), 1), dtype=np.uint8)
    cl.columns = payload
    assert cl.columns is payload and not packs
    assert not codec.decompress_layer(cl, vals.shape).any()


def test_first_read_drops_the_groups(rng, packs):
    cl = codec.compress_layer(rng.integers(-127, 128, size=(2, 16, 3, 3), dtype=np.int8), 8, "bcs")
    assert codec.compression_ratio(cl) > 0 and codec.compression_ratio(cl, False) > 0 and not packs
    first = cl.columns
    assert len(packs) == 1 and packs[0]() is None  # no reference to the groups is left
    assert cl.columns is first and len(packs) == 1


@pytest.fixture
def manifest(tmp_path):
    """conv1 compresses (bcs), fc does not (dense); both map with C_u=8, so auto G fits."""
    rng = np.random.default_rng(3)
    bell = np.clip(np.rint(rng.normal(0, 6, size=(32, 8, 3, 3))), -127, 127)
    net = make_network("n", [
        make_layer("conv1", values=bell, k=32, c=8, fy=3, fx=3, ox=16, oy=4),
        make_layer("fc", rng, k=32, c=8, fy=1, fx=1, ox=1, oy=1, kind="fully-connected"),
    ])
    return model_io.save_network(net, tmp_path / "net")


def _run(stage, manifest, *argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([stage, "--manifest", str(manifest), *map(str, argv)])


@pytest.mark.parametrize("stage,argv,n_packs", [
    ("perf", ["--preset", "bitcol"], 0),
    ("compress", ["--verify"], 1),  # one per bcs layer written
    ("simulate", ["--verify"], 1),  # one per bcs layer verified
    ("simulate", [], 0),
])
def test_cli_packs_only_what_it_reads(tmp_path, manifest, packs, stage, argv, n_packs):
    container = tmp_path / "c.bcsw"
    if stage == "compress":
        argv = [*argv, "--out", container]
    assert _run(stage, manifest, *argv) == 0
    assert len(packs) == n_packs
    if stage == "compress":
        assert [cl.mode for cl in model_io.read_compressed(container)] == ["bcs", "dense"]


@pytest.mark.parametrize("stage", ["simulate", "compress"])
def test_verify_reads_the_packed_payload(tmp_path, manifest, monkeypatch, stage):
    pack = codec.pack_columns

    def flipped(sm_bits, indexes):  # element 0 of every column reads one bit wrong
        columns = pack(sm_bits, indexes)
        columns[:, 0] ^= 1
        return columns

    argv = ["--verify", *(["--out", tmp_path / "c.bcsw"] if stage == "compress" else [])]
    assert _run(stage, manifest, *argv) == 0
    monkeypatch.setattr(codec, "pack_columns", flipped)
    assert _run(stage, manifest, *argv) == 2
