import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from bitcol import codec, model_io
from bitcol.workload import Layer, LayerShape, ManifestError, Network
from bitcol.model_io import load_network, read_compressed, save_network, write_compressed, write_report_csv

from conftest import make_layer


def write_manifest(tmp_path, lines):
    p = tmp_path / "manifest.txt"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestManifest:
    def test_single_layer_counts(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes([1, 2, 3, 255]))
        p = write_manifest(tmp_path, [
            "network=tiny",
            "layer=l0 kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin",
        ])
        net = load_network(p)
        assert net.name == "tiny"
        assert net.layers[0].weights.reshape(-1).tolist() == [1, 2, 3, -1]

    def test_size_mismatch(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes(7))
        p = write_manifest(tmp_path, [
            "network=bad",
            "layer=l0 kind=conv K=2 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin",
        ])
        with pytest.raises(ManifestError, match="7 bytes, expected 8"):
            load_network(p)

    def test_oversized_weights_file_rejected_before_reading(self, tmp_path):
        # 64 MiB of file behind a 1-byte layer, sparse so it takes no disk blocks
        with open(tmp_path / "w.bin", "wb") as f:
            f.truncate(64 << 20)
        p = write_manifest(tmp_path, [
            "network=big",
            "layer=l0 kind=conv K=1 C=1 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin",
        ])
        tracemalloc.start()
        try:
            with pytest.raises(ManifestError, match=f"{64 << 20} bytes, expected 1"):
                load_network(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_duplicate_layer_name(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes(4))
        layer = "layer=l0 kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin"
        p = write_manifest(tmp_path, ["network=dup", layer, layer])
        with pytest.raises(ManifestError, match="duplicate"):
            load_network(p)

    def test_missing_weight_file(self, tmp_path):
        p = write_manifest(tmp_path, [
            "network=x",
            "layer=l0 kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=nope.bin",
        ])
        with pytest.raises(ManifestError, match="not found"):
            load_network(p)

    def test_s_a_passthrough(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes(4))
        p = write_manifest(tmp_path, [
            "network=x",
            "layer=conv2 kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin s_a=0.2",
        ])
        assert load_network(p).layers[0].s_a == 0.2

    def test_scalar_wins_over_sample(self, tmp_path, rng):
        layer = make_layer("l0", rng, k=1, c=4, fy=1, fx=1, ox=1, oy=1)
        layer.s_a = 0.25
        layer.acts = np.zeros(10, dtype=np.int8)
        assert layer.act_sparsity() == 0.25

    def test_roundtrip_identical_bytes(self, tmp_path, rng):
        layers = [
            make_layer("a", rng, k=2, c=5, fy=3, fx=3, ox=4, oy=4),
            make_layer("b", rng, k=4, c=2, fy=1, fx=1, ox=2, oy=2, kind="pointwise-conv"),
        ]
        layers[0].s_a = 0.5
        layers[1].acts = rng.integers(-128, 128, size=32, dtype=np.int8)
        net = Network("round", layers)
        m1 = save_network(net, tmp_path / "one")
        again = load_network(m1)
        m2 = save_network(again, tmp_path / "two")
        assert m1.read_bytes() == m2.read_bytes()
        for l1, l2 in zip(net.layers, again.layers):
            assert np.array_equal(l1.weights, l2.weights)
            assert l1.shape == l2.shape

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes(4))
        p = write_manifest(tmp_path, [
            "network=x",
            "layer=l0 kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin zap=1",
        ])
        with pytest.raises(ManifestError, match="unknown keys"):
            load_network(p)


LAYER = "kind=conv K=1 C=4 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 weights=w.bin"


class TestManifestRules:
    """Each rule rejects at load, before any subcommand does work."""

    @pytest.mark.parametrize("name", ["../x", "a/b", "a\\b", "..", "up..", "", "a b",
                                      "a\tb", "a\x00b", "a\x7fb", "a\u200bb", "\ud800",
                                      "n" * 241, "é" * 121])
    def test_unsafe_layer_name_rejected(self, rng, name):
        layer = make_layer(name, rng, k=1, c=4, fy=1, fx=1, ox=1, oy=1)
        with pytest.raises(ManifestError, match="not a file-name-safe token"):
            Network("n", [layer])

    def test_bench_and_readme_names_accepted(self, rng):
        nets = pytest.importorskip("perfbench.nets")
        names = {s.name for build in nets.NETS.values() for s in build()}
        names |= {"conv1", "dw1", "pw1", "layer3.0.conv2", "features.1.dw", "conv_last",
                  "n" * 240, "é" * 120, "层-1"}
        Network("n", [make_layer(name, rng, k=1, c=4, fy=1, fx=1, ox=1, oy=1)
                      for name in sorted(names)])

    def test_unsafe_name_in_manifest_rejected_at_load(self, tmp_path):
        (tmp_path / "w.bin").write_bytes(bytes(4))
        p = write_manifest(tmp_path, ["network=x", f"layer=../x {LAYER}"])
        with pytest.raises(ManifestError, match="'../x' is not a file-name-safe token"):
            load_network(p)

    @pytest.mark.parametrize("lines,message", [
        (["network=n layer=a " + LAYER], "line 1: the network= line takes no other keys"),
        ([f"layer=a {LAYER} network=n"], "line 1: the network= line takes no other keys"),
        (["network=n", f"layer=a {LAYER}", "network=m"], "line 3: a second network= line"),
        (["network=n"], "manifest has no layers"),
        (["# nothing", "network=n", ""], "manifest has no layers"),
        (["network=n", f"layer=a {LAYER} s_a=abc"], "line 2: s_a: could not convert"),
        (["network=n", "layer=a " + LAYER.replace("OX=1", "OX=" + "9" * 400)],
         "layer dimension ox=9+ must be in 1..2147483647"),
        (["network=n", "quant=int8-per-channel", f"layer=a {LAYER}"],
         "line 2: expected a layer record"),
        (["network=n", "layer=a " + LAYER.replace("K=1", "K=65536").replace("C=4", "C=65536")],
         "layer has 4294967296 weight values; a container layer holds at most 4294967295"),
        (["network=n", "layer=a " + LAYER.replace("K=1", "K=one")],
         "line 2: invalid literal for int"),
        *((["network=n", f"layer=a {LAYER} s_a={s_a}"],
           rf"layer 'a': s_a={s_a} outside \[0, 1\]") for s_a in ("1.5", "-0.1", "nan", "inf")),
        ([f"layer=a {LAYER}"], "manifest has no network= line"),
    ])
    def test_manifest_rule(self, tmp_path, lines, message):
        (tmp_path / "w.bin").write_bytes(bytes(4))
        with pytest.raises(ManifestError, match=message):
            load_network(write_manifest(tmp_path, lines))

    def test_layer_value_count_fits_the_container(self):
        # shapes only, no weights: 65535 * 65537 = 2**32 - 1 values is the u32 maximum
        assert LayerShape(k=65535, c=65537, fy=1, fx=1, ox=1, oy=1).n_weights == 2**32 - 1
        with pytest.raises(ManifestError, match="at most 4294967295"):
            LayerShape(k=2**16, c=2**14, fy=2, fx=2, ox=1, oy=1)

    def test_manifest_not_utf8(self, tmp_path):
        p = tmp_path / "manifest.txt"
        p.write_bytes(b"network=\xff\n")
        with pytest.raises(ManifestError, match="is not UTF-8"):
            load_network(p)


class TestContainer:
    def test_empty_layer_list_header_only(self, tmp_path):
        path = tmp_path / "c.bcsw"
        write_compressed(path, [])
        assert path.read_bytes() == b"BCSW\x02"
        assert read_compressed(path) == []

    def test_dense_layer_is_header_plus_raw(self, tmp_path, rng):
        vals = rng.integers(-128, 128, size=(1, 8, 1, 1), dtype=np.int8)
        cl = codec.compress_layer(vals, 8, mode="dense", name="d0")
        path = tmp_path / "c.bcsw"
        write_compressed(path, [cl])
        data = path.read_bytes()
        header = b"BCSW\x02" + struct.pack("<H", 2) + b"d0" + bytes([8, 0]) + struct.pack("<II", 8, 1)
        assert data == header + vals.tobytes() + struct.pack("<I", zlib.crc32(vals.tobytes()))

    def test_all_zero_group_payload_is_one_index_byte(self, tmp_path):
        cl = codec.compress_layer(np.zeros((1, 8, 1, 1), dtype=np.int8), 8, mode="bcs", name="z")
        path = tmp_path / "c.bcsw"
        write_compressed(path, [cl])
        data = path.read_bytes()
        header = b"BCSW\x02" + struct.pack("<H", 1) + b"z" + bytes([8, 1]) + struct.pack("<II", 8, 1)
        assert data == header + b"\x00" + struct.pack("<I", zlib.crc32(b"\x00"))

    def test_hand_packed_example_group(self, tmp_path):
        # {+2,+6,+4,+4,0,0,0,0} at G=8: index 0b110; bit2 set in elements
        # 1..3 -> 0x0e, bit1 set in elements 0..1 -> 0x03; bit 2 streams first
        vals = np.array([2, 6, 4, 4, 0, 0, 0, 0], dtype=np.int8).reshape(1, 8, 1, 1)
        cl = codec.compress_layer(vals, 8, mode="bcs", name="g")
        path = tmp_path / "c.bcsw"
        write_compressed(path, [cl])
        payload = path.read_bytes()[5 + 2 + 1 + 2 + 8:]
        assert payload == bytes([0x06, 0x0E, 0x03]) + struct.pack("<I", zlib.crc32(b"\x06\x0e\x03"))

    def test_index_bytes_then_column_bytes(self, tmp_path):
        # two groups at G=8: {0,0,+1,0,...} (index 0x01, bit 0 column 0x04)
        # and {-2,0,0,0,0,+2,0,0} (index 0x82: sign column 0x01, then bit 1
        # column 0x21); both indexes come first, then the three column bytes
        vals = np.array([0, 0, 1, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 2, 0, 0],
                        dtype=np.int8).reshape(1, 16, 1, 1)
        cl = codec.compress_layer(vals, 8, mode="bcs", name="g")
        path = tmp_path / "c.bcsw"
        write_compressed(path, [cl])
        payload = bytes([0x01, 0x82, 0x04, 0x01, 0x21])
        assert path.read_bytes()[5 + 2 + 1 + 2 + 8:] == payload + struct.pack("<I", zlib.crc32(payload))

    def test_roundtrip_many_layers(self, tmp_path, rng):
        layers = []
        want = []
        for i in range(8):
            k, c = int(rng.integers(1, 5)), int(rng.integers(1, 40))
            g = int(rng.choice([1, 2, 4, 8, 16, 32, 64]))
            vals = rng.integers(-127, 128, size=(k, c, 2, 1), dtype=np.int8)
            mode = "bcs" if i % 2 else "dense"
            layers.append(codec.compress_layer(vals, g, mode=mode, name=f"layer-{i}"))
            want.append(vals)
        path = tmp_path / "c.bcsw"
        write_compressed(path, layers)
        reread = read_compressed(path)
        assert [cl.name for cl in reread] == [cl.name for cl in layers]
        for cl, orig, vals in zip(reread, layers, want):
            assert (cl.group_size, cl.mode, cl.n_values, cl.n_groups) == \
                (orig.group_size, orig.mode, orig.n_values, orig.n_groups)
            assert np.array_equal(codec.decompress_layer(cl, vals.shape), vals)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.bcsw"
        path.write_bytes(b"NOPE\x01")
        with pytest.raises(model_io.ContainerError, match="magic"):
            read_compressed(path)

    def test_truncated_payload(self, tmp_path, rng):
        vals = rng.integers(-127, 128, size=(2, 16, 1, 1), dtype=np.int8)
        path = tmp_path / "c.bcsw"
        write_compressed(path, [codec.compress_layer(vals, 8, mode="bcs", name="t")])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(model_io.ContainerError, match="truncated"):
            read_compressed(path)

    def test_name_not_utf8_names_path_and_offset(self, tmp_path):
        path = tmp_path / "c.bcsw"
        write_compressed(path, [codec.compress_layer(np.ones((1, 8, 1, 1), np.int8), 8,
                                                     mode="dense", name="ab")])
        data = bytearray(path.read_bytes())
        data[8] = 0xFF  # second name byte; the name starts at offset 7
        path.write_bytes(bytes(data))
        with pytest.raises(model_io.ContainerError, match=r"c\.bcsw: layer name at offset 7"):
            read_compressed(path)

    @pytest.mark.parametrize("mode", [0, 1])
    def test_header_count_past_file_end_allocates_nothing(self, tmp_path, mode):
        # a million elements (dense) or groups (bcs) claimed over a 4-byte payload
        header = b"BCSW\x02" + struct.pack("<H", 1) + b"h" + bytes([8, mode])
        path = tmp_path / "c.bcsw"
        path.write_bytes(header + struct.pack("<II", 10**6, 10**6) + bytes(4))
        tracemalloc.start()
        try:
            with pytest.raises(model_io.ContainerError, match="payload truncated"):
                read_compressed(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_dense_group_count_checked(self, tmp_path):
        path = tmp_path / "c.bcsw"
        path.write_bytes(b"BCSW\x02" + struct.pack("<H", 1) + b"d" + bytes([8, 0])
                         + struct.pack("<II", 8, 2**32 - 1) + bytes(8)
                         + struct.pack("<I", zlib.crc32(bytes(8))))
        with pytest.raises(model_io.ContainerError, match="groups cannot hold"):
            read_compressed(path)


class TestCsvWriter:
    def test_zero_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([], path, fieldnames=["a", "b"])
        assert path.read_bytes() == b"a,b\r\n"

    def test_two_rows_three_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([{"a": 1, "b": 2}, {"a": 3, "b": 4}], path)
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,4"]

    def test_float_six_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([{"x": 0.12345678, "y": 1234567.0, "z": float("inf")}], path)
        assert path.read_text().splitlines()[1] == "0.123457,1.23457e+06,inf"

    def test_quoting(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([{"name": '有"quote', "v": "a,b"}], path)
        assert path.read_text().splitlines()[1] == '"有""quote","a,b"'

    def test_zero_rows_without_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report_csv([], tmp_path / "r.csv")


class TestNetworkGuards:
    @pytest.mark.parametrize("call,error,message", [
        pytest.param(lambda net: Layer("w", net.layers[0].shape, np.zeros((1, 4, 1, 2))),
                     ManifestError, r"weight array shape \(1, 4, 1, 2\) does not match declared "
                     r"dims \(1, 4, 1, 1\)", id="layer-weight-shape"),
        pytest.param(lambda net: net.layer("b"), KeyError, "b", id="unknown-layer"),
        pytest.param(lambda net: net.with_weights({}), KeyError, "a", id="with-weights-missing"),
    ])
    def test_guard_rejects(self, rng, call, error, message):
        net = Network("n", [make_layer("a", rng, k=1, c=4, fy=1, fx=1, ox=1, oy=1)])
        with pytest.raises(error, match=message):
            call(net)
