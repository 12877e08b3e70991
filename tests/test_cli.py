import contextlib
import csv
import io
from pathlib import Path

import numpy as np
import pytest

from bitcol import bitflip, codec, engine, mapper, model_io, perf
from bitcol.cli import main
from bitcol.workload import Layer, LayerShape, Network

from conftest import make_layer, make_network


@pytest.fixture
def net_dir(tmp_path, rng):
    net = make_network("clinet", [
        make_layer("conv1", rng, k=4, c=8, fy=3, fx=3, ox=8, oy=8),
        make_layer("dw1", rng, k=8, c=1, fy=3, fx=3, ox=8, oy=8, kind="depthwise-conv"),
        make_layer("pw1", rng, k=8, c=8, fy=1, fx=1, ox=8, oy=8, kind="pointwise-conv"),
    ])
    net.layers[0].s_a = 0.25
    model_io.save_network(net, tmp_path / "model")
    return tmp_path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_analyze(net_dir, capsys):
    out = net_dir / "stats.csv"
    rc = main(["analyze", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(out), "--group-size", "8,16"])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 3 * 2
    assert {r["group_size"] for r in rows} == {"8", "16"}
    assert rows[0]["s_a"] == "0.25"


def test_analyze_all_zero_net(tmp_path, capsys):
    net = Network("z", [Layer("l", LayerShape(k=1, c=8, fy=1, fx=1, ox=1, oy=1),
                              np.zeros((1, 8, 1, 1), dtype=np.int8))])
    model_io.save_network(net, tmp_path / "m")
    out = tmp_path / "s.csv"
    assert main(["analyze", "--manifest", str(tmp_path / "m/manifest.txt"),
                 "--out", str(out), "--group-size", "8"]) == 0
    row = read_csv(out)[0]
    for col in ("value_sparsity", "bit_sparsity_tc", "bit_sparsity_sm",
                "column_sparsity_tc", "column_sparsity_sm"):
        assert row[col] == "1"


def test_analyze_all_ones_sm_seven_eighths(tmp_path):
    net = Network("o", [Layer("l", LayerShape(k=1, c=8, fy=1, fx=1, ox=1, oy=1),
                              np.ones((1, 8, 1, 1), dtype=np.int8))])
    model_io.save_network(net, tmp_path / "m")
    out = tmp_path / "s.csv"
    main(["analyze", "--manifest", str(tmp_path / "m/manifest.txt"),
          "--out", str(out), "--group-size", "8"])
    row = read_csv(out)[0]
    assert float(row["bit_sparsity_sm"]) == 7 / 8
    assert row["sr_sm"] == "inf"  # no zero values


def test_compress_auto_and_verify(net_dir):
    cont = net_dir / "model.bcsw"
    csv_path = net_dir / "cr.csv"
    rc = main(["compress", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(cont), "--csv", str(csv_path), "--verify"])
    assert rc == 0
    rows = read_csv(csv_path)
    assert {r["layer"] for r in rows} == {"conv1", "dw1", "pw1"}
    for r in rows:
        assert r["group_size"] in ("8", "16", "32")
        assert float(r["cr_ideal"]) >= float(r["cr_real"])
        # random weights barely compress; dense fallback must kick in then
        if float(r["cr_real"]) < 1.0:
            assert r["mode"] == "dense"
    assert cont.exists()


def test_report_reads_container(net_dir):
    cont = net_dir / "model.bcsw"
    main(["compress", "--manifest", str(net_dir / "model/manifest.txt"), "--out", str(cont)])
    out = net_dir / "report.csv"
    assert main(["report", "--container", str(cont), "--out", str(out)]) == 0
    assert len(read_csv(out)) == 3


def test_tables_follow_stdout_redirection(net_dir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["map", "--manifest", str(net_dir / "model/manifest.txt")])
    assert rc == 0
    lines = buf.getvalue().splitlines()
    assert lines[0].split()[:2] == ["layer", "kind"]
    assert len(lines) == 1 + 3


def test_simulate_verify_clean(net_dir):
    out = net_dir / "cycles.csv"
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--verify", "--seed", "7", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert {r["su"] for r in rows} >= {"SU7"}  # depthwise layer mapped to SU7


def test_simulate_verify_catches_corruption(net_dir):
    cont = net_dir / "model.bcsw"
    main(["compress", "--manifest", str(net_dir / "model/manifest.txt"),
          "--out", str(cont), "--group-size", "8"])
    data = bytearray(cont.read_bytes())
    data[-1] ^= 0x55  # flip bits in the last payload byte
    cont.write_bytes(bytes(data))
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--container", str(cont), "--verify"])
    assert rc == 2


def test_simulate_missing_layer_in_container(net_dir, tmp_path):
    cont = tmp_path / "empty.bcsw"
    model_io.write_compressed(cont, [])
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--container", str(cont)])
    assert rc == 1


def test_bitflip_fixed_target(net_dir):
    out_dir = net_dir / "flipped"
    csv_path = net_dir / "flip.csv"
    rc = main(["bitflip", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(out_dir), "--group-size", "8", "--zero-cols", "4",
               "--csv", str(csv_path)])
    assert rc == 0
    flipped = model_io.load_network(out_dir / "manifest.txt")
    assert [l.name for l in flipped.layers] == ["conv1", "dw1", "pw1"]
    strategy = (out_dir / "strategy.txt").read_text()
    assert "G=8 z=4" in strategy
    rows = read_csv(csv_path)
    assert all(r["zero_cols"] == "4" for r in rows)


def test_bitflip_greedy_proxy(net_dir):
    out_dir = net_dir / "searched"
    rc = main(["bitflip", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(out_dir), "--group-size", "8", "--zero-cols", "0",
               "--proxy-oracle", "--macc", "-0.1"])
    assert rc == 0
    assert (out_dir / "strategy.txt").exists()


@pytest.mark.parametrize("flag,value", [("--zero-cols", "9"), ("--zero-cols", "-1"),
                                        ("--group-size", "3"), ("--group-size", "128"),
                                        ("--group-size", "auto")])
def test_bitflip_bad_target_rejected_by_parser(tmp_path, capsys, flag, value):
    # the manifest does not exist: the flag is rejected before it is read
    rc = main(["bitflip", "--manifest", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "out"), flag, value])
    assert rc == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bitflip_bad_strategy_line_rejected_before_flipping(net_dir, capsys, monkeypatch):
    flips = []
    real_flip = bitflip.flip_layer
    monkeypatch.setattr(bitflip, "flip_layer", lambda *a: flips.append(a) or real_flip(*a))
    strategy = net_dir / "strategy.txt"
    strategy.write_text("layer=conv1 G=8 z=2\nlayer=dw1 G=8 z=2\nlayer=pw1 G=8 z=12\n")
    out_dir = net_dir / "flipped"
    rc = main(["bitflip", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(out_dir), "--strategy", str(strategy)])
    assert rc == 1
    assert "strategy line 3: G=8 z=12" in capsys.readouterr().err
    assert not flips and not out_dir.exists()


@pytest.mark.parametrize("flag,value", [("--group-size", "16"), ("--zero-cols", "2")])
def test_bitflip_strategy_with_fixed_target_rejected(tmp_path, capsys, flag, value):
    # the manifest does not exist: the combination is rejected before it is read
    rc = main(["bitflip", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out"),
               "--strategy", str(tmp_path / "strategy.txt"), flag, value])
    assert rc == 1
    assert "--strategy sets G and z per layer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compress", "simulate"])
@pytest.mark.parametrize("value", ["3", "128", "eight"])
def test_group_size_checked_by_parser(tmp_path, capsys, command, value):
    rc = main([command, "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "c"),
               "--group-size", value])
    assert rc == 1
    assert "argument --group-size" in capsys.readouterr().err


def test_auto_group_size_is_best_cr_smaller_on_ties(tmp_path):
    # "tie": channels 0..7 zero, 8..15 all 1: G=8 costs 2*8 + 8 bits, G=16
    # costs 8 + 16, G=32 costs 8 + 32; "zero": all-zero, so G=32 costs least
    tie = np.repeat([0, 1], 8).astype(np.int8)
    net = make_network("ties", [make_layer("tie", values=tie, k=1, c=16, fy=1, fx=1, ox=1, oy=1),
                                make_layer("zero", values=np.zeros(32), k=1, c=32, fy=1, fx=1,
                                           ox=1, oy=1)])
    manifest = model_io.save_network(net, tmp_path / "model")
    csv_path = tmp_path / "cr.csv"
    assert main(["compress", "--manifest", str(manifest), "--out", str(tmp_path / "c.bcsw"),
                 "--csv", str(csv_path)]) == 0
    assert [r["group_size"] for r in read_csv(csv_path)] == ["8", "32"]


def test_auto_group_sizes_drive_compress(net_dir, monkeypatch):
    monkeypatch.setattr(codec, "AUTO_GROUP_SIZES", (16,))
    csv_path = net_dir / "cr.csv"
    rc = main(["compress", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(net_dir / "c.bcsw"), "--csv", str(csv_path)])
    assert rc == 0
    assert {r["group_size"] for r in read_csv(csv_path)} == {"16"}


def test_simulate_rejects_unchecked_dense_group_count(net_dir, capsys, monkeypatch):
    net = model_io.load_network(net_dir / "model/manifest.txt")
    cont = net_dir / "model.bcsw"
    model_io.write_compressed(cont, [codec.compress_layer(l.weights, 8, "dense", l.name)
                                     for l in net.layers])
    data = bytearray(cont.read_bytes())
    assert data[7:12] == b"conv1" and data[14:18] == (288).to_bytes(4, "little")
    data[18:22] = (2**32 - 1).to_bytes(4, "little")  # conv1's group count
    cont.write_bytes(bytes(data))
    # guard: the group count must never size an allocation
    monkeypatch.setattr(codec, "nz_columns", lambda *_: pytest.fail("unchecked group count"))
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--container", str(cont)])
    assert rc == 1
    assert "4294967295 groups cannot hold 288 values" in capsys.readouterr().err


def test_map(net_dir):
    out = net_dir / "util.csv"
    rc = main(["map", "--manifest", str(net_dir / "model/manifest.txt"), "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    dw = next(r for r in rows if r["layer"] == "dw1")
    assert dw["chosen"] == "SU7"
    assert dw["su1"] == ""


def test_perf(net_dir):
    out = net_dir / "perf.csv"
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--preset", "scnn", "--preset", "bitcol", "--baseline", "scnn",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    scnn = next(r for r in rows if r["spec"] == "scnn")
    assert float(scnn["speedup"]) == 1.0
    for r in rows:
        total = float(r["energy"])
        parts = sum(float(r[k]) for k in ("e_mac", "e_dram", "e_sram", "e_reg"))
        assert total == pytest.approx(parts, rel=1e-4)


def test_perf_spec_config(net_dir):
    cfg = net_dir / "specs.ini"
    cfg.write_text("[tuned]\nbase = bitcol\ndram_bytes_per_cycle = 64\n")
    out = net_dir / "perf.csv"
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--spec-config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert read_csv(out)[0]["spec"] == "tuned"


def test_missing_manifest_is_input_error(tmp_path):
    assert main(["analyze", "--manifest", str(tmp_path / "nope.txt")]) == 1


def test_bad_group_size_rejected(net_dir, capsys):
    rc = main(["analyze", "--manifest", str(net_dir / "model/manifest.txt"),
               "--group-size", "3"])
    assert rc == 1


def test_macc_without_oracle_is_input_error(net_dir):
    rc = main(["bitflip", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(net_dir / "x"), "--macc", "0.5"])
    assert rc == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_unsupported_compress_group_size(net_dir, capsys):
    rc = main(["compress", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(net_dir / "c.bcsw"), "--group-size", "7"])
    assert rc == 1


def test_deterministic_outputs(net_dir):
    a, b = net_dir / "a.csv", net_dir / "b.csv"
    for path in (a, b):
        main(["analyze", "--manifest", str(net_dir / "model/manifest.txt"),
              "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("search", [[], ["--proxy-oracle", "--macc", "-1.0"]])
@pytest.mark.parametrize("lines,message", [
    (["layer=conv1 G=8 z=2"], "strategy is missing layers: ['dw1', 'pw1']"),
    (["layer=conv1 G=8 z=2", "layer=dw1 G=8 z=2", "layer=pw1 G=8 z=2", "layer=fc G=8 z=2"],
     "strategy names layers the network does not have: ['fc']"),
])
def test_bitflip_strategy_must_name_exactly_the_layers(net_dir, capsys, search, lines, message):
    strategy = net_dir / "strategy.txt"
    strategy.write_text("\n".join(lines) + "\n")
    out_dir = net_dir / "flipped"
    rc = main(["bitflip", "--manifest", str(net_dir / "model/manifest.txt"),
               "--out", str(out_dir), "--strategy", str(strategy), *search])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_container_with_group_size_rejected(tmp_path, capsys):
    # the manifest does not exist: the combination is rejected before it is read
    rc = main(["simulate", "--manifest", str(tmp_path / "nope.txt"),
               "--container", str(tmp_path / "c.bcsw"), "--group-size", "32"])
    assert rc == 1
    assert "--container fixes G per layer" in capsys.readouterr().err


@pytest.mark.parametrize("su", ["SU9", "su1", "custom"])
def test_simulate_su_checked_by_parser(tmp_path, capsys, su):
    rc = main(["simulate", "--manifest", str(tmp_path / "nope.txt"), "--su", su])
    assert rc == 1
    assert "argument --su" in capsys.readouterr().err


def test_simulate_group_size_without_container(net_dir):
    out = net_dir / "sim.csv"
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--group-size", "16", "--out", str(out)])
    assert rc == 0
    assert {r["group_size"] for r in read_csv(out)} == {"16"}


def _readme_ini() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_spec_config_example_runs(tmp_path):
    net = make_network("plain", [
        make_layer("conv1", np.random.default_rng(5), k=16, c=32, fy=3, fx=3, ox=8, oy=8),
        make_layer("fc", np.random.default_rng(6), k=10, c=64, fy=1, fx=1, ox=1, oy=1,
                   kind="fully-connected"),
    ])
    model_io.save_network(net, tmp_path / "m")
    cfg = tmp_path / "readme.ini"
    cfg.write_text(_readme_ini())
    out = tmp_path / "perf.csv"
    rc = main(["perf", "--manifest", str(tmp_path / "m/manifest.txt"),
               "--spec-config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert [r["spec"] for r in read_csv(out)] == ["tuned"]


# each malformed spec INI exits 1 with an `error:` line, never a traceback
@pytest.mark.parametrize("text,message", [
    ("[a]\nweight_sram_bytes = 0\n", "[a] SRAM capacities must be > 0"),
    ("[a]\ne_mac = -5\n", "[a] unit cost e_mac must be finite and >= 0"),
    ("[a]\nbase = stripes\nbit_serial = ture\n", "[a] bad value for 'bit_serial': 'ture'"),
    ("[a]\nbase = scnn\n\n[b]\nsu = SU9\n", "[b] unknown spatial unrolling 'SU9'"),
    ("[a]\nbase = bitcol\n\n[a]\nbase = scnn\n", "section 'a' already exists"),
    ("base = bitcol\n[a]\nbase = scnn\n", "File contains no section headers"),
    ("[a]\nbase = bitcol\njunk line\n", "Source contains parsing errors"),
    ("[a]\nbase = bitcol\nsu = %(x)s\n", "[a] unknown spatial unrolling '%(x)s'"),
    ("[a]\nbase = bitcol\nsu = SU3\ngroup_size = 16\n",
     "[a] group_size 16 is not a multiple of the unrolled channels C_u=32 of SU3"),
])
def test_perf_bad_spec_config_is_input_error(net_dir, capsys, monkeypatch, text, message):
    evaluated = []
    monkeypatch.setattr(perf, "evaluate_network", lambda *a: evaluated.append(a))
    cfg = net_dir / "bad.ini"
    cfg.write_text(text)
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--spec-config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert not evaluated  # rejected at load, before any spec runs


@pytest.mark.parametrize("weight_codec", ["none", "zre", "csr"])
def test_perf_column_skip_without_bcs_rejected_at_load(net_dir, capsys, monkeypatch,
                                                      weight_codec):
    monkeypatch.setattr(perf, "evaluate_network", lambda *a: pytest.fail("a spec ran"))
    cfg = net_dir / "nobcs.ini"
    cfg.write_text(f"[plain]\nbase = scnn\n\n[cols]\nbase = bitcol\n"
                   f"weight_codec = {weight_codec}\n")
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--spec-config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: [cols] sparsity_mode bit-column-skip reads the "
                                       "bcs zero-column index; it needs weight_codec bcs\n")


def _fail(what):
    def fail(*a, **k):
        pytest.fail(f"{what} ran before the input was rejected")
    return fail


def test_bitflip_unsafe_layer_name_rejected_before_writing(tmp_path, capsys, monkeypatch):
    # a layer named ../x would be written to out/x.w.bin, outside --out out/deep
    (tmp_path / "w.bin").write_bytes(bytes(8))
    (tmp_path / "manifest.txt").write_text(
        "network=n\nlayer=../x kind=conv K=1 C=8 FX=1 FY=1 OX=1 OY=1 B=1 stride=1 "
        "weights=w.bin\n")
    monkeypatch.setattr(bitflip, "flip_layer", _fail("flip_layer"))
    rc = main(["bitflip", "--manifest", str(tmp_path / "manifest.txt"),
               "--out", str(tmp_path / "out" / "deep")])
    assert rc == 1
    assert "error: layer name '../x' is not a file-name-safe token" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--out", "o.csv"], ["compress", "--out", "c.bcsw", "--csv", "o.csv"],
    ["map", "--out", "o.csv"], ["simulate", "--out", "o.csv"], ["perf", "--out", "o.csv"],
    ["bitflip", "--out", "flipped", "--csv", "o.csv"],
])
def test_manifest_without_layers_rejected_at_load(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "manifest.txt").write_text("network=empty\n")
    monkeypatch.chdir(tmp_path)
    rc = main([argv[0], "--manifest", "manifest.txt", *argv[1:]])
    assert rc == 1
    assert capsys.readouterr().err == "error: manifest has no layers\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "manifest.txt"]  # nothing written


def test_layer_too_large_for_the_container_rejected_at_load(tmp_path, capsys):
    # no weight file: the value count is checked before any tensor is read
    (tmp_path / "manifest.txt").write_text(
        "network=n\nlayer=big kind=fully-connected K=65536 C=65536 FX=1 FY=1 OX=1 OY=1 B=1 "
        "stride=1 weights=big.w.bin\n")
    rc = main(["compress", "--manifest", str(tmp_path / "manifest.txt"),
               "--out", str(tmp_path / "c.bcsw")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: layer has 4294967296 weight values; "
                                       "a container layer holds at most 4294967295\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "manifest.txt"]


def test_simulate_fixed_su_checked_against_every_layer_first(net_dir, capsys, monkeypatch):
    # conv1 maps onto SU1 and dw1 does not: nothing may run for conv1 first
    for mod, name in ((codec, "compress_layer"), (engine, "verify_layer"),
                      (engine, "simulate_layer")):
        monkeypatch.setattr(mod, name, _fail(name))
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--su", "SU1", "--verify"])
    assert rc == 1
    assert capsys.readouterr().err == "error: SU1 cannot map a depthwise-conv layer\n"


def test_simulate_fixed_su_checked_before_reading_the_container(net_dir, capsys, monkeypatch):
    monkeypatch.setattr(model_io, "read_compressed", _fail("read_compressed"))
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--container", str(net_dir / "none.bcsw"), "--su", "SU2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: SU2 cannot map a depthwise-conv layer\n"


@pytest.mark.parametrize("su,group_size,ok", [("SU2", "8", False), ("SU3", "16", False),
                                               ("SU2", "16", True), ("SU7", "8", True),
                                               ("SU1", "auto", True)])
def test_simulate_fixed_su_and_group_size_checked_before_load(tmp_path, capsys, su,
                                                              group_size, ok):
    # the manifest does not exist: a bad pair is rejected before it is read
    rc = main(["simulate", "--manifest", str(tmp_path / "nope.txt"), "--su", su,
               "--group-size", group_size])
    assert rc == 1
    err = capsys.readouterr().err
    assert ("manifest not found" in err) == ok
    if not ok:
        c_u = mapper.catalog_su(su).c_u
        assert err == (f"error: group_size {group_size} is not a multiple of the unrolled "
                       f"channels C_u={c_u} of {su}\n")


def test_perf_fixed_su_checked_against_every_layer_first(net_dir, capsys, monkeypatch):
    monkeypatch.setattr(perf, "evaluate_network", _fail("evaluate_network"))
    cfg = net_dir / "su1.ini"
    cfg.write_text("[fixed]\nbase = bitcol\nsu = SU1\n")
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--preset", "scnn", "--spec-config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == "error: SU1 cannot map a depthwise-conv layer\n"


def test_perf_baseline_checked_before_any_spec_runs(net_dir, capsys, monkeypatch):
    monkeypatch.setattr(perf, "evaluate_network", _fail("evaluate_network"))
    rc = main(["perf", "--manifest", str(net_dir / "model/manifest.txt"),
               "--preset", "bitcol", "--baseline", "scnn"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: baseline 'scnn' is not among the evaluated specs\n"


def test_simulate_container_missing_layers_is_an_error_line(net_dir, capsys, monkeypatch):
    net = model_io.load_network(net_dir / "model/manifest.txt")
    cont = net_dir / "part.bcsw"
    model_io.write_compressed(cont, [codec.compress_layer(net.layers[0].weights, 8,
                                                          name="conv1")])
    monkeypatch.setattr(engine, "simulate_layer", _fail("simulate_layer"))
    rc = main(["simulate", "--manifest", str(net_dir / "model/manifest.txt"),
               "--container", str(cont)])
    assert rc == 1
    assert capsys.readouterr().err == "error: container is missing layers: ['dw1', 'pw1']\n"
