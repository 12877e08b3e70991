"""Manifest parse-or-reject properties.

A manifest and the tensor files it names are external input. Whatever
lines and files of whatever size they hold, `load_network` returns a
network or raises ManifestError, and every subcommand that reads a
manifest exits 0 or 1 with an `error:` line, never a traceback.
"""

import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitcol.cli import main
from bitcol.model_io import load_network
from bitcol.workload import ManifestError, Network

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

_junk = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
                max_size=8)
_small = st.integers(1, 4).map(str)
_shape_keys = ("K", "C", "FX", "FY", "OX", "OY", "B", "stride")
# key -> (valid values, invalid values)
VALUES = {
    "layer": (st.sampled_from(["conv1", "layer3.0.conv2", "features.1.dw", "fc", "é"]),
              st.one_of(st.sampled_from(["../x", "a/b", "a\\b", "..", "a\x01", "a\x7f",
                                         "n" * 241]), _junk)),
    "kind": (st.sampled_from(["conv", "pointwise-conv", "fully-connected", "matmul"]),
             st.one_of(st.just("dense"), _junk)),
    **{k: (_small, st.one_of(st.sampled_from(["0", "-1", "1.5", "", "9" * 400, str(2**40)]),
                             _junk)) for k in _shape_keys},
    "s_a": (st.floats(0, 1).map(repr), st.sampled_from(["nan", "-0.5", "2", "abc", ""])),
}
_odd_lines = st.sampled_from(["# comment", "", "junk line", "=3", "network", "quant=int8",
                              "layer=", "weights=w.bin"])


@st.composite
def manifests(draw):
    """(manifest bytes, {file name: bytes}): a network= line, 1-3 layer
    records with tensor files of the declared size, and now and then a
    corruption: no, two or a keyed network= line, no layers, an invalid or
    junk value, a dropped, repeated or unknown key, a tensor file of another
    size, an odd line, or bytes that are not UTF-8."""
    rare = st.sampled_from([False] * 6 + [True])
    lines, files = [], {}
    if not draw(rare):
        lines.append("network=" + draw(st.one_of(st.just("net"), _junk)))
    if draw(rare):
        lines.append("network=m" + draw(st.sampled_from(["", " layer=a", " K=1"])))
    names = draw(st.lists(VALUES["layer"][0], min_size=0 if draw(rare) else 1, max_size=3,
                          unique=not draw(rare)))
    for i, name in enumerate(names):
        fields = {"layer": name, **{k: draw(VALUES[k][0]) for k in ("kind", *_shape_keys)}}
        if draw(st.booleans()):  # a depthwise layer carries one input channel per filter
            fields.update(kind="depthwise-conv", C="1")
        if fields["kind"] in ("pointwise-conv", "fully-connected", "matmul"):
            fields["FX"] = fields["FY"] = "1"
        if draw(st.booleans()):
            fields["s_a"] = draw(VALUES["s_a"][0])
        if draw(rare):
            key = draw(st.sampled_from(sorted(VALUES)))
            fields[key] = draw(VALUES[key][1])
        dims = [fields[k] for k in ("K", "C", "FX", "FY")]
        size = math.prod(map(int, dims)) if all(d.isdecimal() for d in dims) else 0
        if draw(rare) or not 0 < size <= 256:
            size = draw(st.integers(0, 300))
        fields["weights"] = f"w{i}.bin"
        files[f"w{i}.bin"] = draw(st.binary(min_size=size, max_size=size))
        if draw(st.booleans()):
            fields["acts"] = f"a{i}.bin"
            files[f"a{i}.bin"] = draw(st.binary(max_size=64))
        if draw(rare):
            del fields[draw(st.sampled_from(sorted(fields)))]
        tokens = [f"{k}={v}" for k, v in fields.items()]
        if draw(rare):
            tokens.append(draw(st.sampled_from(["K=2", "zap=1", "network=n", "loose"])))
        lines.append(" ".join(tokens))
    if draw(rare):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(_odd_lines, _junk)))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(rare):
        text += b"\xff\xfe"
    return text, files


def _write(tmp, case) -> str:
    text, files = case
    for name, data in files.items():
        (tmp / name).write_bytes(data)
    (tmp / "manifest.txt").write_bytes(text)
    return str(tmp / "manifest.txt")


@PROPERTY
@given(case=manifests())
def test_load_returns_a_network_or_raises_manifest_error(tmp_path_factory, case):
    path = _write(tmp_path_factory.mktemp("m"), case)
    try:
        net = load_network(path)
    except ManifestError:
        return
    assert isinstance(net, Network) and net.layers


@PROPERTY
@given(case=manifests())
def test_every_subcommand_exits_0_or_1_without_traceback(tmp_path_factory, case):
    tmp = tmp_path_factory.mktemp("m")
    m = _write(tmp, case)
    box = str(tmp / "model.bcsw")
    for argv in (["analyze", "--manifest", m, "--out", str(tmp / "a.csv")],
                 ["compress", "--manifest", m, "--out", box, "--verify"],
                 ["map", "--manifest", m],
                 ["simulate", "--manifest", m, "--verify"],
                 ["perf", "--manifest", m, "--per-layer", str(tmp / "p.csv")],
                 ["bitflip", "--manifest", m, "--out", str(tmp / "flip"),
                  "--csv", str(tmp / "f.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1), (argv[0], rc, err.getvalue())
        if rc == 1:
            assert err.getvalue().startswith("error: "), (argv[0], err.getvalue())
