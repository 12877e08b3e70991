"""Spec INI parse-or-reject properties, and the perf model's lockstep
reductions against their slice-and-pad references.

A spec config is external input: whatever sections, keys and values it
holds, `load_spec_configs` returns specs or raises a BitcolError, and
`perf --spec-config` exits 0 or 1 with an `error:` line, never a
traceback. A file that loads runs on a network unless the network itself
rules the spec out (a fixed SU that cannot map a layer's kind, or an auto
group size that is not a multiple of the SU's C_u).
"""

import configparser
import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bitcol import perf
from bitcol.cli import main
from bitcol.codec import GROUP_SIZES
from bitcol.mapper import CATALOG
from bitcol.model_io import save_network
from bitcol.perf import ACT_CODECS, PRESET_NAMES, SPARSITY_MODES, WEIGHT_CODECS
from bitcol.workload import BitcolError

from conftest import make_layer, make_network

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

# errors a loaded spec may still meet on a network it does not fit
NETWORK_ERRORS = ("cannot map a", "is not a multiple of the unrolled channels")

_junk = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
                max_size=12)


def _keys(keys, good, bad):
    return {k: (good, bad) for k in keys}


_bools = [*configparser.ConfigParser.BOOLEAN_STATES, "TRUE", "Off"]
_custom = "custom:{},{},{}".format
# key -> (valid values, invalid values)
VALUES = {
    "base": (st.sampled_from(PRESET_NAMES), st.sampled_from(["tpu", "", "bitcol%"])),
    **_keys(["e_mac", "e_dram_bit", "e_sram_bit", "e_reg_bit"],
            st.one_of(st.floats(0, 1e300).map(repr), st.just("-0")),
            st.sampled_from(["-1e-9", "nan", "inf", "1e400", "1.5.2"])),
    "dram_bytes_per_cycle": (st.floats(5e-324, 1e300).map(repr),
                             st.sampled_from(["0", "-2", "nan", "inf", "1e400"])),
    **_keys(["weight_sram_bytes", "act_sram_bytes", "sync_lanes"],
            st.one_of(st.integers(1, 2**64).map(str), st.sampled_from(["9" * 400, "1_024"])),
            st.sampled_from(["0", "-1", "1.5", "0x10", ""])),
    "peak_macs": (st.integers(1, 2**63 - 1).map(str),
                  st.sampled_from(["0", "-1", "1.5", "9" * 400, str(2**63)])),
    **_keys(["bit_serial", "sign_cycle"], st.sampled_from(_bools),
            st.sampled_from(["ture", "2", "", "y"])),
    "sparsity_mode": (st.sampled_from(SPARSITY_MODES), st.just("skip")),
    "weight_codec": (st.sampled_from(WEIGHT_CODECS), st.just("rle")),
    "act_codec": (st.sampled_from(ACT_CODECS), st.just("bcs")),
    "su": (st.one_of(st.sampled_from(["auto", *(su.id for su in CATALOG)]),
                     st.builds(_custom, *[st.integers(1, 1024)] * 3)),
           st.one_of(st.sampled_from(["SU9", "su1", "custom:8,8", "custom:a,b,c"]),
                     st.builds(_custom, *[st.integers(-1, 1100)] * 3))),
    "group_size": (st.sampled_from(["auto", *map(str, GROUP_SIZES)]),
                   st.sampled_from(["12", "0", "-8", "eight"])),
    **_keys(["warp_factor", "name", "costs"], _junk, _junk),
}
_odd_lines = st.sampled_from(["junk line", "= 3", "[unclosed", "  continued", "; note", "# note",
                              "%(base)s = 1", ""])


@st.composite
def key_line(draw, key=None, bad=False):
    key = key or draw(st.sampled_from(sorted(VALUES)))
    good, wrong = VALUES[key]
    return f"{key} = {draw(st.one_of(wrong, _junk) if bad else good)}"


@st.composite
def spec_configs(draw):
    """INI text: sections of known keys with valid values, and now and then
    an unknown key, an invalid or junk value, a line that is not a key, a
    key before the first header, or a repeated section or key."""
    rare = st.sampled_from([False] * 9 + [True])
    lines = [draw(key_line())] if draw(rare) else []
    names = draw(st.lists(st.sampled_from(["a", "b-1", "%x", "DEFAULT"]), max_size=3,
                          unique=not draw(rare)))
    known = sorted(k for k in VALUES if k not in ("warp_factor", "name", "costs"))
    for name in names or ["a"]:
        lines.append(f"[{name}]")
        keys = draw(st.lists(st.sampled_from(known), max_size=6, unique=not draw(rare)))
        lines.extend(draw(key_line(k, bad=draw(rare))) for k in keys)
        if draw(rare):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.one_of(_odd_lines, key_line(bad=True))))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    """Two layers that auto SU selection maps with C_u=8 (SU1, SU4), so the
    auto group sizes fit and the bitcol preset runs."""
    d = tmp_path_factory.mktemp("specnet")
    rng = np.random.default_rng(3)
    net = make_network("plain", [
        make_layer("conv1", rng, k=32, c=8, fy=3, fx=3, ox=16, oy=4),
        make_layer("fc", rng, k=32, c=8, fy=1, fx=1, ox=1, oy=1, kind="fully-connected"),
    ])
    save_network(net, d)
    return d


@PROPERTY
@given(text=spec_configs())
def test_load_returns_specs_or_raises_bitcol_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ini") / "specs.ini"
    path.write_text(text, encoding="utf-8")
    try:
        specs = perf.load_spec_configs(path)
    except BitcolError:
        return
    assert specs and all(isinstance(s, perf.AcceleratorSpec) for s in specs.values())
    assert all(s.name == name for name, s in specs.items())


@PROPERTY
@given(text=spec_configs())
def test_perf_spec_config_exits_0_or_1_without_traceback(tmp_path_factory, net_dir, text):
    path = tmp_path_factory.mktemp("ini") / "specs.ini"
    path.write_text(text, encoding="utf-8")
    try:
        loads = bool(perf.load_spec_configs(path))
    except BitcolError:
        loads = False
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["perf", "--manifest", str(net_dir / "manifest.txt"),
                   "--spec-config", str(path)])
    assert rc in (0, 1)
    if rc == 1:
        assert err.getvalue().startswith("error: ")
        if loads:
            assert any(m in err.getvalue() for m in NETWORK_ERRORS), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(fracs=st.lists(st.floats(0, 1), max_size=70), sync_lanes=st.integers(1, 80),
       raw=st.floats(0, 1))
def test_imbalance_adjust_matches_slice_reference(fracs, sync_lanes, raw):
    spec = replace(perf.preset("scnn"), sync_lanes=sync_lanes)
    assert perf.imbalance_adjust(raw, spec, np.array(fracs)) == \
        oracles.imbalance_adjust(raw, sync_lanes, fracs)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(-128, 127), min_size=1, max_size=300),
       sync_lanes=st.integers(1, 400))
def test_lockstep_bit_fraction_matches_padded_reference(values, sync_lanes):
    w = np.array(values, dtype=np.int8)
    assert perf._lockstep_bit_fraction(w, sync_lanes) == \
        oracles.lockstep_bit_fraction(w, sync_lanes)
