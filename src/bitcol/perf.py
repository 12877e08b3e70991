"""Analytical performance and energy model.

evaluate_layer models one (layer, accelerator) pair in four steps and
returns one LayerPerf record:

1. Dense counts, stated once each at the top of evaluate_layer. Steps and
   utilization are the layer's mapper.Mapping (AcceleratorSpec.map_layers);
   the rest is a deliberately simple streaming/tiling model: every streamed
   tensor moves DRAM->SRAM once per layer pass, where the pass count is max
   over tensors of ceil(tensor bytes / its SRAM capacity); outputs are
   written back once. SRAM operand reads follow the spatial unrolling (per
   temporal step, C_u*OX_u activation and C_u*K_u weight elements); each
   MAC makes two register reads and one write.
2. Sparsity, in one dispatch on the spec's sparsity mode. Value skipping
   shrinks the MAC count, N_e = N(1-S_a)(1-S_w), where S_w is adjusted for
   lockstep load imbalance: each set of sync_lanes kernels skips only its
   smallest zero fraction. Bit skipping scales the dense cycles by the
   lockstep bit share of the weights. Bit-column skipping takes the
   compressed layer's lockstep cycle count from engine.simulate_layer, the
   functional simulator, and its weight port reads column payload bits only.
3. Compression: each tensor's streamed bytes are divided once by its
   compression ratio (weight_compression, act_compression); register
   traffic follows the effective compute cycles.
4. An EnergyBreakdown of unit-cost-weighted effective accesses plus MAC
   energy, and LatencyTerms, each access count normalized to port-cycles
   (DRAM bytes/cycle, SRAM port widths from the SU bandwidth, register files
   parallel per MAC lane). The record's cycles is total_latency(terms) =
   DRAM + output writes + max(weight reads, input reads, register reads,
   register writes, compute): memory transfers hide under compute.

Shipped presets express the sparsity-mode / compression / dataflow
distinctions of the published baselines they are named after; their unit
costs and lane parameters are documented defaults, not reproductions of
anyone's silicon measurements.

The result records are NamedTuples, so compare returns new reports with
`_replace`; UnitCosts and AcceleratorSpec validate their fields and stay
dataclasses.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import codec, engine
from .mapper import (Mapping, SpatialUnrolling, catalog_su, check_group_size, make_custom_su,
                     map_layer, select_su)
from .workload import BitcolError, ConfigError, Layer, Network

SPARSITY_MODES = ("none", "value-skip", "bit-skip", "bit-column-skip")
WEIGHT_CODECS = ("none", "zre", "csr", "bcs")
ACT_CODECS = ("none", "zre", "csr")


@dataclass(frozen=True)
class UnitCosts:
    """Per-event energy costs (arbitrary energy unit, pJ-like defaults)
    and on-chip SRAM capacities."""

    e_mac: float = 0.6
    e_dram_bit: float = 3.7
    e_sram_bit: float = 0.06
    e_reg_bit: float = 0.003
    weight_sram_bytes: int = 256 * 1024
    act_sram_bytes: int = 256 * 1024

    def __post_init__(self):
        for name in ("e_mac", "e_dram_bit", "e_sram_bit", "e_reg_bit"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"unit cost {name} must be finite and >= 0")
        if self.weight_sram_bytes <= 0 or self.act_sram_bytes <= 0:
            raise ConfigError("SRAM capacities must be > 0")


@dataclass(frozen=True)
class AcceleratorSpec:
    name: str
    su: str | SpatialUnrolling = "auto"   # "auto" = per-layer catalog selection
    bit_serial: bool = False
    sparsity_mode: str = "none"
    weight_codec: str = "none"
    act_codec: str = "none"
    costs: UnitCosts = field(default_factory=UnitCosts)
    dram_bytes_per_cycle: float = 16.0
    sync_lanes: int = 16                   # lockstep lane-set size for runtime skipping
    group_size: int | str = "auto"        # bcs column size, or auto per layer
    sign_cycle: bool = False
    peak_macs: int | None = None           # override lane-derived peak MACs/cycle

    def __post_init__(self):
        if self.sparsity_mode not in SPARSITY_MODES:
            raise ConfigError(f"unknown sparsity mode {self.sparsity_mode!r}")
        if self.weight_codec not in WEIGHT_CODECS:
            raise ConfigError(f"unknown weight codec {self.weight_codec!r}")
        if self.act_codec not in ACT_CODECS:
            raise ConfigError(f"activation codec must be one of {ACT_CODECS}")
        if self.sync_lanes < 1:
            raise ConfigError("sync_lanes must be >= 1")
        if not 0 < self.dram_bytes_per_cycle < math.inf:
            raise ConfigError("dram_bytes_per_cycle must be finite and > 0")
        if self.peak_macs is not None and not 1 <= self.peak_macs < 2 ** 63:
            raise ConfigError("peak_macs must be in 1..2^63-1")
        if self.sparsity_mode == "bit-column-skip" and self.weight_codec != "bcs":
            raise ConfigError("sparsity_mode bit-column-skip reads the bcs zero-column "
                              "index; it needs weight_codec bcs")
        if self.group_size != "auto" and self.group_size not in codec.GROUP_SIZES:
            raise ConfigError(f"group_size must be 'auto' or one of {codec.GROUP_SIZES}")
        # a catalog id is checked here, not at the first layer it maps
        su = catalog_su(self.su) if isinstance(self.su, str) and self.su != "auto" else self.su
        if self.sparsity_mode == "bit-column-skip" and su != "auto":
            check_group_size(self.group_size, su)

    def map_layers(self, net: Network) -> list[Mapping]:
        """Each layer's Mapping, in layer order, returned only once every layer
        has passed its kind check and, for bit-column-skip, its G check."""
        mappings = []
        for layer in net.layers:
            m = (map_layer(layer.shape, self.su) if isinstance(self.su, SpatialUnrolling)
                 else select_su(layer.shape) if self.su == "auto"
                 else map_layer(layer.shape, catalog_su(self.su)))
            if self.sparsity_mode == "bit-column-skip":
                check_group_size(self.group_size, m.su)
            mappings.append(m)
        return mappings

    def peak_macs_cycle(self, su: SpatialUnrolling) -> float:
        if self.peak_macs is not None:
            return float(self.peak_macs)
        return su.lanes / (8 if self.bit_serial else 1)


class EnergyBreakdown(NamedTuple):
    mac: float
    dram: float
    sram: float
    reg: float

    @property
    def total(self) -> float:
        return self.mac + self.dram + self.sram + self.reg


class LatencyTerms(NamedTuple):
    """Eq-level latency inputs, already normalized to cycles."""

    dram: float
    sram_write_output: float
    sram_read_input: float
    sram_read_weight: float
    reg_read: float
    reg_write: float
    cc_mac: float


def total_latency(terms: LatencyTerms) -> float:
    """STEP 4: DRAM plus output writes, with the rest hidden under the max."""
    return terms.dram + terms.sram_write_output + max(
        terms.sram_read_input, terms.sram_read_weight,
        terms.reg_read, terms.reg_write, terms.cc_mac)


def _lockstep_skip_fraction(kernel_fracs: np.ndarray, sync_lanes: int) -> float:
    """Effective skip share for value skipping: co-scheduled lanes advance at
    the busiest lane, so each set of sync_lanes kernels skips only its
    smallest zero fraction; the share is the mean over sets."""
    return float(np.minimum.reduceat(kernel_fracs, range(0, kernel_fracs.size, sync_lanes)).mean())


def _lockstep_bit_fraction(weights: np.ndarray, sync_lanes: int) -> float:
    """Effective work share for unstructured bit skipping: mean over lane sets
    of the slowest lane's two's-complement bit count / 8. A set wider than the
    layer is one set, so the width is clamped to the element count.

    Each lane's bit count p is stored as the thermometer code 0xFF >> (8 - p),
    so the OR of a lane set (codec._or_index) has the set's largest p bits set.
    """
    bits = np.ascontiguousarray(weights).view(np.uint8).reshape(-1)
    lanes = min(sync_lanes, bits.size)
    codes = np.zeros(-(-bits.size // lanes) * lanes, dtype=np.uint8)  # zero-padded lanes
    pops = codes[:bits.size]
    np.bitwise_count(bits, out=pops)
    np.subtract(8, pops, out=pops)
    np.right_shift(0xFF, pops, out=pops)
    return float(np.bitwise_count(codec._or_index(codes.reshape(-1, lanes))).mean() / 8.0)


def weight_compression(layer: Layer, spec: AcceleratorSpec
                       ) -> tuple[float, codec.CompressedLayer | None]:
    """Weight-tensor compression ratio under the spec's codec.

    For bcs, codec.best_pack picks G by real auto-mode CR (among
    codec.AUTO_GROUP_SIZES for "auto"; -128 packs as -127, see codec.sm_clamp)
    and the chosen compressed layer is returned for cycle modeling.
    """
    w = layer.weights
    n_bits = 8 * w.size
    if spec.weight_codec == "none":
        return 1.0, None
    if spec.weight_codec == "zre":
        return n_bits / codec.zre_size(w), None
    if spec.weight_codec == "csr":
        row = layer.shape.c * layer.shape.fy * layer.shape.fx
        return n_bits / max(codec.csr_size(w, row), 1), None
    cl = codec.best_pack(w, spec.group_size, layer.name)
    return codec.compression_ratio(cl), cl


def act_compression(layer: Layer, spec: AcceleratorSpec, s_a: float) -> float:
    """Activation compression ratio: exact on a sample, else analytic in S_a."""
    if spec.act_codec == "none":
        return 1.0
    sample = layer.acts
    if spec.act_codec == "zre":
        if sample is not None and sample.size:
            return 8 * sample.size / max(codec.zre_size(sample), 1)
        # expected entries/element for Bernoulli zeros: hits + split long runs
        entries = (1.0 - s_a) + s_a / 16.0
        return 8.0 / (12.0 * entries)
    # csr, analytic: 8 data + 8 column-index bits per non-zero, pointers ignored
    if sample is not None and sample.size:
        return 8 * sample.size / max(codec.csr_size(sample, 256), 1)
    return min(8.0 / max((1.0 - s_a) * 16.0, 0.125), 64.0)


class LayerPerf(NamedTuple):
    """One layer on one spec: its mapping, effective MACs and cycles, CR,
    sparsity, energy, and the named latency terms that give its cycles."""

    layer: str
    mapping: Mapping
    n_mac: int
    n_mac_e: float
    cc_mac_e: float
    cr_w: float
    cr_a: float
    s_w: float
    s_a: float
    energy: EnergyBreakdown
    terms: LatencyTerms

    @property
    def cycles(self) -> float:
        return total_latency(self.terms)

    def row(self) -> dict:
        return {
            "layer": self.layer,
            "su": self.mapping.su.id,
            "utilization": self.mapping.utilization,
            "n_mac": self.n_mac,
            "n_mac_e": self.n_mac_e,
            "cc_mac_e": self.cc_mac_e,
            "cycles": self.cycles,
            "energy": self.energy.total,
            "cr_w": self.cr_w,
            "cr_a": self.cr_a,
            "s_w": self.s_w,
            "s_a": self.s_a,
        }


class PerfReport(NamedTuple):
    spec: str
    network: str
    total_cycles: float
    total_energy: float
    breakdown: EnergyBreakdown
    layers: list[LayerPerf]
    speedup: float | None = None
    energy_ratio: float | None = None
    baseline: str | None = None


def evaluate_layer(layer: Layer, spec: AcceleratorSpec, mapping: Mapping) -> LayerPerf:
    """STEPs 1-4 for one layer under its `mapping`."""
    # STEP 1: dense counts
    shape, su, steps = layer.shape, mapping.su, mapping.steps
    peak = spec.peak_macs_cycle(su)
    n_mac_cycle = peak * mapping.utilization
    ix, iy = shape.input_hw
    w_bytes = shape.n_weights
    a_bytes = shape.b * shape.in_channels * ix * iy
    o_bytes = shape.b * shape.k * shape.ox * shape.oy
    passes = max(math.ceil(w_bytes / spec.costs.weight_sram_bytes),
                 math.ceil((a_bytes + o_bytes) / spec.costs.act_sram_bytes), 1)
    c_par = su.g_u or su.c_u
    input_reads = float(steps * c_par * su.ox_u)
    weight_reads = float(steps * c_par * su.k_u)

    w = layer.weights
    s_w = float((w.size - np.count_nonzero(w)) / w.size)
    s_a = layer.act_sparsity()
    cr_w, cl = weight_compression(layer, spec)
    cr_a = act_compression(layer, spec, s_a)

    # STEP 2: the sparsity mode sets the effective MACs, the compute
    # cycles and the weight-port bits. Value skipping removes MACs,
    # N_e = N(1-S_a)(1-S_w); bit and bit-column skipping keep the MAC count
    # and scale the dense cycles by their lockstep work share.
    dense_cc = shape.macs / n_mac_cycle
    n_mac_e, cc = float(shape.macs), dense_cc
    port_bits = weight_reads / cr_w * 8.0
    if spec.sparsity_mode == "value-skip":
        kernel = shape.c * shape.fy * shape.fx
        kernel_fracs = (kernel - np.count_nonzero(w, axis=(1, 2, 3))) / kernel
        s_w_e = _lockstep_skip_fraction(kernel_fracs, spec.sync_lanes)
        n_mac_e = shape.macs * (1.0 - s_a) * (1.0 - s_w_e)
        cc = n_mac_e / n_mac_cycle
    elif spec.sparsity_mode == "bit-skip":
        cc = dense_cc * _lockstep_bit_fraction(w, spec.sync_lanes)
    elif spec.sparsity_mode == "bit-column-skip":
        share = engine.simulate_layer(cl, shape, su, spec.sign_cycle).total_cycles / dense_cc
        cc = dense_cc * share
        # the bcs weight port streams one column slice per lane per cycle;
        # index bytes ride the parser side path, so its port term counts
        # column payload bits only (energy still pays for the index via cr_w)
        port_bits = weight_reads * 8.0 * cl.payload_bits / cl.dense_bits

    # STEP 3: weight traffic shrinks by cr_w; input and output traffic by cr_a
    w_stream = w_bytes * passes / cr_w
    a_stream = a_bytes * passes / cr_a
    o_stream = o_bytes / cr_a
    dram = w_stream + a_stream + o_stream
    sram_read_input = input_reads / cr_a
    sram_read_weight = weight_reads / cr_w
    # operand reads, output read, input and weight writes, output write
    sram = sram_read_input + sram_read_weight + o_stream + a_stream + w_stream + o_stream
    # register traffic, two reads and one write per MAC, follows effective
    # compute cycles (skipped columns and skipped values both suppress the
    # operand fetches of their cycles). No guard is needed: LayerShape keeps
    # every dimension >= 1, so dense_cc = steps * lanes / peak > 0, and
    # peak >= lanes / 8 >= 1/8 (or peak_macs >= 1).
    scale = cc / dense_cc
    reg_read, reg_write = 2.0 * shape.macs * scale, shape.macs * scale
    costs = spec.costs
    return LayerPerf(
        layer.name, mapping, shape.macs, n_mac_e, cc, cr_w, cr_a, s_w, s_a,
        # STEP 4: memory counts are bytes; register accesses move 8-bit operands
        energy=EnergyBreakdown(mac=n_mac_e * costs.e_mac, dram=8.0 * dram * costs.e_dram_bit,
                               sram=8.0 * sram * costs.e_sram_bit,
                               reg=8.0 * (reg_read + reg_write) * costs.e_reg_bit),
        terms=LatencyTerms(dram=dram / spec.dram_bytes_per_cycle,
                           sram_write_output=o_stream * 8.0 / su.act_bw,
                           sram_read_input=sram_read_input * 8.0 / su.act_bw,
                           sram_read_weight=port_bits / su.w_bw,
                           reg_read=reg_read / (2.0 * peak),
                           reg_write=reg_write / peak,
                           cc_mac=cc))


def evaluate_network(net: Network, spec: AcceleratorSpec,
                     mappings: Sequence[Mapping]) -> PerfReport:
    layers = [evaluate_layer(l, spec, m) for l, m in zip(net.layers, mappings, strict=True)]
    breakdown = EnergyBreakdown(
        mac=sum(l.energy.mac for l in layers),
        dram=sum(l.energy.dram for l in layers),
        sram=sum(l.energy.sram for l in layers),
        reg=sum(l.energy.reg for l in layers),
    )
    return PerfReport(
        spec=spec.name,
        network=net.name,
        total_cycles=sum(l.cycles for l in layers),
        total_energy=breakdown.total,
        breakdown=breakdown,
        layers=layers,
    )


def compare(net: Network, specs: Sequence[AcceleratorSpec],
            baseline: str | None = None) -> list[PerfReport]:
    """Evaluate every spec on the network, normalized to the baseline.

    Each spec maps its layers once (AcceleratorSpec.map_layers), and a
    repeated spec name or a mapping that fails its kind or G check is rejected
    before any spec runs (spec order, then layer order).
    speedup = baseline cycles / spec cycles and energy_ratio = baseline
    energy / spec energy; higher is better for both.
    """
    if not specs:
        raise ConfigError("no accelerator specs to evaluate")
    names = [s.name for s in specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"spec {name!r} is given more than once")
    base_name = baseline or names[0]
    if base_name not in names:
        raise ConfigError(f"baseline {base_name!r} is not among the evaluated specs")
    mapped = [spec.map_layers(net) for spec in specs]
    reports = [evaluate_network(net, s, ms) for s, ms in zip(specs, mapped)]
    base = reports[names.index(base_name)]
    return [r._replace(
        baseline=base_name,
        speedup=base.total_cycles / r.total_cycles if r.total_cycles else math.inf,
        energy_ratio=base.total_energy / r.total_energy if r.total_energy else math.inf)
        for r in reports]


# ---------------------------------------------------------------------------
# Accelerator presets. Fixed-dataflow baselines run a [32, 4, 32] unrolling
# (the balanced catalog shape) as a custom entry so they can still map
# depthwise layers, unlike this engine's own catalog; bit-parallel baselines
# carry a 512 MAC/cycle peak to match the dense-equivalent throughput.
# ---------------------------------------------------------------------------

_FIXED_SERIAL = make_custom_su(32, 4, 32, bit_serial=True, su_id="fixed[32,4,32]")

_PRESETS = {
    "dense": dict(su=make_custom_su(64, 1, 64, bit_serial=True, su_id="dense64"), bit_serial=True),
    "stripes": dict(su=_FIXED_SERIAL, bit_serial=True),
    "pragmatic": dict(su=_FIXED_SERIAL, bit_serial=True, sparsity_mode="bit-skip", sync_lanes=16),
    "bitlet": dict(su=_FIXED_SERIAL, bit_serial=True, sparsity_mode="bit-skip", sync_lanes=128),
    "scnn": dict(su=make_custom_su(8, 8, 8, su_id="scnn512"), sparsity_mode="value-skip",
                 weight_codec="zre", act_codec="zre", sync_lanes=16),
    "huaa": dict(peak_macs=512),
    "bitcol": dict(bit_serial=True, sparsity_mode="bit-column-skip", weight_codec="bcs"),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> AcceleratorSpec:
    try:
        return AcceleratorSpec(name, **_PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {PRESET_NAMES}") from None


def _boolean(val: str) -> bool:
    if val.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{val!r} is not a boolean (1/yes/true/on, 0/no/false/off)")
    return configparser.ConfigParser.BOOLEAN_STATES[val.lower()]


def _su(val: str) -> str | tuple[int, int, int]:
    """A catalog id or `auto` as is; `custom:C,OX,K` as its three unrolls."""
    if not val.startswith("custom:"):
        return val
    dims = tuple(int(x) for x in val[len("custom:"):].split(","))
    if len(dims) != 3 or not all(1 <= d <= 1024 for d in dims):
        raise ValueError(f"{val!r}: need custom:C,OX,K with each in 1..1024")
    return dims


# INI key -> value parser; cost keys land in the spec's UnitCosts
_KEY_PARSERS = {
    "e_mac": float, "e_dram_bit": float, "e_sram_bit": float, "e_reg_bit": float,
    "weight_sram_bytes": int, "act_sram_bytes": int,
    "dram_bytes_per_cycle": float, "sync_lanes": int, "peak_macs": int,
    "bit_serial": _boolean, "sign_cycle": _boolean,
    "sparsity_mode": str, "weight_codec": str, "act_codec": str, "su": _su,
    "group_size": lambda val: val if val == "auto" else int(val),
}
_COST_KEYS = {f.name for f in fields(UnitCosts)}


def _section_spec(section: str, items: dict[str, str]) -> AcceleratorSpec:
    base = preset(items.pop("base", "bitcol"))
    keys = {}
    for key, val in items.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            keys[key] = _KEY_PARSERS[key](val)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from e
    if isinstance(keys.get("su"), tuple):  # custom bandwidths follow the section's bit_serial
        keys["su"] = make_custom_su(*keys["su"], bit_serial=keys.get("bit_serial", base.bit_serial))
    costs = {k: keys.pop(k) for k in _COST_KEYS & keys.keys()}
    return replace(base, name=section, costs=replace(base.costs, **costs), **keys)


def load_spec_configs(path) -> dict[str, AcceleratorSpec]:
    """Text config: one INI section per spec, `base = <preset>` plus overrides.

    Every value is checked at load; an error raises ConfigError naming the
    section. Unit-cost keys land in the spec's UnitCosts; `group_size`
    accepts an integer or `auto`; `su` accepts a catalog id, `auto`, or
    `custom:C,OX,K`. Values are read literally (no `%` interpolation).
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"spec config {path}: {e}") from e
    if not read:
        raise ConfigError(f"cannot read spec config {path}")
    specs = {}
    for section in parser.sections():
        try:
            specs[section] = _section_spec(section, dict(parser[section]))
        except BitcolError as e:
            raise ConfigError(f"[{section}] {e}") from e
    if not specs:
        raise ConfigError(f"spec config {path} has no sections")
    return specs
