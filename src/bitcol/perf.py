"""Analytical performance and energy model.

Four-step methodology per (layer, accelerator) pair:

1. Dense activity counts from a deliberately simple streaming/tiling model:
   every streamed tensor moves DRAM->SRAM once per layer pass, where the
   pass count is max over tensors of ceil(tensor bytes / its SRAM capacity);
   outputs are written back once. SRAM operand reads follow the spatial
   unrolling (per temporal step, C_u*OX_u activation and C_u*K_u weight
   elements); register traffic is two reads and one write per MAC.
2. Sparsity statistics, adjusted for lockstep load imbalance where the
   accelerator schedules at runtime. Bit-column skipping takes the
   compressed layer's lockstep cycle count from engine.simulate_layer, the
   functional simulator.
3. Effective MACs/cycles (value skipping shrinks the MAC count; bit and
   bit-column skipping shrink cycles only) and effective memory traffic
   (dense counts divided by the per-tensor compression ratio).
4. Energy as unit-cost-weighted effective accesses plus MAC energy, and
   latency with memory transfers hidden underneath compute: accesses are
   first normalized to port-cycles (DRAM bytes/cycle, SRAM port widths from
   the SU bandwidth, register files parallel per MAC lane), then
   total = DRAM + output writes + max(weight reads, input reads,
   register reads, register writes, compute).

Shipped presets express the sparsity-mode / compression / dataflow
distinctions of the published baselines they are named after; their unit
costs and lane parameters are documented defaults, not reproductions of
anyone's silicon measurements.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import codec, engine
from .mapper import (SpatialUnrolling, catalog_su, check_group_size, check_kind_compatible,
                     make_custom_su, select_su, temporal_steps)
from .workload import BitcolError, ConfigError, Layer, LayerShape, Network

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
        if self.sparsity_mode == "bit-column-skip" and self.group_size != "auto" and su != "auto":
            check_group_size(self.group_size, su)

    def resolve_su(self, shape: LayerShape) -> SpatialUnrolling:
        if isinstance(self.su, SpatialUnrolling):
            return self.su
        if self.su == "auto":
            return select_su(shape)
        return catalog_su(self.su)

    def peak_macs_cycle(self, su: SpatialUnrolling) -> float:
        if self.peak_macs is not None:
            return float(self.peak_macs)
        return su.lanes / (8 if self.bit_serial else 1)


@dataclass
class ActivityCounts:
    """Dense per-layer activity: MACs, MACs/cycle, and byte-level traffic."""

    n_mac: int
    n_mac_cycle: float
    utilization: float
    steps: int
    passes: int
    dram_read_w: float
    dram_read_a: float
    dram_write_w: float
    dram_write_a: float
    sram_read_input: float
    sram_read_weight: float
    sram_read_output: float
    sram_write_input: float
    sram_write_weight: float
    sram_write_output: float
    reg_read: float
    reg_write: float


@dataclass
class EffectiveCounts(ActivityCounts):
    n_mac_e: float = 0.0
    cc_mac_e: float = 0.0
    cr_w: float = 1.0
    cr_a: float = 1.0
    s_w: float = 0.0
    s_a: float = 0.0
    reg_read_e: float = 0.0
    reg_write_e: float = 0.0


def dense_activity(shape: LayerShape, spec: AcceleratorSpec,
                   su: SpatialUnrolling | None = None) -> ActivityCounts:
    """STEP 1: dense operation and memory activity of one layer."""
    su = su or spec.resolve_su(shape)
    steps = temporal_steps(shape, su)
    util = shape.macs / (steps * su.lanes)
    n_mac_cycle = spec.peak_macs_cycle(su) * util

    ix, iy = shape.input_hw
    w_bytes = shape.n_weights
    a_bytes = shape.b * shape.in_channels * ix * iy
    o_bytes = shape.b * shape.k * shape.ox * shape.oy
    passes = max(
        math.ceil(w_bytes / spec.costs.weight_sram_bytes),
        math.ceil((a_bytes + o_bytes) / spec.costs.act_sram_bytes),
        1,
    )
    c_par = su.g_u or su.c_u
    return ActivityCounts(
        n_mac=shape.macs,
        n_mac_cycle=n_mac_cycle,
        utilization=util,
        steps=steps,
        passes=passes,
        dram_read_w=w_bytes * passes,
        dram_read_a=a_bytes * passes,
        dram_write_w=0.0,
        dram_write_a=float(o_bytes),
        sram_read_input=float(steps * c_par * su.ox_u),
        sram_read_weight=float(steps * c_par * su.k_u),
        sram_read_output=float(o_bytes),
        sram_write_input=float(a_bytes * passes),
        sram_write_weight=float(w_bytes * passes),
        sram_write_output=float(o_bytes),
        reg_read=2.0 * shape.macs,
        reg_write=float(shape.macs),
    )


def effective_macs(counts: ActivityCounts, s_a: float, s_w: float, mode: str,
                   nz_fraction: float | None = None) -> tuple[float, float]:
    """STEP 3a: effective MAC count and compute cycles.

    Value skipping removes MACs: N_e = N * (1-S_a) * (1-S_w). Bit and
    bit-column skipping keep the MAC count and scale the dense cycle count
    by nz_fraction, the sync-adjusted share of non-zero bits or columns.
    """
    if mode not in SPARSITY_MODES:
        raise ConfigError(f"unknown sparsity mode {mode!r}")
    if not (0.0 <= s_a <= 1.0 and 0.0 <= s_w <= 1.0):
        raise ValueError("sparsities must be in [0, 1]")
    if mode == "none":
        s_a = s_w = 0.0
    if mode in ("none", "value-skip"):
        n_mac_e = counts.n_mac * (1.0 - s_a) * (1.0 - s_w)
        return n_mac_e, n_mac_e / counts.n_mac_cycle
    if nz_fraction is None:
        raise ValueError(f"{mode} needs the sync-adjusted non-zero fraction")
    dense_cc = counts.n_mac / counts.n_mac_cycle
    return float(counts.n_mac), dense_cc * nz_fraction


def effective_memory(counts: ActivityCounts, cr_w: float, cr_a: float) -> EffectiveCounts:
    """STEP 3b: memory traffic under compression (dense counts / CR)."""
    if cr_w <= 0 or cr_a <= 0:
        raise ValueError("compression ratios must be > 0")
    eff = EffectiveCounts(**vars(counts))
    eff.cr_w, eff.cr_a = cr_w, cr_a
    eff.dram_read_w = counts.dram_read_w / cr_w
    eff.dram_write_w = counts.dram_write_w / cr_w
    eff.sram_read_weight = counts.sram_read_weight / cr_w
    eff.sram_write_weight = counts.sram_write_weight / cr_w
    eff.dram_read_a = counts.dram_read_a / cr_a
    eff.dram_write_a = counts.dram_write_a / cr_a
    eff.sram_read_input = counts.sram_read_input / cr_a
    eff.sram_write_input = counts.sram_write_input / cr_a
    eff.sram_read_output = counts.sram_read_output / cr_a
    eff.sram_write_output = counts.sram_write_output / cr_a
    eff.n_mac_e = float(counts.n_mac)
    eff.cc_mac_e = counts.n_mac / counts.n_mac_cycle
    eff.reg_read_e = counts.reg_read
    eff.reg_write_e = counts.reg_write
    return eff


@dataclass
class EnergyBreakdown:
    mac: float
    dram: float
    sram: float
    reg: float

    @property
    def total(self) -> float:
        return self.mac + self.dram + self.sram + self.reg


def total_energy(eff: EffectiveCounts, costs: UnitCosts) -> EnergyBreakdown:
    """STEP 4a: unit-cost-weighted energy; memory counts are bytes, register
    accesses move 8-bit operands."""
    dram_bits = 8.0 * (eff.dram_read_w + eff.dram_read_a + eff.dram_write_w + eff.dram_write_a)
    sram_bits = 8.0 * (eff.sram_read_input + eff.sram_read_weight + eff.sram_read_output
                       + eff.sram_write_input + eff.sram_write_weight + eff.sram_write_output)
    reg_bits = 8.0 * (eff.reg_read_e + eff.reg_write_e)
    return EnergyBreakdown(
        mac=eff.n_mac_e * costs.e_mac,
        dram=dram_bits * costs.e_dram_bit,
        sram=sram_bits * costs.e_sram_bit,
        reg=reg_bits * costs.e_reg_bit,
    )


@dataclass
class LatencyTerms:
    """Eq-level latency inputs, already normalized to cycles."""

    dram: float
    sram_write_output: float
    sram_read_input: float
    sram_read_weight: float
    reg_read: float
    reg_write: float
    cc_mac: float


def total_latency(terms: LatencyTerms) -> float:
    """STEP 4b: DRAM plus output writes, with the rest hidden under the max."""
    return terms.dram + terms.sram_write_output + max(
        terms.sram_read_input, terms.sram_read_weight,
        terms.reg_read, terms.reg_write, terms.cc_mac)


def latency_terms(eff: EffectiveCounts, spec: AcceleratorSpec,
                  su: SpatialUnrolling) -> LatencyTerms:
    """Normalize effective access counts to port-cycles."""
    peak = max(spec.peak_macs_cycle(su), 1e-9)
    return LatencyTerms(
        dram=(eff.dram_read_w + eff.dram_read_a + eff.dram_write_w + eff.dram_write_a)
        / spec.dram_bytes_per_cycle,
        sram_write_output=eff.sram_write_output * 8.0 / su.act_bw,
        sram_read_input=eff.sram_read_input * 8.0 / su.act_bw,
        sram_read_weight=eff.sram_read_weight * 8.0 / su.w_bw,
        reg_read=eff.reg_read_e / (2.0 * peak),
        reg_write=eff.reg_write_e / peak,
        cc_mac=eff.cc_mac_e,
    )


def imbalance_adjust(raw_sparsity: float, spec: AcceleratorSpec,
                     lane_fractions: np.ndarray | None = None) -> float:
    """STEP 2: lockstep load-imbalance adjustment of a skip fraction.

    Co-scheduled lanes advance at the busiest lane, so the effective skip of
    a lane set is the minimum over its lanes. With no per-lane data the
    workload is assumed uniform and the raw fraction passes through.
    """
    if not 0.0 <= raw_sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    if spec.sparsity_mode == "none" or lane_fractions is None:
        return raw_sparsity
    lanes = np.asarray(lane_fractions, dtype=float)
    if lanes.size == 0:
        return raw_sparsity
    return float(np.minimum.reduceat(lanes, range(0, lanes.size, spec.sync_lanes)).mean())


def _lockstep_bit_fraction(weights: np.ndarray, sync_lanes: int) -> float:
    """Effective work share for unstructured bit skipping: mean over lane sets
    of the slowest lane's two's-complement bit count / 8."""
    pops = codec.POPCOUNT[np.ascontiguousarray(weights).view(np.uint8)].reshape(-1)
    return float(np.maximum.reduceat(pops, range(0, pops.size, sync_lanes)).mean() / 8.0)


def weight_compression(layer: Layer, spec: AcceleratorSpec
                       ) -> tuple[float, codec.CompressedLayer | None]:
    """Weight-tensor compression ratio under the spec's codec.

    For bcs, group_size "auto" picks the best real CR among
    codec.AUTO_GROUP_SIZES; the chosen compressed layer is returned for
    cycle modeling.
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
    sizes = codec.AUTO_GROUP_SIZES if spec.group_size == "auto" else (spec.group_size,)
    cl = max((codec.compress_layer(w, g, mode="auto", name=layer.name) for g in sizes),
             key=codec.compression_ratio)
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


@dataclass
class LayerPerf:
    layer: str
    su_id: str
    utilization: float
    eff: EffectiveCounts
    energy: EnergyBreakdown
    cycles: float

    def row(self) -> dict:
        return {
            "layer": self.layer,
            "su": self.su_id,
            "utilization": self.utilization,
            "n_mac": self.eff.n_mac,
            "n_mac_e": self.eff.n_mac_e,
            "cc_mac_e": self.eff.cc_mac_e,
            "cycles": self.cycles,
            "energy": self.energy.total,
            "cr_w": self.eff.cr_w,
            "cr_a": self.eff.cr_a,
            "s_w": self.eff.s_w,
            "s_a": self.eff.s_a,
        }


@dataclass
class PerfReport:
    spec: str
    network: str
    total_cycles: float
    total_energy: float
    breakdown: EnergyBreakdown
    layers: list[LayerPerf]
    speedup: float | None = None
    energy_ratio: float | None = None
    baseline: str | None = None


def evaluate_layer(layer: Layer, spec: AcceleratorSpec) -> LayerPerf:
    shape = layer.shape
    su = spec.resolve_su(shape)
    counts = dense_activity(shape, spec, su)

    s_w = float(np.count_nonzero(layer.weights == 0) / layer.weights.size)
    s_a = layer.act_sparsity(default=0.0)
    cr_w, cl = weight_compression(layer, spec)
    cr_a = act_compression(layer, spec, s_a)

    mode = spec.sparsity_mode
    dense_cc = counts.n_mac / counts.n_mac_cycle
    s_w_e, s_a_e, frac = 0.0, 0.0, None
    if mode == "value-skip":
        kernel_fracs = np.count_nonzero(layer.weights == 0, axis=(1, 2, 3)) / (
            layer.shape.c * layer.shape.fy * layer.shape.fx)
        s_w_e, s_a_e = imbalance_adjust(s_w, spec, kernel_fracs), s_a
    elif mode == "bit-skip":
        frac = _lockstep_bit_fraction(layer.weights, spec.sync_lanes)
    elif mode == "bit-column-skip":
        frac = engine.simulate_layer(cl, shape, su, spec.sign_cycle).total_cycles / dense_cc
    n_mac_e, cc = effective_macs(counts, s_a_e, s_w_e, mode, nz_fraction=frac)

    eff = effective_memory(counts, cr_w, cr_a)
    eff.n_mac_e = n_mac_e
    eff.cc_mac_e = cc
    eff.s_w, eff.s_a = s_w, s_a
    # register traffic follows effective compute cycles (skipped columns and
    # skipped values both suppress the operand fetches of their cycles)
    scale = cc / dense_cc if dense_cc else 1.0
    eff.reg_read_e = counts.reg_read * scale
    eff.reg_write_e = counts.reg_write * scale

    energy = total_energy(eff, spec.costs)
    terms = latency_terms(eff, spec, su)
    if mode == "bit-column-skip":
        # the weight port streams one column slice per lane per cycle; index
        # bytes ride the parser side path, so the port term counts column
        # payload bits only (energy above still pays for the index via CR)
        port_bits = counts.sram_read_weight * 8.0 * cl.payload_bits / cl.dense_bits
        terms.sram_read_weight = port_bits / su.w_bw
    cycles = total_latency(terms)
    return LayerPerf(layer.name, su.id, counts.utilization, eff, energy, cycles)


def evaluate_network(net: Network, spec: AcceleratorSpec) -> PerfReport:
    layers = [evaluate_layer(l, spec) for l in net.layers]
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

    speedup = baseline cycles / spec cycles and energy_ratio = baseline
    energy / spec energy; higher is better for both.
    """
    if not specs:
        raise ConfigError("no accelerator specs to evaluate")
    names = [s.name for s in specs]
    base_name = baseline or names[0]
    if base_name not in names:
        raise ConfigError(f"baseline {base_name!r} is not among the evaluated specs")
    for spec in specs:  # a fixed SU must map every layer before any spec runs
        if spec.su != "auto":
            for layer in net.layers:
                check_kind_compatible(layer.shape, spec.resolve_su(layer.shape))
    reports = [evaluate_network(net, s) for s in specs]
    base = reports[names.index(base_name)]
    for r in reports:
        r.baseline = base_name
        r.speedup = base.total_cycles / r.total_cycles if r.total_cycles else math.inf
        r.energy_ratio = base.total_energy / r.total_energy if r.total_energy else math.inf
    return reports


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
