"""Command-line front end.

Subcommands: analyze, compress, bitflip, simulate, map, perf, report.
Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bitflip, codec, engine, mapper, model_io, perf
from .workload import BitcolError, ConfigError, ContainerError, check_layer_names

VERIFY_FAILED = 2


def _print_table(rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    cells = [[model_io.render_value(r.get(c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for row in cells:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


def _emit(rows: list[dict], path: str | None, fieldnames: list[str] | None = None) -> None:
    """Write the report CSV when a path is given, then print the table."""
    if path:
        model_io.write_report_csv(rows, path, fieldnames)
    _print_table(rows)


def _int_in(allowed, what: str, auto: bool = False):
    """argparse type: an int that must be one of `allowed` (or "auto" if `auto`)."""
    def integer(arg: str) -> int | str:  # argparse names the function in its messages
        if auto and arg == "auto":
            return arg
        if int(arg) not in allowed:
            raise argparse.ArgumentTypeError(f"{what} {arg} is not one of {list(allowed)}")
        return int(arg)
    return integer


def _group_list(arg: str) -> list[int]:
    sizes = [_int_in(codec.GROUP_SIZES, "group size")(tok) for tok in arg.split(",")]
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"group size list {arg} repeats a size")
    return sizes


def cmd_analyze(args) -> int:
    net = model_io.load_network(args.manifest)
    rows = []
    for layer in net.layers:
        for st in codec.sparsity_stats(layer.weights, args.group_size):
            rows.append({
                "network": net.name, "layer": layer.name, "kind": layer.shape.kind,
                **st._asdict(),
                "s_a": layer.act_sparsity() if (layer.s_a is not None or layer.acts is not None) else None,
            })
    _emit(rows, args.out)
    return 0


def cmd_compress(args) -> int:
    net = model_io.load_network(args.manifest)
    rows, chosen = [], []
    for layer in net.layers:
        cl = codec.best_pack(layer.weights, args.group_size, layer.name)
        # a row reports the bcs pack at the chosen G, also for a layer written dense
        bcs = codec.compress_layer(layer.weights, cl.group_size, "bcs", layer.name)
        n_bits = 8 * layer.weights.size
        nnz = int(np.count_nonzero(layer.weights))
        row_len = layer.shape.c * layer.shape.fy * layer.shape.fx
        rows.append({
            "layer": layer.name, "group_size": cl.group_size, "mode": cl.mode,
            "cr_real": codec.compression_ratio(bcs),
            "cr_ideal": codec.compression_ratio(bcs, include_index=False),
            "cr_zre": n_bits / codec.zre_size(layer.weights),
            "cr_csr": n_bits / max(codec.csr_size(layer.weights, row_len), 1),
            "cr_value_ideal": n_bits / (8 * nnz) if nnz else float("inf"),
            "clamped": int(np.count_nonzero(layer.weights == -128)),
        })
        chosen.append(cl)
    model_io.write_compressed(args.out, chosen)
    _emit(rows, args.csv)
    if args.verify:
        reread = model_io.read_compressed(args.out)
        for cl, layer in zip(reread, net.layers):
            if mismatches := engine.verify_layer(cl, layer.weights):
                print(f"verify: layer {layer.name!r}: {mismatches} of {cl.n_groups} groups "
                      "differ from the manifest", file=sys.stderr)
                return VERIFY_FAILED
        print(f"verify: {len(reread)} layers round-trip byte-exact")
    return 0


def cmd_bitflip(args) -> int:
    if args.oracle_cmd and args.proxy_oracle:
        raise ConfigError("--oracle-cmd and --proxy-oracle are mutually exclusive")
    if args.macc is not None and not (args.oracle_cmd or args.proxy_oracle):
        raise ConfigError("--macc drives a greedy search; give --oracle-cmd or --proxy-oracle")
    if args.macc is not None and math.isnan(args.macc):
        raise ConfigError("--macc must be a number or -inf, not nan")
    if args.strategy and (args.group_size_int, args.zero_cols) != (None, None):
        raise ConfigError("--strategy sets G and z per layer; drop --group-size and --zero-cols")
    net = model_io.load_network(args.manifest)
    if args.strategy:
        strategy = bitflip.load_strategy(args.strategy)
    else:
        strategy = bitflip.default_strategy(net, args.group_size_int or 8,
                                            4 if args.zero_cols is None else args.zero_cols)
    if args.oracle_cmd or args.proxy_oracle:
        oracle = bitflip.ExternalOracle(args.oracle_cmd, net) if args.oracle_cmd \
            else bitflip.proxy_oracle(net)
        strategy = bitflip.greedy_search(net, strategy, args.macc or 0.0, oracle)
    flipped, results = bitflip.apply_strategy(net, strategy)
    out_dir = Path(args.out)
    model_io.save_network(flipped, out_dir)
    bitflip.save_strategy(strategy, out_dir / "strategy.txt")
    rows = []
    for layer in flipped.layers:
        res = results[layer.name]
        rows.append({
            "layer": layer.name, "group_size": res.group_size, "zero_cols": res.zero_cols,
            "total_sq_error": res.total_sq_error, "max_abs_error": res.max_abs_error,
            "cr_real": res.compression_ratio,
            "zero_col_hist": "/".join(str(int(x)) for x in res.zero_col_hist),
        })
    _emit(rows, args.csv)
    return 0


def cmd_simulate(args) -> int:
    if args.container and args.group_size is not None:
        raise ConfigError("--container fixes G per layer; drop --group-size")
    # the engine is the bitcol preset: a fixed SU's G is checked before the load
    spec = replace(perf.preset("bitcol"), su=args.su, group_size=args.group_size or "auto")
    net = model_io.load_network(args.manifest)
    sus = [m.su for m in spec.map_layers(net)]
    if args.container:
        by_name = {cl.name: cl for cl in model_io.read_compressed(args.container)}
        check_layer_names(net, by_name, ContainerError, "container")
        compressed = [by_name[l.name] for l in net.layers]
    else:
        compressed = [perf.weight_compression(l, spec)[1] for l in net.layers]
    for layer, su, cl in zip(net.layers, sus, compressed):  # in simulate_layer's order
        mapper.check_layer_shape(cl, layer.shape)
        mapper.check_group_size(cl.group_size, su)

    mismatches = 0
    rows = []
    for layer, su, cl in zip(net.layers, sus, compressed):
        cc = engine.simulate_layer(cl, layer.shape, su)
        if args.verify:
            # the reference is the manifest, so a corrupt container cannot vouch for itself
            mismatches += engine.verify_layer(cl, layer.weights)
        rows.append({
            "layer": layer.name, "su": su.id, "mode": cl.mode, "group_size": cl.group_size,
            "groups": cl.n_groups, "cycles": cc.total_cycles,
            "barrier_loss": cc.barrier_loss, "t_out": cc.t_out,
            "mean_nz": float(cc.group_cycles.mean()) if cc.group_cycles.size else 0.0,
        })
    _emit(rows, args.out)
    if args.verify:
        if mismatches:
            total = sum(cl.n_groups for cl in compressed)
            print(f"verify: {mismatches} of {total} groups differ from the manifest",
                  file=sys.stderr)
            return VERIFY_FAILED
        print("verify: every group decodes to the manifest's weights")
    return 0


def cmd_map(args) -> int:
    net = model_io.load_network(args.manifest)
    rows = []
    for layer in net.layers:
        table = mapper.utilization_table(layer.shape)
        chosen = mapper.best_su(table)
        rows.append({"layer": layer.name, "kind": layer.shape.kind,
                     **{su_id.lower(): m and m.utilization for su_id, m in table.items()},
                     "chosen": chosen.su.id, "chosen_util": chosen.utilization,
                     "w_bw": chosen.su.w_bw, "act_bw": chosen.su.act_bw})
    _emit(rows, args.out)
    return 0


def cmd_perf(args) -> int:
    net = model_io.load_network(args.manifest)
    specs = []
    if args.spec_config:
        specs.extend(perf.load_spec_configs(args.spec_config).values())
    for name in args.preset or []:
        specs.append(perf.preset(name))
    if not specs:
        specs = [perf.preset(n) for n in ("scnn", "bitcol")]
    reports = perf.compare(net, specs, args.baseline)
    rows = [{
        "network": r.network, "spec": r.spec, "cycles": r.total_cycles,
        "energy": r.total_energy, "e_mac": r.breakdown.mac, "e_dram": r.breakdown.dram,
        "e_sram": r.breakdown.sram, "e_reg": r.breakdown.reg,
        "baseline": r.baseline, "speedup": r.speedup, "energy_ratio": r.energy_ratio,
    } for r in reports]
    _emit(rows, args.out)
    if args.per_layer:
        detail = [dict(r.row(), spec=rep.spec) for rep in reports for r in rep.layers]
        model_io.write_report_csv(detail, args.per_layer)
    return 0


def cmd_report(args) -> int:
    layers = model_io.read_compressed(args.container)
    rows = [{
        "layer": cl.name, "group_size": cl.group_size, "mode": cl.mode,
        "elements": cl.n_values, "groups": cl.n_groups,
        "cr_real": codec.compression_ratio(cl),
        "cr_ideal": codec.compression_ratio(cl, include_index=False),
        "bits": cl.bcs_bits,
    } for cl in layers]
    _emit(rows, args.out, ["layer", "group_size", "mode", "elements", "groups", "cr_real",
                           "cr_ideal", "bits"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bitcol",
                                description="bit-column sparsity toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    auto = ",".join(map(str, codec.AUTO_GROUP_SIZES))
    sp = add("analyze", cmd_analyze, help="per-layer sparsity statistics")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--group-size", type=_group_list, default=codec.AUTO_GROUP_SIZES,
                    help=f"comma-separated group sizes (default {auto})")

    sp = add("compress", cmd_compress, help="write a compressed container")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True, help="container output path")
    sp.add_argument("--csv", help="CR table CSV path")
    sp.add_argument("--group-size", type=_int_in(codec.GROUP_SIZES, "group size", auto=True),
                    default="auto", help=f"group size or 'auto' (best of {auto} per layer)")
    sp.add_argument("--verify", action="store_true",
                    help="re-read the container and check the round trip")

    sp = add("bitflip", cmd_bitflip, help="flip weights toward a zero-column target")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True, help="output directory for the flipped model")
    sp.add_argument("--csv", help="flip report CSV path")
    sp.add_argument("--group-size", dest="group_size_int",
                    type=_int_in(codec.GROUP_SIZES, "group size"),
                    help="group size of every layer (default 8; not with --strategy)")
    sp.add_argument("--zero-cols", type=_int_in(range(9), "zero columns"),
                    help="zero columns per group (default 4; not with --strategy)")
    sp.add_argument("--strategy", help="initial strategy file")
    sp.add_argument("--oracle-cmd", help="external oracle command, {manifest} substituted")
    sp.add_argument("--proxy-oracle", action="store_true",
                    help="greedy search against the flip-error proxy metric")
    sp.add_argument("--macc", type=float, help="greedy search metric floor; --macc=-inf for none")

    sp = add("simulate", cmd_simulate, help="cycle accounting and exactness check")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--container", help="existing container (otherwise compress on the fly)")
    sp.add_argument("--group-size", type=_int_in(codec.GROUP_SIZES, "group size", auto=True),
                    help="group size or 'auto' (the default; not with --container)")
    sp.add_argument("--su", default="auto", choices=["auto", *(su.id for su in mapper.CATALOG)])
    sp.add_argument("--out", help="cycle report CSV path")
    sp.add_argument("--seed", type=int, default=0, help="ignored; verify draws nothing")
    sp.add_argument("--verify", action="store_true",
                    help="check every group's decoded weights against the manifest")

    sp = add("map", cmd_map, help="per-layer utilization and SU choice")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", help="CSV output path")

    sp = add("perf", cmd_perf, help="speedup/energy comparison across presets")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--preset", action="append",
                    help=f"accelerator preset, repeatable; {perf.PRESET_NAMES}")
    sp.add_argument("--spec-config", help="INI file of accelerator specs")
    sp.add_argument("--baseline", help="normalization baseline (default: first spec)")
    sp.add_argument("--out", help="summary CSV path")
    sp.add_argument("--per-layer", help="per-layer detail CSV path")

    sp = add("report", cmd_report, help="summarize a compressed container")
    sp.add_argument("--container", required=True)
    sp.add_argument("--out", help="CSV output path")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # bad flags are input errors (exit 1), --help is 0
        return 0 if e.code == 0 else 1
    try:
        return args.fn(args)
    except (BitcolError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
