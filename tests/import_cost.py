"""Time a fresh import of bitcol.cli and count the dataclasses it creates.

    PYTHONPATH=src python tests/import_cost.py [-n RUNS]

perfbench imports bitcol afresh for every stage it runs, and a shell pays
one import per CLI call, so this cost is in every timed stage. In one
process, the script imports bitcol.cli once to load numpy and the stdlib,
then RUNS times drops every `bitcol*` module from sys.modules (as
perfbench/flow.py does) and imports bitcol.cli again. It prints the median
milliseconds, whether the imports read cached bytecode, and how many
classes the bitcol modules define as dataclasses.

Without a `__pycache__` under src/bitcol and with PYTHONDONTWRITEBYTECODE
set, each import compiles every module of src/bitcol. Run once with
PYTHONDONTWRITEBYTECODE unset to write the cache and time the cached case.
Stdlib only; not collected by pytest.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import statistics
import sys
import time
from pathlib import Path


def drop_bitcol() -> None:
    for name in [n for n in sys.modules if n == "bitcol" or n.startswith("bitcol.")]:
        del sys.modules[name]


def bitcol_dataclasses() -> list[str]:
    """Dotted names of the dataclasses defined by the loaded bitcol modules."""
    return sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
                  if name == "bitcol" or name.startswith("bitcol.")
                  for attr, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == name
                  and dataclasses.is_dataclass(obj))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("-n", "--runs", type=int, default=20, help="timed fresh imports")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")

    cli = importlib.import_module("bitcol.cli")  # loads numpy and the stdlib
    cached = Path(importlib.util.cache_from_source(cli.__file__)).exists()
    times = []
    for _ in range(args.runs):
        drop_bitcol()
        t0 = time.perf_counter()
        importlib.import_module("bitcol.cli")
        times.append((time.perf_counter() - t0) * 1e3)
    found = bitcol_dataclasses()
    print(f"fresh import of bitcol.cli: median {statistics.median(times):.1f} ms "
          f"over {args.runs} runs (min {min(times):.1f}, max {max(times):.1f}), "
          f"cached bytecode: {'yes' if cached else 'no'}")
    print(f"dataclasses: {len(found)} ({', '.join(found)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
