"""The benchmark tracer patches bitcol functions by (module, name).

Deleting or renaming a traced function breaks `perfbench/run.py --trace 1`,
so every pair the tracer lists must still resolve to a callable.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import TARGETS  # noqa: E402


def test_every_tracer_target_resolves():
    missing = [(mod, name) for mod, name, _ in TARGETS
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing
