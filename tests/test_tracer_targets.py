"""The benchmark tracer patches bitcol functions by (module, name).

Deleting or renaming a traced function breaks `perfbench/run.py --trace 1`,
so every pair the tracer lists must still resolve to a callable, and the
span attributes it reads off a result must keep their meaning.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from bitcol import codec, engine, mapper
from bitcol.workload import LayerShape

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import TARGETS  # noqa: E402


def test_every_tracer_target_resolves():
    missing = [(mod, name) for mod, name, _ in TARGETS
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert not missing


def test_bank_layout_rows_attribute_counts_four_rows_per_cycle():
    # `--trace 1` records this attribute as mapper.weight_bank_layout.rows
    attrs = next(fn for mod, name, fn in TARGETS
                 if (mod, name) == ("bitcol.mapper", "weight_bank_layout"))
    shape = LayerShape(k=40, c=16, fy=3, fx=3, ox=16, oy=1)
    values = np.random.default_rng(0).integers(-127, 128, size=shape.weight_dims, dtype=np.int8)
    cl = codec.compress_layer(values, 8)
    su1 = mapper.catalog_su("SU1")
    out = mapper.weight_bank_layout(cl, shape, su1)
    cycles = engine.simulate_layer(cl, shape, su1, sign_cycle=True).total_cycles
    assert attrs(out, cl, shape, su1) == {"rows": 4 * cycles}
