"""Which bitcol records are dataclasses and which are tuples.

Every CLI call imports all of bitcol, so each record class is created once
per call. On Python 3.11 a dataclass costs about 0.5 ms to create (a frozen
one 0.8-1.1 ms) and a typing.NamedTuple 0.1-0.3 ms. Only the records that
validate their fields in __post_init__, or that callers rebuild with
dataclasses.replace, stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import bitcol

DATACLASSES = {"codec.CompressedLayer", "perf.UnitCosts", "perf.AcceleratorSpec",
               "workload.LayerShape", "workload.Layer", "workload.Network"}
TUPLES = ["bitflip.FlipResult", "codec.SparsityStats", "engine.ParsedIndex",
          "engine.PackedGroup", "engine.CycleCount", "mapper.SpatialUnrolling",
          "mapper.Mapping", "perf.EnergyBreakdown", "perf.LatencyTerms", "perf.LayerPerf",
          "perf.PerfReport"]


def defined_classes():
    for info in pkgutil.iter_modules(bitcol.__path__):
        module = importlib.import_module(f"bitcol.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_only_the_validating_records_are_dataclasses():
    assert {name for name, cls in defined_classes() if dataclasses.is_dataclass(cls)} \
        == DATACLASSES


@pytest.mark.parametrize("name", TUPLES)
def test_plain_records_are_tuples(name):
    cls = dict(defined_classes())[name]
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields
