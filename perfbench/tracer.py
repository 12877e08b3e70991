"""Outside-in tracer: spans around calls into bitcol's public functions.

A span records name, start, end, parent span and run id; spans stay in
memory and are written out when the benchmark ends. A wrapped function is
patched into every loaded bitcol namespace that binds it, so calls made
through `from` imports (perf.select_su, perf.catalog_su,
engine.check_kind_compatible, model_io.column_offsets) are caught too.
Functions called per group (engine.bce_group) are only counted: a span per
call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _groups(values, group_size) -> int:
    k, c, fy, fx = values.shape
    return k * fy * fx * -(-c // group_size)


def _flip_attrs(out, values, group_size, z, *_, **__):
    return {"z": z, "groups": _groups(values, group_size)}


# (module, function, how): "span" records a span, "count" only counts calls,
# "preset" tags the span with the spec's name before the call (it may raise),
# "oracle" also traces the returned oracle, and a callable returns span
# attributes from (result, *args, **kwargs) after a successful call.
TARGETS = (
    ("bitcol.model_io", "load_network", "span"),
    ("bitcol.model_io", "save_network", "span"),
    ("bitcol.model_io", "write_compressed",
     lambda out, path, *_: {"bytes": Path(path).stat().st_size}),
    ("bitcol.model_io", "read_compressed", "span"),
    ("bitcol.model_io", "write_report_csv", "span"),
    ("bitcol.codec", "compress_layer", "span"),
    ("bitcol.codec", "decompress_layer", "span"),
    ("bitcol.codec", "sparsity_stats", "span"),
    ("bitcol.codec", "column_offsets", "count"),
    ("bitcol.engine", "verify_layer", lambda out, cl, *_: {"groups": cl.n_groups}),
    ("bitcol.engine", "bce_group", "count"),
    ("bitcol.engine", "simulate_layer", lambda out, *_, **__: {"waves": out.n_waves}),
    ("bitcol.mapper", "check_kind_compatible", "span"),
    ("bitcol.mapper", "select_su", "span"),
    ("bitcol.mapper", "catalog_su", "count"),
    ("bitcol.mapper", "utilization_table", "span"),
    ("bitcol.mapper", "weight_bank_layout", lambda out, *_, **__: {"rows": len(out)}),
    ("bitcol.perf", "compare", "span"),
    ("bitcol.perf", "evaluate_network", "preset"),
    ("bitcol.perf", "weight_compression", "span"),
    ("bitcol.bitflip", "flip_layer", _flip_attrs),
    ("bitcol.bitflip", "apply_strategy", "span"),
    ("bitcol.bitflip", "greedy_search", "span"),
    ("bitcol.bitflip", "proxy_oracle", "oracle"),
)


class Tracer:
    """Span and call-count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (run id, name) -> calls
        self.run = ""
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.run, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, how):
        if how == "count":
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[(self.run, name)] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"preset": args[1].name} if how == "preset" else {}
            with self.span(name, **attrs) as s:
                out = fn(*args, **kwargs)
            if callable(how):
                s.attrs.update(how(out, *args, **kwargs))
            if how == "oracle":  # trace each metric evaluation of the returned oracle
                return self._wrap(out, "bitflip.oracle", "span")
            return out
        return traced

    def install(self) -> None:
        """Patch every loaded bitcol module; call again after a fresh import."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bitcol" or n.startswith("bitcol.")]
        wrapped = {}
        for modname, fname, how in TARGETS:
            fn = getattr(sys.modules[modname], fname)
            wrapped[id(fn)] = self._wrap(fn, f"{modname.split('.')[1]}.{fname}", how)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if id(val) in wrapped:
                    self._undo.append((m, attr, val))
                    setattr(m, attr, wrapped[id(val)])

    def uninstall(self) -> None:
        while self._undo:
            m, attr, val = self._undo.pop()
            setattr(m, attr, val)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_time(self, span: Span, kids: dict[int, list[Span]] | None = None) -> float:
        """Duration minus the part covered by direct children (which nest inside it)."""
        kids = self.children() if kids is None else kids
        return span.duration - sum(c.duration for c in kids.get(span.id, ()))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name, "run": s.run,
                                    "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")
            for (run, name), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": name, "run": run, "calls": n}) + "\n")
