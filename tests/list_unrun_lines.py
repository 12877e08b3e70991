"""List the statements of src/bitcol that the test suite never runs.

    PYTHONPATH=src python tests/list_unrun_lines.py [pytest args]

Runs pytest in this process (by default on tests/) under a sys.settrace
hook that records the lines executed in src/bitcol, then prints every
statement whose first line never ran, as `path:line: source`, and a count.
Subprocesses (the perfbench smoke runs, external oracles) are not traced.
The pytest exit code is printed; the listing is made either way.
Stdlib only: no coverage package is needed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bitcol"


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in a code object and the ones nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, str]:
    """First line -> source of each statement of a file that carries bytecode
    (docstrings and `pass` carry none)."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in code}


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args`; returns its exit code and the lines run per file."""
    import pytest

    src = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(call)
    threading.settrace(call)
    try:
        rc = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(rc), ran


def main(argv: list[str]) -> int:
    if any(m == "bitcol" or m.startswith("bitcol.") for m in sys.modules):
        raise SystemExit("bitcol is imported already; its import-time lines would be missed")
    rc, ran = traced_run(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        hit = ran.get(str(path), set())
        for line, text in sorted(statements(path).items()):
            if line not in hit:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{unrun} statements never ran (pytest exit {rc})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
