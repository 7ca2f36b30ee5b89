"""Opt-in pytest plugin: which lines of ``src/metashop`` did the tests not run?

    PYTHONPATH=src:tests python3 -m pytest -p linetrace

A stdlib ``sys.settrace`` tracer (no coverage package) records every line
that runs in a frame of a ``src/metashop`` file, in this process and its
threads. At the end of the session the terminal summary lists, per file and
function, the executable lines (those the compiler maps bytecode to) that
never ran, then counts the unreached ``raise`` statements per module. Lines
run only in a subprocess a test starts are not seen, so they read as
unreached. The tracer makes the suite about twice as slow. It is a report,
not a gate: it never fails a run.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "metashop"

_ran: set[tuple[str, int]] = set()
_files: dict[str, bool] = {}  # code filename -> whether it is under SRC


def _in_src(filename: str) -> bool:
    inside = _files.get(filename)
    if inside is None:
        inside = _files[filename] = Path(filename).resolve().parent == SRC
    return inside


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not _in_src(frame.f_code.co_filename):
        return None  # no line events for frames outside src/metashop
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def pytest_configure(config) -> None:
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config) -> None:
    sys.settrace(None)
    threading.settrace(None)


def _code_lines(code) -> set[int]:
    """Every line some bytecode of ``code`` or its nested code maps to."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's preamble
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _owners(tree: ast.Module) -> dict[int, str]:
    """The innermost function or class (dotted) each line belongs to."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
                name += "."
            visit(child, name)

    visit(tree, "")
    return owner


def _spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def pytest_terminal_summary(terminalreporter) -> None:
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/metashop no test ran")
    raises: Counter = Counter()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        filename = str(path)
        ran = {line for name, line in _ran if name == filename}
        if not ran:  # the tests may name the file by another path
            ran = {line for name, line in _ran if Path(name).resolve() == path}
        unreached = sorted(_code_lines(compile(text, filename, "exec")) - ran)
        tree = ast.parse(text)
        owners = _owners(tree)
        by_owner: dict[str, list[int]] = {}
        for line in unreached:
            by_owner.setdefault(owners.get(line, "<module>"), []).append(line)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.lineno in unreached:
                raises[path.stem] += 1
        total += len(unreached)
        for owner, lines in by_owner.items():
            write(f"{path.name}:{owner}: {_spans(lines)}")
    counts = ", ".join(f"{name} {n}" for name, n in raises.most_common())
    write(f"{total} unreached lines; {sum(raises.values())} unreached raise "
          f"statements{': ' + counts if counts else ''}")
