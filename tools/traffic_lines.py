"""Which statements of ``ldpsim`` the program actually runs.

    python3 tools/traffic_lines.py [CONFIG ...]

With no arguments it runs every golden config of ``tests/test_golden.py`` (at
seed 1) and every benchmark workload of ``perfbench/workloads.py`` (at its
full size, seed 1) through ``ldpsim.cli.main``.  With CONFIG files it runs
those instead; each must set ``experiment`` and ``seed``.  Tables go to a
temporary directory.

Tracing (``sys.settrace`` and ``threading.settrace``, so the harness's worker
threads count too) starts before ``ldpsim`` is imported, so module-level
statements count as well.  It then prints, per module of ``src/ldpsim``, the
statements that nothing executed, one ``line: source`` entry each.  A
statement is executed when any line of it (of its header, for a compound
statement) raised a trace line event; statements with no bytecode, such as
docstrings, are never listed.  Standard library only; the benchmark's files
are only read.  Exits 1 if a run fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ldpsim"


def _tracer(hits: dict[str, set[int]]):
    """A global trace function that adds the line events of ``ldpsim`` frames to ``hits``."""

    def trace(frame, event, arg):
        module = frame.f_globals.get("__name__") or ""
        if module != "ldpsim" and not module.startswith("ldpsim."):
            return None
        lines = hits[module]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(node: ast.stmt) -> range:
    """The lines of a statement, or of a compound statement's header (decorators included)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def unexecuted(path: Path, executed: set[int]) -> list[tuple[int, str]]:
    """(line, source) of each statement of ``path`` that holds bytecode but never ran."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        lines = set(_header(node))
        if lines & code_lines and not lines & executed:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


def _module_name(path: Path) -> str:
    return "ldpsim" if path.stem == "__init__" else f"ldpsim.{path.stem}"


def default_runs(tmp: Path) -> list[tuple[str, list[str]]]:
    """(name, cli argv) of every golden config and benchmark workload."""
    golden = runpy.run_path(str(ROOT / "tests" / "test_golden.py"))["GOLDEN"]
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    runs = []
    for name, text in golden.items():
        config = tmp / f"{name}.cfg"
        config.write_text("\n".join(line.strip() for line in text.splitlines()) + "\nseed = 1\n")
        runs.append((name, _argv(config, tmp / name)))
    for name, w in workloads.items():
        config = tmp / f"{name}.cfg"
        config.write_text(w.config_text(1, str(tmp / f"{name}.csv")))
        runs.append((name, _argv(config, tmp / f"{name}.csv")))
    return runs


def _argv(config: Path, out: Path) -> list[str]:
    from ldpsim.harness import parse_config

    kind = parse_config(config.read_text(encoding="utf-8"))["experiment"]
    return [kind.replace("_", "-"), "--config", str(config), "--out", str(out)]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    hits: dict[str, set[int]] = defaultdict(set)
    trace = _tracer(hits)
    sys.settrace(trace)
    threading.settrace(trace)
    failed = 0
    try:
        from ldpsim.cli import main as cli_main

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            runs = ([(c, _argv(Path(c), tmp / f"{i}.out")) for i, c in enumerate(argv)]
                    if argv else default_runs(tmp))
            for name, args in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(args)
                if code:
                    print(f"run {name} exited {code}", file=sys.stderr)
                    failed += 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unexecuted(path, hits[_module_name(path)])
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements not executed")
        for line, text in missed:
            print(f"  {line}: {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
