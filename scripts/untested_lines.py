"""List the lines of src/nura that the tier-1 tests never run.

    python3 scripts/untested_lines.py [PYTEST_ARG ...]

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors`,
plus any PYTEST_ARG) in this process through `pytest.main`, from the
checkout this script belongs to, with its `src` first on the path, under
a `sys.settrace` hook (and `threading.settrace`) that records the lines
run in frames whose code lies in `src/nura`. A module's executable lines
are those that `co_lines()` gives for its compiled code objects, the
nested ones included, less the lines of docstrings. Per module it prints
how many of them never ran, then each one with its source; a last line
gives the total. Code run in subprocesses, as the CLI tests start it, is
not traced, so its lines count as never run unless an in-process test
runs them too. Tracing makes the suite about 1.7 times slower. Standard
library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nura"


def _code_lines(code) -> set[int]:
    """The line numbers of code's instructions and of its nested code's."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0 marks no line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _docstring_lines(ast.parse(source))


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per file under src/nura, the lines run."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran[filename].add(frame.f_lineno)  # the call's first line
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT), str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    if any(name == "nura" or name.startswith("nura.") for name in sys.modules):
        raise SystemExit("nura is already imported: its module-level lines would not be traced")
    code, ran = run_traced(pytest_args)
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(lines)
        print(f"{path.relative_to(ROOT)}: {len(lines)} lines never ran")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"{total} lines in src/nura never ran (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
