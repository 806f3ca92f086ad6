"""Statements of src/boxslash that the test suite never executes.

Run from anywhere, with pytest and hypothesis installed:

    python tests/statement_coverage.py

It traces the package's lines with `sys.settrace` while pytest runs the
suite in this process (hypothesis seeded with 0 and without deadlines,
as tracing slows every call), then prints each statement that never ran
as `path:line: source`.  Docstrings, `def`, `class` and import lines and
`nonlocal` declarations are not counted, nor is a statement whose lines
hold no bytecode; a compound statement counts by its header.  Besides
pytest it needs only the standard library, and pytest does not collect
it, as its name does not start with `test_`.

Exit status: the suite's own when it fails; else 1 when an unreached
statement is neither a `raise` nor in an `if __name__ == "__main__":`
block, which only `python -m` runs; else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boxslash"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Nonlocal)


def bytecode_lines(code: types.CodeType) -> set[int]:
    """The lines of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= bytecode_lines(const)
    return lines


def main_guard_lines(tree: ast.Module) -> set[int]:
    """The lines of every module-level `if __name__ == "__main__":` body."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def statements(tree: ast.Module):
    """(first line, last line, node) of each counted statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, last, node


def unreached(path: Path, hit: set[int]):
    """(line, source line, allowed) of each counted statement of `path`
    that ran no line, in line order; allowed for a `raise` or a
    statement under a `__main__` guard."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    has_code = bytecode_lines(compile(tree, str(path), "exec"))
    guarded, text = main_guard_lines(tree), source.splitlines()
    for first, last, node in sorted(statements(tree), key=lambda item: item[0]):
        lines = set(range(first, last + 1))
        if lines & has_code and not lines & hit:
            yield first, text[first - 1].strip(), isinstance(node, ast.Raise) or first in guarded


def run_suite(hits: dict[str, set[int]]) -> int:
    """pytest on tests/ in this process, every package line recorded in `hits`."""
    prefix = str(PACKAGE) + "/"
    local_tracers: dict[types.CodeType, object] = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code in local_tracers:
            return local_tracers[code]
        local = None
        if code.co_filename.startswith(prefix):
            record = hits.setdefault(code.co_filename, set()).add

            def local(frame, event, arg):
                if event == "line":
                    record(frame.f_lineno)
                return local
        local_tracers[code] = local
        return local

    class NoDeadlines:
        # Hypothesis is imported by pytest's plugin loading, not before,
        # so that pytest can still rewrite its asserts.
        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("statement-coverage", deadline=None, database=None)
            settings.load_profile("statement-coverage")

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args, plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = Path(sys.modules["boxslash"].__file__).resolve().parent
    if imported != PACKAGE:
        sys.exit(f"the suite imported boxslash from {imported}, not {PACKAGE}")
    return int(status)


def main() -> int:
    hits: dict[str, set[int]] = {}
    status = run_suite(hits)
    if status:
        print(f"the suite failed (pytest exit {status}); no coverage reported")
        return status
    counted = failing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text, allowed in unreached(path, hits.get(str(path), set())):
            counted += 1
            failing += not allowed
            print(f"{path.relative_to(ROOT)}:{line}: {text}{'' if allowed else '  <- not a raise'}")
    print(f"{counted} unreached statements, {failing} of them neither a raise nor under a __main__ guard")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
