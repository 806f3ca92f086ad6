"""Statements of src/boxslash that the test suite never executes, and
functions of it that no package frame calls.

Run from anywhere, with pytest and hypothesis installed:

    python tests/statement_coverage.py

It traces the package with `sys.settrace` while pytest runs the suite in
this process (hypothesis seeded with 0 and without deadlines, as tracing
slows every call), then prints each statement that never ran as
`path:line: source`.  Docstrings, `def`, `class` and import lines and
`nonlocal` declarations are not counted, nor is a statement whose lines
hold no bytecode; a compound statement counts by its header.

It also records who calls each package function: the nearest calling
frame outside the standard library and generated `<…>` code (dataclass
and namedtuple methods), other than the function's own.  So a
`cached_property` getter, a dataclass `__post_init__` or an argparse
`type=` callback reached from a package frame counts as called by the
package, and a function that only tests, hypothesis or itself call does
not.  Each function with no package caller is printed as
`path:line: module.qualname`, with its reason when `UNCALLED` lists it;
module bodies, which importing runs, are listed by that rule.  Dunders
count like any other method: `in` and `==` reach them too.  A function
is its `def` or lambda; comprehensions are part of theirs.

Besides pytest it needs only the standard library, and Python 3.11 or
later for qualified names; pytest does not collect it, as its name does
not start with `test_`.

Exit status: the suite's own when it fails; else 1 when an unreached
statement is neither a `raise` nor in an `if __name__ == "__main__":`
block, which only `python -m` runs, or a function with no package caller
is not listed, or a listed one has a package caller or is gone; else 0.
"""

from __future__ import annotations

import ast
import functools
import inspect
import sys
import sysconfig
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boxslash"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Nonlocal)
STDLIB = tuple({str(Path(sysconfig.get_paths()[key])) + "/" for key in ("stdlib", "platstdlib")})
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

#: The functions that no package frame calls in the suite, by module and
#: qualified name, each with its reason.
UNCALLED = {
    "cli.main": "entry point: the console script and python -m boxslash.cli",
    "hexgrid.direction_layer": "export that the end-to-end run of ROADMAP item 1 will call",
    "product.ProductGraph.edge_pairs": "bench/workloads.py reads a product's edges as vertex pairs with it",
    "sequences.Direction.opposite": "bench/checks.py flips a direction table entry with it",
    "layout.EdgeColoring.get": "bench/workloads.py reads an edge's colour with it",
}
MODULE_BODY = "entry point: importing runs it"


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


def code_key(code: types.CodeType) -> tuple[str, int, str]:
    """A function's file, first line and qualified name, which the code
    object that importing made and the one compiled here share."""
    return code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def functions(code: types.CodeType):
    """`code` and each code object nested in it that is a module body or a
    function, comprehensions and class bodies aside."""
    if code.co_name == "<module>" or code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in COMPREHENSIONS:
        yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from functions(const)


def uncalled(path: Path, called: set[types.CodeType]):
    """(line, module.qualname) of each module body and function of `path`
    that no code object in `called` matches, in line order."""
    keys = set(map(code_key, called))
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for function in sorted(functions(code), key=lambda c: c.co_firstlineno):
        if code_key(function) not in keys:
            yield function.co_firstlineno, f"{path.stem}.{code_key(function)[2]}"


@functools.cache
def looked_past(filename: str) -> bool:
    """Whether a caller's frame in `filename` is passed over for the one
    that called it: generated `<…>` code, or the standard library's own
    (third-party packages installed under it aside)."""
    generated = filename.startswith("<") and filename.endswith(">")
    return generated or filename.startswith(STDLIB) and "-packages/" not in filename


def tracer(package: Path, hits: dict[str, set[int]], called: set[types.CodeType]):
    """A `sys.settrace` function that adds each line the package runs to
    `hits`, by file, and the code of each package function that a package
    frame calls to `called`."""
    prefix = str(package) + "/"
    local_tracers: dict[types.CodeType, object] = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code in local_tracers:
            local = local_tracers[code]
        else:
            local = None
            if code.co_filename.startswith(prefix):
                record = hits.setdefault(code.co_filename, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        record(frame.f_lineno)
                    return local
            local_tracers[code] = local
        if local is not None and code not in called:
            caller = frame.f_back
            while caller is not None and looked_past(caller.f_code.co_filename):
                caller = caller.f_back
            if caller is not None and caller.f_code is not code and caller.f_code.co_filename.startswith(prefix):
                called.add(code)
        return local

    return trace


def run_suite(trace) -> int:
    """pytest on tests/ in this process under `trace`."""

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
    called: set[types.CodeType] = set()
    status = run_suite(tracer(PACKAGE, hits, called))
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
    listed, unlisted = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in uncalled(path, called):
            reason = MODULE_BODY if name.endswith(".<module>") else UNCALLED.get(name)
            listed.add(name)
            unlisted += reason is None
            print(f"{path.relative_to(ROOT)}:{line}: {name}  " + (f"({reason})" if reason else "<- no package caller"))
    stale = sorted(UNCALLED.keys() - listed)
    for name in stale:
        print(f"{name}: listed in UNCALLED, but a package frame calls it, or it is gone")
    print(f"{len(listed)} functions no package frame calls, {unlisted} of them not listed; "
          f"{len(stale)} stale entries")
    return 1 if failing or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
