"""Every name a package module imports is read somewhere in that module,
and every name the package exports, and every member its classes define,
is read by one of its modules, apart from the functions that
statement_coverage.UNCALLED lists with their reasons.  That script checks
the calls these scans cannot see; its caller rule is tested here too."""

import argparse
import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import statement_coverage

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxslash"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``from __future__`` excepted) that no
    Name node reads; an attribute base such as ``math`` in ``math.prod``
    is a Name node too."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport operator, os.path\nfrom .x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["operator", "a"]


def names_read(source: str) -> set[str]:
    """Names read as a Name node or as an attribute, as in ``layout.x``."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def uncalled(members: bool) -> set[str]:
    """The qualified names of the functions, or of the class members,
    that statement_coverage.UNCALLED lists with its reasons: the one home
    of the exceptions to the guards here."""
    names = (key.partition(".")[2] for key in statement_coverage.UNCALLED)
    return {name for name in names if ("." in name) == members}


def test_every_export_is_read_by_a_package_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    read = set().union(*(names_read((PACKAGE / module).read_text(encoding="utf-8")) for module in MODULES))
    assert [name for name in exported if name not in read] == [name for name in exported if name in uncalled(False)]


def unread_members(sources: list[str]) -> list[str]:
    """Methods and properties, dunders aside, that a class in ``sources``
    defines and that no source reads as an attribute, as Class.member.

    The scan has two blind spots.  It skips dunders, which ``in``, ``==``
    and the like reach without an attribute read, so the product views'
    ``__contains__`` and ``__eq__``, which only tests reached, passed it.
    And members match by name alone, so it cannot tell two classes'
    members of one name apart: a read of ``x.get`` counts for
    ``EdgeColoring.get`` and for any other class's ``get``.  So it let
    ``DirectionTable.from_json`` and ``HexColoring.to_json`` through while
    only tests read them (both deleted), and lets ``EdgeColoring.get``
    through, which only bench/ reads, as ``dict.get`` is read.
    statement_coverage.py covers both: it fails on any package function,
    dunders included, that no package frame calls while the suite runs,
    apart from the functions it lists."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{cls.name}.{f.name}" for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__")) and f.name not in read]


def test_the_scan_finds_an_unread_member():
    source = ("class A:\n    def f(self): ...\n    def g(self): ...\n    def __len__(self): ...\n"
              "    @property\n    def h(self): ...\nA().g()\n")
    assert unread_members([source]) == ["A.f", "A.h"]


def test_every_class_member_is_read_by_a_package_module():
    # A listed member whose name some source reads, as EdgeColoring.get is
    # read as dict.get, is one the scan cannot see.
    sources = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    assert sorted(unread_members(sources)) == sorted(
        name for name in uncalled(True) if name.rpartition(".")[2] not in read)


SYNTHETIC = """\
import argparse
from dataclasses import dataclass
from functools import cached_property


class Box:
    @cached_property
    def size(self):
        return 3


@dataclass
class Spec:
    n: int

    def __post_init__(self):
        self.n = int(self.n)


def count(text):
    return int(text)


def entry():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=count)
    return Box().size, Spec(1), parser.parse_args(["--count", "2"])


def tested(text):
    return int(text)


def countdown(n):
    return n and countdown(n - 1)
"""


def test_the_caller_rule_looks_past_the_standard_library_to_a_package_frame(tmp_path):
    # The synthetic module stands for the package.  Its own frame reaches a
    # cached_property getter, a dataclass __post_init__ (through generated
    # code) and an argparse type= callback through the standard library;
    # the test's frame calls the module body, entry, tested (through
    # argparse too) and countdown, which then calls itself.
    path = tmp_path / "synthetic_callers.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("synthetic_callers", path)
    module = importlib.util.module_from_spec(spec)
    hits, called = {}, set()
    previous = sys.gettrace()  # the tracer of statement_coverage.py, when it runs the suite
    sys.modules[spec.name] = module
    sys.settrace(statement_coverage.tracer(tmp_path, hits, called))
    try:
        spec.loader.exec_module(module)
        module.entry()
        parser = argparse.ArgumentParser()
        parser.add_argument("--n", type=module.tested)
        parser.parse_args(["--n", "1"])
        module.countdown(2)
    finally:
        sys.settrace(previous)
        del sys.modules[spec.name]
    assert [name for _, name in statement_coverage.uncalled(path, called)] == [
        "synthetic_callers.<module>", "synthetic_callers.entry",
        "synthetic_callers.tested", "synthetic_callers.countdown",
    ]
    assert {9, 17, 21, 27, 31, 35} <= hits[str(path)]  # each function's body ran
