"""Every name a package module imports is read somewhere in that module,
and every name the package exports, and every member its classes define,
is read by one of its modules."""

import ast
from pathlib import Path

import pytest

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


def test_every_export_is_read_by_a_package_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    read = set().union(*(names_read((PACKAGE / module).read_text(encoding="utf-8")) for module in MODULES))
    # direction_layer waits for the end-to-end path of ROADMAP item 1, which reads it.
    assert [name for name in exported if name not in read] == ["direction_layer"]


def unread_members(sources: list[str]) -> list[str]:
    """Methods and properties, dunders aside, that a class in ``sources``
    defines and that no source reads as an attribute, as Class.member.

    Members match by name alone, so the scan cannot tell two classes'
    members of one name apart: a read of ``x.color`` counts for
    ``HexColoring.color`` and for any other class's ``color``, and the
    same holds for ``to_json``.  So it let ``DirectionTable.from_json``
    and ``HexColoring.to_json`` through while only tests read them,
    because ``HexColoring.from_json`` and ``ColorTable.to_json`` are
    read; both are deleted now."""
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
    sources = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    assert unread_members(sources) == [
        "ProductGraph.edge_pairs",  # bench/workloads.py reads a product's edges as vertex pairs with it
        "Direction.opposite",  # bench/checks.py flips a direction table entry with it
    ]
