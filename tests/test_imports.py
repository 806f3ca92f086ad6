"""Every name a package module imports is read somewhere in that module,
and every name the package exports is read by one of its modules."""

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
