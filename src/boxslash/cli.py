"""Command line front end.

Subcommands:

* gen        build a tree-path product and print it (JSON or DOT)
* layout     print the canonical three-queue layout of a product
* validate   check a layout JSON document as a stack or queue layout
* solve      exact small-instance stack or queue number
* passes     run the thinning pipeline on a graph plus layout
* hex        analyze a two-colored hexagonal grid

Exit status: 0 on success, 1 when a check or validation reports
violations, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BoxslashError, InconsistencyError, SizeLimitError
from .hexgrid import (
    HexColoring,
    cut_points,
    maximal_boundaries,
    monochromatic_spanning_path,
    top_or_long,
    trace_boundary,
    TopCellsWitness,
)
from .layout import (
    LinearOrder,
    layout_from_json,
    layout_to_json,
    three_queue_layout,
    validate_queue_layout,
    validate_stack_layout,
)
from .passes import check_direction_consistency, run_passes
from .product import ProductGraph, PVertex, boxslash_product
from .solver import queue_number, stack_number

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from None


def _load_doc(path: str | None) -> dict:
    """Read a JSON object from a file, or from stdin (so named) for no path or "-"."""
    if path in (None, "-"):
        path, doc = "stdin", json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_gen(args) -> int:
    graph = boxslash_product(args.degrees, args.path)
    if args.dot:
        sys.stdout.write(graph.to_dot())
        return EXIT_OK
    counts = graph.edge_counts()
    _emit(
        {
            "graph": graph.descriptor(),
            "vertex_count": len(graph.vertices),
            "edge_count": len(graph.edges),
            "edge_counts": {kind.value: c for kind, c in counts.items()},
            "vertices": [str(v) for v in graph.vertices],
            "edges": [[str(u), str(v), kind.value] for u, v, kind in graph.edges],
        }
    )
    return EXIT_OK


def cmd_layout(args) -> int:
    graph = boxslash_product(args.degrees, args.path)
    order, coloring = three_queue_layout(graph)
    doc = layout_to_json(order, coloring, graph)
    doc["graph"] = graph.descriptor()
    _emit(doc)
    return EXIT_OK


def _product_layout(graph: ProductGraph, doc: dict):
    """The order and colouring of a layout document on a product, which
    must order exactly its vertices and colour only its edges.  Each
    vertex is parsed once and checked by its vertex id; the order is
    returned on the product's vertex view, ranked by id."""
    order, coloring = layout_from_json(doc, parse_vertex=PVertex.parse)
    id_of = graph.vertices.id_of
    ids = list(map(id_of, order))
    if None in ids:
        raise ValueError(f"order has vertex {order.vertices[ids.index(None)]}, which is not in the graph")
    if len(ids) < len(graph):
        missing = min(set(range(len(graph))).difference(ids))
        raise ValueError(f"order misses vertex {graph.vertices[missing]} of the graph")
    for (u, v), _ in coloring.edges():  # each key once, as first spelt, in document order
        if graph.edge_id(id_of(u), id_of(v)) is None:
            raise ValueError(f"colour key '{u}--{v}' is not an edge of the graph")
    return LinearOrder(graph.vertices.reordered(ids)), coloring


def cmd_validate(args) -> int:
    doc = _load_doc(args.layout)
    if "graph" in doc:
        graph = ProductGraph.from_descriptor(doc["graph"])
        order, coloring = _product_layout(graph, doc)
        edges = graph.edges
    else:
        order, coloring = layout_from_json(doc, parse_vertex=str)
        graph = edges = [key.partition("--")[::2] for key in doc["colors"]]
    check = validate_queue_layout if args.queue else validate_stack_layout
    report = check(graph, order, coloring)
    kind = "queue" if args.queue else "stack"
    if report.valid:
        print(f"valid {kind} layout: {len(edges)} edges, {len(order)} vertices")
        return EXIT_OK
    for violation in report.violations[:20]:
        a, b = ("--".join(map(str, edge)) for edge in (violation.edge_a, violation.edge_b))
        print(f"violation: color {violation.color} edges {a} and {b} {violation.relation.value}")
    print(f"invalid {kind} layout: {len(report.violations)} violating pairs")
    return EXIT_INVALID


def cmd_solve(args) -> int:
    fn = queue_number if args.queue else stack_number
    result = fn(_load_doc(args.graph), upper_limit=args.limit, budget_ms=args.budget_ms)
    doc = result.to_json()
    doc["kind"] = "queue" if args.queue else "stack"
    _emit(doc)
    return EXIT_OK


def _report_doc(report) -> dict:
    violations = [str(v) for v in report.violations[:10]]
    return {"checked": report.checked, "ok": report.ok, "violations": violations}


def cmd_passes_run(args) -> int:
    doc = _load_doc(args.graph)
    graph = ProductGraph.from_descriptor(doc.get("graph", doc))  # gen's and layout's output too
    order, coloring = _product_layout(graph, _load_doc(args.layout))
    targets = args.target_degrees
    result = run_passes(
        graph, order, coloring, colour_targets=targets, order_targets=targets, lex_targets=targets
    )
    table = result.direction_table
    reports = {
        "child_symmetry": result.order_report,
        "related_sequences": result.related_report,
        "direction_consistency": None if table is None else check_direction_consistency(table),
    }
    doc = {
        "graph": result.graph.descriptor(),
        "node_map": {str(old): str(new) for old, new in sorted(result.node_map.items(), key=lambda kv: str(kv[0]))},
        "layout": layout_to_json(result.order, result.coloring, result.graph),
        "color_table": result.color_table.to_json(),
        "direction_table": None if table is None else table.to_json(),
        "checks": {name: None if r is None else _report_doc(r) for name, r in reports.items()},
    }
    _emit(doc)
    ok = all(r.ok for r in reports.values() if r is not None)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_hex_analyze(args) -> int:
    coloring = HexColoring.from_json(_load_doc(args.coloring))
    grid = coloring.grid
    lines = trace_boundary(coloring)
    line_docs = []
    bad = 0
    for line in lines:
        problems = line.verify(coloring)
        bad += bool(problems)
        line_docs.append(
            {
                "length": line.length,
                "closed": line.closed,
                "color_a": line.color_a.value,
                "color_b": line.color_b.value,
                "violations": problems[:5],
            }
        )
    path = monochromatic_spanning_path(coloring)
    try:
        tops = maximal_boundaries(coloring, lines)
        tops_doc = {
            "all": [[tb.left, tb.right, tb.line.length] for tb in tops.all],
            "maximal": [[tb.left, tb.right] for tb in tops.maximal],
            "flagged": len(tops.flagged),
        }
    except InconsistencyError as exc:
        bad += 1
        tops_doc = {"error": str(exc)}
    long_length = args.long_length if args.long_length is not None else grid.rows
    try:
        witness = top_or_long(coloring, args.s, long_length, lines)
        if isinstance(witness, TopCellsWitness):
            dichotomy = {
                "witness": "top_cells",
                "color": witness.color.value,
                "cells": [list(c) for c in witness.cells],
                "component_size": witness.component_size,
            }
        else:
            dichotomy = {
                "witness": "long_boundary",
                "length": witness.line.length,
                "closed": witness.line.closed,
            }
    except SizeLimitError as exc:
        dichotomy = {"skipped": str(exc)}
    _emit(
        {
            "grid": [grid.rows, grid.cols],
            "cut_points": cut_points(coloring),
            "spanning_path": {
                "color": path.color.value,
                "axis": path.axis,
                "cells": [list(c) for c in path.cells],
            },
            "boundaries": line_docs,
            "top_boundaries": tops_doc,
            "dichotomy": dichotomy,
        }
    )
    return EXIT_INVALID if bad else EXIT_OK


# ---------------------------------------------------------------------------
# Parser.

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="boxslash",
        description="Tree-path products, their layouts, and the analyses on top.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="build a tree-path product")
    p_gen.add_argument("--degrees", type=_degrees, required=True, help="per-level child counts, e.g. 2,2")
    p_gen.add_argument("--path", type=int, required=True, help="number of path positions")
    p_gen.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p_gen.set_defaults(func=cmd_gen)

    p_layout = sub.add_parser("layout", help="canonical three-queue layout of a product")
    p_layout.add_argument("--three-queue", action="store_true", required=True, help="emit the three-queue layout")
    p_layout.add_argument("--degrees", type=_degrees, required=True)
    p_layout.add_argument("--path", type=int, required=True)
    p_layout.set_defaults(func=cmd_layout)

    p_val = sub.add_parser("validate", help="validate a layout JSON document")
    which = p_val.add_mutually_exclusive_group(required=True)
    which.add_argument("--stack", action="store_true", help="no same-color pair may cross")
    which.add_argument("--queue", action="store_true", help="no same-color pair may nest")
    p_val.add_argument("--layout", help="layout JSON file (default stdin)")
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="exact small-instance page counts")
    which = p_solve.add_mutually_exclusive_group(required=True)
    which.add_argument("--stack", action="store_true")
    which.add_argument("--queue", action="store_true")
    p_solve.add_argument("--graph", required=True, help="graph JSON file")
    p_solve.add_argument("--limit", type=int, default=None, help="cap on the page count tried")
    p_solve.add_argument("--budget-ms", type=float, default=None, help="time budget in milliseconds")
    p_solve.set_defaults(func=cmd_solve)

    p_passes = sub.add_parser("passes", help="thinning pipeline")
    passes_sub = p_passes.add_subparsers(dest="passes_command", required=True)
    p_run = passes_sub.add_parser("run", help="run colour, order, and lex passes")
    p_run.add_argument("--graph", required=True, help="product descriptor JSON file")
    p_run.add_argument("--layout", required=True, help="layout JSON file")
    p_run.add_argument(
        "--target-degrees",
        type=_degrees,
        default=None,
        help="per-level child counts every pass must keep (default: keep as much as possible)",
    )
    p_run.set_defaults(func=cmd_passes_run)

    p_hex = sub.add_parser("hex", help="hexagonal grid analyses")
    hex_sub = p_hex.add_subparsers(dest="hex_command", required=True)
    p_an = hex_sub.add_parser("analyze", help="boundary lines, cuts, spanning path, dichotomy")
    p_an.add_argument("--coloring", required=True, help="grid coloring JSON file")
    p_an.add_argument("--s", type=int, default=1, help="top cells sought minus one")
    p_an.add_argument("--long-length", type=int, default=None, help="boundary length threshold (default: grid rows)")
    p_an.set_defaults(func=cmd_hex_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (BoxslashError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
