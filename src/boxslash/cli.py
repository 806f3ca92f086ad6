"""Command line front end.

Subcommands:

* gen        build a tree-path product and print it (JSON or DOT)
* layout     print the canonical three-queue layout of a product
* validate   check a layout JSON document as a stack or queue layout
* solve      exact small-instance stack or queue number
* passes     run the thinning pipeline on a graph plus layout
* hex        analyze a two-colored hexagonal grid
* selftest   run the built-in verification suites

Exit status: 0 on success, 1 when a check or validation reports
violations, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
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
    layout_from_json,
    layout_to_json,
    three_queue_layout,
    validate_queue_layout,
    validate_stack_layout,
)
from .passes import check_direction_consistency, run_passes, DirectionTable
from .product import ProductGraph, PVertex, boxslash_product
from .sequences import Direction
from .solver import queue_number, stack_number

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _degrees(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from None
    if not out or any(d < 1 for d in out):
        raise argparse.ArgumentTypeError("degrees must be positive integers")
    return out


def _load_doc(path: str | None):
    if path is None or path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _graph_from_doc(doc):
    """Rebuild a product graph, or fall back to a plain edge list."""
    if isinstance(doc, dict) and "graph" in doc:
        return ProductGraph.from_descriptor(doc["graph"])
    if isinstance(doc, dict) and "tree_degrees" in doc:
        return ProductGraph.from_descriptor(doc)
    if isinstance(doc, dict) and "edges" in doc:
        return [(str(u), str(v)) for u, v in doc["edges"]]
    raise ValueError("graph document needs 'graph', 'tree_degrees', or 'edges'")


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


def cmd_validate(args) -> int:
    doc = _load_doc(args.layout)
    if "graph" in doc:
        graph = ProductGraph.from_descriptor(doc["graph"])
        order, coloring = layout_from_json(doc, parse_vertex=PVertex.parse)
        edges = list(graph.edge_pairs())
    else:
        order, coloring = layout_from_json(doc, parse_vertex=str)
        edges = []
        for key in doc["colors"]:
            u, _, v = key.partition("--")
            edges.append((u, v))
    check = validate_queue_layout if args.queue else validate_stack_layout
    report = check(edges, order, coloring)
    kind = "queue" if args.queue else "stack"
    if report.valid:
        print(f"valid {kind} layout: {len(edges)} edges, {len(order)} vertices")
        return EXIT_OK
    for violation in report.violations[:20]:
        print(
            f"violation: color {violation.color} edges "
            f"{violation.edge_a} and {violation.edge_b} {violation.relation.value}"
        )
    print(f"invalid {kind} layout: {len(report.violations)} violating pairs")
    return EXIT_INVALID


def cmd_solve(args) -> int:
    graph = _graph_from_doc(_load_doc(args.graph))
    fn = queue_number if args.queue else stack_number
    result = fn(graph, upper_limit=args.limit, budget_ms=args.budget_ms)
    doc = result.to_json()
    doc["kind"] = "queue" if args.queue else "stack"
    _emit(doc)
    return EXIT_OK


def cmd_passes_run(args) -> int:
    graph = ProductGraph.from_descriptor(_load_doc(args.graph))
    layout_doc = _load_doc(args.layout)
    order, coloring = layout_from_json(layout_doc, parse_vertex=PVertex.parse)
    targets = args.target_degrees
    result = run_passes(
        graph,
        order,
        coloring,
        colour_targets=targets,
        order_targets=targets,
        lex_targets=targets,
    )
    table_doc = None
    direction_report = None
    if result.direction_table is not None:
        table_doc = result.direction_table.to_json()
        direction_report = check_direction_consistency(result.direction_table)
    doc = {
        "graph": result.graph.descriptor(),
        "node_map": {str(old): str(new) for old, new in sorted(result.node_map.items(), key=lambda kv: str(kv[0]))},
        "layout": layout_to_json(result.order, result.coloring, result.graph),
        "color_table": result.color_table.to_json(),
        "direction_table": table_doc,
        "checks": {
            "child_symmetry": {
                "checked": result.order_report.checked,
                "ok": result.order_report.ok,
                "violations": [str(v) for v in result.order_report.violations[:10]],
            },
            "related_sequences": {
                "checked": result.related_report.checked,
                "ok": result.related_report.ok,
                "violations": [str(v) for v in result.related_report.violations[:10]],
            },
            "direction_consistency": None
            if direction_report is None
            else {
                "checked": direction_report.checked,
                "ok": direction_report.ok,
                "violations": [str(v) for v in direction_report.violations[:10]],
            },
        },
    }
    _emit(doc)
    ok = result.order_report.ok and result.related_report.ok
    if direction_report is not None:
        ok = ok and direction_report.ok
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
        tops = maximal_boundaries(coloring)
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
        witness = top_or_long(coloring, args.s, long_length)
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
# Self test suites.

def _hex_sweep_case(bits: int) -> str | None:
    matrix = [[(bits >> (r * 3 + c)) & 1 for c in range(3)] for r in range(3)]
    coloring = HexColoring.from_matrix(matrix)
    try:
        for line in trace_boundary(coloring):
            problems = line.verify(coloring)
            if problems:
                return f"bits={bits}: {problems[0]}"
        path = monochromatic_spanning_path(coloring)
        if len(path.cells) < 3:
            return f"bits={bits}: spanning path too short"
    except Exception as exc:  # noqa: BLE001 - the suite reports, not crashes
        return f"bits={bits}: {exc!r}"
    return None


def _suite_hex_sweep() -> tuple[bool, str]:
    failures = [r for r in map(_hex_sweep_case, range(512)) if r]
    if failures:
        return False, f"{len(failures)}/512 colorings failed, first: {failures[0]}"
    return True, "512/512 3x3 colorings: lines verified, spanning path found"


def _suite_tiny_layouts(rng: random.Random) -> tuple[bool, str]:
    def complete(n: int):
        return [
            (f"v{i}", f"v{j}") for i, j in itertools.combinations(range(1, n + 1), 2)
        ]

    star = [("hub", f"leaf{i}") for i in range(1, 6)]
    expectations = [
        ("stack", complete(4), 2),
        ("stack", complete(5), 3),
        ("queue", complete(4), 2),
        ("queue", star, 1),
    ]
    for kind, edges, expected in expectations:
        fn = stack_number if kind == "stack" else queue_number
        check = validate_stack_layout if kind == "stack" else validate_queue_layout
        result = fn(edges)
        if not result.exact or result.value != expected:
            return False, f"{kind} number of a {len(edges)}-edge graph: got {result.value}, want {expected}"
        if not check(edges, result.order, result.coloring).valid:
            return False, f"{kind} witness failed validation"
    for trial in range(3):
        names = [f"n{i}" for i in range(1, 7)]
        pool = list(itertools.combinations(names, 2))
        edges = rng.sample(pool, 6)
        for kind, fn, check in (
            ("stack", stack_number, validate_stack_layout),
            ("queue", queue_number, validate_queue_layout),
        ):
            result = fn(edges)
            if not result.exact:
                return False, f"random trial {trial}: {kind} solve was not exact"
            if not check(edges, result.order, result.coloring).valid:
                return False, f"random trial {trial}: {kind} witness invalid"
    return True, "known small values and random 6-edge witnesses all check out"


def _suite_monotone() -> tuple[bool, str]:
    from .passes import find_monotone_subsequence

    for perm in itertools.permutations(range(5)):
        found = find_monotone_subsequence(list(perm), 3)
        if found is None:
            return False, f"no length-3 monotone run in {perm}"
        rising = all(a < b for a, b in zip(found, found[1:]))
        falling = all(a > b for a, b in zip(found, found[1:]))
        if len(found) < 3 or not (rising or falling):
            return False, f"bad witness {found} for {perm}"
    return True, "all 120 permutations of 5 yield a monotone triple"


def _suite_corrupted_table() -> tuple[bool, str]:
    entries = {}
    for i in range(1, 4):
        for j in range(i, 4):
            entries[(i, j, 1)] = Direction.INC
    # Same direction at the deeper level but a flip below it: the
    # propagation check must name this.
    entries[(1, 2, 1)] = Direction.DEC
    table = DirectionTable(3, 1, entries)
    report = check_direction_consistency(table)
    if report.ok:
        return False, "corrupted table passed the consistency check"
    return True, f"corruption caught: {report.violations[0]}"


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    suites = [
        ("hex-sweep-3x3", _suite_hex_sweep),
        ("small-layouts", lambda: _suite_tiny_layouts(rng)),
        ("monotone-five", _suite_monotone),
        ("corrupted-table", _suite_corrupted_table),
    ]
    failed = 0
    for name, run in suites:
        ok, detail = run()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_INVALID


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
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

    p_self = sub.add_parser("selftest", help="built-in verification suites")
    p_self.add_argument("--seed", type=int, default=0, help="seed for the randomized spot checks")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
