"""Seeded instance lists for the four workloads, and their verdict checks.

Each workload has two halves.  `describe_<name>(seed)` turns a seed into
a list of plain descriptors (JSON-able dicts): the same seed always
gives the same list.  `load_<name>(bx, descriptors, workdir)` turns the
descriptors into Instances whose inputs are built with the program's
own types.  An Instance's `run` makes the whole call sequence and
returns the program's outputs; its `check` runs outside the timed
region and returns None, or a sentence naming what is wrong.

Expected answers never come from boxslash: they come from oracles.py,
from tests/helpers_naive.py (directly, or through solve_table.json,
which make_solve_table.py writes), or from what the input construction
guarantees.  Every returned witness is re-checked.

Instance sizes are drawn per stratum: the seed picks among the few
candidates closest to each stratum's target size, so that two seeds
give lists of nearly equal cost while still differing in shape.

Every list is 25 or 105 long (LIST_LENGTHS).  The end-to-end metrics
are taken over per-instance times, so an odd length puts the median on
one instance, and the 90th percentile (statistics.quantiles, exclusive
method) falls between the 23rd and 24th of 25, or the 95th and 96th of
105.  Where they fall, each list holds fixed instances.

`bx` is a namespace of the freshly imported boxslash modules.  Calls go
through module attributes at call time so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import helpers_naive  # noqa: E402


class Instance:
    """One unit of work: a timed call sequence and an untimed check."""

    def __init__(self, label: str, run, check, northstar: str | None = None, cost: float = 0.0):
        self.label = label
        self.run = run
        self.check = check
        self.northstar = northstar
        self.cost = cost


class _Ladder:
    """Candidates sorted by size, drawn without replacement near targets."""

    def __init__(self, candidates, size):
        self.ranked = sorted(candidates, key=lambda c: (size(c), repr(c)))
        self.sizes = [size(c) for c in self.ranked]
        self.used: set[int] = set()

    def draw(self, target: float, rng: random.Random, pool: int):
        """A seeded pick among the `pool` unused candidates nearest the target."""
        hi = bisect.bisect_left(self.sizes, target)
        lo = hi - 1
        near = []
        while len(near) < pool and (lo >= 0 or hi < len(self.ranked)):
            if hi < len(self.ranked) and (lo < 0 or self.sizes[hi] - target <= target - self.sizes[lo]):
                k, hi = hi, hi + 1
            else:
                k, lo = lo, lo - 1
            if k not in self.used:
                near.append(k)
        k = rng.choice(near)
        self.used.add(k)
        return self.ranked[k]


def _vkey(v) -> tuple:
    """Product vertex as the oracle's (path, pos) pair."""
    return (tuple(v.node.path), v.pos)


# ---------------------------------------------------------------------------
# layout: build a product, lay it out in three queues, validate every way.

#: Target edge counts, one drawn instance each: ten below the middle
#: block, seven above it.  Many small instances let a run collect enough
#: verdicts quickly.
LAYOUT_TARGETS = (60, 60, 65, 70, 80, 85, 90, 100, 110, 120,
                  180, 200, 200, 220, 240, 270, 300)
#: Fixed instances: a middle block of about 140 edges, where the median
#: falls, and on top the North-star (5,5)x8 (667 edges), (2,2,2)x10 (401)
#: and (3,3,3)x4 (393), where the 90th percentile falls.  Neither
#: percentile then depends on the draw: at one edge count, the cost of
#: stack_pages_for_order still varies twofold with the shape.
LAYOUT_FIXED = (((2, 2), 8, None), ((7,), 7, None), ((6,), 8, None), ((3, 5), 3, None),
                ((3, 1), 8, None),
                ((5, 5), 8, "layout (5,5)x8"), ((2, 2, 2), 10, None), ((3, 3, 3), 4, None))


@functools.lru_cache(maxsize=1)
def _layout_shapes() -> tuple:
    fixed = {(degrees, m) for degrees, m, _ in LAYOUT_FIXED}
    out = []
    for height in (1, 2, 3):
        for degrees in itertools.product(range(1, 13), repeat=height):
            for m in range(3, 17):
                e = oracles.edge_count(degrees, m)
                if 50 <= e <= 400 and (degrees, m) not in fixed:
                    out.append((degrees, m, e))
    return tuple(out)


def describe_layout(seed: int) -> list[dict]:
    rng = random.Random(f"layout-{seed}")
    shapes = _Ladder(_layout_shapes(), lambda s: s[2])
    picked = []
    for target in LAYOUT_TARGETS:
        degrees, m, e = shapes.draw(target, rng, 4)
        picked.append({"degrees": list(degrees), "m": m, "edges": e})
    for degrees, m, northstar in LAYOUT_FIXED:
        d = {"degrees": list(degrees), "m": m, "edges": oracles.edge_count(degrees, m)}
        if northstar:
            d["northstar"] = northstar
        picked.append(d)
    rng.shuffle(picked)
    return picked


class _LayoutExpected:
    def __init__(self, degrees, m):
        edges = oracles.product_edges(degrees, m)
        self.rank = oracles.canonical_rank(degrees, m)
        self.color = {frozenset((u, v)): oracles.QUEUE_OF_KIND[k] for u, v, k in edges}
        spans = oracles.spans([(u, v) for u, v, _ in edges], self.rank)
        kinds = [oracles.QUEUE_OF_KIND[k] for _, _, k in edges]
        self.rainbow = oracles.max_rainbow(spans)
        self.nestings = oracles.count_nestings(spans, kinds)
        self.crossings = oracles.count_crossings(spans, kinds)
        self.exact_pages: int | None = None


def _check_layout(out, expected: _LayoutExpected) -> str | None:
    graph, order, coloring, queue_report, queues, pages, pages_report, stack_report = out
    verts = [_vkey(v) for v in order.vertices]
    if len(verts) != len(expected.rank) or any(
        expected.rank.get(v) != r for r, v in enumerate(verts)
    ):
        return "three_queue_layout order is not the canonical product order"
    edge_pairs = list(graph.edge_pairs())
    pairs = [(_vkey(u), _vkey(v)) for u, v in edge_pairs]
    if len(pairs) != len(expected.color) or {frozenset(p) for p in pairs} != set(expected.color):
        return "product edges differ from the definition"
    if any(coloring.get(u, v) != expected.color[frozenset(p)] for (u, v), p in zip(edge_pairs, pairs)):
        return "three-queue colouring is not one queue per edge kind"
    if queue_report.valid != (expected.nestings == 0) or len(queue_report.violations) != expected.nestings:
        return f"validate_queue_layout: {len(queue_report.violations)} violations, expected {expected.nestings}"
    spans = oracles.spans(pairs, expected.rank)
    qcolors = [queues.colors.get(u, v) for u, v in edge_pairs]
    if queues.count != expected.rainbow:
        return f"queues_for_order: {queues.count} queues, max rainbow is {expected.rainbow}"
    if None in qcolors or oracles.count_nestings(spans, qcolors) or len(set(qcolors)) > queues.count:
        return "queues_for_order witness is not a queue layout within its count"
    pcolors = [pages.colors.get(u, v) for u, v in edge_pairs]
    if None in pcolors or oracles.count_crossings(spans, pcolors):
        return "stack_pages_for_order witness has a same-page crossing"
    if pages.count != len(set(pcolors)):
        return f"stack_pages_for_order: count {pages.count} but {len(set(pcolors))} pages used"
    if pages.exact:
        if expected.exact_pages is None:
            expected.exact_pages = helpers_naive.min_pages_for_position(pairs, expected.rank)
        if pages.count != expected.exact_pages:
            return "stack_pages_for_order claims exact but misses the chromatic number"
    if not pages_report.valid or pages_report.violations:
        return "validate_stack_layout rejected a valid stack witness"
    if stack_report.valid != (expected.crossings == 0) or len(stack_report.violations) != expected.crossings:
        return (f"validate_stack_layout on the queue colouring: {len(stack_report.violations)} "
                f"violations, expected {expected.crossings}")
    return None


def load_layout(bx, descriptors, workdir) -> list[Instance]:
    out = []
    for d in descriptors:
        degrees, m = tuple(d["degrees"]), d["m"]

        def run(degrees=degrees, m=m):
            product, layout = bx.product, bx.layout
            graph = product.boxslash_product(degrees, m)
            order, coloring = layout.three_queue_layout(graph)
            queue_report = layout.validate_queue_layout(graph, order, coloring)
            queues = layout.queues_for_order(graph, order)
            pages = layout.stack_pages_for_order(graph, order)
            pages_report = layout.validate_stack_layout(graph, order, pages.colors)
            stack_report = layout.validate_stack_layout(graph, order, coloring)
            return graph, order, coloring, queue_report, queues, pages, pages_report, stack_report

        cache: dict = {}

        def check(output, degrees=degrees, m=m, cache=cache):
            if "e" not in cache:
                cache["e"] = _LayoutExpected(degrees, m)
            return _check_layout(output, cache["e"])

        out.append(Instance(f"layout {degrees}x{m} ({d['edges']} edges)", run, check,
                            d.get("northstar"), d["edges"] ** 2))
    return out


# ---------------------------------------------------------------------------
# pipeline: run_passes on canonical, reversed and scrambled layouts.

#: Canonical and reversed shapes are drawn by the number of comparisons
#: check_child_symmetry makes, which is most of their cost.  The targets
#: leave a gap around the fixed middle block below.
PIPELINE_STRATA = (
    ("canonical", (300, 500, 800, 3400, 5500, 9000)),
    ("reversed", (400, 650, 1050, 4400, 7000)),
)
#: Scrambled shapes are fixed: their cost depends on shape in ways no
#: simple size captures.  The seed draws their permutations and colours.
PIPELINE_SCRAMBLED = (((3, 3), 5), ((4, 4), 4), ((3, 3), 10), ((5, 5), 4),
                      ((5, 5), 8), ((6, 6), 6))
#: Fixed instances: a middle block, where the median falls, and the
#: North-star shapes on top, where the 90th percentile falls, each run
#: canonical and reversed.  Neither percentile then depends on the draw.
PIPELINE_FIXED = (
    ("canonical", (2, 9), 4, None),
    ("reversed", (2, 9), 4, None),
    ("canonical", (4, 4), 4, None),
    ("reversed", (4, 4), 4, None),
    ("canonical", (5, 5), 8, "run_passes (5,5)x8"),
    ("canonical", (3, 3, 3), 6, "run_passes (3,3,3)x6"),
    ("reversed", (5, 5), 8, None),
    ("reversed", (3, 3, 3), 6, None),
)


@functools.lru_cache(maxsize=1)
def _pipeline_shapes() -> tuple:
    fixed = {(degrees, m) for _, degrees, m, _ in PIPELINE_FIXED} | set(PIPELINE_SCRAMBLED)
    out = []
    for height in (1, 2, 3):
        for degrees in itertools.product(range(2, 10), repeat=height):
            for m in range(2, 11):
                if len(oracles.tree_nodes(degrees)) * m <= 350 and (degrees, m) not in fixed:
                    out.append((degrees, m, oracles.child_symmetry_checks(degrees, m)))
    return tuple(out)


def describe_pipeline(seed: int) -> list[dict]:
    rng = random.Random(f"pipeline-{seed}")
    shapes = _Ladder(_pipeline_shapes(), lambda s: s[2])
    picked = []
    for kind, targets in PIPELINE_STRATA:
        for target in targets:
            degrees, m, checks = shapes.draw(target, rng, 3)
            picked.append({"kind": kind, "degrees": list(degrees), "m": m})
    for degrees, m in PIPELINE_SCRAMBLED:
        perms = [rng.sample(range(1, d + 1), d) for d in degrees]
        special = [rng.randint(1, d) for d in degrees]
        picked.append({"kind": "scrambled", "degrees": list(degrees), "m": m,
                       "perms": perms, "special": special})
    for kind, degrees, m, northstar in PIPELINE_FIXED:
        d = {"kind": kind, "degrees": list(degrees), "m": m}
        if northstar:
            d["northstar"] = northstar
        picked.append(d)
    rng.shuffle(picked)
    return picked


def pipeline_input(d) -> tuple[dict, dict, list | None]:
    """Input order (oracle vertex -> rank), colouring and lex targets."""
    degrees, m, kind = tuple(d["degrees"]), d["m"], d["kind"]
    rank = oracles.canonical_rank(degrees, m)
    color = {}
    for u, v, k in oracles.product_edges(degrees, m):
        color[(u, v)] = oracles.QUEUE_OF_KIND[k]
    if kind == "reversed":
        top = len(rank) - 1
        rank = {v: top - r for v, r in rank.items()}
        return rank, color, None
    if kind == "canonical":
        return rank, color, None
    # Scrambled: renumber the children of every level by that level's
    # permutation, and give one child per level its own horizontal colour,
    # which the colour pass must thin away.  Lex targets stay within the
    # Erdos-Szekeres bound for the d-1 children left, so they must be met.
    perms, special = d["perms"], d["special"]
    verts = sorted(rank, key=lambda v: (v[1], len(v[0]),
                                        tuple(perms[k][c - 1] for k, c in enumerate(v[0]))))
    rank = {v: r for r, v in enumerate(verts)}
    for (u, v) in color:
        path = u[0]
        if u[0] == v[0] and path and path[-1] == special[len(path) - 1]:
            color[(u, v)] = 3
    targets = [math.isqrt(deg - 2) + 1 for deg in degrees]  # ceil(sqrt(deg - 1))
    return rank, color, targets


def _check_pipeline(result, d, rank, targets) -> str | None:
    degrees, m, kind = tuple(d["degrees"]), d["m"], d["kind"]
    want = degrees if targets is None else tuple(targets)
    got = tuple(result.graph.tree.spec.degrees)
    if got != want or result.graph.path_len != m:
        return f"final degrees {got}, expected {want}"
    checks = oracles.child_symmetry_checks(want, m)
    if not result.order_report.ok or result.order_report.checked != checks:
        return (f"child symmetry: ok={result.order_report.ok}, "
                f"{result.order_report.checked} checks, expected {checks}")
    related = oracles.related_family_checks(want, m)
    if not result.related_report.ok or result.related_report.checked != related:
        return (f"related families: ok={result.related_report.ok}, "
                f"{result.related_report.checked} checks, expected {related}")
    inverse = {new: old for old, new in result.node_map.items()}
    previous = -1
    for v in result.order.vertices:
        r = rank[(tuple(inverse[v.node].path), v.pos)]
        if r <= previous:
            return "final order is not the input order restricted to the kept vertices"
        previous = r
    for u, v, k in result.graph.edges:
        if result.coloring.get(u, v) != oracles.QUEUE_OF_KIND[k.value]:
            return "final colouring is not one colour per edge kind"
    for (depth, pos, k), c in result.color_table.entries.items():
        if c != oracles.QUEUE_OF_KIND[k.value]:
            return "colour table disagrees with the edge kinds"
    table = result.direction_table
    if min(want) < 2:
        return None if table is None else "direction table present with a one-child level"
    if table is None:
        return "direction table missing"
    final_rank = {_vkey(v): k for k, v in enumerate(result.order.vertices)}
    observed = oracles.rank_array_directions(want, m, final_rank)
    forced = {"canonical": "inc", "reversed": "dec"}.get(kind)
    for key, direction in observed.items():
        entry = table.direction(*key).value
        if direction == "mixed" or entry != direction:
            return f"direction table entry {key} is {entry}, rank arrays say {direction}"
        if forced and entry != forced:
            return f"direction table entry {key} is {entry}, expected {forced}"
    if len(table.entries) != len(observed):
        return "direction table has entries outside its domain"
    return None


def load_pipeline(bx, descriptors, workdir) -> list[Instance]:
    out = []
    for d in descriptors:
        degrees, m = tuple(d["degrees"]), d["m"]
        rank, color, targets = pipeline_input(d)
        graph = bx.product.boxslash_product(degrees, m)
        pv = {_vkey(v): v for v in graph.vertices}
        order = bx.layout.LinearOrder(sorted(graph.vertices, key=lambda v: rank[_vkey(v)]))
        coloring = bx.layout.EdgeColoring({(pv[u], pv[v]): c for (u, v), c in color.items()})

        def run(graph=graph, order=order, coloring=coloring, targets=targets):
            return bx.passes.run_passes(graph, order, coloring, lex_targets=targets)

        def check(result, d=d, rank=rank, targets=targets):
            return _check_pipeline(result, d, rank, targets)

        label = f"pipeline {d['kind']} {degrees}x{m}"
        out.append(Instance(label, run, check, d.get("northstar"),
                            oracles.child_symmetry_checks(degrees, m)))
    return out


# ---------------------------------------------------------------------------
# solve: exact stack and queue numbers of graphs on 5-8 vertices.

@functools.lru_cache(maxsize=1)
def solve_table() -> dict:
    return json.loads((HERE / "solve_table.json").read_text())


#: Random graphs per list: (vertices, stack number, queue number, edges or
#: None for any, count).  Lists are split by answer because the answer
#: fixes how many orders the solver scans, which is most of an instance's
#: cost.  SOLVE_DRAWS are sampled by seed.  SOLVE_FIXED are the first
#: graphs of their class in the pool, the same in every list: the median
#: falls among the 6-vertex graphs with both numbers 2, and the 90th
#: percentile among the 8-vertex graphs, K7 and the products, so neither
#: depends on the draw.  (Drawn, the 8-vertex graphs' costs of 80-320 ms
#: moved the 90th percentile by up to 15% from seed to seed.)
SOLVE_DRAWS = (
    (6, 1, 1, None, 3), (6, 2, 1, None, 2), (6, 3, 2, None, 2),
    (7, 1, 1, None, 4), (7, 2, 1, None, 2), (7, 3, 2, None, 2),
    (7, 2, 2, 10, 1), (7, 2, 2, 11, 3), (7, 2, 2, 12, 2), (7, 2, 2, 13, 2),
)
SOLVE_FIXED = ((6, 2, 2, 9, 7), (6, 2, 2, 10, 3), (6, 2, 2, 11, 5),
               (8, 1, 1, None, 1), (8, 2, 1, None, 1), (8, 3, 2, None, 2),
               (8, 2, 2, 12, 1), (8, 2, 2, 13, 2))
#: One more 6-vertex graph with both numbers 1, solved for its queue
#: number only, makes the list 105 long (see LIST_LENGTHS).
SOLVE_SINGLE = (6, 1, 1, None, "queue")


def _solve_class(n, stack, queue, edges) -> list[int]:
    return [k for k, e in enumerate(solve_table()["pool"])
            if (e["n"], e["stack"], e["queue"]) == (n, stack, queue)
            and edges in (None, len(e["edges"]))]


def describe_solve(seed: int) -> list[dict]:
    rng = random.Random(f"solve-{seed}")
    table = solve_table()
    picked = []
    for entry in table["fixed"]:
        for kind in ("stack", "queue"):
            picked.append({"name": entry["name"], "kind": kind})
    chosen = [k for *cls, count in SOLVE_FIXED for k in _solve_class(*cls)[:count]]
    chosen += [k for *cls, count in SOLVE_DRAWS for k in rng.sample(_solve_class(*cls), count)]
    for k in chosen:
        for kind in ("stack", "queue"):
            picked.append({"pool": k, "kind": kind})
    *cls, kind = SOLVE_SINGLE
    spare = [k for k in _solve_class(*cls) if k not in chosen]
    picked.append({"pool": rng.choice(spare), "kind": kind})
    rng.shuffle(picked)
    return picked


def _check_solve(result, graph_edges, expected: int, kind: str) -> str | None:
    if not result.exact:
        return f"{kind} solve was not exact"
    if result.value != expected:
        return f"{kind} number {result.value}, expected {expected}"
    position = {v: i for i, v in enumerate(result.order.vertices)}
    colors = []
    for u, v in graph_edges:
        c = result.coloring.get(u, v)
        if c is None or u not in position or v not in position:
            return f"{kind} witness misses edge {u}--{v}"
        colors.append(c)
    if len(set(colors)) > result.value:
        return f"{kind} witness uses more than {result.value} colours"
    conflict = helpers_naive.edges_cross if kind == "stack" else helpers_naive.edges_nest
    for (e, c), (f, d) in itertools.combinations(zip(graph_edges, colors), 2):
        if c == d and conflict(e, f, position):
            return f"{kind} witness has a same-colour conflict {e} and {f}"
    return None


def load_solve(bx, descriptors, workdir) -> list[Instance]:
    table = solve_table()
    fixed = {e["name"]: e for e in table["fixed"]}
    out = []
    for d in descriptors:
        if "name" in d:
            entry = fixed[d["name"]]
            label = d["name"]
        else:
            entry = table["pool"][d["pool"]]
            label = f"random n={entry['n']} #{d['pool']}"
        if "degrees" in entry:
            graph = bx.product.boxslash_product(tuple(entry["degrees"]), entry["path_len"])
            edges = list(graph.edge_pairs())
        else:
            edges = [tuple(e) for e in entry["edges"]]
            graph = edges
        kind = d["kind"]
        expected = entry[kind]

        def run(graph=graph, kind=kind):
            solver = bx.solver
            return (solver.stack_number if kind == "stack" else solver.queue_number)(graph)

        def check(result, edges=edges, expected=expected, kind=kind):
            return _check_solve(result, edges, expected, kind)

        vertices = len({v for e in edges for v in e})
        out.append(Instance(f"solve {kind} {label}", run, check, None,
                            math.factorial(vertices) * len(edges)))
    return out


# ---------------------------------------------------------------------------
# hex: `boxslash hex analyze` in process, on colouring files.

#: (rows, cols, style, branch aimed at, count).  "skipped" grids are too
#: narrow for s=1 with long_length=rows; "top" uses s=1, long_length=2;
#: "long" sets s to the largest top-row share of any component, so no
#: component qualifies, and long_length to what the width still allows.
#: Instances of one row cost about the same, and the rows are chosen so
#: that the median falls among the five random 30x30 grids.  The three
#: largest grids are HEX_FIXED.
HEX_STRATA = (
    (20, 20, "random", "skipped", 4),
    (20, 20, "blob", "top", 3),
    (24, 24, "blob", "skipped", 3),
    (30, 30, "random", "top", 5),
    (24, 120, "random", "long", 2),
    (24, 120, "blob", "top", 1),
    (60, 60, "random", "skipped", 1),
    (60, 60, "blob", "top", 1),
    (20, 200, "random", "long", 1),
    (30, 240, "blob", "top", 1),
)
#: (rows, cols, style, branch aimed at, colour seed): the same in every
#: list.  The 90th percentile falls on the two 30x240 grids, and the
#: 40x320 grid is a quarter of a pass, so a random colouring's cost
#: (about +-10% between colourings) would otherwise move both metrics
#: with the seed.
HEX_FIXED = (
    (30, 240, "random", "long", 1),
    (30, 240, "random", "long", 2),
    (40, 320, "random", "top", 3),
)


def hex_matrix(rows: int, cols: int, style: str, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    if style == "random":
        return [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
    # Blob: coarse uniform noise, bilinearly upsampled and thresholded,
    # which leaves few, long boundary lines.
    cn, cm = max(2, rows // 6), max(2, cols // 6)
    coarse = [[rng.random() for _ in range(cm + 1)] for _ in range(cn + 1)]
    out = []
    for i in range(rows):
        y = i * cn / rows
        i0, fy = int(y), y - int(y)
        row = []
        for j in range(cols):
            x = j * cm / cols
            j0, fx = int(x), x - int(x)
            value = (coarse[i0][j0] * (1 - fy) * (1 - fx) + coarse[i0 + 1][j0] * fy * (1 - fx)
                     + coarse[i0][j0 + 1] * (1 - fy) * fx + coarse[i0 + 1][j0 + 1] * fy * fx)
            row.append(1 if value > 0.5 else 0)
        out.append(row)
    return out


def describe_hex(seed: int) -> list[dict]:
    rng = random.Random(f"hex-{seed}")
    grids = []
    for rows, cols, style, branch, count in HEX_STRATA:
        for _ in range(count):
            r = rows + rng.randint(-rows // 50, rows // 50)
            c = cols + rng.randint(-cols // 50, cols // 50)
            grids.append((r, c, style, branch, rng.getrandbits(32)))
    grids.extend(HEX_FIXED)
    picked = []
    for r, c, style, branch, colour_seed in grids:
        chi = hex_matrix(r, c, style, colour_seed)
        if branch == "skipped":
            s, long_length = 1, r
        elif branch == "top":
            s, long_length = 1, 2
        else:
            s = max(sum(1 for cell in comp if cell[0] == 1) for comp in oracles.hex_components(chi))
            long_length = max(1, min(r, c // (2 * s + 6)))
        picked.append({"rows": r, "cols": c, "style": style, "aim": branch,
                       "colour_seed": colour_seed, "s": s, "long_length": long_length,
                       "chi": chi})
    rng.shuffle(picked)
    return picked


def _check_hex(output, d, expected: dict) -> str | None:
    code, text = output
    if code != 0:
        return f"hex analyze exited {code}"
    doc = json.loads(text)
    chi = d["chi"]
    if doc["grid"] != expected["grid"] or doc["cut_points"] != expected["cut_points"]:
        return "grid size or cut points differ"
    lines = sorted((b["length"], b["closed"]) for b in doc["boundaries"])
    if lines != expected["lines"]:
        return "boundary line lengths differ from the oracle's"
    if any(b["violations"] for b in doc["boundaries"]):
        return "a boundary line failed its own verification"
    path = doc["spanning_path"]
    axis = {"inc": "columns", "dec": "rows"}.get(expected["spanning_color"])
    if path["color"] != expected["spanning_color"] or path["axis"] != axis:
        return f"spanning path colour {path['color']}, expected {expected['spanning_color']}"
    if not oracles.hex_path_ok(chi, [tuple(c) for c in path["cells"]], path["color"], path["axis"]):
        return "spanning path is not a monochromatic side-to-side path"
    tops = doc["top_boundaries"]
    if (sorted(tops["all"]) != expected["tops"] or tops["maximal"] != expected["maximal"]
            or tops["flagged"] != expected["flagged"]):
        return "top boundaries differ from the oracle's"
    dich = doc["dichotomy"]
    branch = "skipped" if "skipped" in dich else dich["witness"]
    if branch != expected["branch"]:
        return f"dichotomy branch {branch}, expected {expected['branch']}"
    if branch == "top_cells":
        cells = [tuple(c) for c in dich["cells"]]
        comps = {expected["component_of"][c] for c in cells}
        want = 0 if dich["color"] == "inc" else 1
        if (len(cells) != d["s"] + 1 or len(set(cells)) != len(cells) or any(c[0] != 1 for c in cells)
                or len(comps) != 1 or any(chi[0][c[1] - 1] != want for c in cells)
                or dich["component_size"] != expected["component_sizes"][comps.pop()]):
            return "top-cells witness is not s+1 top cells of one component"
    elif branch == "long_boundary":
        if dich["length"] < d["long_length"] or (dich["length"], dich["closed"]) not in expected["lines"]:
            return "long-boundary witness is not a boundary line of the required length"
    return None


def load_hex(bx, descriptors, workdir) -> list[Instance]:
    out = []
    for k, d in enumerate(descriptors):
        path = Path(workdir) / f"hex_{k:02d}.json"
        path.write_text(json.dumps({"n": d["rows"], "m": d["cols"], "chi": d["chi"]}))
        argv = ["hex", "analyze", "--coloring", str(path),
                "--s", str(d["s"]), "--long-length", str(d["long_length"])]

        def run(argv=argv):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = bx.cli.main(argv)
            return code, buffer.getvalue()

        cache: dict = {}

        def check(output, d=d, cache=cache):
            if "e" not in cache:
                cache["e"] = oracles.hex_expected(d["chi"], d["s"], d["long_length"])
            return _check_hex(output, d, cache["e"])

        label = f"hex {d['style']} {d['rows']}x{d['cols']} s={d['s']} L={d['long_length']}"
        out.append(Instance(label, run, check, None, d["rows"] * d["cols"]))
    return out


#: Length of each workload's list; see the module docstring.
LIST_LENGTHS = {"layout": 25, "pipeline": 25, "solve": 105, "hex": 25}

WORKLOADS = {
    "layout": (describe_layout, load_layout),
    "pipeline": (describe_pipeline, load_pipeline),
    "solve": (describe_solve, load_solve),
    "hex": (describe_hex, load_hex),
}
