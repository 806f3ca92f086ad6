"""Independent reference routines the benchmark checks verdicts against.

Nothing here imports boxslash.  Product graphs, orders and hex grids are
rebuilt from their definitions on plain tuples, so an expected answer
never comes from the code under test.  Vertices of a product are
(path, pos) pairs, with path the tuple of 1-based child choices.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque


# ---------------------------------------------------------------------------
# Tree-path products.

def tree_nodes(degrees) -> list[tuple[int, ...]]:
    """Nodes of a balanced tree breadth first, as child-choice tuples."""
    levels = [[()]]
    for d in degrees:
        levels.append([p + (c,) for p in levels[-1] for c in range(1, d + 1)])
    return [p for level in levels for p in level]


def product_edges(degrees, m: int) -> list[tuple]:
    """(u, v, kind) for the product of the tree and an m-vertex path."""
    nodes = tree_nodes(degrees)
    out = []
    for p in nodes[1:]:
        for i in range(1, m + 1):
            out.append(((p, i), (p[:-1], i), "vertical"))
    for p in nodes:
        for i in range(1, m):
            out.append(((p, i), (p, i + 1), "horizontal"))
    for p in nodes[1:]:
        for i in range(1, m):
            out.append(((p, i), (p[:-1], i + 1), "diagonal"))
    return out


def edge_count(degrees, m: int) -> int:
    n = len(tree_nodes(degrees))
    return (n - 1) * m + n * (m - 1) + (n - 1) * (m - 1)


def canonical_rank(degrees, m: int) -> dict:
    """Position of every product vertex: by path position, depth, address."""
    nodes = tree_nodes(degrees)
    verts = sorted(((p, i) for p in nodes for i in range(1, m + 1)),
                   key=lambda v: (v[1], len(v[0]), v[0]))
    return {v: r for r, v in enumerate(verts)}


QUEUE_OF_KIND = {"vertical": 0, "horizontal": 1, "diagonal": 2}


# ---------------------------------------------------------------------------
# Interval relations under a fixed order.  Strict inequalities exclude
# edges sharing an endpoint from both relations.

def spans(edges, rank) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        a, b = rank[u], rank[v]
        out.append((a, b) if a < b else (b, a))
    return out


def _by_color(spans_, colors) -> dict:
    groups: dict = {}
    for s, c in zip(spans_, colors):
        groups.setdefault(c, []).append(s)
    for bucket in groups.values():
        bucket.sort()
    return groups


def count_crossings(spans_, colors) -> int:
    """Same-colour pairs a < c < b < d."""
    total = 0
    for bucket in _by_color(spans_, colors).values():
        for i, (a, b) in enumerate(bucket):
            for c, d in itertools.islice(bucket, i + 1, None):
                if c >= b:
                    break
                if a < c and b < d:
                    total += 1
    return total


def count_nestings(spans_, colors) -> int:
    """Same-colour pairs a < c < d < b."""
    total = 0
    for bucket in _by_color(spans_, colors).values():
        for i, (a, b) in enumerate(bucket):
            for c, d in itertools.islice(bucket, i + 1, None):
                if c >= b:
                    break
                if a < c and d < b:
                    total += 1
    return total


def max_rainbow(spans_) -> int:
    """Largest set of pairwise strictly nested intervals.

    Sorted by left end (right end ascending on ties), a rainbow is a
    strictly decreasing run of right ends, so this is a longest
    decreasing subsequence by patience sorting.
    """
    tails: list[int] = []
    for _, b in sorted(spans_, key=lambda s: (s[0], s[1])):
        spot = bisect.bisect_left(tails, -b)
        if spot == len(tails):
            tails.append(-b)
        else:
            tails[spot] = -b
    return len(tails)


# ---------------------------------------------------------------------------
# Pipeline expectations: closed-form check counts and rank-array directions.

def child_symmetry_checks(degrees, m: int) -> int:
    """Comparisons check_child_symmetry makes on a product of this shape."""
    h = len(degrees)
    total = 0
    for depth in range(1, h + 1):
        nodes = math.prod(degrees[:depth])
        suffixes = sum(math.prod(degrees[depth:depth + k]) for k in range(h - depth + 1))
        spots = suffixes * m
        total += math.comb(nodes, 2) * math.comb(spots, 2)
    return total


def related_family_checks(degrees, m: int) -> int:
    """Pairs check_related_sequence_families tests on a product of this shape."""
    h = len(degrees)
    total = 0
    for star in range(1, h + 1):
        prefixes = math.prod(degrees[:star - 1])
        for tail_len in range(h - star + 1):
            tails = math.prod(degrees[star:star + tail_len])
            depth = star + tail_len
            per = m - 1
            if depth < h:
                per += degrees[depth] * (2 * m - 1)
            total += prefixes * tails * per
    return total


def rank_array_directions(degrees, m: int, rank) -> dict:
    """Direction of every child-choice sequence family, read off the ranks.

    Entry (i, j, p) is 'inc' or 'dec' when every sequence obtained by
    varying the level-i choice of a length-j address at position p is
    monotone that way; otherwise the entry is 'mixed'.
    """
    h = len(degrees)
    out = {}
    for i in range(1, h + 1):
        prefixes = list(itertools.product(*[range(1, d + 1) for d in degrees[:i - 1]]))
        for j in range(i, h + 1):
            suffixes = list(itertools.product(*[range(1, d + 1) for d in degrees[i:j]]))
            for p in range(1, m + 1):
                seen = set()
                for pre in prefixes:
                    for suf in suffixes:
                        ranks = [rank[(pre + (g,) + suf, p)] for g in range(1, degrees[i - 1] + 1)]
                        if all(x < y for x, y in zip(ranks, ranks[1:])):
                            seen.add("inc")
                        elif all(x > y for x, y in zip(ranks, ranks[1:])):
                            seen.add("dec")
                        else:
                            seen.add("mixed")
                out[(i, j, p)] = seen.pop() if len(seen) == 1 else "mixed"
    return out


# ---------------------------------------------------------------------------
# Hex grids.  Cells (i, j) are 1-based, row 1 on top; each cell touches
# (i+-1, j), (i, j+-1), (i-1, j+1) and (i+1, j-1).

HEX_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


def hex_components(chi) -> list[list]:
    """Monochromatic components, each a list of cells."""
    n, m = len(chi), len(chi[0])
    label = [[-1] * m for _ in range(n)]
    comps = []
    for si in range(n):
        for sj in range(m):
            if label[si][sj] != -1:
                continue
            color = chi[si][sj]
            k = len(comps)
            label[si][sj] = k
            comp = [(si + 1, sj + 1)]
            queue = deque([(si, sj)])
            while queue:
                i, j = queue.popleft()
                for di, dj in HEX_STEPS:
                    a, b = i + di, j + dj
                    if 0 <= a < n and 0 <= b < m and label[a][b] == -1 and chi[a][b] == color:
                        label[a][b] = k
                        comp.append((a + 1, b + 1))
                        queue.append((a, b))
            comps.append(comp)
    return comps


def hex_boundary_lines(chi) -> list[dict]:
    """Boundary lines as components of the bichromatic grid edges.

    Every triangle of three mutually adjacent cells holds zero or two
    bichromatic edges, and two bichromatic edges lie on one line exactly
    when they share a triangle.  A line is open when it reaches a grid
    edge on the border, which borders a single triangle.  Returns, per
    line, its length, whether it is closed, and its top-row end columns.
    """
    n, m = len(chi), len(chi[0])
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def bichromatic(a, b):
        return chi[a[0] - 1][a[1] - 1] != chi[b[0] - 1][b[1] - 1]

    def key(a, b):
        return (a, b) if a < b else (b, a)

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            for di, dj in ((1, 0), (0, 1), (1, -1)):
                a, b = (i, j), (i + di, j + dj)
                if 1 <= b[0] <= n and 1 <= b[1] <= m and bichromatic(a, b):
                    parent[key(a, b)] = key(a, b)
    triangle_count = {e: 0 for e in parent}
    for i in range(1, n):
        for j in range(1, m):
            # The unit square (i..i+1, j..j+1) splits along (i, j+1)-(i+1, j).
            for tri in (((i, j), (i, j + 1), (i + 1, j)),
                        ((i, j + 1), (i + 1, j), (i + 1, j + 1))):
                hot = [key(a, b) for a, b in itertools.combinations(tri, 2) if bichromatic(a, b)]
                for e in hot:
                    triangle_count[e] += 1
                if len(hot) == 2:
                    ra, rb = find(hot[0]), find(hot[1])
                    if ra != rb:
                        parent[ra] = rb
                elif hot:
                    raise ValueError(f"triangle {tri} has {len(hot)} bichromatic edges")
    lines: dict = {}
    for e in parent:
        root = find(e)
        line = lines.setdefault(root, {"length": 0, "ends": [], "top": []})
        line["length"] += 1
        if triangle_count[e] < 2:
            line["ends"].append(e)
            (a, b) = e
            if a[0] == b[0] == 1:
                line["top"].append(min(a[1], b[1]))
    out = []
    for line in lines.values():
        out.append({
            "length": line["length"],
            "closed": not line["ends"],
            "top": sorted(line["top"]),
        })
    return out


def hex_required_size(s: int, long_length: int) -> tuple[int, int]:
    """Grid size the top-or-long dichotomy is stated for."""
    return (long_length, 2 * (s + 2) * long_length + 2 * long_length)


def hex_expected(chi, s: int, long_length: int) -> dict:
    """Everything `hex analyze` should report, from the definitions alone."""
    n, m = len(chi), len(chi[0])
    comps = hex_components(chi)
    lines = hex_boundary_lines(chi)
    spans_color = None
    # Colour 0 (inc) spans the columns if it can; else colour 1 (dec) the rows.
    for comp in comps:
        color = chi[comp[0][0] - 1][comp[0][1] - 1]
        if color == 0 and {1, m} <= {c[1] for c in comp}:
            spans_color = "inc"
            break
    if spans_color is None:
        if any(chi[c[0][0] - 1][c[0][1] - 1] == 1 and {1, n} <= {x[0] for x in c} for c in comps):
            spans_color = "dec"
    cuts = [x for x in range(1, m) if chi[0][x - 1] != chi[0][x]]
    tops = sorted((ln["top"][0], ln["top"][1], ln["length"]) for ln in lines if len(ln["top"]) == 2)
    flagged = sum(1 for ln in lines if len(ln["top"]) == 1)
    maximal = [[l, r] for l, r, _ in tops
               if not any(l2 < l and r < r2 for l2, r2, _ in tops)]
    rows_needed, cols_needed = hex_required_size(s, long_length)
    top_counts = [sum(1 for c in comp if c[0] == 1) for comp in comps]
    if n < rows_needed or m < cols_needed:
        branch = "skipped"
    elif max(top_counts) >= s + 1:
        branch = "top_cells"
    else:
        branch = "long_boundary"
    return {
        "grid": [n, m],
        "cut_points": cuts,
        "spanning_color": spans_color,
        "lines": sorted((ln["length"], ln["closed"]) for ln in lines),
        "tops": [list(t) for t in tops],
        "maximal": maximal,
        "flagged": flagged,
        "branch": branch,
        "component_of": {cell: k for k, comp in enumerate(comps) for cell in comp},
        "component_sizes": [len(c) for c in comps],
        "max_top_cells": max(top_counts),
    }


def hex_path_ok(chi, cells, color: str, axis: str) -> bool:
    """A monochromatic hex path of the named colour joining the two sides."""
    n, m = len(chi), len(chi[0])
    want = 0 if color == "inc" else 1
    if not cells or any(chi[i - 1][j - 1] != want for i, j in cells):
        return False
    for (i, j), (k, l) in zip(cells, cells[1:]):
        if (k - i, l - j) not in HEX_STEPS:
            return False
    if axis == "columns":
        return cells[0][1] == 1 and cells[-1][1] == m
    return cells[0][0] == 1 and cells[-1][0] == n
