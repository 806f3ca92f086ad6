"""Slow reference implementations the test suite trusts over the package.

Nothing in this module imports from boxslash.  The routines are written
the dumbest defensible way: full factorial enumeration, set-based
conflict graphs, exhaustive subsequence search.  They exist so the fast
implementations have something independent to disagree with.
"""

import functools
import itertools


# ---------------------------------------------------------------------------
# Edge-pair relations under a position map {vertex: int}.

def span(edge, position):
    a, b = position[edge[0]], position[edge[1]]
    return (a, b) if a < b else (b, a)


def edges_cross(e, f, position):
    if set(e) & set(f):
        return False
    a, b = span(e, position)
    c, d = span(f, position)
    return a < c < b < d or c < a < d < b


def edges_nest(e, f, position):
    if set(e) & set(f):
        return False
    a, b = span(e, position)
    c, d = span(f, position)
    return (a < c and d < b) or (c < a and b < d)


def labels_alternate(labeled):
    """Whether consecutive (key, label) items always change label.

    Two disjoint edges cross exactly when their endpoints, sorted by
    position and labelled by edge, alternate."""
    return all(s != t for (_, s), (_, t) in zip(labeled, labeled[1:]))


def relation(e, f, position):
    """'shared', 'cross', 'nest', or 'separate'."""
    if set(e) & set(f):
        return "shared"
    if edges_cross(e, f, position):
        return "cross"
    if edges_nest(e, f, position):
        return "nest"
    return "separate"


def naive_violations(edges, colours, position, conflict):
    """(edge_a, edge_b, colour) for every same-coloured pair that
    ``conflict`` flags, by colour, then by input position within it.

    ``colours[i]`` is the colour of ``edges[i]``.
    """
    buckets = {}
    for e, c in zip(edges, colours):
        buckets.setdefault(c, []).append(e)
    found = []
    for c in sorted(buckets):
        bucket = buckets[c]
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                if conflict(bucket[i], bucket[j], position):
                    found.append((bucket[i], bucket[j], c))
    return found


def naive_nesting_depths(edges, position):
    """Per edge, the most edges in a chain nesting around it, itself
    included, by recursion over every enclosing edge."""
    depth = {}

    def chain(i):
        if i not in depth:
            inner = span(edges[i], position)
            depth[i] = 1 + max(
                (
                    chain(j)
                    for j, f in enumerate(edges)
                    if edges_nest(edges[i], f, position) and span(f, position)[0] < inner[0]
                ),
                default=0,
            )
        return depth[i]

    return [chain(i) for i in range(len(edges))]


# ---------------------------------------------------------------------------
# Chromatic number of a conflict graph, by plain backtracking.

def _colorable(adj, vertex_order, k):
    colors = [-1] * len(adj)

    def place(idx, max_used):
        if idx == len(vertex_order):
            return True
        v = vertex_order[idx]
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in used:
                continue
            colors[v] = c
            if place(idx + 1, max(max_used, c)):
                return True
            colors[v] = -1
        return False

    return place(0, -1)


def chromatic_number(adj):
    """Minimum proper colors for an adjacency-set list."""
    n = len(adj)
    if n == 0:
        return 0
    vertex_order = sorted(range(n), key=lambda v: -len(adj[v]))
    for k in itertools.count(1):
        if _colorable(adj, vertex_order, k):
            return k


def naive_dsatur(adj, k):
    """(assignment or None, nodes) of layout.try_color's search for a
    k-colouring of an adjacency-set list, spelled out with sets: the next
    vertex is the uncoloured one with the most distinct neighbour colours,
    ties to the larger degree, then the lower index; its colours are
    tried upward, at most one above the largest in use.  Each call of the
    search is a node."""
    n = len(adj)
    if n == 0:
        return [], 0
    if k <= 0:
        return None, 0
    colours = [None] * n
    nodes = 0

    def place():
        nonlocal nodes
        nodes += 1
        free = [v for v in range(n) if colours[v] is None]
        if not free:
            return True
        v = max(free, key=lambda v: (len({colours[w] for w in adj[v]} - {None}), len(adj[v]), -v))
        top = max((c for c in colours if c is not None), default=-1)
        for c in range(min(top + 2, k)):
            if all(colours[w] != c for w in adj[v]):
                colours[v] = c
                if place():
                    return True
                colours[v] = None
        return False

    return (colours if place() else None), nodes


def conflict_adjacency(edges, position, conflict):
    adj = [set() for _ in edges]
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if conflict(edges[i], edges[j], position):
                adj[i].add(j)
                adj[j].add(i)
    return adj


# ---------------------------------------------------------------------------
# Stack and queue numbers by full n! enumeration.

def _vertices_of(edges):
    seen = []
    for e in edges:
        for v in e:
            if v not in seen:
                seen.append(v)
    return seen


def min_pages_for_position(edges, position):
    """Fewest colors with no same-colored crossing, for one fixed order."""
    return chromatic_number(conflict_adjacency(edges, position, edges_cross))


def min_queues_for_position(edges, position):
    """Fewest colors with no same-colored nesting, for one fixed order."""
    return chromatic_number(conflict_adjacency(edges, position, edges_nest))


def naive_orders(vertices, pin_first):
    """The orders the exact solvers consider, in the sequence they do:
    every permutation, in lexicographic order of input positions, whose
    first free vertex precedes its last (one of each reversal pair),
    with the first vertex fixed in front when ``pin_first``."""
    head = list(vertices[:1]) if pin_first else []
    rest = list(vertices[len(head):])
    if len(rest) < 2:
        return [tuple(vertices)]
    orders = []
    for perm in itertools.permutations(rest):
        if rest.index(perm[0]) < rest.index(perm[-1]):
            orders.append(tuple(head) + perm)
    return orders


def _best_over_orders(edges, per_order):
    vertices = _vertices_of(edges)
    if not edges:
        return 0
    best = None
    for perm in itertools.permutations(vertices):
        position = {v: i for i, v in enumerate(perm)}
        value = per_order(edges, position)
        if best is None or value < best:
            best = value
        if best == 1:
            break
    return best


def naive_stack_number(edges):
    return _best_over_orders(edges, min_pages_for_position)


def naive_queue_number(edges):
    return _best_over_orders(edges, min_queues_for_position)


def naive_two_pages(edges):
    """Whether some vertex order lays ``edges`` out on two pages: the
    first order whose crossing graph is 2-colourable ends the scan.

    Crossings depend only on the cyclic order, so the first vertex stays
    in front.  On at most 10 vertices this is planarity.  Two-page graphs
    are planar, and a Hamiltonian planar graph has two pages (Bernhart &
    Kainen 1979), as have its subgraphs.  A planar graph on at least 3
    vertices is a subgraph of a triangulation on the same vertices, and
    every triangulation on at most 10 vertices is Hamiltonian: the
    Goldner-Harary graph, on 11, is the smallest that is not."""
    vertices = _vertices_of(edges)
    for perm in itertools.permutations(vertices[1:]):
        position = {v: i for i, v in enumerate(vertices[:1] + list(perm))}
        adj = conflict_adjacency(edges, position, edges_cross)
        if _colorable(adj, sorted(range(len(adj)), key=lambda v: -len(adj[v])), 2):
            return True
    return False


def complete_graph(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_graph(leaves):
    return [("hub", i) for i in range(leaves)]


# ---------------------------------------------------------------------------
# Monotone subsequences (used against the extraction pass).

def brute_longest_monotone(values):
    """Length of the longest monotone subsequence, by subset search."""
    best = 1 if values else 0
    n = len(values)
    for size in range(best + 1, n + 1):
        found = False
        for idx in itertools.combinations(range(n), size):
            picked = [values[i] for i in idx]
            if all(a < b for a, b in zip(picked, picked[1:])):
                found = True
                break
            if all(a > b for a, b in zip(picked, picked[1:])):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


# ---------------------------------------------------------------------------
# Lex-monotone subarrays (used against passes._search_lex).  An array is a
# dict from index cell (a tuple) to value; a sign is "inc" or "dec".

def naive_lex_monotone(value, cells, sigma, signs):
    """Every two cells differ in value and compare by value as they do by
    lex key: coordinates read in axis order sigma, each negated on a
    "dec" axis."""

    def key(cell):
        return tuple(cell[a] if signs[a] == "inc" else -cell[a] for a in sigma)

    return all(
        value[x] != value[y] and (value[x] < value[y]) == (key(x) < key(y))
        for x, y in itertools.combinations(cells, 2)
    )


def naive_lex_search(dims, value, targets):
    """First (sigma, signs, index_sets) with a lex-monotone subarray of
    targets[k] indices on each axis k, or None, trying every axis
    permutation, then every sign vector ("inc" first), then every
    product of index combinations, each in itertools order."""
    axes = range(len(dims))
    for sigma in itertools.permutations(axes):
        for signs in itertools.product(("inc", "dec"), repeat=len(dims)):
            for index_sets in itertools.product(
                *[itertools.combinations(range(dims[k]), targets[k]) for k in axes]
            ):
                cells = list(itertools.product(*index_sets))
                if naive_lex_monotone(value, cells, sigma, signs):
                    return sigma, signs, index_sets
    return None


# ---------------------------------------------------------------------------
# Child symmetry (used against passes.check_child_symmetry).  A vertex of
# the product is (path tuple, position); rank maps each vertex to its place
# in the order.

def naive_child_symmetry(degrees, m, rank):
    """Pairwise child-symmetry check: (violations, comparisons made).

    At every depth, for every two nodes a, b of that depth and every two
    spots (x, i), (y, j) -- a descendant suffix at a path position --
    a.x@i and a.y@j must compare the way b.x@i and b.y@j do.  A
    violation is (a, b, x, i, y, j) with a and b as dotted addresses.
    """
    h = len(degrees)

    def choices(levels):
        return list(itertools.product(*[range(1, degrees[k] + 1) for k in levels]))

    violations = []
    checked = 0
    for depth in range(1, h + 1):
        nodes = choices(range(depth))
        suffixes = [s for n in range(h - depth + 1) for s in choices(range(depth, depth + n))]
        spots = [(s, i) for s in suffixes for i in range(1, m + 1)]
        for a, b in itertools.combinations(nodes, 2):
            for (x, i), (y, j) in itertools.combinations(spots, 2):
                checked += 1
                under_a = rank[(a + x, i)] < rank[(a + y, j)]
                under_b = rank[(b + x, i)] < rank[(b + y, j)]
                if under_a != under_b:
                    dotted = [".".join(map(str, node)) for node in (a, b)]
                    violations.append((*dotted, x, i, y, j))
    return violations, checked


# ---------------------------------------------------------------------------
# Restriction and related sequence families (used against passes.restrict
# and passes._related_families, the related check of run_passes, on
# colourings whose colour table holds: the table decides the colour
# clause, and the package's check reads no colour).  As above, a vertex
# is (path tuple, position); colour maps frozenset({u, v}) of an edge to
# its colour, and a table maps (depth, position, kind) to a colour, where
# a kind is "vertical", "horizontal" or "diagonal".

def naive_restrict(degrees, m, rank, colour, node_map, keep):
    """Keep the given children of every node and carry the layout over.

    keep maps a node path to the child numbers it retains; nodes missing
    from it keep every child, and entries for pruned nodes are ignored.
    The survivors are renumbered per level, in breadth-first order.
    Returns (degrees, order, colour, node_map): the kept degrees, the
    kept vertices renamed and sorted by their old rank, the colour of
    every kept edge under its new name, and node_map (original node to
    current node) composed with the renumbering.  Raises ValueError on
    an empty, out-of-range or non-uniform level selection.
    """
    renamed = {(): ()}
    frontier = [()]
    counts = []
    for depth, d in enumerate(degrees):
        next_frontier = []
        for node in frontier:
            nums = sorted(set(keep.get(node, range(1, d + 1))))
            if not nums or nums[0] < 1 or nums[-1] > d:
                raise ValueError(f"bad selection {nums} at {node}")
            if len(counts) > depth and counts[depth] != len(nums):
                raise ValueError(f"level {depth} is not uniform")
            counts[depth:] = [len(nums)]
            for new_v, old_v in enumerate(nums, start=1):
                renamed[node + (old_v,)] = renamed[node] + (new_v,)
                next_frontier.append(node + (old_v,))
        frontier = next_frontier
    old_of = {new: old for old, new in renamed.items()}
    vertices = [(node, i) for node in renamed.values() for i in range(1, m + 1)]
    order = sorted(vertices, key=lambda v: rank[(old_of[v[0]], v[1])])
    new_colour = {}
    for (a, i), (b, j) in naive_product_edges(counts, m):
        new_colour[frozenset(((a, i), (b, j)))] = colour[frozenset(((old_of[a], i), (old_of[b], j)))]
    composed = {orig: renamed[cur] for orig, cur in node_map.items() if cur in renamed}
    return tuple(counts), order, new_colour, composed


def naive_product_edges(degrees, m):
    """Every edge of the product as a vertex pair, deeper endpoint first."""
    level, nodes = [()], [()]
    for d in degrees:
        level = [node + (c,) for node in level for c in range(1, d + 1)]
        nodes += level
    edges = []
    for node in nodes:
        for i in range(1, m + 1):
            if node:
                edges.append(((node, i), (node[:-1], i)))
                if i < m:
                    edges.append(((node, i), (node[:-1], i + 1)))
            if i < m:
                edges.append(((node, i), (node, i + 1)))
    return edges


def naive_is_related(a, b, rank, colour):
    """(kind, colour) of two vertex sequences, or None.

    They are related when both are monotone under the rank, every pair
    (a[t], b[t]) lies on the same side, and every pairing edge has one
    and the same colour.  Same directions are "bundled", opposite ones
    "rainbow"; a singleton runs both ways, so singletons are bundled.
    """
    def directions(seq):
        ranks = [rank[v] for v in seq]
        out = set()
        if all(x < y for x, y in zip(ranks, ranks[1:])):
            out.add("inc")
        if all(x > y for x, y in zip(ranks, ranks[1:])):
            out.add("dec")
        return out

    dirs_a, dirs_b = directions(a), directions(b)
    if not dirs_a or not dirs_b:
        return None
    if len({rank[x] < rank[y] for x, y in zip(a, b)}) != 1:
        return None
    colours = [colour.get(frozenset((x, y))) for x, y in zip(a, b)]
    if None in colours or len(set(colours)) != 1:
        return None
    return ("bundled" if dirs_a & dirs_b else "rainbow", colours[0])


def naive_related_families(degrees, m, rank, colour, table):
    """(violations, checked) of the related sequence families.

    For every level `star`, every node at depth star - 1 (the prefix),
    and every tail of child choices below level star, the base sequence
    varies the choice at level star.  It is paired with each one-child
    extension at the same position (vertical) and at the next position
    (diagonal), and with itself at the next position (horizontal); each
    pair must be related with the table's colour for its pairing edges.
    A violation is (kind, dotted prefix or "r", tail, [child,] position).
    """
    h = len(degrees)
    violations, checked = [], 0

    def at(nodes, p):
        return [(node, p) for node in nodes]

    def check(kind, prefix, label, a, b, want):
        related = naive_is_related(a, b, rank, colour)
        if related is None or related[1] != want:
            violations.append((kind, ".".join(map(str, prefix)) or "r", *label))

    for star in range(1, h + 1):
        prefixes = itertools.product(*[range(1, degrees[k] + 1) for k in range(star - 1)])
        for prefix in prefixes:
            for depth in range(star, h + 1):
                tails = itertools.product(*[range(1, degrees[k] + 1) for k in range(star, depth)])
                for tail in tails:
                    base = [prefix + (g,) + tail for g in range(1, degrees[star - 1] + 1)]
                    if depth < h:
                        for v in range(1, degrees[depth] + 1):
                            ext = [node + (v,) for node in base]
                            for p in range(1, m + 1):
                                checked += 1
                                check("vertical", prefix, (tail, v, p), at(ext, p), at(base, p),
                                      table[(depth + 1, p, "vertical")])
                            for p in range(1, m):
                                checked += 1
                                check("diagonal", prefix, (tail, v, p), at(ext, p), at(base, p + 1),
                                      table[(depth + 1, p, "diagonal")])
                    for p in range(1, m):
                        checked += 1
                        check("horizontal", prefix, (tail, p), at(base, p), at(base, p + 1),
                              table[(depth, p, "horizontal")])
    return violations, checked


# ---------------------------------------------------------------------------
# Colour and direction tables (used against passes.ColorTable.from_colors,
# passes._direction_table and run_passes: where every final level
# branches, naive_identity_permutation finds nothing exactly when the lex
# witnesses keep every axis order).  Vertices, colours and rank are as
# above.

def naive_color_table(degrees, m, colour):
    """("entries", {(depth, position, kind): colour}) when every edge's
    colour is a function of its signature: the deeper endpoint's depth,
    the smaller position and the kind.  Otherwise ("missing", edge) for
    the first edge without a colour, or ("clash", signature, first
    colour, other colour) for the first edge whose colour differs from
    the first one of its signature.  Edges are taken in the package's
    edge order: vertical, horizontal, diagonal, then the deeper node
    breadth first, then the position."""
    def kind(edge):
        (a, i), (b, j) = edge
        return "horizontal" if a == b else "vertical" if i == j else "diagonal"

    kinds = ("vertical", "horizontal", "diagonal")
    edges = sorted(naive_product_edges(degrees, m),
                   key=lambda e: (kinds.index(kind(e)), len(e[0][0]), e[0][0], e[0][1]))
    for edge in edges:
        if frozenset(edge) not in colour:
            return ("missing", edge)
    entries = {}
    for edge in edges:
        (a, i), (b, j) = edge
        sig = (max(len(a), len(b)), min(i, j), kind(edge))
        c = colour[frozenset(edge)]
        if entries.setdefault(sig, c) != c:
            return ("clash", sig, entries[sig], c)
    return ("entries", entries)


def _naive_child_directions(degrees, rank, i, j, p):
    """(prefix, directions) of every sequence that varies the level-i
    choice of a depth-j address at position p: the address above level
    i, dotted, and a set of "inc"/"dec"."""
    out = []
    for prefix in itertools.product(*[range(1, degrees[k] + 1) for k in range(i - 1)]):
        for tail in itertools.product(*[range(1, degrees[k] + 1) for k in range(i, j)]):
            ranks = [rank[(prefix + (c,) + tail, p)] for c in range(1, degrees[i - 1] + 1)]
            dirs = set()
            if all(x < y for x, y in zip(ranks, ranks[1:])):
                dirs.add("inc")
            if all(x > y for x, y in zip(ranks, ranks[1:])):
                dirs.add("dec")
            out.append((".".join(map(str, prefix)) or "r", dirs))
    return out


def naive_direction_table(degrees, m, rank):
    """{(i, j, p): "inc" or "dec"} for 1 <= i <= j <= height: the one
    direction of every child-choice sequence of that entry.  Raises
    ValueError(("not monotone", i, j, p, prefix)) or ValueError(("disagree",
    i, j, p)) at the first entry, in (i, j, p) order, where a sequence is
    not monotone (the first, by prefix then tail) or the sequences do not
    share exactly one direction."""
    h, table = len(degrees), {}
    for i in range(1, h + 1):
        for j in range(i, h + 1):
            for p in range(1, m + 1):
                found = _naive_child_directions(degrees, rank, i, j, p)
                for prefix, dirs in found:
                    if not dirs:
                        raise ValueError(("not monotone", i, j, p, prefix))
                union = set().union(*[dirs for _, dirs in found])
                if len(union) != 1:
                    raise ValueError(("disagree", i, j, p))
                table[(i, j, p)] = union.pop()
    return table


def naive_identity_permutation(degrees, m, rank):
    """(violations, checked) of the first-difference rule, pair by pair.

    For every depth, every two addresses a before b of that depth (in
    lexicographic order) and every position p, let level t be the first
    where they differ.  The sequences of entry (t, depth, p) must share
    exactly one direction d, else ("ambiguous-direction", t, depth, p)
    is a violation; and a@p must come before b@p exactly when d is
    "inc", else (a, b, p, d) is one, addresses dotted.
    """
    violations, checked = [], 0
    for depth in range(1, len(degrees) + 1):
        nodes = list(itertools.product(*[range(1, degrees[k] + 1) for k in range(depth)]))
        for a, b in itertools.combinations(nodes, 2):
            t = next(k for k in range(depth) if a[k] != b[k]) + 1
            for p in range(1, m + 1):
                checked += 1
                sets = [dirs for _, dirs in _naive_child_directions(degrees, rank, t, depth, p)]
                union = set().union(*sets)
                if set() in sets or len(union) != 1:
                    violations.append(("ambiguous-direction", t, depth, p))
                    continue
                (d,) = union
                if (rank[(a, p)] < rank[(b, p)]) != (d == "inc"):
                    violations.append((".".join(map(str, a)), ".".join(map(str, b)), p, d))
    return violations, checked


# ---------------------------------------------------------------------------
# Hex grids (used against hexgrid).  A colouring is a list of rows of
# 0/1; cell (i, j) is 1-based, row 1 on top, and touches the cells at the
# six offsets below.

HEX_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


def hex_colour(chi, cell):
    return chi[cell[0] - 1][cell[1] - 1]


def hex_neighbours(chi, cell):
    n, m = len(chi), len(chi[0])
    i, j = cell
    return [(i + di, j + dj) for di, dj in HEX_OFFSETS if 1 <= i + di <= n and 1 <= j + dj <= m]


def hex_cells(chi):
    return [(i, j) for i in range(1, len(chi) + 1) for j in range(1, len(chi[0]) + 1)]


@functools.lru_cache(maxsize=None)
def hex_triangles(n, m):
    """Every grid triangle (three mutually adjacent cells) of an n-by-m
    grid, found by brute force over the neighbour offsets."""
    chi = [[0] * m for _ in range(n)]
    near = {a: set(hex_neighbours(chi, a)) for a in hex_cells(chi)}
    return [
        (a, b, c)
        for a in near
        for b in near[a]
        for c in near[a] & near[b]
        if a < b < c
    ]


def naive_boundary_lines(chi):
    """Boundary lines as (frozenset of cell pairs, closed), in no order.

    Every adjacent pair of unequally coloured cells is crossed by one
    line.  Two such pairs are linked when they are sides of one grid
    triangle; a line is a component of the links, closed when every
    pair on it has two links.
    """
    pairs = {
        frozenset((a, b))
        for a in hex_cells(chi)
        for b in hex_neighbours(chi, a)
        if hex_colour(chi, a) != hex_colour(chi, b)
    }
    links = {p: set() for p in pairs}
    for triangle in hex_triangles(len(chi), len(chi[0])):
        sides = [frozenset(side) for side in itertools.combinations(triangle, 2)]
        sides = [side for side in sides if side in pairs]
        for p, q in itertools.combinations(sides, 2):
            links[p].add(q)
            links[q].add(p)
    lines = []
    seen = set()
    for start in pairs:
        if start in seen:
            continue
        seen.add(start)
        line = {start}
        stack = [start]
        while stack:
            for q in links[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    line.add(q)
                    stack.append(q)
        lines.append((frozenset(line), all(len(links[p]) == 2 for p in line)))
    return lines


def naive_traced_lines(chi):
    """trace_boundary's lines, in its order, by its docstring's rules.

    Each line is (pairs, first, last, colour_a, colour_b): pairs of
    cells, a side first; the walk's first and last (depth, col, sign)
    corners, last None on a closed line; the colours as "inc"/"dec".
    Corner (d, c, -1) is the triangle of cells (d, c), (d-1, c),
    (d-1, c+1) and (d, c, +1) that of (d, c), (d, c+1), (d-1, c+1).  Every grid edge is listed per row, vertical
    then diagonal crossings, then every horizontal one, as (minus
    corner, plus corner, deeper-or-left cell, other cell).  Walks start
    at the corners with one boundary edge in (depth, sign, col) order,
    then at the minus corner of the lowest unused edge, and leave each
    corner by its lowest unused edge.  The a side takes the colour of
    the deeper-or-left cell of a line's first edge.
    """
    n, m = len(chi), len(chi[0])
    edges = []
    for i in range(2, n + 1):
        edges += [((i, j, -1), (i, j - 1, 1), (i, j), (i - 1, j)) for j in range(1, m + 1)]
        edges += [((i, j, -1), (i, j, 1), (i, j), (i - 1, j + 1)) for j in range(1, m)]
    for i in range(1, n + 1):
        edges += [((i + 1, j, -1), (i, j, 1), (i, j), (i, j + 1)) for j in range(1, m)]
    edges = [e for e in edges if hex_colour(chi, e[2]) != hex_colour(chi, e[3])]
    at = {}
    for idx, (minus, plus, _, _) in enumerate(edges):
        at.setdefault(minus, []).append(idx)
        at.setdefault(plus, []).append(idx)
    used = set()
    lines = []

    def follow(corner, closed):
        colour_a = hex_colour(chi, edges[min(set(at[corner]) - used)][2])
        first, pairs = corner, []
        while set(at[corner]) - used:
            idx = min(set(at[corner]) - used)
            used.add(idx)
            minus, plus, x, y = edges[idx]
            corner = plus if corner == minus else minus
            pairs.append((x, y) if hex_colour(chi, x) == colour_a else (y, x))
        names = ("inc", "dec")
        lines.append((tuple(pairs), first, None if closed else corner, names[colour_a], names[1 - colour_a]))

    ends = sorted((c for c in at if len(at[c]) == 1), key=lambda c: (c[0], c[2], c[1]))
    for corner in ends:
        if at[corner][0] not in used:
            follow(corner, False)
    for idx in range(len(edges)):
        if idx not in used:
            follow(edges[idx][0], True)
    return lines


def naive_line_violations(chi, pairs, closed, colour_a, colour_b):
    """BoundaryLine.verify's messages for a line of cell pairs, colours
    "inc"/"dec", checked against the colouring chi, in its order: equal
    side colours; then per pair, wrong colours (or a cell outside the
    grid) and cells that are not neighbours (or outside); then each step
    between consecutive pairs (and, on a closed line of two or more
    pairs, from the last to the first) not sharing exactly one side;
    then each pair repeating an earlier one, in either orientation."""
    n, m = len(chi), len(chi[0])
    codes = {"inc": 0, "dec": 1}
    out = []
    if colour_a == colour_b:
        out.append("sides: the two side colors are equal")
    for t, (a, b) in enumerate(pairs):
        inside = all(1 <= i <= n and 1 <= j <= m for i, j in (a, b))
        if not (inside and hex_colour(chi, a) == codes[colour_a] and hex_colour(chi, b) == codes[colour_b]):
            out.append(f"sides: pair {t} colors are not (a={colour_a}, b={colour_b})")
        if not (inside and b in hex_neighbours(chi, a)):
            out.append(f"pair-shape: pair {t} cells {a} and {b} are not grid-adjacent")
    steps = [(t, t + 1) for t in range(len(pairs) - 1)]
    if closed and len(pairs) > 1:
        steps.append((len(pairs) - 1, 0))
    for t, u in steps:
        same_sides = [pairs[t][side] == pairs[u][side] for side in (0, 1)]
        if same_sides.count(True) != 1:
            out.append(f"step: pairs {t} and {t + 1} must share exactly one side")
    for t, pair in enumerate(pairs):
        if any(set(pair) == set(earlier) for earlier in pairs[:t]):
            out.append(f"duplicate: pair {t} repeats an earlier pair")
    return out


def hex_spans(chi, colour, axis):
    """Whether cells of `colour` join column 1 to the last column
    (axis "columns") or row 1 to the last row (axis "rows"), by BFS."""
    k = 1 if axis == "columns" else 0
    far = len(chi[0]) if axis == "columns" else len(chi)
    frontier = [c for c in hex_cells(chi) if c[k] == 1 and hex_colour(chi, c) == colour]
    reached = set(frontier)
    while frontier:
        cell = frontier.pop()
        if cell[k] == far:
            return True
        for nb in hex_neighbours(chi, cell):
            if nb not in reached and hex_colour(chi, nb) == colour:
                reached.add(nb)
                frontier.append(nb)
    return False


def naive_top_boundaries(chi):
    """Top boundaries as (all, maximal, flagged), lines as pair sets.

    A top cut x is the top-row pair ((1, x), (1, x + 1)).  A boundary
    line (of naive_boundary_lines) holding two cut pairs x < y is the
    top boundary (x, y); one holding a single cut pair is flagged.
    `all` lists (x, y, line) by (x, y), `maximal` the (x, y) strictly
    inside no other, and `flagged` the flagged lines.
    """
    m = len(chi[0])
    tops, flagged = [], []
    for line, _ in naive_boundary_lines(chi):
        cuts = [x for x in range(1, m) if frozenset(((1, x), (1, x + 1))) in line]
        if len(cuts) == 2:
            tops.append((cuts[0], cuts[1], line))
        elif len(cuts) == 1:
            flagged.append(line)
    tops.sort(key=lambda top: top[:2])
    maximal = [(x, y) for x, y, _ in tops if not any(a < x and y < b for a, b, _ in tops)]
    return tops, maximal, flagged


def naive_dichotomy_branch(chi, s, long_length):
    """Which witness the top-or-long dichotomy gives: "skipped" below
    long_length rows or 2 (s + 3) long_length columns, else "top_cells"
    when one colour component holds s + 1 top cells, else
    "long_boundary" when a boundary line has long_length pairs."""
    n, m = len(chi), len(chi[0])
    if n < long_length or m < 2 * (s + 3) * long_length:
        return "skipped"
    unseen = set(hex_cells(chi))
    while unseen:
        component = [unseen.pop()]
        for cell in component:
            for nb in hex_neighbours(chi, cell):
                if nb in unseen and hex_colour(chi, nb) == hex_colour(chi, cell):
                    unseen.discard(nb)
                    component.append(nb)
        if sum(1 for cell in component if cell[0] == 1) >= s + 1:
            return "top_cells"
    if any(len(line) >= long_length for line, _ in naive_boundary_lines(chi)):
        return "long_boundary"
    return None


# ---------------------------------------------------------------------------
# Direction-table layers (used against hexgrid.direction_layer and
# passes.check_direction_consistency).  A table is a DirectionTable.to_json()
# document: height, path_len and entries "i,j,p" -> "inc" or "dec".

def naive_direction_layer(table, layer):
    """Layer `layer` as a 0 (inc) / 1 (dec) matrix: row r, column p
    holds entry (layer, layer + r - 1, p)."""
    entries = table["entries"]
    return [
        [int(entries[f"{layer},{j},{p}"] == "dec") for p in range(1, table["path_len"] + 1)]
        for j in range(layer, table["height"] + 1)
    ]


def naive_boundary_preservation(table):
    """(violations, checked) of the one-layer-up boundary rule.

    For each layer l below the top, every unordered pair of adjacent
    cells of layer l's grid with both rows at least 2 is checked; it
    violates the rule when its colours differ in layer l while the pair
    shifted one row up has equal colours in layer l + 1.  A violation
    is (l, frozenset of the two cells, "vertical", "horizontal" or
    "diagonal"), the kind read off the rows and columns of the cells.
    """
    violations, checked = set(), 0
    for layer in range(1, table["height"]):
        low = naive_direction_layer(table, layer)
        high = naive_direction_layer(table, layer + 1)
        for a in hex_cells(low):
            for b in hex_neighbours(low, a):
                if a > b or a[0] < 2 or b[0] < 2:
                    continue
                checked += 1
                up_a, up_b = (a[0] - 1, a[1]), (b[0] - 1, b[1])
                if hex_colour(low, a) != hex_colour(low, b) and hex_colour(high, up_a) == hex_colour(high, up_b):
                    kind = "vertical" if a[1] == b[1] else "horizontal" if a[0] == b[0] else "diagonal"
                    violations.add((layer, frozenset((a, b)), kind))
    return violations, checked
