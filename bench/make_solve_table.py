"""Regenerate solve_table.json: expected stack and queue numbers.

Run from the repository root:  python3 bench/make_solve_table.py

The table holds the fixed solve instances (K5-K7 and the smallest
tree-path products) and a pool of random graphs on 6-8 vertices that
the `solve` workload draws from by seed.  Graphs up to 7 vertices get
their values from the full n! enumeration in tests/helpers_naive.py.
For 8 vertices that enumeration is replaced by one over orders up to
reversal (queues) or up to rotation and reversal (stack pages), still
scoring each order with the helpers_naive per-order oracles; the two
symmetries leave crossings and nestings unchanged.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE))

import helpers_naive  # noqa: E402
import oracles  # noqa: E402

POOL_SEED = 20230328
#: (vertices, graphs in the pool, smallest and largest edge count)
POOL = ((6, 48, 6, 11), (7, 48, 7, 13), (8, 32, 9, 15))
PRODUCTS = (((1,), 4), ((2,), 2), ((3,), 2), ((1, 2), 2))


def _vertices(edges) -> list:
    seen = []
    for e in edges:
        for v in e:
            if v not in seen:
                seen.append(v)
    return seen


def _symmetric_best(edges, per_order, rotations: bool) -> int:
    vertices = _vertices(edges)
    first, rest = (vertices[0], vertices[1:]) if rotations else (None, vertices)
    best = None
    for perm in itertools.permutations(rest):
        if len(perm) >= 2 and perm[0] > perm[-1]:
            continue
        full = ((first,) + perm) if rotations else perm
        value = per_order(edges, {v: i for i, v in enumerate(full)})
        if best is None or value < best:
            best = value
        if best == 1:
            break
    return best


def solve_values(edges) -> tuple[int, int, str]:
    if len(_vertices(edges)) <= 7:
        return (helpers_naive.naive_stack_number(edges),
                helpers_naive.naive_queue_number(edges), "naive")
    stack = _symmetric_best(edges, helpers_naive.min_pages_for_position, True)
    queue = _symmetric_best(edges, helpers_naive.min_queues_for_position, False)
    return stack, queue, "naive-per-order"


def random_graph(rng: random.Random, n: int, lo: int, hi: int) -> list:
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = sorted(rng.sample(pairs, rng.randint(lo, hi)))
        if len({v for e in edges for v in e}) == n:
            return edges


def main() -> int:
    rng = random.Random(POOL_SEED)
    fixed = []
    for n in (5, 6, 7):
        edges = helpers_naive.complete_graph(n)
        stack, queue, how = solve_values(edges)
        fixed.append({"name": f"K{n}", "edges": edges, "stack": stack, "queue": queue, "oracle": how})
        print(fixed[-1]["name"], stack, queue, flush=True)
    for degrees, m in PRODUCTS:
        edges = [(u, v) for u, v, _ in oracles.product_edges(degrees, m)]
        # Relabel to integers so the symmetry pruning can compare vertices.
        index = {v: k for k, v in enumerate(_vertices(edges))}
        stack, queue, how = solve_values([(index[u], index[v]) for u, v in edges])
        name = f"product{list(degrees)}x{m}"
        fixed.append({"name": name, "degrees": list(degrees), "path_len": m,
                      "stack": stack, "queue": queue, "oracle": how})
        print(name, stack, queue, flush=True)
    pool = []
    for n, count, lo, hi in POOL:
        for _ in range(count):
            edges = random_graph(rng, n, lo, hi)
            started = time.perf_counter()
            stack, queue, how = solve_values(edges)
            pool.append({"n": n, "edges": edges, "stack": stack, "queue": queue, "oracle": how})
            print(n, len(edges), stack, queue, f"{time.perf_counter() - started:.1f}s", flush=True)
    doc = {"pool_seed": POOL_SEED, "fixed": fixed, "pool": pool}
    (HERE / "solve_table.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
