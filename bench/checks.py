"""Checks of the benchmark itself.  Run from the repository root:

    python3 bench/checks.py

* The same seed reproduces an identical instance list of the intended
  length, and another seed gives another list.
* A corrupted output is caught and counted as failed: one flipped colour
  (layout), one flipped direction (pipeline), one wrong solver value
  (solve), one wrong boundary length (hex), and an instance that raises.
* The hex list reaches all three branches of the top-or-long dichotomy.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def flip_layout_colour(bx, out):
    graph, order, coloring, *rest = out
    colors = dict(coloring.edges())
    first = next(iter(colors))
    colors[first] = (colors[first] + 1) % 3
    return (graph, order, bx.layout.EdgeColoring(colors, k=3), *rest)


def flip_direction(bx, result):
    table = result.direction_table
    key = next(iter(table.entries))
    table.entries[key] = table.entries[key].opposite
    return result


def wrong_solver_value(bx, result):
    result.value += 1
    return result


def wrong_boundary_length(bx, out):
    code, text = out
    doc = json.loads(text)
    doc["boundaries"][0]["length"] += 1
    return code, json.dumps(doc)


CORRUPTIONS = {
    "layout": flip_layout_colour,
    "pipeline": flip_direction,
    "solve": wrong_solver_value,
    "hex": wrong_boundary_length,
}


def check_reproducible(name: str) -> list[str]:
    describe, _ = workloads.WORKLOADS[name]
    first, again, other = describe(7), describe(7), describe(8)
    problems = []
    if len(first) != workloads.LIST_LENGTHS[name]:
        problems.append(f"{name}: list of {len(first)}, expected {workloads.LIST_LENGTHS[name]}")
    if json.dumps(first) != json.dumps(again):
        problems.append(f"{name}: seed 7 gave two different lists")
    if json.dumps(first) == json.dumps(other):
        problems.append(f"{name}: seeds 7 and 8 gave the same list")
    return problems


def check_corruption(name: str, bx, workdir: Path) -> list[str]:
    describe, load = workloads.WORKLOADS[name]
    instances = load(bx, describe(7), workdir)
    # The cheapest instance; for hex, the cheapest with a boundary line.
    instances.sort(key=lambda inst: inst.cost)
    if name == "hex":
        instances = [i for i in instances if i.label.startswith("hex random")]
    good = instances[0]
    corrupt = CORRUPTIONS[name]
    bad = workloads.Instance("corrupted", lambda: corrupt(bx, good.run()), good.check)

    def explode():
        raise RuntimeError("boom")

    raising = workloads.Instance("raising", explode, good.check)
    tally = run.Tally()
    tally.one_pass([good, bad, good, raising])
    labels = sorted(f.split(":")[0] for f in tally.failures)
    if len(tally.latencies) != 4 or labels != ["corrupted", "raising"]:
        return [f"{name}: expected the corrupted and raising instances to fail, got {tally.failures}"]
    print(f"ok   {name}: corruption caught ({tally.failures[0].split(': ', 1)[1]}); "
          f"failed_share {len(tally.failures) / len(tally.latencies):.2f}")
    return []


def check_hex_branches() -> list[str]:
    seen = set()
    for d in workloads.describe_hex(7):
        seen.add(oracles.hex_expected(d["chi"], d["s"], d["long_length"])["branch"])
    missing = {"skipped", "top_cells", "long_boundary"} - seen
    return [f"hex: branches {sorted(missing)} never occur"] if missing else []


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        found = check_reproducible(name)
        problems += found
        if not found:
            print(f"ok   {name}: same seed, same list of {workloads.LIST_LENGTHS[name]}; "
                  "other seed, other list")
    bx = run.import_boxslash()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="checks-", dir=run.ROOT / ".bench_work"))
    try:
        for name in workloads.WORKLOADS:
            problems += check_corruption(name, bx, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (run.ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    found = check_hex_branches()
    problems += found
    if not found:
        print("ok   hex: skipped, top_cells and long_boundary all occur")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
