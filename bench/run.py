"""Benchmark for boxslash: four workloads, checked verdicts, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload layout --seed 1 --seconds 28 --trace 0

Workloads: layout, pipeline, solve, hex (see workloads.py and README.md).
Everything runs in this one process, one instance at a time.

A run sets up several times and reports the median set-up time: each
set-up re-imports boxslash, generates the seeded instance list, loads
it (builds inputs, writes files) and warms up on the cheapest instance.
It then makes passes over the list until --seconds have passed and
enough whole passes are done (min_passes); the last pass may stop part
way.  Each instance is timed from its first call to its verdict; its
outputs are checked afterwards, outside the timed region.  A garbage
collection runs before each instance, outside the timed region, so
every instance starts from the same collector state.

Times are scaled to a reference host speed.  The host is shared, and
other tenants slow it by up to 80% for minutes at a time, which no
statistic over one run can remove.  So around every timed region the
benchmark times a fixed calibration loop of its own (best of
CALIBRATION_REPEATS, before and after), and scales the measured wall
time by REFERENCE_CALIBRATION_S over the mean of the two.  On a host as
fast as the reference the scaled time is the wall time; on a slowed host
both the program and the loop slow, and the scaled time stays put.  The
loop uses no boxslash code, so a slower program still reads slower.
An instance's verdict time is the median of its scaled repetitions in
the run; the end-to-end metrics are computed over these per-instance
times.  Set-up times are scaled the same way.  Raw wall-time figures are
printed alongside for reference; per-layer times are not scaled.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes, reports the per-layer metrics of the traced
passes (per pass over the list) and the tracing overhead, and prints
the per-instance times of the North-star inputs.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "boxslash" / "__init__.py", ROOT / "tests" / "helpers_naive.py")

#: Verdicts that must lie beyond the 90th percentile in one run.
MIN_BEYOND_P90 = 10
SETUP_REPEATS = 9
MODULES = ("product", "layout", "solver", "sequences", "passes", "hexgrid", "cli")


def import_boxslash() -> SimpleNamespace:
    """Import boxslash afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n.split(".")[0] == "boxslash"]:
        del sys.modules[name]
    importlib.import_module("boxslash")
    return SimpleNamespace(**{m: importlib.import_module(f"boxslash.{m}") for m in MODULES})


#: Steps of the calibration loop; about 1.5 ms on the reference host.
CALIBRATION_STEPS = 2000
CALIBRATION_REPEATS = 2
#: The calibration loop's best time on the reference host (2-core x86-64
#: VM, Python 3.11.7, quiet).  Scaled times are in that host's seconds.
REFERENCE_CALIBRATION_S = 0.0015


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col


def _calibration_loop() -> int:
    """Objects, tuples, dicts and sets: the operations the program is made of."""
    seen: dict = {}
    keys: set = set()
    total = 0
    for i in range(CALIBRATION_STEPS):
        cell = _Cell(i % 61, i % 17)
        key = (cell.row, cell.col)
        seen[key] = seen.get(key, 0) + 1
        keys.add(frozenset(key))
        total += len(keys) if cell.row > cell.col else -1
    return total


def calibrate() -> float:
    """The calibration loop's best time now, in seconds."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - started)
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """Wall time scaled to the reference host speed."""
    return elapsed * REFERENCE_CALIBRATION_S / ((before + after) / 2)


def setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; return the last instance list and the median
    scaled and raw times."""
    import workloads

    describe, load = workloads.WORKLOADS[workload]
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        started = time.perf_counter()
        bx = import_boxslash()
        instances = load(bx, describe(seed), workdir)
        min(instances, key=lambda inst: inst.cost).run()
        elapsed = time.perf_counter() - started
        times.append(scaled(elapsed, before, calibrate()))
        raw.append(elapsed)
    return instances, statistics.median(times), statistics.median(raw)


class Tally:
    """Verdict latencies, per instance, and failures over a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_instance: dict[int, list[float]] = {}
        self.wall_by_instance: dict[int, list[float]] = {}
        self.failures: list[str] = []

    def typical(self) -> list[float]:
        """Each instance's median scaled verdict time."""
        return [statistics.median(times) for times in self.by_instance.values()]

    def one(self, inst, index: int = 0) -> float:
        """Time and check one verdict; return its scaled time."""
        gc.collect()
        before = calibrate()
        started = time.perf_counter()
        try:
            output = inst.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising instance is a failed verdict
            output, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - started
        after = calibrate()
        if error is None:
            try:
                error = inst.check(output)
            except Exception as exc:  # noqa: BLE001 - malformed output fails its check
                error = f"check raised {exc!r}"
        self.latencies.append(elapsed)
        self.by_instance.setdefault(index, []).append(scaled(elapsed, before, after))
        self.wall_by_instance.setdefault(index, []).append(elapsed)
        if error is not None:
            self.failures.append(f"{inst.label}: {error}")
        return self.by_instance[index][-1]

    def one_pass(self, instances, deadline: float = math.inf) -> float:
        """Time every instance once, or until the deadline passes."""
        # Frozen objects (inputs, oracle caches, the tally) are skipped by
        # every later collection, so the benchmark's own heap does not
        # make the program's collections slower as the run goes on.
        gc.collect()
        gc.freeze()
        total = 0.0
        for index, inst in enumerate(instances):
            if time.perf_counter() >= deadline:
                break
            total += self.one(inst, index)
        return total


def min_passes(n: int) -> int:
    """Whole passes that put MIN_BEYOND_P90 verdicts beyond the 90th
    percentile of n per-instance times (statistics.quantiles, exclusive):
    five for a 25-instance list, one for 105."""
    beyond = n - math.floor(0.9 * (n + 1))
    return math.ceil(MIN_BEYOND_P90 / beyond)


def measure(instances, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for _ in range(min_passes(len(instances))):
        tally.one_pass(instances)
    while time.perf_counter() < deadline:
        tally.one_pass(instances, deadline)
    return tally


def measure_traced(instances, seconds: float):
    """Alternate untraced and traced passes; per-pass layer numbers."""
    from tracing import Tracer

    tally = Tally()
    tracer = Tracer()
    plain, traced, layers, northstar = [], [], [], {}
    started = time.perf_counter()

    def traced_pass():
        gc.collect()
        gc.freeze()
        tracer.install()
        mark = tracer.mark()
        tracer.counts.clear()
        elapsed = 0.0
        for index, inst in enumerate(instances):
            before = tracer.mark()
            elapsed += tally.one(inst, index)
            if inst.northstar:
                spans = {name: tracer.durations(name, before, tracer.mark())
                         for name in ("layout.validate_queue", "passes.run_passes")}
                northstar.setdefault(inst.northstar, []).append(
                    (tally.latencies[-1], {k: sum(v) for k, v in spans.items() if v}))
        tracer.uninstall()
        traced.append(elapsed)
        self_times, calls = tracer.self_times(mark)
        layers.append((self_times, calls, dict(tracer.counts)))

    # Untraced and traced passes alternate in the order U T T U U T ...,
    # so that drift over the run weighs on both sides alike.
    while not traced or time.perf_counter() - started < seconds:
        if len(traced) % 2 == 0:
            plain.append(tally.one_pass(instances))
            traced_pass()
        else:
            traced_pass()
            plain.append(tally.one_pass(instances))
    return tally, tracer, plain, traced, layers, northstar


def per_layer_metrics(plain, traced, layers) -> dict:
    from tracing import CALL_METRICS, COUNT_METRICS, TIME_METRICS, time_metric_name

    passes = len(layers)
    out = {}
    for metric in TIME_METRICS:
        value = sum(t.get(metric, 0.0) for t, _, _ in layers) / passes
        out[time_metric_name(metric)] = (value, "s")
    for metric in CALL_METRICS:
        out[f"{metric}_calls"] = (sum(c.get(metric, 0) for _, c, _ in layers) / passes, "count")
    for metric in COUNT_METRICS:
        out[metric] = (sum(n.get(metric, 0) for _, _, n in layers) / passes, "count")
    out["trace.overhead_share"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    return out


def end_to_end_metrics(tally: Tally, setup_s: float) -> dict:
    typical = tally.typical()
    return {
        "instances_per_s": (len(typical) / sum(typical), "1/s"),
        "verdict_p50_ms": (statistics.median(typical) * 1000, "ms"),
        "verdict_p90_ms": (statistics.quantiles(typical, n=10)[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_summary(tally: Tally, setup_raw: float) -> str:
    """The same figures from unscaled wall times, for reference."""
    typical = [statistics.median(times) for times in tally.wall_by_instance.values()]
    n = len(typical)
    return (f"unscaled wall time: instances_per_s {n / sum(typical):.4f}  "
            f"p50 {statistics.median(typical) * 1000:.2f} ms  "
            f"p90 {statistics.quantiles(typical, n=10)[8] * 1000:.2f} ms  setup {setup_raw:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("layout", "pipeline", "solve", "hex"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"bench: cannot find {', '.join(missing)}; run from a boxslash checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        instances, setup_s, setup_raw = setup(args.workload, args.seed, workdir)
        if args.trace:
            tally, tracer, plain, traced, layers, northstar = measure_traced(instances, args.seconds)
            metrics = per_layer_metrics(plain, traced, layers)
        else:
            tally = measure(instances, args.seconds)
            metrics = end_to_end_metrics(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted, failed = len(tally.latencies), len(tally.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(instances)}  verdicts {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    if not args.trace:
        print(raw_summary(tally, setup_raw))
    print(f"{'failed_share':44s} {failed / attempted:14.6f} share ({failed}/{attempted})")
    for line in sorted(set(tally.failures))[:20]:
        print(f"FAILED {line}")
    if args.trace:
        for target in tracer.absent:
            print(f"absent {target}: reported as 0")
        for name, rows in sorted(northstar.items()):
            verdict = statistics.median(r[0] for r in rows)
            inner = {k: statistics.median(r[1].get(k, 0.0) for r in rows) for k in rows[0][1]}
            detail = "  ".join(f"{k} {v:.3f} s" for k, v in inner.items())
            print(f"north-star {name}: verdict {verdict:.3f} s  {detail}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
