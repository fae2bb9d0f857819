"""Compare two checkouts on one perfbench workload in alternating pairs.

Run from anywhere:

    python3 tools/ab.py DIR_A DIR_B --workload axioms-sweep --pairs 10

Pair i runs `perfbench/run.py --trace 0 --seed 1100+i` in DIR_A and in
DIR_B, one after the other and never in parallel, for the run length of
this repository's `BENCHMARK.json` (through `bench._perfbench`); the side
that runs first alternates from pair to pair, so a drift of the host's
speed falls on both sides alike.  Each side reads and writes bytecode only
in a fresh cache of its own (`PYTHONPYCACHEPREFIX`, a temporary directory
per side, written even where `PYTHONDONTWRITEBYTECODE` is set), so both
start from the same cache state whatever `__pycache__` directories the
checkouts hold.  For every end-to-end metric of that `BENCHMARK.json` it
prints the median on each side, the median over the pairs of the ratio
B/A, and in how many pairs B was better (lower or higher, as the metric
says).  A run with a failed task stops the comparison.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
from pathlib import Path

import bench

SEED_BASE = 1100


def _run(root: Path, workload: str, seed: int, pycache: str) -> dict[str, float]:
    run = bench._perfbench(root, workload, seed, 0, pycache)
    if run["failed"]:
        raise SystemExit(f"error: {root}: {run['failed']} of {run['attempted']} tasks failed")
    return run["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("dir_a", type=Path, help="the checkout to compare against (the parent)")
    p.add_argument("dir_b", type=Path, help="the checkout under test (the change)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = args.dir_a.resolve(), args.dir_b.resolve()
    metrics = bench.BENCHMARK["end_to_end"]

    runs: tuple[list[dict], list[dict]] = ([], [])
    with tempfile.TemporaryDirectory() as cache_a, tempfile.TemporaryDirectory() as cache_b:
        caches = cache_a, cache_b
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                runs[side].append(_run(roots[side], args.workload, seed, caches[side]))
            a, b = runs[0][-1], runs[1][-1]
            line = "  ".join(f"{m['name']} {a[m['name']]:.4g}/{b[m['name']]:.4g}" for m in metrics)
            print(f"pair {i + 1} seed {seed}: {line}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs: A = {roots[0]}, B = {roots[1]}")
    print(f"{'metric':<16} {'median A':>12} {'median B':>12} {'ratio B/A':>10} {'B better':>9}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs[0]]
        b = [r[name] for r in runs[1]]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        print(
            f"{name:<16} {statistics.median(a):>12.4g} {statistics.median(b):>12.4g}"
            f" {ratio:>10.3f} {better:>5}/{args.pairs}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
