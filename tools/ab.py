"""Compare two checkouts on one perfbench workload in alternating pairs.

Run from anywhere:

    python3 tools/ab.py DIR_A DIR_B --workload axioms-sweep --pairs 10

Pair i runs `perfbench/run.py --trace 0 --seed 1100+i` in DIR_A and in
DIR_B, one after the other and never in parallel, for the run length of
this repository's `BENCHMARK.json` (through `bench._perfbench`); the side
that runs first alternates from pair to pair, so a drift of the host's
speed falls on both sides alike.  Every run is made as on a fresh
checkout, the benchmark's own regime: no bytecode is written and none of
the checkout's is read, so both checkouts must be clean copies with no
`__pycache__` under `src/` or `perfbench/` (`git clone` or `git archive`).

For every end-to-end metric of that `BENCHMARK.json` it prints each side's
quartiles, the median over the pairs of the ratio B/A and in how many
pairs B was better (lower or higher, as the metric says), and two
verdicts.  `gain` is yes when B was better in at least 9 of every 10
pairs and B's median beats A's by more than A's interquartile range, the
rule a claimed gain must meet.  `past bound` is YES when B's median is
worse than A's by more than the metric's `bound`, the most a change may
lose.  `unresolved` is YES when A's own spread, q3 - q1, is wider than
`bound` times A's median, so these runs cannot tell a loss of the bound
from noise, unless every run of B beats every run of A.  A run with a
failed task stops the comparison.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import statistics
from pathlib import Path

import bench

SEED_BASE = 1100


def _run(root: Path, workload: str, seed: int) -> dict[str, float]:
    run = bench._perfbench(root, workload, seed, 0)
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
    for i in range(args.pairs):
        seed = SEED_BASE + i
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(_run(roots[side], args.workload, seed))
        a, b = runs[0][-1], runs[1][-1]
        line = "  ".join(f"{m['name']} {a[m['name']]:.4g}/{b[m['name']]:.4g}" for m in metrics)
        print(f"pair {i + 1} seed {seed}: {line}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs: A = {roots[0]}, B = {roots[1]}")
    print(
        f"{'metric':<13} {'A q1 / median / q3':>26} {'B q1 / median / q3':>26}"
        f" {'B/A':>6} {'B better':>8} {'gain':>5} {'past bound':>10} {'unresolved':>10}"
    )
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs[0]]
        b = [r[name] for r in runs[1]]
        qa, qb = bench._spread(a), bench._spread(b)
        ratio = statistics.median(y / x for x, y in zip(a, b))
        better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        # B's lead over A at the medians, in the metric's own direction
        lead = (qa["median"] - qb["median"]) * (1 if lower else -1)
        gain = better * 10 >= 9 * args.pairs and lead > qa["q3"] - qa["q1"]
        past = -lead > m["bound"] * abs(qa["median"])
        b_beats_all = max(b) < min(a) if lower else min(b) > max(a)
        unresolved = qa["q3"] - qa["q1"] > m["bound"] * abs(qa["median"]) and not b_beats_all
        quartiles = lambda q: f"{q['q1']:.4g} / {q['median']:.4g} / {q['q3']:.4g}"
        print(
            f"{name:<13} {quartiles(qa):>26} {quartiles(qb):>26} {ratio:>6.3f}"
            f" {better:>4}/{args.pairs:<3} {'yes' if gain else 'no':>5}"
            f" {'YES' if past else 'no':>10} {'YES' if unresolved else 'no':>10}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
