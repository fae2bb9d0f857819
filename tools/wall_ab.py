"""Wall-time A/B of two checkouts on one perfbench workload, in one process.

Run from anywhere:

    python3 tools/wall_ab.py DIR_A DIR_B --workload symbolic --rounds 10

Both checkouts' `src/dvbcalc` are imported into this one interpreter, each
with its own `perfbench/workloads.py`, which builds that side's tasks and
checks that side's outputs; nothing under `perfbench/` is edited.  Round i
builds one menu round of tasks from seed 1100+i on each side and runs every
task on both sides back to back, the side that runs first alternating from
task to task, so a drift of the host's speed falls on both sides alike.  It
runs the round's task list again, in the same way, until side A's task times
sum to at least perfbench's `NOMINAL_SECONDS`, the length of a perfbench
run, so a round of a light workload is not a fraction of a second.  It
prints each round's repeat count and summed task times, the median over
the rounds of the ratio B/A and in how many rounds B was faster.  A failed output check on
either side stops the comparison.  Only the standard library is used.

Each timed run starts after a full `gc.collect()`, outside the timer.
Without it, a run paid for collecting the cycles the run before it left,
which is the other side's run of the same task whenever it runs second; on
the fixed seeds the heavy tasks fall more often on one order than on the
other, so two copies of one tree read a `symbolic` ratio of about 0.99
(median 0.995 over 13 runs of 20 rounds), and about 1.01 with the first
side's turns swapped.  With it, 8 such runs, 4 in each order, read
0.996-1.008, median 1.002 (2-core host, Python 3.11.7), when a round ran
its menu once, 0.5-0.8 s a side on `symbolic`.  With rounds of at least
`NOMINAL_SECONDS` a side, one 10-round `symbolic` run of two trees whose
timed code differs only in which module holds the number reader read
rounds of 0.994-1.009, median 1.000.

One fresh process per side cannot resolve a few-percent change on a host
whose speed drifts within seconds; back-to-back tasks in one process can.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SEED_BASE = 1100


class Side:
    """One checkout: its dvbcalc modules and its perfbench workload."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        for name in [n for n in sys.modules if n == "dvbcalc" or n.startswith("dvbcalc.")]:
            del sys.modules[name]
        sys.path.insert(0, str(root / "src"))
        try:
            spec = importlib.util.spec_from_file_location(
                f"workloads_{id(self)}", root / "perfbench" / "workloads.py"
            )
            module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(str(root / "src"))
        origin = Path(sys.modules["dvbcalc"].__file__).resolve().parent
        if origin != (root / "src" / "dvbcalc").resolve():
            raise SystemExit(f"error: {root}: imported dvbcalc from {origin}")
        self.modules = {
            n: m for n, m in sys.modules.items() if n == "dvbcalc" or n.startswith("dvbcalc.")
        }
        self.workload = module.WORKLOADS[workload]
        self.nominal = module.NOMINAL_SECONDS

    def run(self, task) -> float:
        """Run one task with this side's modules installed; its wall time."""
        sys.modules.update(self.modules)
        gc.collect()
        start = time.perf_counter()
        out = self.workload.run(task)
        elapsed = time.perf_counter() - start
        problem = self.workload.check(task, out)
        if problem:
            raise SystemExit(f"error: {self.root}: {problem}")
        return elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("dir_a", type=Path, help="the checkout to compare against (the parent)")
    p.add_argument("dir_b", type=Path, help="the checkout under test (the change)")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sides = Side(args.dir_a.resolve(), args.workload), Side(args.dir_b.resolve(), args.workload)

    sums: list[tuple[float, float]] = []
    for i in range(args.rounds):
        seed = SEED_BASE + i
        tasks = [side.workload.tasks(seed, side.nominal) for side in sides]
        if len(tasks[0]) != len(tasks[1]):
            raise SystemExit(f"error: seed {seed}: the two sides build different task counts")
        total, turn, repeats = [0.0, 0.0], i, 0
        while total[0] < sides[0].nominal:
            repeats += 1
            for pair in zip(*tasks):
                for k in ((0, 1) if turn % 2 == 0 else (1, 0)):
                    total[k] += sides[k].run(pair[k])
                turn += 1
        sums.append((total[0], total[1]))
        print(
            f"round {i + 1} seed {seed}: {len(tasks[0])} tasks x {repeats}, A {total[0]:.3f} s,"
            f" B {total[1]:.3f} s, B/A {total[1] / total[0]:.3f}",
            flush=True,
        )

    ratio = statistics.median(b / a for a, b in sums)
    wins = sum(b < a for a, b in sums)
    print(f"\n{args.workload}, {args.rounds} rounds: A = {sides[0].root}, B = {sides[1].root}")
    print(f"median round ratio B/A {ratio:.3f}, B faster in {wins}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
