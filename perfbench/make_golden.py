"""Rebuild perfbench/golden.json: seed pools and output digests.

For each menu shape below, the first POOL_SIZE generator seeds whose
`gen_random_scenario` scenario has that shape form the shape's pool.  For
each pooled seed the file keeps the sha256 digests the benchmark checks:

* check-all: the body (report without its `elapsed:` line) of
  `dvb check <suite> --random --seed S` for each suite;
* symbolic: `dvb gen --seed S --max-rank 6` output, and the text of the
  polynomial inverse and right dual of the scenario morphism.

Digests record the program's output when they were made; rebuild them only
when a change to the output is intended.  Run from the repository root,
naming the sections to rebuild (default: both):

    python3 perfbench/make_golden.py [check-all] [symbolic]
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dvbcalc.scenario import gen_random_scenario  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = 5

# (dim, n_F, n_C, n_E).  check-all covers the default generator's range
# (dim 1-3, ranks 1-3) from the smallest scenario to the largest.
CHECK_ALL_MENU = (
    (1, 1, 2, 1), (1, 2, 2, 2), (1, 1, 3, 3), (1, 2, 3, 3),
    (2, 1, 1, 1), (2, 3, 1, 2), (2, 2, 3, 2), (2, 3, 3, 3),
    (3, 3, 1, 1), (3, 1, 2, 2), (3, 2, 2, 2), (3, 3, 2, 2),
)

# symbolic spans block ranks 1-6 over dim 1-3; 11 of the 16 shapes have a
# rank-6 block.  Cost varies with the random coefficients by up to 2x within
# a shape, so each round takes SYMBOLIC_PICKS scenarios of every shape, and
# the shapes are ones whose task takes 0.2-1 s: a 5-14 s task (two rank-6
# blocks over dim 3) would swing a whole run on one seed's pick.
SYMBOLIC_MENU = (
    (1, 3, 3, 6), (1, 2, 6, 5), (1, 4, 5, 5), (1, 4, 6, 4),
    (1, 4, 2, 6), (1, 2, 1, 6), (2, 3, 1, 6), (2, 4, 2, 5),
    (2, 3, 3, 5), (2, 1, 6, 1), (2, 4, 3, 5), (2, 4, 4, 4),
    (3, 1, 3, 6), (3, 3, 1, 6), (3, 6, 1, 1), (3, 2, 6, 1),
)
SYMBOLIC_PICKS = 2


def _pools(menu, max_rank: int) -> dict[str, list[int]]:
    wanted = {workloads.shape_key(s[0], s[1:]) for s in menu}
    pools: dict[str, list[int]] = {key: [] for key in wanted}
    for seed in itertools.count():
        b = gen_random_scenario(seed, max_rank=max_rank).bundle
        key = workloads.shape_key(b.chart.dim, b.ranks)
        if key in wanted and len(pools[key]) < POOL_SIZE:
            pools[key].append(seed)
            if all(len(p) == POOL_SIZE for p in pools.values()):
                return pools


def _check_all_entry(seed: int) -> dict:
    entry = {"seed": seed}
    for suite in workloads.SUITES:
        code, text = workloads.run_check((entry, suite))
        if code != 0:
            raise SystemExit(f"check {suite} --seed {seed} exited {code}")
        entry[suite] = workloads.sha256(workloads.report_body(text))
    return entry


def _symbolic_entry(seed: int) -> dict:
    out = workloads.run_symbolic({"seed": seed})
    if out["round_trip"] != out["identity"] or out["text_again"] != out["text"]:
        raise SystemExit(f"symbolic seed {seed} fails its own checks")
    return {
        "seed": seed,
        "gen": workloads.sha256(out["text"]),
        "algebra": workloads.sha256(
            workloads.morphism_text(out["inverse"]) + workloads.morphism_text(out["dual"])
        ),
    }


def _section(menu, max_rank: int, picks: int, make_entry) -> dict:
    pools = _pools(menu, max_rank)
    keys = [workloads.shape_key(s[0], s[1:]) for s in menu]
    return {
        "max_rank": max_rank,
        "menu": keys,
        "picks": picks,
        "pool": {key: [make_entry(seed) for seed in pools[key]] for key in keys},
    }


SECTIONS = {
    "check-all": lambda: _section(CHECK_ALL_MENU, 3, 1, _check_all_entry),
    "symbolic": lambda: _section(
        SYMBOLIC_MENU, workloads.SYMBOLIC_MAX_RANK, SYMBOLIC_PICKS, _symbolic_entry
    ),
}


def main(names) -> None:
    path = workloads.GOLDEN_PATH
    golden = json.loads(path.read_text()) if path.exists() else {}
    for name in names or SECTIONS:
        golden[name] = SECTIONS[name]()
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
