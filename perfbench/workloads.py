"""The benchmark's three workloads: how each builds its tasks from a seed,
runs one task through dvbcalc's public API, and checks the task's output.

Every workload runs a fixed *menu* of input shapes per round; the seed picks
the contents (coefficients, sample points, which scenario of a shape) and
the order.
Task cost depends mostly on the shape, so a fixed menu keeps the work of a
run nearly the same from seed to seed while the inputs still change.  One
round is sized to take about NOMINAL_SECONDS on a 2-core x86 host running
CPython 3.11; `--seconds` scales the number of tasks in proportion.

`golden.json` holds, for the two workloads that start from
`gen_random_scenario`, a pool of generator seeds per menu shape with the
sha256 of each seed's output at the commit that defined the benchmark.
`make_golden.py` rebuilds it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# dvbcalc functions are looked up on their modules at call time, never bound
# here by name, so that the traced run's wrappers see every call.
import dvbcalc.cli
import dvbcalc.core
import dvbcalc.duality
import dvbcalc.scenario
import dvbcalc.suites
from dvbcalc.core import Chart, DecomposedDVB
from dvbcalc.scenario import Scenario

NOMINAL_SECONDS = 20
GOLDEN_PATH = Path(__file__).with_name("golden.json")
SUITES = ("axioms", "duality", "third-dual", "geometry")
SYMBOLIC_MAX_RANK = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shape_key(dim: int, ranks) -> str:
    return f"{dim};{','.join(str(r) for r in ranks)}"


@dataclass(frozen=True)
class Workload:
    name: str
    # rng -> the task inputs of one round of the menu
    make_round: Callable[[random.Random], list]
    # task input -> outputs
    run: Callable[[object], object]
    # (task input, outputs) -> None, or why the output is wrong
    check: Callable[[object, object], str | None]

    def tasks(self, seed: int, seconds: float) -> list:
        """Shuffled rounds of the menu; one round per NOMINAL_SECONDS."""
        rng = random.Random(seed)
        out: list = []
        count = None
        while count is None or len(out) < count:
            round_ = self.make_round(rng)
            rng.shuffle(round_)
            if count is None:
                count = max(1, round(len(round_) * seconds / NOMINAL_SECONDS))
            out.extend(round_)
        return out[:count]


# ---------------------------------------------------------------------------
# axioms-sweep: criterion 1's bundles, at criterion 1's 100 samples

AXIOM_STRATA = 12


def _axiom_menu() -> list[tuple[int, tuple[int, int, int]]]:
    """36 bundle shapes spanning criterion 1's range (dim 1-3, ranks 0-4).

    Rank triples are sorted by the number of polynomials `DVBMorphism.at`
    evaluates (the three square blocks plus the bilinear block) and cut into
    AXIOM_STRATA strata of similar cost.  Each stratum gives three triples,
    at evenly spaced places in it, one for each dim.
    """
    triples = sorted(
        itertools.product(range(5), repeat=3),
        key=lambda r: (r[0] ** 2 + r[1] ** 2 + r[2] ** 2 + r[0] * r[1] * r[2], r),
    )
    size = len(triples) / AXIOM_STRATA
    menu = []
    for i in range(AXIOM_STRATA):
        stratum = triples[round(i * size) : round((i + 1) * size)]
        for j, dim in enumerate((1, 2, 3)):
            menu.append((dim, stratum[(2 * j + 1) * len(stratum) // 6]))
    return menu


def _axioms_round(rng: random.Random) -> list[Scenario]:
    return [
        Scenario(
            bundle=DecomposedDVB(Chart.of_dim(dim), *ranks),
            seed=rng.randrange(1 << 31),
            samples=100,
            bound=7,
        )
        for dim, ranks in _axiom_menu()
    ]


def _check_report(scenario: Scenario, report) -> str | None:
    if report.passed:
        return None
    return "FAIL " + ", ".join(r.prop_id for r in report.results if not r.passed)


AXIOMS = Workload(
    name="axioms-sweep",
    make_round=_axioms_round,
    run=lambda sc: dvbcalc.suites.run_suite("axioms", sc),
    check=_check_report,
)


# ---------------------------------------------------------------------------
# check-all: `dvb check all --random --seed S`, in-process, one suite a task
#
# Each scenario runs as the four `dvb check <suite>` commands that `check
# all` concatenates.  That gives 48 tasks of 0.2-1 s a run instead of 12 of
# 1-4 s, so the tail percentile has ten tasks above it; with 12 tasks it
# would be the second-fastest task.  The traced run splits the time by suite
# the same way.


@functools.cache
def _golden(section: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[section]


def _pool_round(section: str, per_entry=lambda entry: [entry]):
    """`picks` distinct pooled scenarios of each menu shape, per round."""

    def make_round(rng: random.Random) -> list:
        golden = _golden(section)
        return [
            task
            for key in golden["menu"]
            for entry in rng.sample(golden["pool"][key], golden["picks"])
            for task in per_entry(entry)
        ]

    return make_round


def report_body(text: str) -> str:
    """CLI report text without its trailing `elapsed:` timing line."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("elapsed:")
    )


def run_check(task: tuple[dict, str]) -> tuple[int, str]:
    """`dvb check <suite> --random --seed S`; returns exit code and stdout."""
    entry, suite = task
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = dvbcalc.cli.main(["check", suite, "--random", "--seed", str(entry["seed"])])
    return code, buffer.getvalue()


def _check_check(task: tuple[dict, str], out: tuple[int, str]) -> str | None:
    (entry, suite), (code, text) = task, out
    if code != 0 or "[FAIL]" in text:
        return f"seed {entry['seed']} suite {suite}: exit {code}"
    if sha256(report_body(text)) != entry[suite]:
        return f"seed {entry['seed']} suite {suite}: report differs from golden"
    return None


CHECK_ALL = Workload(
    name="check-all",
    make_round=_pool_round("check-all", lambda entry: [(entry, s) for s in SUITES]),
    run=run_check,
    check=_check_check,
)


# ---------------------------------------------------------------------------
# symbolic: scenario text round trip and polynomial block algebra


def morphism_text(m) -> str:
    """Every block entry of a block morphism, one polynomial per line."""
    rows = [row for block in (m.phi_l, m.phi_c, m.phi_r) for row in block.entries]
    rows += [row for plane in m.psi for row in plane]
    return "".join(str(p) + "\n" for row in rows for p in row)


def run_symbolic(entry: dict) -> dict:
    scen, core = dvbcalc.scenario, dvbcalc.core
    scenario = scen.gen_random_scenario(entry["seed"], max_rank=SYMBOLIC_MAX_RANK)
    text = scen.scenario_to_text(scenario)
    back = scen.scenario_from_text(text)
    phi = back.morphism
    inverse = core.invert_morphism_poly(phi)
    return {
        "text": text,
        "text_again": scen.scenario_to_text(back),
        "round_trip": core.compose_morphisms(phi, inverse),
        "identity": core.identity_morphism(phi.source),
        "inverse": inverse,
        "dual": dvbcalc.duality.right_dual_morphism_poly(phi),
    }


def _check_symbolic(entry: dict, out: dict) -> str | None:
    seed = entry["seed"]
    if sha256(out["text"]) != entry["gen"]:
        return f"seed {seed}: generated scenario differs from golden"
    if out["text_again"] != out["text"]:
        return f"seed {seed}: scenario text does not survive a parse round trip"
    if out["round_trip"] != out["identity"]:
        return f"seed {seed}: phi composed with its inverse is not the identity"
    if sha256(morphism_text(out["inverse"]) + morphism_text(out["dual"])) != entry["algebra"]:
        return f"seed {seed}: inverse or right dual differs from golden"
    return None


SYMBOLIC = Workload(
    name="symbolic",
    make_round=_pool_round("symbolic"),
    run=run_symbolic,
    check=_check_symbolic,
)

WORKLOADS = {w.name: w for w in (AXIOMS, CHECK_ALL, SYMBOLIC)}
