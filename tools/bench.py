"""Record one commit's benchmark numbers in BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench.py --pr 12

It runs, one after another and never in parallel:

* `perfbench/run.py --trace 0` for every workload on each of the fixed
  seeds below, and reports the median and quartiles of every end-to-end
  metric per workload;
* one `perfbench/run.py --trace 1` pass on `axioms-sweep` and one on
  `check-all`, with their per-layer metrics and the busy share of
  `core.DVBMorphism.at` from the traced scopes;
* the tier-1 test command and acceptance criterion 1 (whose own gate is
  10 s), each standalone and three times;
* the number of `Fraction.__new__` calls in one in-process round of
  `run_suite("all", gen_random_scenario(s))` for s = 0-11, with the
  scenarios built before counting starts (`fraction_new.calls`), and apart
  from them the `Fraction`s that `ring._fraction` builds from lowest-terms
  pairs without `__new__` (`fraction_new.kernel_fractions`);
* the draws of one in-process round of `run_suite("axioms", ...)` and one
  of `run_suite("all", ...)` on the same scenarios (`draws`): the calls of
  the one pair loop `ring._draw_sample`, the pairs they draw and the
  `core._Sampler.sample` calls among them, deterministic counts, not times;
* the scenario text round trip in one fresh interpreter (`text`): over the
  texts of the first `picks` pool seeds of each `symbolic` menu shape in
  `perfbench/golden.json` (32 texts), the median over 15 passes of the
  time of one `scenario_from_text` pass and of one `scenario_to_text` pass
  over the scenarios just parsed, whose text must be the one read;
* `dvb check duality` and `dvb check third-dual` on the worst-case file
  dense8t3, the duality suite's adjoint contract (duality.05) alone on
  dense8t3 in one interpreter, whose record adds the property's own
  in-process seconds (`in_process_s`, read from the script's stderr) to the
  process wall time, `load_scenario` of dense8t12 (printing the loaded scenario's
  text, so its digest pins the parse of 32-digit coefficients), `load_scenario` of vanish6 and of
  vanish8 (whose `Phi_r` determinants vanish at the parser's first witness
  point, so their certificates take a second one), `dvb check axioms` on
  vanish8all (whose `Phi_r` determinant vanishes at every witness point, so
  the parser refuses it with exit 2) and
  `compose_morphisms` of compose-t8r3-outer after compose-t8r3-inner
  (printing the composite's scenario text), all files written by `tools/worst_case.py` into a
  temporary directory, each in three fresh processes (`worst_case`:
  median and quartiles of the wall time, every exit code, and the sha256 of
  each distinct output with the report's `elapsed:` line taken out);
  perfbench draws only small generator coefficients, so these are the
  numbers that see coefficient height, and the composition is the one that
  sees the product kernel on 32-digit coefficients;
* `tools/census.py`, the line census of `src/dvbcalc` under the library
  traffic and tier-1 (`census`: per module its `lines`, the `tier1_only`
  lines that only tier-1 reaches and the `unreached` lines that neither
  reaches); it adds several minutes;
* `tools/mutants.py`, the mutation run of the suites and tier-1 over `core`,
  `duality`, `ring`, `geomech` and `forms` (`mutants`: the sites per
  module, the stage-1 outcome counts, the stage-2 kills with the test that
  killed each, the survivors by `file:line:column-line:column` and the
  run's wall time); it runs two mutants at a time on a 2-core host and adds
  about 11 minutes;

and records the git sha, whether tracked files had uncommitted edits, the
sha256 of `git diff HEAD` (which names the measured tree when they had),
the Python version, `nproc`, the line counts of `src/` and `tests/` and of
each `src/dvbcalc` module (`lines.src_modules`), and the tier-1 test count.
Every perfbench run is made as on a fresh checkout, the regime the
benchmark's own comparisons run in: `PYTHONDONTWRITEBYTECODE=1`, no
`PYTHONPYCACHEPREFIX`, and a checkout with no `__pycache__` under `src/` or
`perfbench/` (one that has any is refused), so every run compiles
`dvbcalc` and perfbench from source and reads only the interpreter's own
bytecode.  With bytecode, `import dvbcalc.cli` takes 0.10 s and 16.2 MB of
peak RSS against 0.17 s and 19.8 MB without (median of 7, 2-core host,
Python 3.11.7), so a cached run reads a lower `setup_s` and `peak_rss_mb`
than the benchmark's; a cache directory of the run's own would compile the
standard library too, 0.51 s.
It takes about half an hour on a 2-core host.  Only the standard library is
used.  To measure an older commit, copy this file into a clone of that
commit and run it there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import census
import mutants

WORKLOADS = ("axioms-sweep", "check-all", "symbolic")
SEEDS = (1101, 1102, 1103)
TRACED = ("axioms-sweep", "check-all")
TRACED_SEED = 1101
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
REPEATS = 3
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1"
CRITERION_1_GATE_S = 10.0
# run in a fresh interpreter on the checkout's src/; prints the number of
# `Fraction.__new__` calls, then the number of `ring._fraction` calls (bound
# by name in every dvbcalc module that imports it, so each is rebound there)
FRACTION_ROUND = """
import fractions, sys
from dvbcalc import ring
from dvbcalc.scenario import gen_random_scenario
from dvbcalc.suites import run_suite

scenarios = [gen_random_scenario(s) for s in range(12)]
saved = fractions.Fraction.__dict__["__new__"]
made = ring._fraction
calls = kernel = 0

def counting(cls, *args, **kwargs):
    global calls
    calls += 1
    return saved.__func__(cls, *args, **kwargs)

def counting_kernel(n, d):
    global kernel
    kernel += 1
    return made(n, d)

modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dvbcalc"]
bound = [m for m in modules if vars(m).get("_fraction") is made]
fractions.Fraction.__new__ = staticmethod(counting)
for m in bound:
    m._fraction = counting_kernel
for sc in scenarios:
    run_suite("all", sc)
fractions.Fraction.__new__ = saved
for m in bound:
    m._fraction = made
print(calls, kernel)
"""
# run in a fresh interpreter on the checkout's src/; prints, per round, the
# `ring._draw_sample` calls (rebound in every dvbcalc module that imports the
# name), the pairs they draw and the `_Sampler.sample` calls
DRAW_ROUND = """
import sys
from dvbcalc import core, ring
from dvbcalc.scenario import gen_random_scenario
from dvbcalc.suites import run_suite

scenarios = [gen_random_scenario(s) for s in range(12)]
kernel, sample = ring._draw_sample, core._Sampler.sample
counts = [0, 0, 0]

def counting_kernel(rng, bound, dim, lengths):
    counts[0] += 1
    counts[1] += dim + sum(lengths)
    return kernel(rng, bound, dim, lengths)

def counting_sample(self, *lengths):
    counts[2] += 1
    return sample(self, *lengths)

modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dvbcalc"]
for m in modules:
    if vars(m).get("_draw_sample") is kernel:
        m._draw_sample = counting_kernel
core._Sampler.sample = counting_sample
for suite in ("axioms", "all"):
    counts[:] = [0, 0, 0]
    for sc in scenarios:
        run_suite(suite, sc)
    print(suite, *counts)
"""
# prints the scenario text of the loaded file, so the digest pins the parse;
# the record's wall time covers the load and that write
LOAD_SCENARIO = """
import sys
from dvbcalc.scenario import load_scenario, scenario_to_text

print(scenario_to_text(load_scenario(sys.argv[1])), end="")
"""
# run in a fresh interpreter on the checkout's src/; prints the number of
# texts, then the median seconds of one `scenario_from_text` pass over them
# and of one `scenario_to_text` pass over the scenarios that pass made
TEXT_ROUND = """
import json, statistics, time
from dvbcalc.scenario import gen_random_scenario, scenario_from_text, scenario_to_text

with open("perfbench/golden.json", encoding="utf-8") as handle:
    golden = json.load(handle)["symbolic"]
seeds = [e["seed"] for key in golden["menu"] for e in golden["pool"][key][: golden["picks"]]]
texts = [scenario_to_text(gen_random_scenario(s, max_rank=golden["max_rank"])) for s in seeds]
reads, writes = [], []
for _ in range(%d):
    start = time.perf_counter()
    scenarios = [scenario_from_text(text) for text in texts]
    middle = time.perf_counter()
    again = [scenario_to_text(sc) for sc in scenarios]
    reads.append(middle - start)
    writes.append(time.perf_counter() - middle)
    assert again == texts
print(len(texts), statistics.median(reads), statistics.median(writes))
"""
TEXT_PASSES = 15
# prints the scenario text of the outer file with its morphism replaced by
# the composite outer . inner
COMPOSE = """
import dataclasses, sys
from dvbcalc.core import compose_morphisms
from dvbcalc.scenario import load_scenario, scenario_to_text

outer, inner = map(load_scenario, sys.argv[1:])
composite = compose_morphisms(outer.morphism, inner.morphism)
print(scenario_to_text(dataclasses.replace(outer, morphism=composite)), end="")
"""
# prints the report body of duality.05 run alone on the loaded scenario, and
# on stderr the seconds the property took in this process
DUALITY_05 = """
import sys, time
from dvbcalc import suites
from dvbcalc.scenario import load_scenario

scenario = load_scenario(sys.argv[1])
rows = [row for row in suites._DUALITY if row[0] == "duality.05.adjoint-contract"]
start = time.perf_counter()
report = suites._report("duality", scenario, rows)
print(f"in-process: {time.perf_counter() - start} s", file=sys.stderr)
print(report.body(), end="")
"""
IN_PROCESS = re.compile(r"^in-process: (\S+) s$", re.M)
# (record name, files from tools/worst_case.py, interpreter arguments before
# the files' paths)
WORST_CASE = (
    (
        "check duality dense8t3",
        ("dense8t3",),
        ["-m", "dvbcalc.cli", "check", "duality", "--scenario"],
    ),
    ("duality.05 dense8t3", ("dense8t3",), ["-c", DUALITY_05]),
    (
        "check third-dual dense8t3",
        ("dense8t3",),
        ["-m", "dvbcalc.cli", "check", "third-dual", "--scenario"],
    ),
    ("load_scenario dense8t12", ("dense8t12",), ["-c", LOAD_SCENARIO]),
    ("load_scenario vanish6", ("vanish6",), ["-c", LOAD_SCENARIO]),
    ("load_scenario vanish8", ("vanish8",), ["-c", LOAD_SCENARIO]),
    (
        "check axioms vanish8all",
        ("vanish8all",),
        ["-m", "dvbcalc.cli", "check", "axioms", "--scenario"],
    ),
    (
        "compose_morphisms compose-t8r3",
        ("compose-t8r3-outer", "compose-t8r3-inner"),
        ["-c", COMPOSE],
    ),
)


def _perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run as on a fresh checkout, which writes no bytecode
    and reads none of the checkout's: its result line, plus the traced
    scopes.  A checkout with bytecode under `src/` or `perfbench/` is
    refused, since the run would read it."""
    cached = sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("__pycache__"))
    if cached:
        raise SystemExit(f"error: {cached[0]} holds bytecode a run would read; use a clean copy")
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    run = {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    if trace:
        scopes_path = root / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"
        scopes = json.loads(scopes_path.read_text())
        at = scopes.get("core.DVBMorphism.at", {})
        run["metrics"]["core.DVBMorphism.at.busy_share"] = at.get("busy_share", 0.0)
    return run


def _spread(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "runs": values}


def _run_src(root: Path, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run `cmd` on the checkout's src/ and time it."""
    env = dict(os.environ, PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done


def _timed(root: Path, cmd: list[str]) -> tuple[float, str]:
    elapsed, done = _run_src(root, cmd)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}\n{done.stdout[-2000:]}")
    return elapsed, done.stdout


def _tests(root: Path) -> dict:
    pytest = [sys.executable, "-m", "pytest", "-q"]
    tier1, passed = [], None
    for _ in range(REPEATS):
        wall, out = _timed(root, pytest + ["--continue-on-collection-errors"])
        tier1.append(wall)
        passed = int(re.search(r"(\d+) passed", out).group(1))
    walls, gated = [], []
    for _ in range(REPEATS):
        wall, out = _timed(root, pytest + ["-s", CRITERION_1])
        walls.append(wall)
        gated.append(float(re.search(r"criterion 1: PASS .* in ([\d.]+)s", out).group(1)))
    return {
        "tier1": {"passed": passed, "wall_s": _spread(tier1)},
        "criterion_1": {
            "gate_s": CRITERION_1_GATE_S,
            "sweep_s": _spread(gated),
            "process_wall_s": _spread(walls),
        },
    }


def _fraction_calls(root: Path) -> dict:
    _, out = _timed(root, [sys.executable, "-c", FRACTION_ROUND])
    calls, kernel = map(int, out.strip().splitlines()[-1].split())
    return {
        "round": 'run_suite("all", gen_random_scenario(s)) for s = 0-11',
        "calls": calls,
        "kernel_fractions": kernel,
    }


def _draw_counts(root: Path) -> dict:
    _, out = _timed(root, [sys.executable, "-c", DRAW_ROUND])
    rounds = {}
    for line in out.strip().splitlines()[-2:]:
        suite, calls, pairs, samples = line.split()
        rounds[suite] = {"kernel_calls": int(calls), "pairs": int(pairs), "samples": int(samples)}
    return {"round": "run_suite(suite, gen_random_scenario(s)) for s = 0-11", **rounds}


def _text_round(root: Path) -> dict:
    _, out = _timed(root, [sys.executable, "-c", TEXT_ROUND % TEXT_PASSES])
    count, read, write = out.strip().splitlines()[-1].split()
    return {
        "texts": int(count),
        "passes": TEXT_PASSES,
        "scenario_from_text_ms": round(float(read) * 1e3, 2),
        "scenario_to_text_ms": round(float(write) * 1e3, 2),
    }


def _worst_case(root: Path) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        _timed(root, [sys.executable, "tools/worst_case.py", tmp])
        for name, stems, args in WORST_CASE:
            cmd = [sys.executable, *args, *[str(Path(tmp) / f"{stem}.json") for stem in stems]]
            walls, inside, codes, digests = [], [], [], set()
            for _ in range(REPEATS):
                wall, done = _run_src(root, cmd)
                walls.append(wall)
                inside += [float(s) for s in IN_PROCESS.findall(done.stderr)]
                codes.append(done.returncode)
                body = re.sub(r"^elapsed: \d+ ms\n", "", done.stdout, flags=re.M)
                digests.add(hashlib.sha256(body.encode()).hexdigest())
            out[name] = {
                "wall_s": _spread(walls), "exit_codes": codes, "body_sha256": sorted(digests),
            }
            if inside:
                out[name]["in_process_s"] = _spread(inside)
            print(f"{name}: median {out[name]['wall_s']['median']:.2f} s", flush=True)
    return out


def _lines(root: Path, sub: str) -> dict[str, int]:
    """`wc -l` of each .py file under `sub`, keyed by its path below `sub`."""
    base = root / sub
    return {
        str(p.relative_to(base)): len(p.read_text().splitlines())
        for p in sorted(base.rglob("*.py"))
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=root, capture_output=True).stdout

    sha = git("rev-parse", "HEAD").decode().strip()
    # uncommitted edits to tracked files: the numbers are of HEAD plus those,
    # and the digest of the diff tells which edits they were
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    diff_sha = hashlib.sha256(git("diff", "HEAD", "--binary")).hexdigest()

    end_to_end = {}
    for workload in WORKLOADS:
        runs = [_perfbench(root, workload, seed, 0) for seed in SEEDS]
        metrics = {n: _spread([r["metrics"][n] for r in runs]) for n in runs[0]["metrics"]}
        end_to_end[workload] = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}: run_ref median {metrics['run_ref']['median']:.1f}", flush=True)
    traced = {w: _perfbench(root, w, TRACED_SEED, 1) for w in TRACED}

    bench = {
        "pr": args.pr,
        "git_sha": sha,
        "git_dirty": dirty,
        "git_diff_sha256": diff_sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": RUN_SECONDS,
        "lines": {
            "src": sum(_lines(root, "src").values()),
            "tests": sum(_lines(root, "tests").values()),
            "src_modules": _lines(root, "src/dvbcalc"),
        },
        "end_to_end": end_to_end,
        "traced": traced,
        "fraction_new": _fraction_calls(root),
        "draws": _draw_counts(root),
        "text": _text_round(root),
        "worst_case": _worst_case(root),
        **_tests(root),
        "census": census.run(root),
        "mutants": mutants.run(),
    }
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
