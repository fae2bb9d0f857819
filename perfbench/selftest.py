"""Fast self-test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each run is correct, prints every metric of metricspec.py with its unit, and
puts exactly the metrics of BENCHMARK.json into its result line.  Then runs
a traced run in this process and checks that every dvbcalc function the
tracer replaced is the original again afterwards.  Run from the repository
root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys

import metricspec
import run
from tracer import LAYERS

SECONDS = "0.5"


def _names(spec) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec}


def check_output(stdout: str, printed: dict[str, str], expected: dict[str, str]) -> list[str]:
    problems = []
    lines = stdout.splitlines()
    for name, unit in printed.items():
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines):
            problems.append(f"metric {name} [{unit}] not printed")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"run not correct: {result['failed']} of {result['attempted']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    return problems


def _snapshot() -> dict:
    """Every attribute of every dvbcalc module and of the classes they define."""
    out = {}
    for layer in ("",) + LAYERS:
        module = importlib.import_module(f"dvbcalc.{layer}" if layer else "dvbcalc")
        for name, obj in vars(module).items():
            out[(module.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, value in vars(obj).items():
                    out[(module.__name__, name, attr)] = value
    return out


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end, per_layer = _names(bench["end_to_end"]), _names(bench["per_layer"])
    printed_e2e = {name: spec[0] for name, spec in metricspec.END_TO_END.items()}
    printed_e2e.update(metricspec.END_TO_END_EXTRA)
    printed_layer = {name: spec[0] for name, spec in metricspec.PER_LAYER.items()}

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, printed, expected in ((0, printed_e2e, end_to_end), (1, printed_layer, per_layer)):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr}")
                continue
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check_output(proc.stdout, printed, expected)]

    dvbcalc = run._import_dvbcalc()
    before = _snapshot()
    original_eval = dvbcalc.ring.MultiPoly.eval
    with contextlib.redirect_stdout(io.StringIO()):
        run.main(["--workload", "symbolic", "--seed", "3", "--seconds", SECONDS, "--trace", "1"])
    if dvbcalc.ring.MultiPoly.eval is not original_eval:
        problems.append("MultiPoly.eval is still wrapped after a traced run")
    after = _snapshot()
    changed = sorted(str(k) for k in before if after.get(k) is not before[k])
    if changed:
        problems.append(f"not restored after a traced run: {changed[:5]}")

    for line in problems:
        print(line)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
