"""dvbcalc benchmark: one closed-loop client driving dvbcalc's public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload {axioms-sweep,check-all,symbolic}
        --seed N --seconds S --trace {0,1}

The run builds its task list from the seed (workloads.py), then runs the
tasks one after another in this process, with no threads; each task starts
when the previous one has ended.  Every task's output is checked; a wrong
output, a FAIL property or an exception counts as a failed task.

`--trace 0` measures the end-to-end metrics.  `--trace 1` runs the task list
twice, untraced and then with every public dvbcalc function wrapped by
tracer.py, and reports the per-layer metrics; the ratio of the two passes'
times is the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A traced run also
writes every scope's counters to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metricspec
import refkernel
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
PROBE_TIMEOUT = 60


def _import_dvbcalc():
    """Import dvbcalc from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "dvbcalc" / "__init__.py").is_file():
        raise SystemExit(f"error: no dvbcalc sources under {src}")
    sys.path.insert(0, str(src))
    import dvbcalc

    if Path(dvbcalc.__file__).resolve().parent != (src / "dvbcalc").resolve():
        raise SystemExit(f"error: imported dvbcalc from {dvbcalc.__file__}")
    return dvbcalc


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="import dvbcalc, build the task list, print 'ready' and exit",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes from spawn to a built task list."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: setup probe exited {code} after {line!r}")
    return statistics.median(times)


def _measure(workload, tasks, tracer=None) -> dict:
    """Run the task list once: per-task wall times, ref units and failures."""
    seconds, units, failures = [], [], []
    before = refkernel.sample()
    for task in tasks:
        start = time.perf_counter()
        try:
            out, error = workload.run(task), None
        except Exception as exc:  # a crash is a failed task, not a crashed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_task()
        after = refkernel.sample()
        if error is None:
            error = workload.check(task, out)
        if error is not None:
            failures.append(error)
        seconds.append(elapsed)
        units.append(refkernel.unit(before, after))
        before = after
    refs = [s / u for s, u in zip(seconds, units)]
    return {
        "seconds": seconds,
        "refs": refs,
        "units": units,
        "failures": failures,
        "run_ref": sum(refs),
    }


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten tasks above it, and its rank.

    With ten tasks or fewer no percentile qualifies; the minimum is reported.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _end_to_end(args, workload) -> tuple[dict, dict]:
    setup = _setup_seconds(args)
    tasks = workload.tasks(args.seed, args.seconds)
    run = _measure(workload, tasks)
    tail, pct = _tail(run["refs"])
    values = {
        "run_ref": run["run_ref"],
        "task_p50_ref": statistics.median(run["refs"]),
        "task_tail_ref": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
        "fail_ratio": len(run["failures"]) / len(tasks),
        "task_tail_pct": pct,
        "task_count": len(tasks),
    }
    return values, {"attempted": len(tasks), "failures": run["failures"]}


def _per_layer(args, workload, dvbcalc) -> tuple[dict, dict]:
    tasks = workload.tasks(args.seed, args.seconds)
    plain = _measure(workload, tasks)
    tracer = Tracer()
    tracer.install(dvbcalc)
    try:
        traced = _measure(workload, tasks, tracer=tracer)
    finally:
        tracer.uninstall()
    extra = {
        "host.ref_ms": 1000 * statistics.median(plain["units"]),
        "host.run_s": sum(plain["seconds"]),
        "trace.overhead_ratio": traced["run_ref"] / plain["run_ref"],
    }
    values = metricspec.per_layer_values(tracer, sum(traced["seconds"]), extra)
    _write_scopes(args, tracer, sum(traced["seconds"]))
    failures = plain["failures"] + traced["failures"]
    return values, {"attempted": 2 * len(tasks), "failures": failures}


def _write_scopes(args, tracer, traced_seconds: float) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    scopes = {
        key: {
            "calls": s.calls,
            "outer_calls": s.outer,
            "busy_share": s.busy / traced_seconds,
            "self_share": s.self_time / traced_seconds,
        }
        for key, s in sorted(tracer.scopes.items(), key=lambda kv: -kv[1].self_time)
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(scopes, indent=1) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    dvbcalc = _import_dvbcalc()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.tasks(args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    if args.trace:
        values, outcome = _per_layer(args, workload, dvbcalc)
        units = {name: spec[0] for name, spec in metricspec.PER_LAYER.items()}
    else:
        values, outcome = _end_to_end(args, workload)
        units = {name: spec[0] for name, spec in metricspec.END_TO_END.items()}
        units.update(metricspec.END_TO_END_EXTRA)

    for failure in outcome["failures"]:
        print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    failed = len(outcome["failures"])
    result = {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name not in metricspec.END_TO_END_EXTRA
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
