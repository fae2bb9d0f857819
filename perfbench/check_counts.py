"""Cross-check the tracer's call counts against cProfile.

For each workload, runs a short task list three times in this process: once
to warm dvbcalc's caches, once under cProfile with nothing patched, and once
with the tracer installed.  Every wrapped function must show the same number of
calls both ways (for `PolyMatrix.det`, which recurses, also the same number
of outermost calls as cProfile's primitive calls).  Run from the
repository root:

    python3 perfbench/check_counts.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import run


def compare(workload, dvbcalc) -> list[str]:
    from tracer import Tracer

    tasks = workload.tasks(seed=1, seconds=2)

    def run_all():
        for task in tasks:
            workload.run(task)

    run_all()
    profile = cProfile.Profile()
    profile.runcall(run_all)
    by_code = {
        key: (primitive, total)
        for key, (primitive, total, *_rest) in pstats.Stats(profile).stats.items()
    }
    tracer = Tracer()
    tracer.install(dvbcalc)
    try:
        run_all()
    finally:
        tracer.uninstall()

    problems, compared = [], 0
    for key, fn in tracer.originals.items():
        code = getattr(fn, "__code__", None)
        if code is None:  # a C-level wrapper such as functools.lru_cache
            continue
        primitive, total = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))
        scope = tracer.scopes[key]
        compared += 1
        if (scope.calls, scope.outer) != (total, primitive):
            problems.append(
                f"{workload.name} {key}: tracer {scope.calls} calls "
                f"({scope.outer} outermost), cProfile {total} ({primitive} primitive)"
            )
    called = sum(1 for key in tracer.originals if tracer.scopes[key].calls)
    print(f"{workload.name}: {compared} functions compared, {called} called, "
          f"{len(problems)} mismatches")
    return problems


def main() -> int:
    dvbcalc = run._import_dvbcalc()
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS.values():
        problems += compare(workload, dvbcalc)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
