"""Line census of `src/dvbcalc`: which lines the library's own traffic
reaches, and which only the tier-1 tests reach.

Run from anywhere:

    python3 tools/census.py [ROOT]

ROOT is a checkout of this repository (default: the one that holds this
file); its `src/` is imported.  Two fresh interpreters run under
`sys.settrace`, side by side, with ROOT as their working directory:

* *library traffic*: one menu round of each perfbench workload (seed 1);
  for s = 0-20, plain and symmetric, `run_suite("all", ...)` and the three
  connection checks on `gen_random_scenario(s)`; and every `dvb` command on
  that scenario written to a file: `check` for each suite, `check all
  --json`, `dualize` with and without `--point`, `lift vertical` on both
  sides, `lift complete` of both kinds and `connection check` of each kind;
* *tier-1*: `pytest -q --continue-on-collection-errors` on ROOT's tests.

A line counts when it is inside a function, lambda or comprehension of
`src/dvbcalc` (module and class bodies are left out) and when a call or a
line event of the trace lands on it.  Lines that a test reaches only in a
subprocess of its own are not seen.  For each module the census prints the
lines that tier-1 reaches but the traffic does not, and the lines that
neither reaches, as line ranges; `run(root)` prints the same and returns
their counts per module, which `tools/bench.py` records.  Tracing makes
both runs several times slower than untraced ones: several minutes in all
on a 2-core host.  Only the standard library is used; the tier-1 run needs
pytest and hypothesis, as it always does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SEEDS = range(21)
KINDS = ("metric", "symmetric", "lagrangian")
SUITES = ("axioms", "duality", "third-dual", "geometry", "all")

# Run in each child: trace every frame of src/dvbcalc, run one traffic, and
# write the (file, line) pairs reached as JSON.
CHILD = """
import json, sys, threading
root, out, which, tools = sys.argv[1:5]
sys.path.insert(0, tools)
import census
prefix = census.package(root)
hits = set()

def local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(prefix):
        return None
    hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local

threading.settrace(trace)
sys.settrace(trace)
try:
    census.RUNS[which](root)
finally:
    sys.settrace(None)
    with open(out, "w") as fh:
        json.dump(sorted(hits), fh)
"""


def package(root) -> str:
    return str(Path(root).resolve() / "src" / "dvbcalc") + os.sep


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _commands(path: Path, sc) -> list[list[str]]:
    """Every `dvb` command line on the scenario file `path`."""
    dim = sc.chart.dim
    point = "x=" + ",".join(str(i + 1) for i in range(dim))
    source = ["--scenario", str(path)]
    commands = [["check", suite, *source] for suite in SUITES]
    commands += [
        ["check", "all", "--json", *source],
        ["dualize", *source],
        ["dualize", *source, "--point", point],
    ]
    for side, n in (("right", sc.bundle.n_E), ("left", sc.bundle.n_F)):
        outer = ",".join("1" for _ in range(n))
        commands.append(["lift", "vertical", *source, "--side", side, "--point", point, "--outer", outer])
    commands += [["lift", "complete", *source, "--kind", kind] for kind in ("tangent", "cotangent")]
    commands += [["connection", "check", kind, *source] for kind in KINDS]
    return commands


def library(root: str) -> None:
    """The library traffic: perfbench, the suites and the CLI."""
    sys.path.insert(0, str(Path(root) / "perfbench"))
    import workloads
    from dvbcalc import cli, gen_random_scenario, run_connection_check, run_suite, scenario_to_text

    for w in workloads.WORKLOADS.values():
        for task in w.tasks(seed=1, seconds=workloads.NOMINAL_SECONDS):
            _quiet(w.run, task)
    with tempfile.TemporaryDirectory() as tmp:
        for s in SEEDS:
            for symmetric in (False, True):
                sc = gen_random_scenario(s, symmetric=symmetric)
                run_suite("all", sc)
                for kind in KINDS:
                    with contextlib.suppress(Exception):
                        run_connection_check(kind, sc)
                path = Path(tmp) / f"{s}-{symmetric}.json"
                path.write_text(scenario_to_text(sc))
                for argv in _commands(path, sc):
                    _quiet(cli.main, argv)
        _quiet(cli.main, ["gen", "--seed", "0"])


def tier1(root: str) -> None:
    import pytest

    _quiet(pytest.main, ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])


RUNS = {"library": library, "tier-1": tier1}


def _trace(root: Path, tmp: Path):
    """Start one traced child per run; return (run, output file, process)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    children = []
    for which in RUNS:
        out = tmp / f"{which}.json"
        argv = [sys.executable, "-c", CHILD, str(root), str(out), which, str(TOOLS)]
        children.append((which, out, subprocess.Popen(argv, cwd=root, env=env)))
    return children


def _lines(path: Path) -> set[int]:
    """The lines of the code objects inside the module at `path`: every
    function, lambda and comprehension, but not the module body itself."""
    module = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [c for c in module.co_consts if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _ranges(lines) -> str:
    spans, start, prev = [], None, None
    for line in sorted(lines):
        if start is not None and line == prev + 1:
            prev = line
            continue
        if start is not None:
            spans.append(f"{start}" if start == prev else f"{start}-{prev}")
        start = prev = line
    if start is not None:
        spans.append(f"{start}" if start == prev else f"{start}-{prev}")
    return " ".join(spans)


def run(root: Path) -> dict[str, dict[str, int]]:
    """Trace both runs on the checkout `root`, print the census and return,
    per module file name, its `lines`, `tier1_only` and `unreached` counts."""
    reached, counts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for which, out, child in _trace(root, Path(tmp)):
            if child.wait() != 0:
                sys.exit(f"the {which} run failed (exit {child.returncode})")
            reached[which] = {tuple(hit) for hit in json.loads(out.read_text())}
    print(f"{'module':<14}{'lines':>7}{'tier-1 only':>13}{'neither':>9}")
    details = []
    for path in sorted(Path(package(root)).glob("*.py")):
        lines = _lines(path)
        library_hits, tier1_hits = (
            {line for file, line in reached[which] if file == str(path)} for which in RUNS
        )
        only = lines & tier1_hits - library_hits
        neither = lines - tier1_hits - library_hits
        print(f"{path.name:<14}{len(lines):>7}{len(only):>13}{len(neither):>9}")
        details += [f"{path.name} tier-1 only: {_ranges(only)}"] if only else []
        details += [f"{path.name} neither: {_ranges(neither)}"] if neither else []
        counts[path.name] = {"lines": len(lines), "tier1_only": len(only), "unreached": len(neither)}
    print(*details, sep="\n")
    return counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", type=Path, default=TOOLS.parent)
    run(ap.parse_args().root.resolve())


if __name__ == "__main__":
    main()
