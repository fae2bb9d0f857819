"""Mutation run of the suites and the tier-1 tests over five library modules.

Run from anywhere; it has no options:

    python3 tools/mutants.py

The mutant list is fixed.  It holds one mutant for every `BinOp` and every
single-operator `Compare` of `src/dvbcalc/{core,duality,ring,geomech,forms}.py`
whose operator is in one of the swap `FAMILIES` (`+`/`-`,
`*`/`//`, `==`/`!=`, `<`/`>`, `<=`/`>=`, `is`/`is not`), in file and
position order.  A mutant swaps that one operator: the mutated expression
is written back with `ast.unparse`, in parentheses and padded to the lines
it spanned, into a temporary copy of the checkout, never into the checkout.

Each mutant runs in a fresh interpreter, two at a time on hosts with two or
more cores, with `PYTHONDONTWRITEBYTECODE=1` in a copy that holds no
`__pycache__` (a `+`/`-` swap keeps the file's size, so a `.pyc` written in
the same second would be reused silently) and an address-space limit of
`MEMORY_LIMIT` bytes.

* Stage 1 runs `run_suite("all", gen_random_scenario(s))` for s = 0-3 and
  records one outcome: `fail` (a property FAILs), `error` (an exception
  escapes, for example from the generator), `timeout` (past
  `STAGE1_TIMEOUT_S`) or `survived`.
* Stage 2 runs the tier-1 tests with `-x` on the stage-1 survivors, with a
  fixed Hypothesis seed and no example database.  A mutant that makes a test
  fail or error, or runs past `STAGE2_TIMEOUT_S`, is killed; the rest
  survive.

The unmutated copy runs through both stages first and must survive them.
`run()` prints one line per mutant as it finishes, then the counts, the
stage-2 kills with the first test that failed, the survivors by
`file:line:column-line:column` and the wall time, and returns them as a dict
(`tools/bench.py` records it).  On a 2-core host the full list takes about
11 minutes.  Only the standard library is used; the tier-1 tests need
pytest and hypothesis, as they always do.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dvbcalc"
MODULES = ("core", "duality", "ring", "geomech", "forms")
FAMILIES = (
    (ast.Add, ast.Sub), (ast.Mult, ast.FloorDiv), (ast.Eq, ast.NotEq),
    (ast.Lt, ast.Gt), (ast.LtE, ast.GtE), (ast.Is, ast.IsNot),
)
SWAPS = {a: b for pair in FAMILIES for a, b in (pair, pair[::-1])}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.Gt: ">",
    ast.LtE: "<=", ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not",
}
SEEDS = range(4)
LANES = min(2, len(os.sched_getaffinity(0)))
STAGE1_TIMEOUT_S = 60
STAGE2_TIMEOUT_S = 600
MEMORY_LIMIT = 2 << 30
HYPOTHESIS_SEED = 0
# checkout entries the lane copies leave out: caches and run outputs
SKIP = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_out")

LIMIT = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
"""
# exit 0: every property passed; exit 3: some property FAILed; an escaping
# exception exits 1
STAGE1 = LIMIT + f"""
import sys
from dvbcalc.scenario import gen_random_scenario
from dvbcalc.suites import run_suite

passed = all(run_suite("all", gen_random_scenario(s)).passed for s in {tuple(SEEDS)})
sys.exit(0 if passed else 3)
"""
STAGE2 = LIMIT + f"""
import sys
import pytest

args = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed={HYPOTHESIS_SEED}"]
sys.exit(pytest.main(args))
"""
# (program, timeout in seconds, outcome of each exit code; any other code
# is "error")
STAGES = (
    (STAGE1, STAGE1_TIMEOUT_S, {0: "survived", 3: "fail"}),
    (STAGE2, STAGE2_TIMEOUT_S, {0: "survived", 1: "fail"}),
)


@dataclass(frozen=True)
class Site:
    """One operator site; the mutant swaps `op` for `swap`."""

    module: str
    line: int
    col: int
    end_line: int
    end_col: int
    op: str
    swap: str

    @property
    def where(self) -> str:
        return f"{self.module}.py:{self.line}"

    def __str__(self) -> str:
        """`file:line:column-line:column`, the expression's first and last
        character (columns counted from 1), and the swap; nested operators
        that start at one place differ in their end."""
        span = f"{self.col + 1}-{self.end_line}:{self.end_col}"
        return f"{self.where}:{span} {self.op} -> {self.swap}"


def _operator(node: ast.AST):
    """The swappable operator of `node`, or None."""
    if isinstance(node, ast.BinOp):
        op = type(node.op)
    elif isinstance(node, ast.Compare) and len(node.ops) == 1:
        op = type(node.ops[0])
    else:
        return None
    return op if op in SWAPS else None


@cache
def _tree(module: str) -> tuple[str, dict[tuple, ast.AST]]:
    """A module's source and its operator nodes, keyed by position."""
    source = (PACKAGE / f"{module}.py").read_text()
    nodes = {
        (n.lineno, n.col_offset, n.end_lineno, n.end_col_offset): n
        for n in ast.walk(ast.parse(source))
        if _operator(n) is not None
    }
    return source, nodes


def sites() -> list[Site]:
    """The fixed mutant list, in file and position order."""
    out = []
    for module in MODULES:
        _, nodes = _tree(module)
        for pos in sorted(nodes):
            op = _operator(nodes[pos])
            out.append(Site(module, *pos, SYMBOLS[op], SYMBOLS[SWAPS[op]]))
    return out


def mutated_expression(site: Site) -> str:
    """The site's expression with its operator swapped, as source text that
    replaces the expression's span: parenthesized, on as many lines."""
    node = _tree(site.module)[1][site.line, site.col, site.end_line, site.end_col]
    attr = "ops" if isinstance(node, ast.Compare) else "op"
    original = getattr(node, attr)
    swapped = SWAPS[_operator(node)]()
    setattr(node, attr, [swapped] if attr == "ops" else swapped)
    try:
        text = ast.unparse(node)
    finally:
        setattr(node, attr, original)
    return "(" + text + "\n" * (site.end_line - site.line) + ")"


def mutant_source(site: Site) -> str:
    """The whole module with the one site swapped."""
    lines = _tree(site.module)[0].splitlines(keepends=True)
    first = lines[site.line - 1].encode()
    last = lines[site.end_line - 1].encode()
    # ast offsets count UTF-8 bytes
    text = (
        first[: site.col].decode()
        + mutated_expression(site)
        + last[site.end_col :].decode()
    )
    return "".join(lines[: site.line - 1]) + text + "".join(lines[site.end_line :])


def _run(cwd: Path, stage: tuple) -> tuple[str, str]:
    """Run one stage's program in a fresh interpreter on the copy's src/:
    the outcome ("survived", "fail", "error" or "timeout") and the output's
    tail."""
    program, timeout, outcomes = stage
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", program], cwd=cwd, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    finally:
        shutil.rmtree(cwd / ".hypothesis", ignore_errors=True)
    return outcomes.get(proc.returncode, "error"), out[-3000:]


def _killer(out: str) -> str:
    """The first failing test named in pytest's short summary, if any."""
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return ""


def _stage(lanes: list[Path], todo: list[Site], number: int) -> dict[Site, tuple[str, str]]:
    """Run stage `number` on every mutant of `todo`, each lane one mutant at
    a time, with one progress line per mutant: {site: (outcome, output tail)}."""
    stage = STAGES[number - 1]
    queue = iter(todo)
    lock = threading.Lock()
    results = {}

    def lane_loop(lane: Path) -> None:
        while True:
            with lock:
                site = next(queue, None)
            if site is None:
                return
            target = lane / "src" / "dvbcalc" / f"{site.module}.py"
            target.write_text(mutant_source(site))
            try:
                results[site] = _run(lane, stage)
            finally:
                shutil.copyfile(PACKAGE / f"{site.module}.py", target)
            with lock:
                done = f"[{len(results)}/{len(todo)}]"
                print(f"stage {number} {done} {site}: {results[site][0]}", flush=True)

    with ThreadPoolExecutor(len(lanes)) as pool:
        list(pool.map(lane_loop, lanes))
    return results


def run() -> dict:
    start = time.perf_counter()
    mutants = sites()
    for site in mutants:
        compile(mutant_source(site), site.where, "exec")
    with tempfile.TemporaryDirectory() as tmp:
        lanes = []
        for i in range(LANES):
            lane = Path(tmp) / f"lane{i}"
            shutil.copytree(ROOT, lane, ignore=shutil.ignore_patterns(*SKIP))
            lanes.append(lane)

        for number, stage in enumerate(STAGES, 1):
            outcome, out = _run(lanes[0], stage)
            if outcome != "survived":
                raise SystemExit(f"error: the unmutated copy fails stage {number}:\n{out}")

        t1 = time.perf_counter()
        first = _stage(lanes, mutants, 1)
        stage1_s = time.perf_counter() - t1
        survivors1 = [s for s in mutants if first[s][0] == "survived"]
        t2 = time.perf_counter()
        second = _stage(lanes, survivors1, 2)
        stage2_s = time.perf_counter() - t2

    outcomes = ("fail", "error", "timeout", "survived")
    counts = {k: sum(first[s][0] == k for s in mutants) for k in outcomes}
    survivors = [s for s in survivors1 if second[s][0] == "survived"]
    result = {
        "sites": {m: sum(s.module == m for s in mutants) for m in MODULES},
        "total": len(mutants),
        "stage1": {**counts, "wall_s": round(stage1_s, 1)},
        "stage2": {
            "ran": len(survivors1),
            "killed": len(survivors1) - len(survivors),
            "killed_by": {
                str(s): _killer(second[s][1]) or second[s][0]
                for s in survivors1 if second[s][0] != "survived"
            },
            "wall_s": round(stage2_s, 1),
        },
        "survivors": [str(s) for s in survivors],
        "wall_s": round(time.perf_counter() - start, 1),
    }
    per_module = ", ".join(f"{m} {n}" for m, n in result["sites"].items())
    print(f"{result['total']} mutants ({per_module})")
    print("stage 1: " + ", ".join(f"{k} {v}" for k, v in result["stage1"].items()))
    print(f"stage 2: {result['stage2']['killed']} of {result['stage2']['ran']} killed"
          f" in {result['stage2']['wall_s']} s")
    for name, test in result["stage2"]["killed_by"].items():
        print(f"  killed {name}: {test}")
    print(f"survivors: {len(survivors)}")
    for name in result["survivors"]:
        print(f"  {name}")
    print(f"wall time: {result['wall_s']} s")
    return result


if __name__ == "__main__":
    run()
