"""`dvb gen` text, its parse round trip and `dvb check` report bodies match
the benchmark's goldens.

For one pooled generator seed per menu shape of the `symbolic` workload,
the scenario text must have the sha256 recorded in `perfbench/golden.json`
and survive a byte-identical parse round trip, so a change to the writer
or the parser that alters a byte fails here as well as in the benchmark.
For the first pooled seed of each `check-all` menu shape, one suite's
report body (the output without its `elapsed:` line) must have its
recorded sha256, so a change to the draws, the evaluation or the report
text that alters a byte fails here too.  Only `golden.json` is read from
`perfbench/`, by path.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dvbcalc import cli
from dvbcalc.scenario import gen_random_scenario, scenario_from_text, scenario_to_text

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
GOLDENS = json.loads(GOLDEN.read_text(encoding="utf-8"))
SYMBOLIC = GOLDENS["symbolic"]
CHECK_ALL = GOLDENS["check-all"]
SUITES = ("axioms", "duality", "third-dual", "geometry")


@pytest.mark.parametrize("shape", SYMBOLIC["menu"])
def test_symbolic_scenario_text_matches_golden(shape):
    entry = SYMBOLIC["pool"][shape][0]
    text = scenario_to_text(gen_random_scenario(entry["seed"], max_rank=SYMBOLIC["max_rank"]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["gen"]
    assert scenario_to_text(scenario_from_text(text)) == text


@pytest.mark.parametrize("index, shape", list(enumerate(CHECK_ALL["menu"])))
def test_check_report_body_matches_golden(index, shape, capsys):
    entry = CHECK_ALL["pool"][shape][0]
    suite = SUITES[index % len(SUITES)]
    code = cli.main(["check", suite, "--random", "--seed", str(entry["seed"])])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("elapsed:"))
    assert code == 0
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == entry[suite]
