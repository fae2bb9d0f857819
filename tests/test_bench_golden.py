"""`dvb gen` text and its parse round trip match the benchmark's goldens.

For one pooled generator seed per menu shape of the `symbolic` workload,
the scenario text must have the sha256 recorded in `perfbench/golden.json`
and survive a byte-identical parse round trip, so a change to the writer
or the parser that alters a byte fails here as well as in the benchmark.
Only `golden.json` is read from `perfbench/`, by path.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dvbcalc.scenario import gen_random_scenario, scenario_from_text, scenario_to_text

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
SYMBOLIC = json.loads(GOLDEN.read_text(encoding="utf-8"))["symbolic"]


@pytest.mark.parametrize("shape", SYMBOLIC["menu"])
def test_symbolic_scenario_text_matches_golden(shape):
    entry = SYMBOLIC["pool"][shape][0]
    text = scenario_to_text(gen_random_scenario(entry["seed"], max_rank=SYMBOLIC["max_rank"]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["gen"]
    assert scenario_to_text(scenario_from_text(text)) == text
