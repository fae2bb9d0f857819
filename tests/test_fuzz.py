"""Deterministic mutation fuzzing of scenario files through the command line.

Each case takes the `dvb gen` text of one seed, applies one operator from a
fixed list, and runs the command line in-process on the result: `dvb check
all`, and on a file drawn with `--symmetric` the commands that print exact
values, `dualize --point`, `lift vertical` and `connection check
symmetric`, once more with a huge `--point` and with a decimal one.
Whatever the mutation, the run ends in a report or a printout (exit 0 or 1)
or in a one-line `PARSE_ERROR:`/`INCONSISTENT_SCENARIO:`/usage error (exit
2), never in an uncaught exception, and it ends quickly; a form outside the
writer's grammar ends in `PARSE_ERROR:`.  Runs sample one tuple per
property (`--samples 1`) so that the mutations that stay valid stay cheap;
the file's own plan is still read and checked.
"""

import json
import time
from functools import lru_cache

import pytest

from dvbcalc.cli import main
from dvbcalc.scenario import gen_random_scenario, scenario_to_text

SEEDS = (0, 1, 2)
WALL_BOUND_S = 2.0


# the key path of the first term of the first Phi_l entry
TERM = ("morphism", "Phi_l", 0, 0, 0)


def _nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def _walk(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _set(path, value):
    """An operator that sets the value at a key path; a callable maps the old value."""

    def apply(obj):
        parent = _walk(obj, path[:-1])
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value

    return apply


def _set_coefficients(value):
    """An operator that sets the first coefficient of `Phi_l`, of the core
    section and of `gamma` off its diagonal, where the connection stops
    being symmetric: values that the printing commands print."""

    def apply(obj):
        gamma = obj["connection"]["gamma"]
        for grid in (
            obj["morphism"]["Phi_l"],
            obj["core_section"]["gamma"],
            [plane[0][1:] for plane in gamma],
        ):
            while grid and isinstance(grid, list):
                grid = next((item for item in grid if item), None)
            if grid:
                grid["coeff"] = value

    return apply


def _drop(*path):
    def apply(obj):
        del _walk(obj, path[:-1])[path[-1]]

    return apply


# name -> operator on the parsed object (returns None) or on the text
# (takes and returns a str, marked by a "text:" name)
OPERATORS = {
    "drop-bundle": _drop("bundle"),
    "drop-section": _drop("metric"),
    "drop-term-key": _drop(*TERM, "exps"),
    "drop-plan-key": _drop("plan", "samples"),
    "text:duplicate-plan-key": lambda t: t.replace('"plan": {', '"plan": {"samples": 0, ', 1),
    "text:duplicate-section-key": lambda t: t.rstrip()[:-1] + ', "metric": {}}',
    "wrong-type-bundle": _set(("bundle",), [1, 2]),
    "wrong-type-psi": _set(("morphism", "Psi"), "x"),
    "wrong-type-exps": _set((*TERM, "exps"), {"x1": 1}),
    "wrong-type-labels": _set(("bundle", "labels"), [1, 2, 3]),
    "float-coefficient": _set((*TERM, "coeff"), 1.5),
    "float-bound": _set(("plan", "bound"), 2.0),
    "huge-rank": _set(("bundle", "n"), 10**30),
    "huge-seed": _set(("plan", "seed"), 2**64),
    "huge-samples": _set(("plan", "samples"), 10**9),
    "huge-coefficient": _set((*TERM, "coeff"), 10**400),
    "huge-exponent": _set((*TERM, "exps"), lambda e: [10**20] + e[1:]),
    "text:huge-int-literal": lambda t: t.replace('"seed": ', '"seed": ' + "9" * 5000, 1),
    "negative-rank": _set(("bundle", "n_E"), -1),
    "negative-bound": _set(("plan", "bound"), -7),
    "negative-exponent": _set((*TERM, "exps"), lambda e: [-1] + e[1:]),
    "exponent-17": _set((*TERM, "exps"), lambda e: [17] + e[1:]),
    "exponent-16": _set((*TERM, "exps"), lambda e: [16] + e[1:]),
    "257-terms": _set(("morphism", "Phi_l", 0, 0), lambda p: p[:1] * 257),
    "deep-nesting-labels": _set(("bundle", "labels"), _nest("F", 50)),
    "deep-nesting-psi": _set(("morphism", "Psi"), lambda psi: _nest(psi, 50)),
    "text:deep-nesting": lambda t: '{"bundle": ' + "[" * 100000 + "]" * 100000 + "}",
    "string-rank": _set(("bundle", "n"), "2"),
    "string-samples": _set(("plan", "samples"), "5"),
    "string-exponent": _set((*TERM, "exps"), lambda e: ["1"] + e[1:]),
    "string-coefficient": _set((*TERM, "coeff"), "seven"),
    "coefficient-1e5000": _set_coefficients("1e5000"),
    "coefficient-1e10000000": _set_coefficients("1e10000000"),
}

# Forms outside the writer's grammar, each a parse error whatever the command:
# coefficients `Fraction` would read and a repeated exponent vector.
REJECTED = {
    "coefficient-decimal": _set_coefficients("0.5"),
    "coefficient-1e3": _set_coefficients("1e3"),
    "coefficient-plus": _set_coefficients("+1"),
    "coefficient-space": _set_coefficients(" 1"),
    "coefficient-underscore": _set_coefficients("1_0"),
    "coefficient-arabic-digit": _set_coefficients("\u0663"),
    "coefficient-33-digits": _set_coefficients("1" * 33),
    "repeated-exponents": _set(("morphism", "Phi_l", 0, 0), lambda p: p[:1] * 2),
}
OPERATORS |= REJECTED


@lru_cache(maxsize=None)
def _generated(seed: int, symmetric: bool) -> str:
    return scenario_to_text(gen_random_scenario(seed, max_rank=2, symmetric=symmetric))


def _mutated(seed: int, name: str, symmetric: bool = False) -> str:
    text = _generated(seed, symmetric)
    op = OPERATORS[name]
    if name.startswith("text:"):
        return op(text)
    obj = json.loads(text)
    op(obj)
    return json.dumps(obj)


def _ends_cleanly(argv, capsys, rejected=False):
    """`rejected`: the run must end in a parse error."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith(("PARSE_ERROR: ", "INCONSISTENT_SCENARIO: ", "usage: "))
    if rejected:
        assert code == 2 and err.startswith("PARSE_ERROR: "), err
    assert elapsed < WALL_BOUND_S


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_scenario_ends_cleanly(seed, name, tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(_mutated(seed, name))
    argv = ["check", "all", "--scenario", str(path), "--samples", "1"]
    _ends_cleanly(argv, capsys, rejected=name in REJECTED)


def _commands(seed: int) -> dict:
    """The printing commands by name, with coordinates for the unmutated
    shape of the symmetric file of `seed`."""
    bundle = json.loads(_generated(seed, True))["bundle"]
    point = ",".join(["1/2"] * bundle["n"])
    return {
        "dualize": ["dualize", "--point", point],
        "lift-vertical": [
            "lift", "vertical", "--side", "left", "--point", point,
            "--outer", ",".join(["3"] * bundle["n_F"]),
        ],
        "connection-symmetric": ["connection", "check", "symmetric"],
        "dualize-huge-point": ["dualize", "--point", ",".join(["1e2000"] * bundle["n"])],
        "dualize-decimal-point": ["dualize", "--point", ",".join(["0.5"] * bundle["n"])],
    }


# one seed keeps the five commands times every operator within about 2 s
@pytest.mark.parametrize("command", sorted(_commands(0)))
@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("seed", SEEDS[:1])
def test_mutated_scenario_prints_cleanly(seed, name, command, tmp_path, capsys):
    path = tmp_path / "mutated.json"
    path.write_text(_mutated(seed, name, symmetric=True))
    argv = _commands(seed)[command] + ["--scenario", str(path)]
    _ends_cleanly(argv, capsys, rejected=name in REJECTED)


@pytest.mark.parametrize("seed", SEEDS)
def test_decimal_point_is_a_parse_error(seed, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(_generated(seed, True))
    argv = _commands(seed)["dualize-decimal-point"] + ["--scenario", str(path)]
    _ends_cleanly(argv, capsys, rejected=True)
