"""The dvb command line: exit codes, determinism, error channels."""

import json
import time

import pytest

from dvbcalc.cli import build_parser, main
from dvbcalc.core import Chart, DecomposedDVB, identity_morphism
from dvbcalc.scenario import SECTIONS, Scenario, scenario_to_text

from polys import witness_root_literal


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    code, out, _ = run_cli(capsys, "gen", "--seed", "11")
    assert code == 0
    path.write_text(out)
    return str(path)


def test_check_random_passes(capsys):
    code, out, err = run_cli(
        capsys, "check", "axioms", "--random", "--seed", "2", "--samples", "10"
    )
    assert code == 0
    assert "result: PASS (7/7 properties)" in out
    assert err == ""


def test_check_scenario_file(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys, "check", "duality", "--scenario", scenario_file, "--samples", "10"
    )
    assert code == 0
    assert "result: PASS (8/8 properties)" in out


def test_check_all_deterministic_modulo_elapsed(capsys):
    args = ("check", "all", "--random", "--seed", "11", "--samples", "10")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed")]
    assert strip(out1) == strip(out2)
    assert out1.splitlines()[-1].startswith("elapsed: ")


def test_check_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "check", "third-dual", "--random", "--seed", "4", "--samples", "10",
        "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["suite"] == "third-dual"


def test_gen_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "--seed", "9")
    _, out2, _ = run_cli(capsys, "gen", "--seed", "9")
    assert out1 == out2
    json.loads(out1)


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "check", "bogus", "--random")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "check", "axioms")[0] == 2  # no source
    assert run_cli(
        capsys, "check", "axioms", "--random", "--scenario", "x.json"
    )[0] == 2  # exclusive


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_parse_error_channel(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("nonsense")
    code, _, err = run_cli(capsys, "check", "axioms", "--scenario", str(bad))
    assert code == 2
    assert err.startswith("PARSE_ERROR:")


def test_missing_file_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "check", "axioms", "--scenario", "/no/such/file")
    assert code == 2
    assert err.startswith("PARSE_ERROR:")


def test_inconsistent_scenario_channel(tmp_path, capsys):
    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "metric": {"g": [[[{"coeff": "0", "exps": [0]}]]]},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "check", "axioms", "--scenario", str(path))
    assert code == 2
    assert err.startswith("INCONSISTENT_SCENARIO:")


def test_identically_singular_morphism_block_exits_2(tmp_path, capsys):
    one = [[[{"coeff": "1", "exps": [0]}]]]
    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "morphism": {
            "Phi_l": one,
            "Phi_c": [[[{"coeff": "0", "exps": [0]}]]],
            "Phi_r": one,
            "Psi": [[[[]]]],
        },
    }
    path = tmp_path / "singular_block.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "dualize", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "INCONSISTENT_SCENARIO: morphism: Phi_c determinant vanishes at all 4 witness points\n"
    )


def test_metric_singular_at_every_witness_exits_2(tmp_path, capsys):
    # a nonzero determinant the bounded certificate cannot tell from zero
    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "metric": {"g": [[witness_root_literal()]]},
    }
    path = tmp_path / "witness_roots.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "check", "axioms", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err == "INCONSISTENT_SCENARIO: metric: determinant vanishes at all 4 witness points\n"


def test_dualize_prints_duals(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "dualize", "--scenario", scenario_file)
    assert code == 0
    assert "right dual:" in out and "left dual:" in out
    assert "F*" in out


def test_dualize_at_point(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys, "dualize", "--scenario", scenario_file, "--point", "x=1/2,-1,2"
    )
    assert code == 0
    assert "dual morphism blocks at x = (1/2, -1, 2):" in out
    assert "\nl:" in out and "\nr:" in out


def test_dualize_point_determinism(scenario_file, capsys):
    args = ("dualize", "--scenario", scenario_file, "--point", "2,0,-3")
    assert run_cli(capsys, *args)[1] == run_cli(capsys, *args)[1]


def test_dualize_bad_point_exits_2(scenario_file, capsys):
    code, out, err = run_cli(
        capsys, "dualize", "--scenario", scenario_file, "--point", "1/2"
    )
    assert code == 2
    assert err.startswith("PARSE_ERROR:")
    assert "dual morphism blocks" not in out


def test_dualize_point_without_morphism(tmp_path, capsys):
    obj = {"bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1}}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(
        capsys, "dualize", "--scenario", str(path), "--point", "x=1"
    )
    assert code == 2
    assert err.startswith("INCONSISTENT_SCENARIO:")


def test_lift_vertical_both_sides(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys, "lift", "vertical", "--scenario", scenario_file,
        "--side", "right", "--point", "1,0,2", "--outer", "3",
    )
    assert code == 0
    assert "vertical lift (right)" in out
    assert "f = (0, 0, 0)" in out
    code, out, _ = run_cli(
        capsys, "lift", "vertical", "--scenario", scenario_file,
        "--side", "left", "--point", "1,0,2", "--outer", "1/2,0,1",
    )
    assert code == 0
    assert "e = (0)" in out


def test_lift_complete_tangent_and_cotangent(scenario_file, capsys):
    code, tangent, _ = run_cli(
        capsys, "lift", "complete", "--scenario", scenario_file, "--kind", "tangent"
    )
    assert code == 0
    assert "complete tangent lift" in tangent and "label TM" in tangent
    code, cotangent, _ = run_cli(
        capsys, "lift", "complete", "--scenario", scenario_file, "--kind", "cotangent"
    )
    assert code == 0
    assert "complete cotangent lift" in cotangent and "label T*M" in cotangent


def test_lift_complete_needs_projectable_base(tmp_path, capsys):
    def lit(c, exps):
        return [{"coeff": c, "exps": exps}]

    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "vector_field": {
            "base": [lit("1", [0, 1])],  # depends on the fiber variable
            "vert": [lit("0", [0, 0])],
        },
    }
    path = tmp_path / "vertical_base.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(
        capsys, "lift", "complete", "--scenario", str(path), "--kind", "tangent"
    )
    assert code == 2
    assert err.startswith("INCONSISTENT_SCENARIO:")


def test_connection_check_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "connection", "check", "symmetric", "--random", "--seed", "5",
        "--symmetric",
    )
    assert code == 0
    assert "connection is symmetric" in out
    # seed 3 generates a square but asymmetric connection
    _, gen_out, _ = run_cli(capsys, "gen", "--seed", "3")
    path = tmp_path / "asym.json"
    path.write_text(gen_out)
    code, out, _ = run_cli(capsys, "connection", "check", "symmetric",
                           "--scenario", str(path))
    assert code == 1
    assert "replay seed" in out
    assert "result: FAIL (0/1 properties)" in out


def test_connection_check_rank_mismatch_exits_2(tmp_path, capsys):
    _, gen_out, _ = run_cli(capsys, "gen", "--seed", "2")  # side rank 1, dim 2
    path = tmp_path / "thin.json"
    path.write_text(gen_out)
    code, _, err = run_cli(capsys, "connection", "check", "lagrangian",
                           "--scenario", str(path))
    assert code == 2
    assert err.startswith("INCONSISTENT_SCENARIO:")


def test_connection_check_failure_replays_identically(tmp_path, capsys):
    _, gen_out, _ = run_cli(capsys, "gen", "--seed", "3")
    path = tmp_path / "asym.json"
    path.write_text(gen_out)
    args = ("connection", "check", "symmetric", "--scenario", str(path))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed")]
    assert strip(out1) == strip(out2)


def test_dualize_at_singular_point_exits_2(tmp_path, capsys):
    # ranks (1, 1, 1) over one coordinate with Phi_r = x1: invertible
    # except at x1 = 0
    one = [[[{"coeff": "1", "exps": [0]}]]]
    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "morphism": {
            "Phi_l": one,
            "Phi_c": one,
            "Phi_r": [[[{"coeff": "1", "exps": [1]}]]],
            "Psi": [[[[]]]],
        },
    }
    path = tmp_path / "singular_at_0.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "dualize", "--scenario", str(path), "--point", "x=2")
    assert code == 0
    assert "dual morphism blocks at x = (2):" in out
    code, out, err = run_cli(capsys, "dualize", "--scenario", str(path), "--point", "x=0")
    assert code == 2
    assert err.startswith("INCONSISTENT_SCENARIO:")
    assert "x = (0)" in err
    assert "Traceback" not in err
    assert "dual morphism blocks" not in out


def test_dualize_at_point_prints_empty_blocks(tmp_path, capsys):
    # n_F = 0: the F* blocks of the right dual have no rows
    b = DecomposedDVB(Chart.of_dim(1), 0, 1, 1)
    path = tmp_path / "no_f.json"
    path.write_text(scenario_to_text(Scenario(bundle=b, morphism=identity_morphism(b))))
    code, out, err = run_cli(capsys, "dualize", "--scenario", str(path), "--point", "x=2")
    assert (code, err) == (0, "")
    assert out.endswith(
        "dual morphism blocks at x = (2):\n"
        "l:\n  [1]\n"
        "c:\n  (empty)\n"
        "r:\n  [1]\n"
        "psi: 0\n"
    ), out


@pytest.mark.parametrize("seed", ["-1", "4294967303"])
def test_out_of_range_seed_is_usage_error(seed, capsys):
    assert run_cli(capsys, "gen", "--seed", seed)[0] == 2
    code, out, err = run_cli(
        capsys, "check", "axioms", "--random", "--seed", seed, "--samples", "2"
    )
    assert code == 2
    assert out == ""
    assert "outside [0, 2**32)" in err
    assert run_cli(
        capsys, "connection", "check", "metric", "--random", "--seed", seed
    )[0] == 2


@pytest.mark.parametrize("flag, value", [("--seed", "abc"), ("--samples", "x"), ("--bound", "x")])
def test_non_integer_plan_flag_is_usage_error(flag, value, capsys):
    code, out, err = run_cli(capsys, "check", "axioms", "--random", flag, value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"dvb check: error: argument {flag}: invalid int value: '{value}'"


def test_largest_seed_accepted(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", str(2**32 - 1))
    assert code == 0
    json.loads(out)


def test_singular_sample_points_are_redrawn_not_failed(tmp_path, capsys):
    # Phi_r = x1 and Psi = x1 with coordinate bound 1: about a third of the
    # sample points hit the singular point x1 = 0
    def lit(exp):
        return [[[{"coeff": "1", "exps": [exp]}]]]

    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1},
        "morphism": {"Phi_l": lit(0), "Phi_c": lit(0), "Phi_r": lit(1), "Psi": [lit(1)]},
        "plan": {"bound": 1},
    }
    path = tmp_path / "singular_at_0.json"
    path.write_text(json.dumps(obj))
    for suite in ("duality", "third-dual"):
        code, out, _ = run_cli(capsys, "check", suite, "--scenario", str(path), "--samples", "5")
        assert code == 0
        assert "[FAIL]" not in out
        assert "singular points redrawn" in out


def test_out_of_range_plan_seed_is_parse_error(tmp_path, capsys):
    path = tmp_path / "wide_seed.json"
    obj = {"bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1}, "plan": {"seed": 4294967303}}
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "check", "axioms", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("PARSE_ERROR:")


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
@pytest.mark.parametrize("value", ["0", "1001"])
def test_out_of_range_plan_flag_is_usage_error(flag, value, capsys):
    code, out, err = run_cli(capsys, "check", "axioms", "--random", flag, value)
    assert code == 2
    assert out == ""
    assert f"{flag[2:]} {value} is outside [1, 1000]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
def test_plan_flag_cap_accepted(flag):
    args = build_parser().parse_args(["check", "axioms", "--random", flag, "1000"])
    assert getattr(args, flag[2:]) == 1000


# the connection checks draw fixed counts at bound 7, so these flags would
# change only the header's plan line
@pytest.mark.parametrize("flag", ["--samples", "--bound"])
@pytest.mark.parametrize("value", ["1", "100", "1000"])
@pytest.mark.parametrize("kind", ["metric", "symmetric", "lagrangian"])
def test_connection_check_takes_no_samples_or_bound(kind, flag, value, capsys):
    code, out, err = run_cli(
        capsys, "connection", "check", kind, "--random", "--seed", "5", "--symmetric",
        flag, value,
    )
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("command", [("check", "axioms"), ("connection", "check", "metric")])
@pytest.mark.parametrize(
    "flags, named",
    [
        (("--max-rank", "1"), "--max-rank"),
        (("--max-degree", "0"), "--max-degree"),
        (("--symmetric",), "--symmetric"),
        (("--max-rank", "1", "--max-degree", "0", "--symmetric"),
         "--max-rank, --max-degree, --symmetric"),
    ],
)
def test_shape_flag_with_a_file_is_usage_error(command, flags, named, scenario_file, capsys):
    code, out, err = run_cli(capsys, *command, "--scenario", scenario_file, *flags)
    assert (code, out) == (2, "")
    assert err == f"dvb: error: only --random generation reads {named}\n"


# third-dual.05 checks the naive identification on every run, so no flag adds it
@pytest.mark.parametrize("suite", ["axioms", "duality", "third-dual", "geometry", "all"])
def test_naive_identification_flag_is_unrecognized(suite, capsys):
    code, out, err = run_cli(
        capsys, "check", suite, "--random", "--seed", "11", "--naive-identification"
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --naive-identification" in err


@pytest.mark.parametrize("key", ["samples", "bound"])
@pytest.mark.parametrize("value", [0, 1000, 1001])
def test_plan_value_caps_in_a_file(tmp_path, capsys, key, value):
    path = tmp_path / "plan.json"
    obj = {"bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1}, "plan": {key: value}}
    path.write_text(json.dumps(obj))
    # dualize reads the whole scenario, plan included, and samples nothing
    code, out, err = run_cli(capsys, "dualize", "--scenario", str(path))
    if value == 1000:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert out == ""
        assert err == f"PARSE_ERROR: plan.{key} {value} is outside [1, 1000]\n"


def test_high_exponent_scenario_is_rejected_at_once(tmp_path, capsys):
    # every sample value of x1^400000 has over a million bits: the suites
    # took 30-50 s on this scenario before exponents were capped
    obj = json.loads(run_cli(capsys, "gen", "--seed", "3", "--max-rank", "1")[1])
    zeros = [0] * obj["bundle"]["n"]
    high = [400000] + zeros[1:]
    obj["morphism"]["Phi_r"] = [[[{"coeff": "1", "exps": zeros}, {"coeff": "1", "exps": high}]]]
    path = tmp_path / "high.json"
    path.write_text(json.dumps(obj))
    for suite in ("axioms", "duality"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "check", suite, "--scenario", str(path), "--samples", "3"
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            "PARSE_ERROR: morphism.Phi_r[0][0], term 1: exponent 400000 is above 16\n"
        )


@pytest.mark.parametrize("rank", ["0", "9"])
def test_out_of_range_max_rank_is_usage_error(rank, capsys):
    for argv in (
        ("gen", "--max-rank", rank),
        ("check", "axioms", "--random", "--max-rank", rank, "--samples", "2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "outside [1, 8]" in err


def test_largest_max_rank_accepted(capsys):
    # seed 3 draws ranks (3, 8, 1) under the rank bound 8
    code, out, _ = run_cli(capsys, "gen", "--seed", "3", "--max-rank", "8")
    assert code == 0
    assert json.loads(out)["bundle"]["n_C"] == 8
    code, _, _ = run_cli(
        capsys, "check", "axioms", "--random", "--seed", "3", "--max-rank", "8",
        "--samples", "2",
    )
    assert code == 0


def test_oversized_scenario_rank_is_parse_error(tmp_path, capsys):
    path = tmp_path / "rank9.json"
    path.write_text(json.dumps({"bundle": {"n": 1, "n_F": 1, "n_C": 9, "n_E": 1}}))
    code, out, err = run_cli(capsys, "check", "axioms", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("PARSE_ERROR:")
    assert "outside [0, 8]" in err


def _max_term_degree(obj) -> int:
    """Largest total exponent of any polynomial term inside a JSON section."""
    if isinstance(obj, dict):
        if "exps" in obj:
            return sum(obj["exps"])
        return max((_max_term_degree(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((_max_term_degree(v) for v in obj), default=0)
    return 0


@pytest.mark.parametrize("degree", ["-1", "9"])
def test_out_of_range_max_degree_is_usage_error(degree, capsys):
    for argv in (
        ("gen", "--max-degree", degree),
        ("check", "axioms", "--random", "--max-degree", degree, "--samples", "2"),
        ("connection", "check", "metric", "--random", "--max-degree", degree),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "outside [0, 8]" in err


@pytest.mark.parametrize("degree", [0, 8])
def test_max_degree_bounds_accepted(degree, capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "3", "--max-degree", str(degree))
    assert code == 0
    # the morphism blocks are drawn with the degree bound itself
    assert _max_term_degree(json.loads(out)["morphism"]) <= degree
    code, _, _ = run_cli(
        capsys, "check", "axioms", "--random", "--seed", "3",
        "--max-degree", str(degree), "--samples", "2",
    )
    assert code == 0
    code, _, err = run_cli(
        capsys, "connection", "check", "metric", "--random", "--seed", "3",
        "--max-degree", str(degree),
    )
    assert code in (0, 1)
    assert err == ""


def _gen_file(tmp_path, capsys, *flags, edit=None):
    """A `dvb gen` file, after `edit` changes its parsed object in place."""
    code, out, _ = run_cli(capsys, "gen", *flags)
    assert code == 0
    obj = json.loads(out)
    if edit is not None:
        edit(obj)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("section, field", [(row[0], row[3][0][0]) for row in SECTIONS])
def test_shortened_field_names_section_and_field(section, field, tmp_path, capsys):
    def shorten(obj):
        obj[section][field] = obj[section][field][:-1]

    path = _gen_file(tmp_path, capsys, "--seed", "11", edit=shorten)
    code, out, err = run_cli(capsys, "dualize", "--scenario", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"INCONSISTENT_SCENARIO: {section}: {field} has ")


def test_connection_grid_message_names_the_index_path(tmp_path, capsys):
    def shorten(obj):
        obj["connection"]["gamma"][0] = obj["connection"]["gamma"][0][:1]

    path = _gen_file(tmp_path, capsys, "--seed", "5", "--symmetric", edit=shorten)
    code, _, err = run_cli(capsys, "connection", "check", "symmetric", "--scenario", path)
    assert code == 2
    assert err == "INCONSISTENT_SCENARIO: connection: gamma[0] has 1 entries, expected 2\n"


def _first_term(grid):
    """The first term of the first nonzero literal in nested lists of literals."""
    while isinstance(grid, list):
        grid = next(item for item in grid if item)
    return grid


def _set_core_coefficient(obj):
    _first_term(obj["core_section"]["gamma"])["coeff"] = "1e5000"


def _set_asymmetric_coefficient(obj):
    # gamma[a][i][b] off the diagonal i = b, so that the check fails
    _first_term([plane[0][1:] for plane in obj["connection"]["gamma"]])["coeff"] = "1e5000"


def _parse_error_at_once(capsys, *argv) -> str:
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("PARSE_ERROR: ")
    return err


@pytest.mark.parametrize("point", ["1e2000", "1e2000000"])
def test_huge_point_coordinate_is_parse_error(point, tmp_path, capsys):
    # the value 10^2000 once reached int-to-text conversion, past the
    # interpreter's 4300-digit limit; 10^2000000 took 57 s to get there
    path = _gen_file(tmp_path, capsys, "--seed", "1", "--max-rank", "3", "--max-degree", "8")
    err = _parse_error_at_once(capsys, "dualize", "--scenario", path, "--point", point)
    assert err == "PARSE_ERROR: bad point coordinate: not an integer n or a fraction n/d\n"


def test_huge_outer_coordinate_is_parse_error(scenario_file, capsys):
    err = _parse_error_at_once(
        capsys, "lift", "vertical", "--scenario", scenario_file,
        "--side", "right", "--point", "1,0,2", "--outer", "1e5000",
    )
    assert err.startswith("PARSE_ERROR: bad outer fiber value coordinate: ")


def test_huge_connection_coefficient_is_parse_error(tmp_path, capsys):
    # it once broke the formatting of the asymmetry counterexample
    path = _gen_file(
        tmp_path, capsys, "--seed", "5", "--symmetric",
        edit=_set_asymmetric_coefficient,
    )
    err = _parse_error_at_once(capsys, "connection", "check", "symmetric", "--scenario", path)
    assert err.startswith("PARSE_ERROR: connection.gamma[")
    assert err.endswith("bad coefficient '1e5000': not an integer n or a fraction n/d\n")


def test_huge_core_section_coefficient_is_parse_error(tmp_path, capsys):
    path = _gen_file(
        tmp_path, capsys, "--seed", "5", "--symmetric",
        edit=_set_core_coefficient,
    )
    err = _parse_error_at_once(
        capsys, "lift", "vertical", "--scenario", path,
        "--side", "left", "--point", "1,1", "--outer", "1,1",
    )
    assert err.startswith("PARSE_ERROR: core_section.gamma[")


def _wide_literal(terms):
    # distinct exponents and distinct 32-digit denominators: at (1, 1, 1) the
    # value has a denominator of about 32 * terms digits
    exps = [(a, b, c) for a in range(17) for b in range(17) for c in range(17)][1 : terms + 1]
    return [
        {"coeff": f"{i + 1}/{10**31 + 2 * i + 1}", "exps": list(e)} for i, e in enumerate(exps)
    ]


@pytest.mark.parametrize("terms", [256, 3])
def test_value_past_the_int_to_text_limit_exits_2(terms, tmp_path, capsys):
    # every number is within its cap; 256 terms print past the interpreter's
    # 4300-digit limit for int-to-text conversion, 3 terms print
    one = [[[{"coeff": "1", "exps": [0, 0, 0]}]]]
    bundle = {"n": 3, "n_F": 1, "n_C": 1, "n_E": 1}
    morphism = {"Phi_l": one, "Phi_c": one, "Phi_r": [[_wide_literal(terms)]], "Psi": [[[[]]]]}
    runs = (
        ({"core_section": {"gamma": [_wide_literal(terms)]}},
         ("lift", "vertical", "--side", "right", "--point", "1,1,1", "--outer", "1"), 4),
        ({"morphism": morphism}, ("dualize", "--point", "1,1,1"), 11),
    )
    for i, (sections, argv, lines) in enumerate(runs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"bundle": bundle, **sections}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
        assert time.perf_counter() - start < 1
        if terms == 3:
            assert (code, err, out.count("\n")) == (0, "", lines)
        else:
            assert (code, out) == (2, "")
            assert err == "INCONSISTENT_SCENARIO: a value to print exceeds the int-to-text limit\n"


@pytest.mark.parametrize("command, flags", [
    (("dualize",), ("--point", "-1/2,1,2")),
    (("lift", "vertical", "--side", "right"), ("--point", "-1,0,2", "--outer", "-3")),
])
def test_leading_minus_coordinate_is_a_value(command, flags, scenario_file, capsys):
    # argparse alone reads "-1/2,1,2" after --point as an option and exits 2
    base = (*command, "--scenario", scenario_file)
    code, out, err = run_cli(capsys, *base, *flags)
    assert (code, err) == (0, "")
    joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
    assert run_cli(capsys, *base, *joined) == (0, out, "")
