"""Property suites: verdicts, report determinism, and the failure path."""

import json

import pytest

from dvbcalc.core import Chart, DecomposedDVB, DVBMorphism, psi_zero
from dvbcalc.ring import PolyMatrix
from dvbcalc.scenario import (
    InconsistentScenarioError,
    Scenario,
    gen_random_scenario,
)
from dvbcalc.suites import run_connection_check, run_suite

SUITE_SIZES = {"axioms": 7, "duality": 8, "third-dual": 5, "geometry": 12}


@pytest.mark.parametrize("suite", ["axioms", "duality", "third-dual", "geometry"])
@pytest.mark.parametrize("seed", [1, 4, 9])
def test_each_suite_passes_on_generated_scenarios(suite, seed):
    sc = gen_random_scenario(seed).with_plan(samples=15)
    report = run_suite(suite, sc)
    failed = [r for r in report.results if not r.passed]
    assert report.passed, failed
    assert len(report.results) == SUITE_SIZES[suite]


def test_all_concatenates_and_sorts():
    sc = gen_random_scenario(6).with_plan(samples=10)
    report = run_suite("all", sc, naive_identification=True)
    ids = [r.prop_id for r in report.results]
    assert ids == sorted(ids)
    assert len(ids) == sum(SUITE_SIZES.values()) + 1  # + naive property
    assert report.passed


def test_unknown_suite_rejected():
    sc = gen_random_scenario(0)
    with pytest.raises(ValueError):
        run_suite("spectral", sc)


def test_report_body_deterministic_and_render_adds_timing():
    sc = gen_random_scenario(11).with_plan(samples=12)
    a = run_suite("duality", sc)
    b = run_suite("duality", sc)
    assert a.body() == b.body()
    tail = a.render().splitlines()[-1]
    assert tail.startswith("elapsed: ") and tail.endswith(" ms")


def test_machine_block_parses_and_matches():
    sc = gen_random_scenario(3).with_plan(samples=10)
    report = run_suite("axioms", sc)
    text = report.body()
    machine = text.split("--- machine readable ---\n", 1)[1]
    obj = json.loads(machine)
    assert obj["suite"] == "axioms"
    assert obj["passed"] is True
    assert [p["id"] for p in obj["properties"]] == [r.prop_id for r in report.results]
    assert "elapsed_ms" not in obj


def test_property_seeds_differ_and_embed():
    sc = gen_random_scenario(2).with_plan(samples=10)
    report = run_suite("axioms", sc)
    seeds = [r.seed for r in report.results]
    assert len(set(seeds)) == len(seeds)


def _zero_psi_scenario(seed=5):
    sc = gen_random_scenario(seed).with_plan(samples=10)
    b = sc.bundle
    names = sc.chart.names
    phi = DVBMorphism(
        b,
        b,
        PolyMatrix.identity(names, b.n_F),
        PolyMatrix.identity(names, b.n_C),
        PolyMatrix.identity(names, b.n_E),
        psi_zero(names, b.n_C, b.n_E, b.n_F),
    )
    return Scenario(bundle=b, morphism=phi, seed=sc.seed, samples=10, bound=sc.bound)


def test_naive_identification_flag_adds_property():
    sc = gen_random_scenario(5).with_plan(samples=10)
    without = run_suite("third-dual", sc)
    with_flag = run_suite("third-dual", sc, naive_identification=True)
    ids = {r.prop_id for r in with_flag.results}
    assert "third-dual.06.naive-identification-diverges" in ids
    assert len(with_flag.results) == len(without.results) + 1
    prop = next(
        r for r in with_flag.results
        if r.prop_id == "third-dual.06.naive-identification-diverges"
    )
    assert prop.passed and "diverges" in prop.detail


def test_naive_identification_vacuous_without_bilinear_block():
    report = run_suite("third-dual", _zero_psi_scenario(), naive_identification=True)
    prop = next(
        r for r in report.results
        if r.prop_id == "third-dual.06.naive-identification-diverges"
    )
    assert prop.passed and "vacuous" in prop.detail


def test_geometry_symmetry_vacuous_when_ranks_differ():
    # seed 2 generates side rank 1 over a dim 2 chart
    sc = gen_random_scenario(2).with_plan(samples=10)
    assert sc.bundle.n_E != sc.chart.dim
    report = run_suite("geometry", sc)
    prop = next(
        r for r in report.results
        if r.prop_id == "geometry.10.connection-symmetry-channels"
    )
    assert prop.passed and "vacuous" in prop.detail


def test_suites_run_over_a_point_chart():
    b = DecomposedDVB(Chart.of_dim(0), 1, 1, 1)
    sc = Scenario(bundle=b, seed=5, samples=10, bound=3)
    report = run_suite("all", sc, naive_identification=True)
    failed = [(r.prop_id, r.detail) for r in report.results if not r.passed]
    assert report.passed, failed


# --- connection checks: the legitimate failure path -------------------------

def test_connection_check_unknown_kind():
    with pytest.raises(ValueError):
        run_connection_check("holonomy", gen_random_scenario(0))


def test_connection_check_requires_square_side():
    sc = gen_random_scenario(2)  # side rank 1, chart dim 2
    with pytest.raises(InconsistentScenarioError):
        run_connection_check("symmetric", sc)
    with pytest.raises(InconsistentScenarioError):
        run_connection_check("lagrangian", sc)


def test_symmetric_check_passes_on_symmetric_scenario():
    sc = gen_random_scenario(5, symmetric=True)
    for kind in ("symmetric", "lagrangian"):
        report = run_connection_check(kind, sc)
        assert report.passed and len(report.results) == 1


def _square_asymmetric_scenario():
    for seed in range(1, 60):
        sc = gen_random_scenario(seed)
        if sc.bundle.n_E == sc.chart.dim and sc.chart.dim >= 2:
            report = run_connection_check("symmetric", sc)
            if not report.passed:
                return sc
    raise AssertionError("no asymmetric square scenario found")


def test_symmetric_check_fails_with_counterexample_and_replays():
    sc = _square_asymmetric_scenario()
    report = run_connection_check("symmetric", sc)
    prop = report.results[0]
    assert not prop.passed
    assert prop.counterexample is not None
    assert any("gamma" in key for key in prop.counterexample)
    assert f"(replay seed {prop.seed})" in report.body()
    again = run_connection_check("symmetric", sc)
    assert again.body() == report.body()
    lag = run_connection_check("lagrangian", sc)
    assert not lag.passed


def test_metric_check_reports_exact_counterexample():
    for seed in range(1, 30):
        sc = gen_random_scenario(seed)
        report = run_connection_check("metric", sc)
        if not report.passed:
            prop = report.results[0]
            assert prop.counterexample is not None
            assert "metric_derivative" in prop.counterexample
            assert "covariant_combination" in prop.counterexample
            again = run_connection_check("metric", sc)
            assert again.body() == report.body()
            return
    raise AssertionError("no incompatible pair found")


def test_metric_check_passes_on_compatible_pair():
    """Zero connection with a constant metric preserves it."""
    from dvbcalc.scenario import scenario_from_obj

    def lit(c, exps):
        return [{"coeff": c, "exps": exps}]

    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 2},
        "metric": {
            "g": [
                [lit("2", [0]), lit("0", [0])],
                [lit("0", [0]), lit("3", [0])],
            ]
        },
        "connection": {
            "gamma": [
                [[lit("0", [0]), lit("0", [0])]],
                [[lit("0", [0]), lit("0", [0])]],
            ]
        },
    }
    sc = scenario_from_obj(obj)
    report = run_connection_check("metric", sc)
    assert report.passed


def test_morphism_axiom_evaluates_each_sample_point_once(monkeypatch):
    calls = []
    original = DVBMorphism.at

    def counting_at(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(DVBMorphism, "at", counting_at)
    b = DecomposedDVB(Chart.of_dim(2), 2, 1, 2)
    sc = Scenario(bundle=b, seed=3, samples=9, bound=4)
    report = run_suite("axioms", sc)
    assert report.passed
    assert any(r.prop_id.startswith("axioms.07.") for r in report.results)
    # axioms.01-06 never evaluate the morphism; axioms.07 draws one point
    # per sample and evaluates the blocks there exactly once
    assert len(calls) == sc.samples
