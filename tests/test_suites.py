"""Property suites: verdicts, report determinism, and the failure path."""

import hashlib
import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from dvbcalc import core, geomech, suites
from dvbcalc.core import (
    Chart,
    DecomposedDVB,
    DVBMorphism,
    compose_morphisms,
    invert_morphism,
    invert_morphism_poly,
    psi_zero,
)
from dvbcalc.duality import third_dual_transport
from dvbcalc.ring import MultiPoly, PolyMatrix, _EvalPlan, random_tuple
from dvbcalc.scenario import (
    InconsistentScenarioError,
    Scenario,
    derive_seed,
    gen_random_scenario,
    random_morphism,
    random_unimodular_matrix,
    scenario_from_obj,
    scenario_to_text,
)
from dvbcalc.suites import (
    PropertyResult,
    _conjugated_transport_inverts,
    _run_property,
    _scalar_worked_example,
    run_connection_check,
    run_suite,
)

# The public structure maps on DVBElement; the axioms suite calls the private
# routines behind them.
STRUCTURE_OPS = ("fiber_add", "fiber_scale", "fiber_sub", "kernel_split", "core_difference")

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
    report = run_suite("all", sc)
    ids = [r.prop_id for r in report.results]
    assert ids == sorted(ids)
    assert len(ids) == sum(SUITE_SIZES.values())
    assert len(set(ids)) == len(ids)
    numbers: dict[str, list[int]] = {}
    for prop_id in ids:
        suite, number, _ = re.fullmatch(r"([a-z-]+)\.(\d\d)\.([a-z-]+)", prop_id).groups()
        numbers.setdefault(suite, []).append(int(number))
    assert sorted(numbers) == sorted(SUITE_SIZES)
    for suite, seen in numbers.items():
        assert seen == list(range(1, len(seen) + 1)), suite
    assert report.passed


def _unchanged_by_conjugation(seeds, symmetric: bool, samples=None):
    """Assert that conjugating each generated scenario's morphism by a drawn
    automorphism keeps its axioms, duality and third-dual bodies; return
    the seeds whose conjugate equals the morphism."""
    unchanged = []
    for seed in seeds:
        sc = gen_random_scenario(seed, symmetric=symmetric)
        sc = sc if samples is None else sc.with_plan(samples=samples)
        a = random_morphism(random.Random(derive_seed(seed, "conjugation")), sc.bundle, 1)
        phi = sc.section("morphism")
        conjugate = compose_morphisms(compose_morphisms(a, phi), invert_morphism_poly(a))
        if conjugate == phi:
            unchanged.append(seed)
        moved = replace(sc, morphism=conjugate)
        for suite in ("axioms", "duality", "third-dual"):
            assert run_suite(suite, moved).body() == run_suite(suite, sc).body(), (
                seed, symmetric, suite
            )
    return unchanged


def test_conjugating_the_morphism_by_an_automorphism_keeps_the_bodies():
    # an automorphism A of the bundle only changes coordinates, so the
    # conjugate A phi A^-1 has phi's verdicts; on generated scenarios the
    # bodies match too, as det Phi_r, and so every redraw, is unchanged.
    # Seed 2 has ranks (1, 1, 1), whose unimodular blocks are all [[1]],
    # and a Psi-only A commutes with such a phi
    assert _unchanged_by_conjugation(range(12), False) == [2]


@pytest.mark.parametrize("symmetric, unchanged", [(False, [2]), (True, [1])])
def test_conjugation_keeps_the_bodies_on_forty_seeds_at_golden_samples(symmetric, unchanged):
    # seeds 0-39 at the 8 plan samples of the golden bodies; the unchanged
    # seed has ranks (1, 1, 1) in both flag sets
    assert _unchanged_by_conjugation(range(40), symmetric, samples=8) == unchanged


def _sum(polys, vars):
    return sum(polys, MultiPoly.zero(vars))


def _fiber_changed(sc: Scenario, a: PolyMatrix) -> Scenario:
    """The scenario with its vector field and one-form rewritten in the side
    leg's fiber coordinates e' = A(x) e.  With B = A^-1, the rules are:

    * vector field: base'(x, e') = base(x, B e') and
      vert' = A vert(x, B e') + sum_i base'^i (d_i A) B e';
    * one-form: de'_b = sum_a de_a(x, B e') B^a_b and
      dx'_i = dx_i(x, B e') + sum_a de_a(x, B e') (d_i B e')^a.
    """
    side = sc.side_bundle
    names, vars = side.chart.names, geomech.total_space_vars(side)
    k = side.rank
    b = a.unimodular_inverse()

    def lifted(m: PolyMatrix, name=None):
        """m, or its partial along a chart variable, over the total space."""
        return [[(p if name is None else p.partial(name)).extend(vars) for p in row]
                for row in m.entries]

    def times(m, v):
        return [_sum([m[i][j] * v[j] for j in range(k)], vars) for i in range(k)]

    e = [MultiPoly.var(vars, name) for name in vars[len(names):]]
    a_big, b_big = lifted(a), lifted(b)
    be = times(b_big, e)
    images = tuple(MultiPoly.var(vars, name) for name in names) + tuple(be)

    def old(p: MultiPoly) -> MultiPoly:
        return p.compose(images)

    field = sc.vector_field
    base = tuple(old(p) for p in field.base)
    vert = times(a_big, [old(p) for p in field.vert])
    for bi, name in zip(base, names):
        vert = [v + bi * w for v, w in zip(vert, times(lifted(a, name), be))]

    form = sc.one_form
    f = [old(p) for p in form.de_coeffs]
    de = tuple(_sum([f[i] * b_big[i][j] for i in range(k)], vars) for j in range(k))
    dx = tuple(
        old(c) + _sum([fa * w for fa, w in zip(f, times(lifted(b, name), e))], vars)
        for c, name in zip(form.dx_coeffs, names)
    )
    moved_field = geomech.GeneralVectorField(side, base, tuple(vert))
    moved_form = geomech.GeneralOneForm(side, dx, de)

    # the two rules agree with each other: the form's value on the field is
    # a function, and reads at (x, e') what it read at (x, B e')
    def value(form, field):
        return _sum([c * v for c, v in zip(form.dx_coeffs + form.de_coeffs,
                                           field.base + field.vert)], vars)

    assert value(moved_form, moved_field) == old(value(form, field))
    return replace(sc, vector_field=moved_field, one_form=moved_form)


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_fiber_change_keeps_the_vector_field_and_one_form_verdicts(symmetric):
    # a fiber change e' = A(x) e of the side leg only changes coordinates, so
    # geometry.01 and .02 decide the same quality of the rewritten records
    rows = dict(suites._GEOMETRY)
    changed = 0
    for seed in range(40):
        sc = gen_random_scenario(seed, symmetric=symmetric)
        side = sc.side_bundle
        a = random_unimodular_matrix(
            random.Random(derive_seed(seed, "fiber change")), side.chart.names, side.rank, 1
        )
        moved = _fiber_changed(sc, a)
        changed += moved.vector_field != sc.vector_field
        for prop_id in ("geometry.01.vector-field-channels", "geometry.02.one-form-channels"):
            before = _run_property(prop_id, sc, rows[prop_id])
            after = _run_property(prop_id, moved, rows[prop_id])
            assert (after.passed, after.detail) == (before.passed, before.detail), (
                seed, prop_id
            )
    # A is [[1]] on the scenarios of side rank 1 (10 plain, 13 symmetric);
    # over both flag sets it is constant on 25 others and x-dependent on 32
    assert changed == {False: 30, True: 27}[symmetric]


# sha256 of report bodies, recorded before the suites were declared as
# property tables over one sampler.  The bodies hold every verdict, detail
# and counterexample, so a changed draw order or wording shows up here.
GOLDEN_SUITE_BODIES = {
    "seed 1": "6ae99737c57dd830f02187b3b080a3ef0dfd6dcf8cdec6210a0c8a2dabeb8826",
    "seed 2": "380459412bdcff81440f1fd9ba5c9de61df1197caddc9698783ef4521d90ab14",
    "seed 4": "3dc8e8fd6f2dccf652339ba358b194032c3270653cf31e5f8a338daa7d031065",
    "seed 6": "f7aeac6b4462da7a8ba61f7346fc324183ac7f265166a2746901eb09921c802c",
    "seed 7": "13e93cec514fc2a2e77bad70e7d6e6e26f563644054c6d9b83002c2e6e2db6ca",
    "seed 5 symmetric": "89dfe91ecc3ee0ce7effe51a6b56d92ae791500fd561a25c780dc05cdbb11a64",
    "point chart": "0b47783d0f84dc7e2f910da70635b37c7db13c71a163c9fc4391a30484fa17a2",
    "seed 3 bundle only": "51209c2b6626b7579e3fa342992538f0de6ca71dee861601d27c6f5f1e892884",
}

GOLDEN_CONNECTION_BODIES = {
    "metric": "ec2e567d803fa5a4464dd0ced8fc48037603ba58f84142db9bd4efeb84a92351",
    "symmetric": "22a7977967d541c7ac90f81f8ec9d6abb0cb6545b06acb8c1563e573db4d81cc",
    "lagrangian": "0f5dc51da2c2039dbd27859e1128d89de0332d624bd8e036eca4afb271fc8c92",
    "metric bundle only": "482ef9c2b41b912f2b145f63eb5cc99adf440489398f07343c1fedf33949dedc",
    "symmetric bundle only": "15b596a31f414a6e884e0386faca70ae1a12d81ab1984fd561563829cd9b2583",
    "lagrangian bundle only": "ae2a03687d46391dfb86897e2b050687787966423cee84b20e486199bac327c5",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bundle_only(seed: int) -> Scenario:
    """A scenario with no sections: every record is a seeded stand-in."""
    return Scenario(bundle=gen_random_scenario(seed).bundle, seed=seed, samples=8)


def test_report_bodies_match_golden_digests():
    cases = {
        "seed 1": gen_random_scenario(1),
        "seed 2": gen_random_scenario(2),
        "seed 4": gen_random_scenario(4),
        "seed 6": gen_random_scenario(6),
        "seed 7": gen_random_scenario(7),
        "seed 5 symmetric": gen_random_scenario(5, max_rank=2, symmetric=True),
        "point chart": Scenario(bundle=DecomposedDVB(Chart.of_dim(0), 1, 1, 1), seed=5, bound=3),
        "seed 3 bundle only": _bundle_only(3),
    }
    got = {
        name: _sha256(run_suite("all", sc.with_plan(samples=8)).body())
        for name, sc in cases.items()
    }
    assert got == GOLDEN_SUITE_BODIES


def test_connection_bodies_match_golden_digests():
    symmetric = gen_random_scenario(5, max_rank=2, symmetric=True).with_plan(samples=8)
    got = {}
    for kind in ("metric", "symmetric", "lagrangian"):
        got[kind] = _sha256(run_connection_check(kind, symmetric).body())
        got[f"{kind} bundle only"] = _sha256(run_connection_check(kind, _bundle_only(3)).body())
    assert got == GOLDEN_CONNECTION_BODIES


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


TRANSPORT = "third-dual.05.conjugated-transport-inverts"


def _transport_result(report):
    return next(r for r in report.results if r.prop_id == TRANSPORT)


def test_transport_passes_where_the_naive_route_coincides():
    result = _transport_result(run_suite("third-dual", _zero_psi_scenario()))
    assert result.passed, result


def _psi_x1_scenario(seed: int, samples: int) -> Scenario:
    """Phi_l = Phi_c = Phi_r = 1 and Psi = x1 over one coordinate: the naive
    route inverts phi at x1 = 0 only."""
    b = DecomposedDVB(Chart.of_dim(1), 1, 1, 1)
    one = PolyMatrix.identity(b.chart.names, 1)
    phi = DVBMorphism(b, b, one, one, one, (((MultiPoly.var(b.chart.names, "x1"),),),))
    return Scenario(bundle=b, morphism=phi, seed=seed, samples=samples)


@pytest.mark.parametrize("samples", [1, 2])
def test_naive_contrast_holds_on_and_off_the_zero_of_psi(samples):
    # the first point is x1 = 0 for 15 of these seeds, where the naive route
    # matches the inverse, and it differs from the inverse at the rest
    for seed in range(200):
        sc = _psi_x1_scenario(seed, samples)
        result = _run_property(TRANSPORT, sc, _conjugated_transport_inverts)
        assert result.passed, (seed, result)


def test_transport_reads_psi_on_integers():
    """third-dual.05 decides whether Psi vanishes from the integer blocks of
    phi.at(x): alone over generated seeds 0-11 it makes at most 72 `Fraction`s,
    where reading the `Fraction` view `psi` made 157."""
    scenarios = [gen_random_scenario(s) for s in range(12)]
    saved = Fraction.__dict__["__new__"]
    made = 0

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return saved.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        results = [_run_property(TRANSPORT, sc, _conjugated_transport_inverts) for sc in scenarios]
    finally:
        Fraction.__new__ = saved
    assert all(r.passed for r in results)
    assert made <= 72


@pytest.mark.parametrize("route", [invert_morphism, third_dual_transport])
def test_naive_route_that_ignores_psi_fails_transport(route, monkeypatch):
    monkeypatch.setattr(suites, "naive_third_dual_transport", route)
    result = _transport_result(run_suite("third-dual", gen_random_scenario(4)))
    assert not result.passed
    assert result.detail == "naive identification disagrees with the bilinear block"
    assert set(result.counterexample) == {"x"}


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
    report = run_suite("all", sc)
    failed = [(r.prop_id, r.detail) for r in report.results if not r.passed]
    assert report.passed, failed


@pytest.mark.parametrize("ranks", [(0, 0, 0), (2, 0, 0), (0, 0, 2), (0, 2, 1)])
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_suites_pass_at_zero_ranks(dim, ranks):
    sc = Scenario(bundle=DecomposedDVB(Chart.of_dim(dim), *ranks), seed=dim, samples=8)
    report = run_suite("all", sc)
    failed = [(r.prop_id, r.detail) for r in report.results if not r.passed]
    assert report.passed, failed
    details = {r.prop_id: r.detail for r in report.results}
    # every rank tuple here has n_F = 0 or n_C = 0
    assert details["geometry.07.section-duality-orthogonality"] == (
        "orthogonality holds; uniqueness vacuous at these ranks"
    )
    perturbation = details["third-dual.02.relation-rejects-perturbation"]
    if ranks == (0, 0, 0):
        assert perturbation == "no slot to perturb at these ranks; vacuous"
    else:
        assert perturbation == "a perturbed candidate is rejected by the relation"


def test_metric_vanishing_at_sampled_points_gets_its_real_verdict():
    # g = [[x1]] vanishes at x1 = 0, which the samplers of some of these
    # plans draw (seeds 20, 24, 28, 29, 35 and 36 among them); neither
    # channel inverts g, so each such point is checked like any other
    obj = json.loads(scenario_to_text(gen_random_scenario(3, max_rank=1)))
    obj["metric"]["g"] = [[[{"coeff": "1", "exps": [1]}]]]
    for seed in range(300):
        obj["plan"] = {"seed": seed, "samples": 5, "bound": 1}
        sc = scenario_from_obj(obj)
        prop = _run_property(
            "geometry.09.metric-compatibility-channels", sc, suites._metric_channels
        )
        assert prop.passed, (seed, prop.detail)
        assert prop.detail == "diagram and coefficient identity agree: not compatible"
        check = run_connection_check("metric", sc).results[0]
        assert not check.passed, seed
        assert check.detail == "connection does not preserve the metric", (seed, check.detail)
        assert check.counterexample["index (i, a, b)"] == "(0, 0, 0)"
        assert check.counterexample["metric_derivative"] == "1"


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


def _count_calls(monkeypatch, owner_attrs):
    """Wrap each (owner, name) with a call counter, rebinding every name in
    a dvbcalc module that refers to the same function."""
    counts = {}
    for owner, name in owner_attrs:
        original = getattr(owner, name)
        counts[name] = 0

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "dvbcalc" and module is not owner:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return counts


def _run_axioms_counting(monkeypatch, sc):
    """Run the axioms suite on `sc`, counting plan evaluations and the calls
    of the public structure maps, `DVBMorphism.at` and `FiberMorphism.apply`."""
    counts = _count_calls(
        monkeypatch,
        [(core, name) for name in STRUCTURE_OPS]
        + [(core.DVBMorphism, "at"), (core.FiberMorphism, "apply")],
    )
    counts["evaluate"] = 0
    original = _EvalPlan._evaluate

    def counting(self, point, tail):
        counts["evaluate"] += 1
        return original(self, point, tail)

    monkeypatch.setattr(_EvalPlan, "_evaluate", counting)
    report = run_suite("axioms", sc)
    assert report.passed
    assert any(r.prop_id.startswith("axioms.07.") for r in report.results)
    return counts


def test_morphism_axiom_evaluates_each_sample_point_once(monkeypatch):
    sc = Scenario(bundle=DecomposedDVB(Chart.of_dim(2), 2, 1, 2), seed=3, samples=9, bound=4)
    counts = _run_axioms_counting(monkeypatch, sc)
    # axioms.01-06 never evaluate the morphism; axioms.07 draws one point
    # per sample and evaluates the morphism's plan there exactly once
    assert counts.pop("evaluate") == sc.samples
    assert counts == dict.fromkeys(STRUCTURE_OPS + ("at", "apply"), 0)


def test_axioms_suite_stays_on_the_integer_kernel(monkeypatch):
    sc = Scenario(bundle=DecomposedDVB(Chart.of_dim(2), 2, 3, 2), seed=5, samples=12, bound=7)
    counts = _run_axioms_counting(monkeypatch, sc)
    assert counts.pop("evaluate") == sc.samples
    assert counts == dict.fromkeys(STRUCTURE_OPS + ("at", "apply"), 0)


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _fmt_element(x, f, c, e) -> str:
    return f"(x={_fmt_tuple(x)} | f={_fmt_tuple(f)} | c={_fmt_tuple(c)} | e={_fmt_tuple(e)})"


def test_broken_kernel_add_fails_axioms_with_element_counterexamples(monkeypatch):
    original = core._vec_add

    def off_by_one(a, b):
        nums, _ = a
        return original(original(a, b), ((1,) * len(nums), 1))

    monkeypatch.setattr(core, "_vec_add", off_by_one)
    b = DecomposedDVB(Chart.of_dim(2), 2, 1, 2)
    sc = Scenario(bundle=b, seed=3, samples=9, bound=4)
    results = {r.prop_id[:9]: r for r in run_suite("axioms", sc).results}
    right, morphism = results["axioms.01"], results["axioms.07"]
    assert not right.passed and not morphism.passed
    # replay the first sample of each with the public Fraction draws
    rng = random.Random(right.seed)
    x, shared = random_tuple(rng, 2, 4), random_tuple(rng, b.n_E, 4)
    u, v, w = (
        _fmt_element(x, random_tuple(rng, b.n_F, 4), random_tuple(rng, b.n_C, 4), shared)
        for _ in range(3)
    )
    r, s = random_tuple(rng, 1, 4)[0], random_tuple(rng, 1, 4)[0]
    assert right.detail == "a right-structure vector space law fails"
    assert right.counterexample == {"u": u, "v": v, "w": w, "r": str(r), "s": str(s)}
    rng = random.Random(morphism.seed)
    x = random_tuple(rng, 2, 4)
    shared_e = random_tuple(rng, b.n_E, 4)
    random_tuple(rng, b.n_F, 4)  # the shared F slot of the left check
    r = random_tuple(rng, 1, 4)[0]
    u, v = (
        _fmt_element(x, random_tuple(rng, b.n_F, 4), random_tuple(rng, b.n_C, 4), shared_e)
        for _ in range(2)
    )
    assert morphism.detail == "morphism breaks the right structure"
    assert morphism.counterexample == {"u": u, "v": v, "r": str(r)}


def test_scalar_worked_example_evaluates_once_and_pulls_back_once_per_covector(monkeypatch):
    counts = _count_calls(
        monkeypatch, [(core.DVBMorphism, "at"), (core.FiberMorphism, "apply")]
    )
    passed, detail, _ = _scalar_worked_example(gen_random_scenario(1), None)
    assert passed, detail
    # one evaluation at the point; 125 images and 125 pulled-back covectors
    assert counts == {"at": 1, "apply": 250}


def test_side_exchange_adjoint_builds_one_exchange_per_run(monkeypatch):
    """geometry.12 builds `kappa_M` once, inside `alpha_M`, and takes phi
    back from the dual."""
    counts = _count_calls(monkeypatch, [(geomech, "kappa_M")])
    runs = 0
    for seed in range(6):
        sc = gen_random_scenario(seed)
        if sc.chart.dim == 0:
            continue
        result = _run_property(
            "geometry.12.side-exchange-adjoint", sc, suites._side_exchange_adjoint
        )
        assert result.passed, result.detail
        runs += 1
        assert counts["kappa_M"] == runs
    assert runs > 0


def _exchange_negating_the_core(bundle):
    # a defect in the side-exchange diagram only: the coordinate and
    # isotropy channels never read the exchange
    return core._signed_identity(bundle, bundle.flip(), (1, -1, 1))


def test_symmetry_diagram_defect_is_reported_with_every_verdict(monkeypatch):
    monkeypatch.setattr(geomech, "kappa_triple", _exchange_negating_the_core)
    sc = gen_random_scenario(0, symmetric=True)
    rows = {r.prop_id: r for r in run_suite("geometry", sc).results}
    row = rows["geometry.10.connection-symmetry-channels"]
    assert not row.passed
    assert row.detail == "connection symmetry channels disagree"
    assert row.counterexample == {
        "coordinate_symmetry": "True",
        "side_exchange_diagram": "False",
        "horizontal_isotropy": "True",
    }
    check = run_connection_check("symmetric", sc).results[0]
    assert not check.passed
    assert check.detail == "diagram and coordinate channels disagree"
    assert check.counterexample == {
        "coordinate_symmetry": "True", "side_exchange_diagram": "False"
    }


# each property whose channels decide one quality: one channel to flip, its
# counterexample key, the failing detail and every counterexample key
FLIPPED_CHANNELS = [
    ("geometry.01.vector-field-channels", "vf_linearity_on_cotangent", "momentum_linearity",
     "degree-zero channels disagree", {"shape", "bundle_morphism"}),
    ("geometry.02.one-form-channels", "oneform_linearity_on_tangent", "velocity_linearity",
     "linear one-form channels disagree", {"shape", "bundle_morphism"}),
    ("geometry.03.bivector-channels", "is_linear_poisson", "contraction_morphism",
     "linear bivector channels disagree", {"shape"}),
    ("geometry.05.two-form-closedness-channels", "closedness_via_exterior", "exterior_derivative",
     "closedness channels disagree", {"coefficient_identity", "pullback_reproduces"}),
    ("geometry.09.metric-compatibility-channels", "is_metric_connection", "diagram_sampling",
     "metric compatibility channels disagree", {"coefficient_identity"}),
    ("geometry.10.connection-symmetry-channels", "horizontal_lagrangian_check",
     "horizontal_isotropy", "connection symmetry channels disagree",
     {"coordinate_symmetry", "side_exchange_diagram"}),
]


def test_an_uncaught_exception_fails_its_own_row_only(monkeypatch):
    sc = gen_random_scenario(0)
    before = run_suite("geometry", sc)
    prop_id = "geometry.05.two-form-closedness-channels"

    def broken(form):
        raise ZeroDivisionError("closedness blew up")

    monkeypatch.setattr(suites, "closedness_via_exterior", broken)
    after = run_suite("geometry", sc)
    seed = derive_seed(sc.seed, prop_id)
    assert after.results == tuple(
        PropertyResult(
            prop_id, False, "uncaught ZeroDivisionError: closedness blew up", seed,
            {"error": "closedness blew up"},
        )
        if r.prop_id == prop_id else r
        for r in before.results
    )
    assert before.passed and not after.passed
    text = before.body().split("--- machine readable ---")[0].splitlines()
    row = text.index(f"[PASS] {prop_id}  three closedness channels agree: closed")
    text[row : row + 1] = [
        f"[FAIL] {prop_id}  uncaught ZeroDivisionError: closedness blew up  (replay seed {seed})",
        "      error = closedness blew up",
    ]
    text[-1] = "result: FAIL (11/12 properties)"
    assert after.body().split("--- machine readable ---")[0].splitlines() == text


@pytest.mark.parametrize("prop_id, channel, key, detail, others", FLIPPED_CHANNELS)
def test_a_flipped_channel_is_reported_with_every_verdict(
    monkeypatch, prop_id, channel, key, detail, others
):
    real = getattr(suites, channel)
    monkeypatch.setattr(suites, channel, lambda *args, **kwargs: not real(*args, **kwargs))
    sc = gen_random_scenario(0, symmetric=True)
    row = next(r for r in run_suite("geometry", sc).results if r.prop_id == prop_id)
    assert not row.passed and row.detail == detail
    verdict = {value for name, value in row.counterexample.items() if name != key}
    assert set(row.counterexample) == others | {key} and len(verdict) == 1
    assert {row.counterexample[key]} | verdict == {"True", "False"}
