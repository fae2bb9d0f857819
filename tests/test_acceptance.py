"""Acceptance gate: six end-to-end criteria, one printed verdict line each.

Each test evaluates its criterion completely, prints a single
``criterion N: PASS/FAIL`` line directly to the terminal, and then asserts.
The criteria exercise the library through its public interface only.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from dvbcalc import (
    Bivector,
    Chart,
    DVBElement,
    DVBMorphism,
    DecomposedDVB,
    LinearConnection,
    LinearSection,
    MultiPoly,
    PolyMatrix,
    VectorBundle,
    bivector_linear_shape,
    canonical_R,
    check_jacobi,
    closedness_via_exterior,
    complete_cotangent_lift,
    complete_tangent_lift,
    dual_linear_section,
    fiber_right_dual,
    fiber_scale,
    horizontal_lagrangian_check,
    invert_morphism,
    is_closed,
    is_degree_zero,
    is_linear_oneform,
    is_linear_poisson,
    is_metric_connection,
    is_symmetric_connection,
    linear_vf_as_section,
    metric_identity,
    naive_third_dual_transport,
    oneform_is_bundle_morphism,
    oneform_linearity_on_tangent,
    pair_r,
    right_dual,
    third_dual_transport,
    total_space_vars,
    verify_R_relation,
    vf_is_bundle_morphism,
    vf_linearity_on_cotangent,
)
from dvbcalc.ring import random_tuple
from dvbcalc.scenario import (
    Scenario,
    derive_seed,
    gen_random_scenario,
    random_connection,
    random_metric,
    random_morphism,
    random_one_form,
    random_poly_matrix,
    random_poly_vector,
    random_two_form,
    random_vector_field,
)
from dvbcalc.suites import run_suite

from test_duality import relation_on_grid


def _announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _point(rng, dim, bound=7):
    return random_tuple(rng, dim, bound)


# --- criterion 1: structure axioms over random bundles ----------------------

def _criterion_1():
    start = time.monotonic()
    rng = random.Random(20260816)
    for i in range(20):
        dim = rng.randint(1, 3)
        bundle = DecomposedDVB(
            Chart.of_dim(dim), rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        )
        scenario = Scenario(bundle=bundle, seed=1000 + i, samples=100, bound=7)
        report = run_suite("axioms", scenario)
        if not report.passed:
            failed = [r.prop_id for r in report.results if not r.passed]
            return False, f"bundle ranks {bundle.ranks} over dim {dim} failed {failed}"
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        return False, f"axiom sweep took {elapsed:.1f}s, budget is 10s"
    return True, (
        "20 random bundles (dim <= 3, ranks <= 4) x 100 tuples: additions, "
        f"interchange, cores, kernel splittings, core differences, in {elapsed:.1f}s"
    )


def test_criterion_1(capsys):
    ok, detail = _criterion_1()
    _announce(capsys, 1, ok, detail)
    assert ok, detail


# --- criterion 2: duality laws and the adjoint contract ----------------------

def _criterion_2():
    report = run_suite("duality", gen_random_scenario(31).with_plan(samples=100))
    if not report.passed:
        failed = [r.prop_id for r in report.results if not r.passed]
        return False, f"duality suite failed {failed}"
    rng = random.Random(424242)
    for i in range(19):
        dim = rng.randint(1, 3)
        bundle = DecomposedDVB(
            Chart.of_dim(dim), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        )
        phi = random_morphism(random.Random(derive_seed(31, f"iso{i}")), bundle, 2)
        dual = right_dual(bundle)
        for _ in range(100):
            x = _point(rng, dim)
            fm = phi.at(x)
            v = DVBElement(
                bundle,
                x,
                random_tuple(rng, bundle.n_F, 7),
                random_tuple(rng, bundle.n_C, 7),
                random_tuple(rng, bundle.n_E, 7),
            )
            image = fm.apply(v)
            a = DVBElement(
                dual,
                x,
                image.e,
                random_tuple(rng, bundle.n_F, 7),
                random_tuple(rng, bundle.n_C, 7),
            )
            if pair_r(image, a) != pair_r(v, fiber_right_dual(fm).apply(a)):
                return False, f"adjoint contract failed on isomorphism {i} at x={x}"
    # frozen scalar example: blocks 2,3,5,7 dualize to 1/5, 2, 3, 7/5
    chart = Chart.of_dim(0)
    kb = DecomposedDVB(chart, 1, 1, 1)
    names = chart.names
    blocks = [PolyMatrix.constant(names, ((v,),)) for v in (2, 3, 5)]
    seven = MultiPoly.const(names, 7)
    phi = DVBMorphism(kb, kb, *blocks, (((seven,),),))
    fm = fiber_right_dual(phi.at(()))
    want = (
        ((Fraction(1, 5),),),
        ((Fraction(2),),),
        ((Fraction(3),),),
        (((Fraction(7, 5),),),),
    )
    if (fm.l, fm.c, fm.r, fm.psi) != want:
        return False, f"scalar example blocks were {(fm.l, fm.c, fm.r, fm.psi)}"
    return True, (
        "pairing laws, kernel pairings, dual axioms, adjoint contract on 20 "
        "isomorphisms x 100 samples; scalar example gives (1/5, 2, 3, 7/5)"
    )


def test_criterion_2(capsys):
    ok, detail = _criterion_2()
    _announce(capsys, 2, ok, detail)
    assert ok, detail


# --- criterion 3: third dual transport ---------------------------------------

def _criterion_3():
    rng = random.Random(97531)
    for i in range(20):
        dim = rng.randint(1, 3)
        bundle = DecomposedDVB(
            Chart.of_dim(dim), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        )
        phi = random_morphism(random.Random(derive_seed(55, f"m{i}")), bundle, 2)
        transport = third_dual_transport(phi)
        inverse = invert_morphism(phi)
        for _ in range(10):
            x = _point(rng, dim)
            if transport.at(x) != inverse.at(x):
                return False, f"transport differs from the inverse at x={x}"
    # negative: without the sign conjugation a nonzero bilinear block breaks it
    names = ("x1",)
    small = DecomposedDVB(Chart.of_dim(1), 1, 1, 1)
    ident = PolyMatrix.identity(names, 1)
    one = MultiPoly.const(names, 1)
    twisted = DVBMorphism(small, small, ident, ident, ident, (((one,),),))
    naive = naive_third_dual_transport(twisted)
    straight = invert_morphism(twisted)
    if naive.at((Fraction(1),)) == straight.at((Fraction(1),)):
        return False, "naive identification unexpectedly matched the inverse"
    # the three sign-variant identities, exactly, on random elements
    for _ in range(40):
        dim = rng.randint(0, 2)
        bundle = DecomposedDVB(
            Chart.of_dim(dim), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        )
        v = DVBElement(
            bundle,
            _point(rng, dim),
            random_tuple(rng, bundle.n_F, 7),
            random_tuple(rng, bundle.n_C, 7),
            random_tuple(rng, bundle.n_E, 7),
        )
        twists = (
            ("R+-", fiber_scale("left", -1, v)),
            ("R-+", fiber_scale("right", -1, v)),
            ("R=", fiber_scale("left", -1, fiber_scale("right", -1, v))),
        )
        for variant, flipped in twists:
            if canonical_R(variant, v) != canonical_R("R", flipped):
                return False, f"variant identity {variant} failed"
            if not verify_R_relation(
                v, canonical_R(variant, v), samples=10,
                seed=rng.randrange(1 << 30), variant=variant,
            ):
                return False, f"variant {variant} violated its signed relation"
    return True, (
        "conjugated transport equals the inverse block-for-block on 20 "
        "morphisms x 10 points; naive identification fails as predicted; "
        "all three sign-variant identities hold"
    )


def test_criterion_3(capsys):
    ok, detail = _criterion_3()
    _announce(capsys, 3, ok, detail)
    assert ok, detail


# --- criterion 4: exhaustive defining relation --------------------------------

def _criterion_4():
    bundle = DecomposedDVB(Chart.of_dim(0), 1, 1, 1)
    grid = [Fraction(t) for t in range(-2, 3)]
    mismatches = 0
    for f in grid:
        for c in grid:
            for e in grid:
                v = DVBElement(bundle, (), (f,), (c,), (e,))
                if not relation_on_grid(v, canonical_R("R", v), grid):
                    mismatches += 1
    if mismatches:
        return False, f"{mismatches} of 125 grid elements violated the relation"
    return True, (
        "canonical map satisfies its defining relation on the full "
        "{-2..2} grid at ranks (1, 1, 1): 125 elements x 125 covector pairs, "
        "zero mismatches"
    )


def test_criterion_4(capsys):
    ok, detail = _criterion_4()
    _announce(capsys, 4, ok, detail)
    assert ok, detail


# --- criterion 5: geometric mechanics characterizations ----------------------

def _so3_fixtures():
    chart = Chart.of_dim(0)
    vb = VectorBundle(chart, 3, "g")
    vars3 = total_space_vars(vb)
    e1, e2, e3 = (MultiPoly.var(vars3, f"e{i}") for i in (1, 2, 3))
    z = MultiPoly.zero(vars3)

    def antisym(rows):
        return PolyMatrix(vars3, tuple(tuple(row) for row in rows))

    empty = PolyMatrix.zero(vars3, 0, 0)
    mixed = PolyMatrix.zero(vars3, 0, 3)
    so3 = Bivector(vb, empty, mixed, antisym(((z, e3, -e2), (-e3, z, e1), (e2, -e1, z))))
    broken = Bivector(vb, empty, mixed, antisym(((z, e3, -e1), (-e3, z, e1), (e1, -e1, z))))
    one = MultiPoly.const(vars3, 1)
    constant = Bivector(vb, empty, mixed, antisym(((z, one, z), (-one, z, z), (z, z, z))))
    return so3, broken, constant


def _criterion_5():
    start = time.monotonic()
    rng = random.Random(191919)

    # linear vector fields and one-forms: three characterizations each
    field_verdicts, form_verdicts = set(), set()
    for i in range(12):
        vb = VectorBundle(Chart.of_dim(rng.randint(1, 2)), rng.randint(1, 3), "E")
        field = random_vector_field(rng, vb, 2)
        trio = (
            is_degree_zero(field),
            vf_is_bundle_morphism(field, samples=40, seed=i),
            vf_linearity_on_cotangent(field, samples=40, seed=i + 100),
        )
        if len(set(trio)) != 1:
            return False, f"vector field characterizations disagree: {trio}"
        field_verdicts.add(trio[0])
        form = random_one_form(rng, vb, 2)
        trio = (
            is_linear_oneform(form),
            oneform_is_bundle_morphism(form, samples=40, seed=i),
            oneform_linearity_on_tangent(form, samples=40, seed=i + 100),
        )
        if len(set(trio)) != 1:
            return False, f"one-form characterizations disagree: {trio}"
        form_verdicts.add(trio[0])
    if field_verdicts != {True, False} or form_verdicts != {True, False}:
        return False, "field or form sweeps did not include both verdicts"

    # bivectors: structure constants pass, perturbations fail
    so3, broken, constant = _so3_fixtures()
    points = [(1, 1, 1), (1, 2, 3), (-1, 2, -5)] + [
        random_tuple(rng, 3, 7) for _ in range(4)
    ]
    if not (
        bivector_linear_shape(so3)
        and is_linear_poisson(so3, samples=30, seed=5)
        and check_jacobi(so3, points)
    ):
        return False, "rotation algebra bivector failed a positive check"
    if check_jacobi(broken, [(1, 1, 1)]):
        return False, "broken structure constants passed the Jacobi check"
    if bivector_linear_shape(constant) or is_linear_poisson(constant, samples=30, seed=6):
        return False, "constant bivector passed a linearity check"

    # 20 random two-forms: three equivalent closedness channels
    closed_verdicts = set()
    for i in range(20):
        vb = VectorBundle(Chart.of_dim(rng.randint(1, 3)), rng.randint(1, 3), "E")
        form = random_two_form(rng, vb, 2)
        from dvbcalc import omega_c_pullback

        trio = (
            is_closed(form),
            closedness_via_exterior(form),
            omega_c_pullback(form) == form,
        )
        if len(set(trio)) != 1:
            return False, f"two-form closedness channels disagree: {trio}"
        closed_verdicts.add(trio[0])
    if closed_verdicts != {True, False}:
        return False, "two-form sweep did not include both verdicts"

    # section duality: orthogonality, uniqueness, and the complete lifts
    for i in range(10):
        dim = rng.randint(1, 2)
        bundle = DecomposedDVB(
            Chart.of_dim(dim), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        )
        names = bundle.chart.names
        section = LinearSection(
            bundle,
            "left",
            random_poly_vector(rng, names, bundle.n_E, 2),
            random_poly_matrix(rng, names, bundle.n_C, bundle.n_F, 2),
        )
        co = dual_linear_section(section)
        for _ in range(20):
            x = _point(rng, dim)
            if pair_r(
                section.at(x, random_tuple(rng, bundle.n_F, 7)),
                co.at(x, random_tuple(rng, bundle.n_C, 7)),
            ) != 0:
                return False, "dual section failed to annihilate its section"
        bump = PolyMatrix.build(
            names,
            bundle.n_F,
            bundle.n_C,
            lambda r, c: co.fiber.entries[r][c] + MultiPoly.const(names, 1)
            if (r, c) == (0, 0)
            else co.fiber.entries[r][c],
        )
        rival = LinearSection(co.bundle, "right", co.base, bump)
        unit_f = tuple(Fraction(int(t == 0)) for t in range(bundle.n_F))
        unit_q = tuple(Fraction(int(t == 0)) for t in range(bundle.n_C))
        x = _point(rng, dim)
        if pair_r(section.at(x, unit_f), rival.at(x, unit_q)) == 0:
            return False, "perturbed dual candidate also annihilated the section"
    line = Chart.of_dim(1)
    x1 = MultiPoly.var(line.names, "x1")
    up = complete_tangent_lift(line, (x1 * x1,))
    down = complete_cotangent_lift(line, (x1 * x1,))
    mirrored = dual_linear_section(linear_vf_as_section(up))
    if mirrored.base != tuple(down.base) or mirrored.fiber != down.fiber:
        return False, "cotangent lift is not the dual section of the tangent lift"

    # metric compatibility: sampled diagram versus the exact identity
    compat_verdicts = set()
    for i in range(20):
        vb = VectorBundle(Chart.of_dim(rng.randint(1, 2)), rng.randint(1, 3), "E")
        conn = random_connection(rng, vb, 2)
        metric = random_metric(rng, vb, 1)
        exact = metric_identity(conn, metric)
        sampled = is_metric_connection(conn, metric, samples=8, seed=i)
        if exact != sampled:
            return False, "metric compatibility channels disagreed"
        compat_verdicts.add(exact)
    for i in range(5):
        vb = VectorBundle(Chart.of_dim(2), 2, "E")
        metric = random_metric(random.Random(3000 + i), vb, 1)
        ginv = metric.g.unimodular_inverse()
        names = vb.chart.names
        half = Fraction(1, 2)
        gamma = tuple(
            tuple(
                tuple(
                    (
                        ginv
                        * PolyMatrix.build(
                            names, 2, 2,
                            lambda r, c: metric.g.entries[r][c].partial(names[k]),
                        )
                    ).entries[a][c].scale(half)
                    for c in range(2)
                )
                for k in range(2)
            )
            for a in range(2)
        )
        conn = LinearConnection(vb, gamma)
        if not metric_identity(conn, metric) or not is_metric_connection(
            conn, metric, samples=6, seed=i
        ):
            return False, "constructed compatible pair failed a channel"
        compat_verdicts.add(True)
    if compat_verdicts != {True, False}:
        return False, "metric sweep did not include both verdicts"

    # connection symmetry: coordinate identity, exchange diagram, isotropy
    vb = VectorBundle(Chart.of_dim(2), 2, "E")
    symmetry_verdicts = set()
    for i in range(100):
        conn = random_connection(rng, vb, 2, symmetric=(i % 2 == 0))
        exact = all(
            conn.gamma[a][j][k] == conn.gamma[a][k][j]
            for a in range(2)
            for j in range(2)
            for k in range(2)
        )
        diagram = is_symmetric_connection(conn, samples=12, seed=i)
        isotropy = horizontal_lagrangian_check(conn, samples=4, seed=i)
        if not (exact == diagram == isotropy):
            return False, (
                f"symmetry channels disagree on connection {i}: "
                f"{(exact, diagram, isotropy)}"
            )
        symmetry_verdicts.add(exact)
    if symmetry_verdicts != {True, False}:
        return False, "connection sweep did not include both verdicts"

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        return False, f"geometry sweep took {elapsed:.1f}s, budget is 60s"
    return True, (
        "field/form/bivector/two-form characterizations agree with both "
        "verdicts seen; section duality and complete lifts verified; metric "
        "compatibility on 25 pairs; symmetry triple equivalence on 100 "
        f"connections, in {elapsed:.1f}s"
    )


def test_criterion_5(capsys):
    ok, detail = _criterion_5()
    _announce(capsys, 5, ok, detail)
    assert ok, detail


# --- criterion 6: CLI determinism and replay ---------------------------------

# The child runs this checkout's dvbcalc whether or not it is installed.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(*argv):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run(
        [sys.executable, "-m", "dvbcalc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def _stable(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("elapsed")]


def _criterion_6(tmp_path):
    first = _cli("gen", "--seed", "11")
    second = _cli("gen", "--seed", "11")
    if first.returncode != 0 or first.stdout != second.stdout:
        return False, "scenario generation is not byte-deterministic"
    run1 = _cli("check", "all", "--random", "--seed", "11", "--samples", "25")
    run2 = _cli("check", "all", "--random", "--seed", "11", "--samples", "25")
    if run1.returncode != 0 or run2.returncode != 0:
        return False, f"check all exited {run1.returncode}/{run2.returncode}"
    if _stable(run1.stdout) != _stable(run2.stdout):
        return False, "identical-seed reports differ beyond the timing line"
    # a failing check must embed its seed and replay identically
    asym = _cli("gen", "--seed", "3")
    scenario_path = tmp_path / "asymmetric.json"
    scenario_path.write_text(asym.stdout)
    fail1 = _cli("connection", "check", "symmetric", "--scenario", str(scenario_path))
    fail2 = _cli("connection", "check", "symmetric", "--scenario", str(scenario_path))
    if fail1.returncode != 1:
        return False, f"symmetry check exited {fail1.returncode}, expected 1"
    if "replay seed" not in fail1.stdout:
        return False, "failure report does not carry its replay seed"
    machine = fail1.stdout.split("--- machine readable ---\n", 1)[1]
    machine = "\n".join(_stable(machine))
    entry = json.loads(machine)["properties"][0]
    if entry["passed"] or entry["seed"] <= 0 or not entry["counterexample"]:
        return False, "machine block lacks the seed or counterexample"
    if _stable(fail1.stdout) != _stable(fail2.stdout):
        return False, "failure did not replay identically"
    return True, (
        "identical seeds reproduce byte-identical reports (timing aside); a "
        "failing connection check exits 1, embeds its replay seed and "
        "counterexample, and replays identically"
    )


def test_criterion_6(capsys, tmp_path):
    ok, detail = _criterion_6(tmp_path)
    _announce(capsys, 6, ok, detail)
    assert ok, detail
