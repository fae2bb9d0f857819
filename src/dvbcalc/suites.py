"""Property suites over a scenario, with deterministic replayable reports.

Four suites: `axioms` exercises the two additions, their interchange, kernel
splittings and core differences on the scenario bundle; `duality` the right
pairing, kernel pairings, dual-bundle axioms and the adjoint contract of
dualized morphisms; `third-dual` the canonical maps onto the third right
dual, their defining relation, and the conjugated transport identity;
`geometry` the fiberwise-linear object characterizations, lifts, sections,
and connection criteria.  `all` concatenates them.

Every property draws its samples from a seed derived from the scenario seed
and the property id, so results are independent of execution order and any
failure replays from the seed embedded in its report entry.  Report bodies
are fully deterministic; timing is confined to one trailing line.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Chart,
    DecomposedDVB,
    DVBElement,
    DVBMorphism,
    NotInKernelError,
    VectorBundle,
    compose_morphisms,
    core_difference,
    fiber_add,
    fiber_scale,
    identity_morphism,
    invert_morphism,
    kernel_split,
)
from .duality import (
    canonical_R,
    canonical_R_morphism,
    fiber_right_dual,
    left_dual,
    naive_third_dual_transport,
    pair_l,
    pair_r,
    right_dual,
    third_dual_transport,
    verify_R_relation,
    R_VARIANTS,
)
from .geomech import (
    _first_asymmetry,
    _metric_defect,
    Bivector,
    LinearConnection,
    LinearSection,
    SingularMetricError,
    bivector_linear_shape,
    check_jacobi,
    closedness_via_exterior,
    complete_cotangent_lift,
    complete_tangent_lift,
    dual_linear_section,
    horizontal_lagrangian_check,
    is_closed,
    is_degree_zero,
    is_linear_oneform,
    is_linear_poisson,
    is_metric_connection,
    is_symmetric_connection,
    kappa_M,
    alpha_M,
    linear_vf_as_section,
    metric_identity,
    omega_c_pullback,
    omega_flat,
    oneform_is_bundle_morphism,
    oneform_linearity_on_tangent,
    total_space_vars,
    vertical_lift,
    vf_is_bundle_morphism,
    vf_linearity_on_cotangent,
)
from .ring import MultiPoly, PolyMatrix, SingularMatrixError
from .scenario import (
    SECTIONS,
    InconsistentScenarioError,
    Scenario,
    derive_seed,
    random_bivector,
    random_connection,
    random_core_section,
    random_metric,
    random_morphism,
    random_one_form,
    random_poly_matrix,
    random_poly_vector,
    random_rational,
    random_tuple,
    random_two_form,
    random_vector_field,
)

SUITE_NAMES = ("axioms", "duality", "third-dual", "geometry", "all")

GENERATED_DEGREE = 2  # degree bound for sections a scenario does not carry


# ---------------------------------------------------------------------------
# Results and reports

@dataclass(frozen=True)
class PropertyResult:
    prop_id: str
    passed: bool
    detail: str
    seed: int
    counterexample: dict | None = None


@dataclass(frozen=True)
class Report:
    suite: str
    header: tuple[str, ...]
    results: tuple[PropertyResult, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_obj(self, include_timing: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "passed": self.passed,
            "properties": [
                {
                    "id": r.prop_id,
                    "passed": r.passed,
                    "detail": r.detail,
                    "seed": r.seed,
                    "counterexample": r.counterexample,
                }
                for r in self.results
            ],
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def body(self) -> str:
        """Deterministic report text: human summary plus a machine block."""
        lines = list(self.header)
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"[{mark}] {r.prop_id}  {r.detail}"
            if not r.passed:
                line += f"  (replay seed {r.seed})"
            lines.append(line)
            if r.counterexample:
                for key in sorted(r.counterexample):
                    lines.append(f"      {key} = {r.counterexample[key]}")
        count = sum(1 for r in self.results if r.passed)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({count}/{len(self.results)} properties)")
        lines.append("--- machine readable ---")
        lines.append(json.dumps(self.to_obj(), indent=2, sort_keys=True))
        return "\n".join(lines)

    def render(self) -> str:
        return f"{self.body()}\nelapsed: {self.elapsed_ms} ms\n"


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _fmt_element(v: DVBElement) -> str:
    return f"(x={_fmt(v.x)} | f={_fmt(v.f)} | c={_fmt(v.c)} | e={_fmt(v.e)})"


def _run_property(prop_id: str, master_seed: int, fn) -> PropertyResult:
    seed = derive_seed(master_seed, prop_id)
    rng = random.Random(seed)
    try:
        passed, detail, cx = fn(rng)
    except Exception as exc:  # surface scenario pathologies as failures
        return PropertyResult(
            prop_id,
            False,
            f"uncaught {type(exc).__name__}: {exc}",
            seed,
            {"error": str(exc)},
        )
    return PropertyResult(prop_id, passed, detail, seed, cx)


# ---------------------------------------------------------------------------
# Shared sampling helpers

def _point(rng, chart: Chart, bound: int):
    return tuple(random_rational(rng, bound) for _ in range(chart.dim))


def _element(rng, bundle: DecomposedDVB, bound: int, x=None, f=None, c=None, e=None):
    if x is None:
        x = _point(rng, bundle.chart, bound)
    return DVBElement(
        bundle,
        x,
        random_tuple(rng, bundle.n_F, bound) if f is None else f,
        random_tuple(rng, bundle.n_C, bound) if c is None else c,
        random_tuple(rng, bundle.n_E, bound) if e is None else e,
    )


# Sampled law checkers shared by the axioms suite and the dual-bundle
# property.  Each returns None on success or (detail, counterexample).

def _check_structure_laws(rng, bundle, side: str, samples: int, bound: int):
    for _ in range(samples):
        x = _point(rng, bundle.chart, bound)
        if side == "right":
            shared = random_tuple(rng, bundle.n_E, bound)
            u = _element(rng, bundle, bound, x=x, e=shared)
            v = _element(rng, bundle, bound, x=x, e=shared)
            w = _element(rng, bundle, bound, x=x, e=shared)
            zero = bundle.zero_over_right(x, shared)
        else:
            shared = random_tuple(rng, bundle.n_F, bound)
            u = _element(rng, bundle, bound, x=x, f=shared)
            v = _element(rng, bundle, bound, x=x, f=shared)
            w = _element(rng, bundle, bound, x=x, f=shared)
            zero = bundle.zero_over_left(x, shared)
        r, s = random_rational(rng, bound), random_rational(rng, bound)
        laws = (
            fiber_add(side, u, v) == fiber_add(side, v, u),
            fiber_add(side, fiber_add(side, u, v), w)
            == fiber_add(side, u, fiber_add(side, v, w)),
            fiber_add(side, u, zero) == u,
            fiber_add(side, u, fiber_scale(side, -1, u)) == zero,
            fiber_scale(side, r, fiber_add(side, u, v))
            == fiber_add(side, fiber_scale(side, r, u), fiber_scale(side, r, v)),
            fiber_scale(side, r + s, u)
            == fiber_add(side, fiber_scale(side, r, u), fiber_scale(side, s, u)),
            fiber_scale(side, r, fiber_scale(side, s, u))
            == fiber_scale(side, r * s, u),
            fiber_scale(side, 1, u) == u,
        )
        if not all(laws):
            return (
                f"a {side}-structure vector space law fails",
                {
                    "u": _fmt_element(u),
                    "v": _fmt_element(v),
                    "w": _fmt_element(w),
                    "r": str(r),
                    "s": str(s),
                },
            )
    return None


def _check_interchange(rng, bundle, samples: int, bound: int):
    for _ in range(samples):
        x = _point(rng, bundle.chart, bound)
        f1 = random_tuple(rng, bundle.n_F, bound)
        f2 = random_tuple(rng, bundle.n_F, bound)
        e1 = random_tuple(rng, bundle.n_E, bound)
        e2 = random_tuple(rng, bundle.n_E, bound)
        u = _element(rng, bundle, bound, x=x, f=f1, e=e1)
        v = _element(rng, bundle, bound, x=x, f=f2, e=e1)
        w = _element(rng, bundle, bound, x=x, f=f1, e=e2)
        z = _element(rng, bundle, bound, x=x, f=f2, e=e2)
        lhs = fiber_add("left", fiber_add("right", u, v), fiber_add("right", w, z))
        rhs = fiber_add("right", fiber_add("left", u, w), fiber_add("left", v, z))
        if lhs != rhs:
            return (
                "interchange of the two additions fails",
                {
                    "u": _fmt_element(u),
                    "v": _fmt_element(v),
                    "w": _fmt_element(w),
                    "z": _fmt_element(z),
                },
            )
    return None


def _check_core_agreement(rng, bundle, samples: int, bound: int):
    zf = (Fraction(0),) * bundle.n_F
    ze = (Fraction(0),) * bundle.n_E
    for _ in range(samples):
        x = _point(rng, bundle.chart, bound)
        u = _element(rng, bundle, bound, x=x, f=zf, e=ze)
        v = _element(rng, bundle, bound, x=x, f=zf, e=ze)
        r = random_rational(rng, bound)
        ok = (
            fiber_add("right", u, v) == fiber_add("left", u, v)
            and fiber_scale("right", r, u) == fiber_scale("left", r, u)
            and fiber_add("right", u, v).f == zf
            and fiber_add("right", u, v).e == ze
        )
        if not ok:
            return (
                "core elements see different right and left structures",
                {"u": _fmt_element(u), "v": _fmt_element(v), "r": str(r)},
            )
    return None


def _check_kernel_split(rng, bundle, samples: int, bound: int):
    ze = (Fraction(0),) * bundle.n_E
    zf = (Fraction(0),) * bundle.n_F
    zc = (Fraction(0),) * bundle.n_C
    for _ in range(samples):
        x = _point(rng, bundle.chart, bound)
        v = _element(rng, bundle, bound, x=x, e=ze)
        side, core = kernel_split(v)
        zero = DVBElement(bundle, x, zf, zc, ze)
        ok = (
            fiber_add("right", side, core) == v
            and kernel_split(side) == (side, zero)
            and kernel_split(core) == (zero, core)
        )
        if not ok:
            return (
                "kernel splitting projector laws fail",
                {"v": _fmt_element(v)},
            )
        # the flip carries the statement to the left kernel
        w = _element(rng, bundle, bound, x=x, f=zf)
        ls, lc = kernel_split(w.flip())
        if fiber_add("right", ls, lc) != w.flip():
            return ("left kernel splitting fails through the flip", {"w": _fmt_element(w)})
        if bundle.n_E > 0:
            outside = _element(rng, bundle, bound, x=x, e=(Fraction(1),) * bundle.n_E)
            try:
                kernel_split(outside)
                return (
                    "kernel splitting accepted an element outside the kernel",
                    {"v": _fmt_element(outside)},
                )
            except NotInKernelError:
                pass
    return None


def _check_core_difference(rng, bundle, samples: int, bound: int):
    for _ in range(samples):
        x = _point(rng, bundle.chart, bound)
        f = random_tuple(rng, bundle.n_F, bound)
        e = random_tuple(rng, bundle.n_E, bound)
        u = _element(rng, bundle, bound, x=x, f=f, e=e)
        v = _element(rng, bundle, bound, x=x, f=f, e=e)
        k = core_difference(u, v)
        over_e = DVBElement(bundle, x, (Fraction(0),) * bundle.n_F, k, e)
        over_f = DVBElement(bundle, x, f, k, (Fraction(0),) * bundle.n_E)
        if fiber_add("right", v, over_e) != u or fiber_add("left", v, over_f) != u:
            return (
                "core difference does not recover the element",
                {"u": _fmt_element(u), "v": _fmt_element(v), "k": _fmt(k)},
            )
        if bundle.n_C > 0:
            bumped = (k[0] + 1,) + k[1:]
            wrong = DVBElement(bundle, x, (Fraction(0),) * bundle.n_F, bumped, e)
            if fiber_add("right", v, wrong) == u:
                return (
                    "core difference is not unique",
                    {"u": _fmt_element(u), "v": _fmt_element(v)},
                )
    return None


def _from_check(result, pass_detail: str):
    if result is None:
        return True, pass_detail, None
    detail, cx = result
    return False, detail, cx


def _at_regular_points(count: int, sample, finished):
    """Run `sample` until it has passed at `count` points.

    `sample` draws its own point and returns a result triple to stop with,
    or None.  In exact arithmetic a SingularMatrixError is a true singularity
    of the morphism at the drawn point, not a defect, so that sample is drawn
    again; after `count` such redraws the property passes vacuously.  Once
    `count` samples pass, `finished` is the result.
    """
    passed = redrawn = 0
    while passed < count:
        try:
            result = sample()
        except SingularMatrixError:
            redrawn += 1
            if redrawn > count:
                detail = f"only {passed} of {count} points regular after {count} redraws"
                return True, f"{detail}; vacuous", None
            continue
        if result is not None:
            return result
        passed += 1
    if not redrawn:
        return finished
    ok, detail, cx = finished
    return ok, f"{detail} (singular points redrawn: {redrawn})", cx


# ---------------------------------------------------------------------------
# Section materialization: scenario records or seeded stand-ins

def _scenario_morphism(sc: Scenario) -> DVBMorphism:
    if sc.morphism is not None:
        return sc.morphism
    rng = random.Random(derive_seed(sc.seed, "gen.morphism"))
    return random_morphism(rng, sc.bundle, GENERATED_DEGREE)


def _scenario_record(sc: Scenario, name: str, generator):
    record = getattr(sc, name)
    if record is not None:
        return record
    rng = random.Random(derive_seed(sc.seed, f"gen.{name}"))
    return generator(rng)


# ---------------------------------------------------------------------------
# The axioms suite

def _axioms_results(sc: Scenario) -> list[PropertyResult]:
    b = sc.bundle
    samples, bound = sc.samples, sc.bound
    results = [
        _run_property(
            "axioms.01.right-structure-laws",
            sc.seed,
            lambda rng: _from_check(
                _check_structure_laws(rng, b, "right", samples, bound),
                f"vector space laws of the right structure on {samples} tuples",
            ),
        ),
        _run_property(
            "axioms.02.left-structure-laws",
            sc.seed,
            lambda rng: _from_check(
                _check_structure_laws(rng, b, "left", samples, bound),
                f"vector space laws of the left structure on {samples} tuples",
            ),
        ),
        _run_property(
            "axioms.03.interchange-law",
            sc.seed,
            lambda rng: _from_check(
                _check_interchange(rng, b, samples, bound),
                f"the two additions interchange on {samples} quadruples",
            ),
        ),
        _run_property(
            "axioms.04.core-structures-agree",
            sc.seed,
            lambda rng: _from_check(
                _check_core_agreement(rng, b, samples, bound),
                "both structures agree on core elements",
            ),
        ),
        _run_property(
            "axioms.05.kernel-splitting",
            sc.seed,
            lambda rng: _from_check(
                _check_kernel_split(rng, b, samples, bound),
                "kernel elements split into side and core parts",
            ),
        ),
        _run_property(
            "axioms.06.core-difference",
            sc.seed,
            lambda rng: _from_check(
                _check_core_difference(rng, b, samples, bound),
                "elements sharing both projections differ by a unique core shift",
            ),
        ),
    ]

    def morphism_respects(rng):
        phi = _scenario_morphism(sc)
        for _ in range(samples):
            x = _point(rng, b.chart, bound)
            fm = phi.at(x)
            shared_e = random_tuple(rng, b.n_E, bound)
            shared_f = random_tuple(rng, b.n_F, bound)
            r = random_rational(rng, bound)
            u = _element(rng, b, bound, x=x, e=shared_e)
            v = _element(rng, b, bound, x=x, e=shared_e)
            if fm.apply(fiber_add("right", u, v)) != fiber_add(
                "right", fm.apply(u), fm.apply(v)
            ) or fm.apply(fiber_scale("right", r, u)) != fiber_scale(
                "right", r, fm.apply(u)
            ):
                return False, "morphism breaks the right structure", {
                    "u": _fmt_element(u),
                    "v": _fmt_element(v),
                    "r": str(r),
                }
            p = _element(rng, b, bound, x=x, f=shared_f)
            q = _element(rng, b, bound, x=x, f=shared_f)
            if fm.apply(fiber_add("left", p, q)) != fiber_add(
                "left", fm.apply(p), fm.apply(q)
            ) or fm.apply(fiber_scale("left", r, p)) != fiber_scale(
                "left", r, fm.apply(p)
            ):
                return False, "morphism breaks the left structure", {
                    "p": _fmt_element(p),
                    "q": _fmt_element(q),
                    "r": str(r),
                }
        return True, f"block morphism respects both structures on {samples} samples", None

    results.append(
        _run_property("axioms.07.morphism-respects-structures", sc.seed, morphism_respects)
    )
    return results


# ---------------------------------------------------------------------------
# The duality suite

def _duality_results(sc: Scenario) -> list[PropertyResult]:
    b = sc.bundle
    dual = right_dual(b)
    samples, bound = sc.samples, sc.bound
    results = []

    def bilinear(rng):
        for _ in range(samples):
            x = _point(rng, b.chart, bound)
            f = random_tuple(rng, b.n_F, bound)
            q = random_tuple(rng, b.n_C, bound)
            v = _element(rng, b, bound, x=x, f=f)
            vp = _element(rng, b, bound, x=x, f=f)
            a = DVBElement(dual, x, v.e, random_tuple(rng, b.n_F, bound), q)
            bb = DVBElement(dual, x, vp.e, random_tuple(rng, b.n_F, bound), q)
            lhs = pair_r(fiber_add("left", v, vp), fiber_add("right", a, bb))
            if lhs != pair_r(v, a) + pair_r(vp, bb):
                return False, "pairing is not bi-additive", {
                    "v": _fmt_element(v),
                    "v2": _fmt_element(vp),
                    "a": _fmt_element(a),
                    "b": _fmt_element(bb),
                }
            zero_cov = DVBElement(
                dual, x, v.e, (Fraction(0),) * b.n_F, (Fraction(0),) * b.n_C
            )
            if pair_r(v, zero_cov) != 0:
                return False, "zero covector pairs to a nonzero value", {
                    "v": _fmt_element(v)
                }
        return True, f"pairing additivity in both slots on {samples} samples", None

    results.append(_run_property("duality.01.pairing-bilinear", sc.seed, bilinear))

    def sign_rules(rng):
        for _ in range(samples):
            x = _point(rng, b.chart, bound)
            v = _element(rng, b, bound, x=x)
            a = DVBElement(
                dual,
                x,
                v.e,
                random_tuple(rng, b.n_F, bound),
                random_tuple(rng, b.n_C, bound),
            )
            r = random_rational(rng, bound)
            base = pair_r(v, a)
            if pair_r(fiber_scale("right", r, v), a) != r * base or pair_r(
                v, fiber_scale("left", r, a)
            ) != r * base:
                return False, "scalar action does not factor out of the pairing", {
                    "v": _fmt_element(v),
                    "a": _fmt_element(a),
                    "r": str(r),
                }
        return True, f"right and left scalings factor out on {samples} samples", None

    results.append(_run_property("duality.02.pairing-sign-rules", sc.seed, sign_rules))

    def kernel_pairings(rng):
        for _ in range(samples):
            x = _point(rng, b.chart, bound)
            v = _element(rng, b, bound, x=x)
            p = random_tuple(rng, b.n_F, bound)
            q = random_tuple(rng, b.n_C, bound)
            # covector with zero core dual slot sees only the F projection
            a0 = DVBElement(dual, x, v.e, p, (Fraction(0),) * b.n_C)
            v_shift = DVBElement(v.bundle, x, v.f, random_tuple(rng, b.n_C, bound), v.e)
            if pair_r(v, a0) != sum(
                (pi * fi for pi, fi in zip(p, v.f)), Fraction(0)
            ) or pair_r(v, a0) != pair_r(v_shift, a0):
                return False, "kernel covector pairing depends on more than F", {
                    "v": _fmt_element(v),
                    "a": _fmt_element(a0),
                }
            # kernel element with zero F slot sees only the C* dual slot
            k = DVBElement(b, x, (Fraction(0),) * b.n_F, v.c, v.e)
            a = DVBElement(dual, x, v.e, p, q)
            a_shift = DVBElement(dual, x, v.e, random_tuple(rng, b.n_F, bound), q)
            if pair_r(k, a) != sum(
                (qi * ci for qi, ci in zip(q, v.c)), Fraction(0)
            ) or pair_r(k, a) != pair_r(k, a_shift):
                return False, "kernel element pairing depends on more than C*", {
                    "k": _fmt_element(k),
                    "a": _fmt_element(a),
                }
        return True, f"kernel pairings reduce to single slots on {samples} samples", None

    results.append(_run_property("duality.03.kernel-pairings", sc.seed, kernel_pairings))

    def dual_axioms(rng):
        quarter = max(1, samples // 4)
        for check, label in (
            (_check_structure_laws(rng, dual, "right", quarter, bound), "right laws"),
            (_check_structure_laws(rng, dual, "left", quarter, bound), "left laws"),
            (_check_interchange(rng, dual, quarter, bound), "interchange"),
            (_check_core_agreement(rng, dual, quarter, bound), "core agreement"),
            (_check_kernel_split(rng, dual, quarter, bound), "kernel splitting"),
        ):
            if check is not None:
                detail, cx = check
                return False, f"dual bundle breaks {label}: {detail}", cx
        return True, "the right dual satisfies the double bundle axioms", None

    results.append(_run_property("duality.04.dual-bundle-axioms", sc.seed, dual_axioms))

    def adjoint(rng):
        phi = _scenario_morphism(sc)
        dual_target = right_dual(phi.target)

        def sample():
            x = _point(rng, b.chart, bound)
            fm = phi.at(x)
            v = _element(rng, b, bound, x=x)
            image = fm.apply(v)
            a = DVBElement(
                dual_target,
                x,
                image.e,
                random_tuple(rng, phi.target.n_F, bound),
                random_tuple(rng, phi.target.n_C, bound),
            )
            pulled = fiber_right_dual(fm).apply(a)
            if pair_r(image, a) != pair_r(v, pulled):
                return False, "adjoint contract fails", {
                    "x": _fmt(x),
                    "v": _fmt_element(v),
                    "a": _fmt_element(a),
                }

        return _at_regular_points(samples, sample, (
            True, f"pairing against the dual image matches on {samples} samples", None
        ))

    results.append(_run_property("duality.05.adjoint-contract", sc.seed, adjoint))

    def contravariance(rng):
        phi = _scenario_morphism(sc)
        other = random_morphism(rng, b, GENERATED_DEGREE)
        composite = compose_morphisms(phi, other)
        points = max(1, min(samples, 10))

        def sample():
            x = _point(rng, b.chart, bound)
            lhs = fiber_right_dual(composite.at(x))
            rhs = fiber_right_dual(other.at(x)).after(fiber_right_dual(phi.at(x)))
            if lhs != rhs:
                return False, "dual of a composite is not the reversed composite", {
                    "x": _fmt(x)
                }

        return _at_regular_points(points, sample, (
            True, f"dualizing reverses composition at {points} points", None
        ))

    results.append(_run_property("duality.06.dual-contravariance", sc.seed, contravariance))

    def left_transport(rng):
        ld = left_dual(b)
        if ld.ranks != (b.n_C, b.n_E, b.n_F):
            return False, "left dual ranks are wrong", {"ranks": _fmt(ld.ranks)}
        if left_dual(right_dual(b)).ranks != b.ranks:
            return False, "left dual does not undo the right dual on ranks", None
        for _ in range(samples):
            x = _point(rng, b.chart, bound)
            e = random_tuple(rng, b.n_E, bound)
            phi_slot = random_tuple(rng, b.n_C, bound)
            v = _element(rng, b, bound, x=x, e=e)
            vp = _element(rng, b, bound, x=x, e=e)
            cov = DVBElement(ld, x, phi_slot, random_tuple(rng, b.n_E, bound), v.f)
            cov2 = DVBElement(ld, x, phi_slot, random_tuple(rng, b.n_E, bound), vp.f)
            lhs = pair_l(fiber_add("right", v, vp), fiber_add("left", cov, cov2))
            if lhs != pair_l(v, cov) + pair_l(vp, cov2):
                return False, "left pairing additivity fails", {
                    "v": _fmt_element(v),
                    "v2": _fmt_element(vp),
                    "b": _fmt_element(cov),
                    "b2": _fmt_element(cov2),
                }
        return True, "left dual shape and pairing follow from the flip transport", None

    results.append(_run_property("duality.07.left-dual-transport", sc.seed, left_transport))

    def scalar_example(rng):
        chart = Chart.of_dim(0)
        kb = DecomposedDVB(chart, 1, 1, 1)
        names = chart.names

        def const(v):
            return PolyMatrix.constant(names, ((v,),))

        seven = MultiPoly.const(names, 7)
        phi = DVBMorphism(kb, kb, const(2), const(3), const(5), (((seven,),),))
        fm = fiber_right_dual(phi.at(()))
        expected = (
            fm.l == ((Fraction(1, 5),),)
            and fm.c == ((Fraction(2),),)
            and fm.r == ((Fraction(3),),)
            and fm.psi == (((Fraction(7, 5),),),)
        )
        if not expected:
            return False, "scalar dual blocks are wrong", {
                "l": _fmt(fm.l),
                "c": _fmt(fm.c),
                "r": _fmt(fm.r),
                "psi": _fmt(fm.psi),
            }
        # both pairing routes must equal 2 p'f + 3 q'c + 7 q'fe on a grid
        grid = [Fraction(t) for t in range(-2, 3)]
        dual_kb = right_dual(kb)
        for f in grid:
            for c in grid:
                for e in grid:
                    v = DVBElement(kb, (), (f,), (c,), (e,))
                    image = phi.apply(v)
                    for p in grid:
                        for q in grid:
                            a = DVBElement(dual_kb, (), image.e, (p,), (q,))
                            want = 2 * p * f + 3 * q * c + 7 * q * f * e
                            if pair_r(image, a) != want or pair_r(v, fm.apply(a)) != want:
                                return False, "scalar adjoint identity fails", {
                                    "f": str(f),
                                    "c": str(c),
                                    "e": str(e),
                                    "p": str(p),
                                    "q": str(q),
                                }
        return True, "scalar morphism (2,3,5,7) dualizes to (1/5, 2, 3, 7/5)", None

    results.append(_run_property("duality.08.scalar-worked-example", sc.seed, scalar_example))
    return results


# ---------------------------------------------------------------------------
# The third-dual suite

def _third_dual_results(sc: Scenario, naive_identification: bool) -> list[PropertyResult]:
    b = sc.bundle
    samples, bound = sc.samples, sc.bound
    results = []

    def defining_relation(rng):
        rounds = max(1, samples // 10)
        for _ in range(rounds):
            v = _element(rng, b, bound)
            phi = canonical_R("R", v)
            if not verify_R_relation(v, phi, samples=20, seed=rng.randrange(1 << 30)):
                return False, "canonical image violates the defining relation", {
                    "v": _fmt_element(v)
                }
        return True, f"defining relation holds for {rounds} canonical images", None

    results.append(_run_property("third-dual.01.defining-relation", sc.seed, defining_relation))

    def rejects_perturbation(rng):
        if b.n_F + b.n_C + b.n_E == 0:
            return True, "no slot to perturb at these ranks; vacuous", None
        v = _element(rng, b, bound)
        phi = canonical_R("R", v)
        if b.n_C > 0:
            bad = DVBElement(phi.bundle, phi.x, phi.f, (phi.c[0] + 1,) + phi.c[1:], phi.e)
        elif b.n_F > 0:
            bad = DVBElement(phi.bundle, phi.x, (phi.f[0] + 1,) + phi.f[1:], phi.c, phi.e)
        else:
            bad = DVBElement(phi.bundle, phi.x, phi.f, phi.c, (phi.e[0] + 1,) + phi.e[1:])
        if verify_R_relation(v, bad, samples=60, seed=rng.randrange(1 << 30)):
            return False, "perturbed candidate still satisfies the relation", {
                "v": _fmt_element(v),
                "candidate": _fmt_element(bad),
            }
        return True, "a perturbed candidate is rejected by the relation", None

    results.append(
        _run_property("third-dual.02.relation-rejects-perturbation", sc.seed, rejects_perturbation)
    )

    def variant_identities(rng):
        rounds = max(1, samples // 10)
        for _ in range(rounds):
            v = _element(rng, b, bound)
            pairs = (
                ("R+-", fiber_scale("left", -1, v)),
                ("R-+", fiber_scale("right", -1, v)),
                ("R=", fiber_scale("left", -1, fiber_scale("right", -1, v))),
            )
            for variant, twisted in pairs:
                if canonical_R(variant, v) != canonical_R("R", twisted):
                    return False, f"variant {variant} is not a sign twist of the base map", {
                        "v": _fmt_element(v)
                    }
            for variant in R_VARIANTS:
                if not verify_R_relation(
                    v, canonical_R(variant, v), samples=12,
                    seed=rng.randrange(1 << 30), variant=variant,
                ):
                    return False, f"variant {variant} violates its signed relation", {
                        "v": _fmt_element(v)
                    }
        return True, f"all sign variants verified on {rounds} elements", None

    results.append(_run_property("third-dual.03.variant-identities", sc.seed, variant_identities))

    def involutive(rng):
        ident = identity_morphism(b)
        for variant in R_VARIANTS:
            rm = canonical_R_morphism(b, variant)
            if compose_morphisms(rm, rm) != ident:
                return False, f"canonical map {variant} is not involutive", None
        return True, "all four canonical maps square to the identity", None

    results.append(_run_property("third-dual.04.canonical-maps-involutive", sc.seed, involutive))

    def transport_inverts(rng):
        phi = _scenario_morphism(sc)
        transport = third_dual_transport(phi)
        inverse = invert_morphism(phi)
        points = max(1, min(samples, 10))

        def sample():
            x = _point(rng, b.chart, bound)
            if transport.at(x) != inverse.at(x):
                return False, "conjugated triple dual differs from the inverse", {
                    "x": _fmt(x)
                }

        return _at_regular_points(points, sample, (
            True, f"conjugated triple dual equals the inverse at {points} points", None
        ))

    results.append(
        _run_property("third-dual.05.conjugated-transport-inverts", sc.seed, transport_inverts)
    )

    if naive_identification:

        def naive_diverges(rng):
            phi = _scenario_morphism(sc)
            if all(p.is_zero for plane in phi.psi for row in plane for p in row):
                return (
                    True,
                    "bilinear block vanishes, so the naive route coincides; vacuous",
                    None,
                )
            naive = naive_third_dual_transport(phi)
            inverse = invert_morphism(phi)
            points = max(1, min(samples, 10))

            def sample():
                x = _point(rng, b.chart, bound)
                if naive.at(x) != inverse.at(x):
                    return (
                        True,
                        "naive slot identification diverges from the inverse as predicted",
                        None,
                    )

            return _at_regular_points(points, sample, (
                False, "naive identification unexpectedly matched the inverse", {
                    "points": str(points)
                },
            ))

        results.append(
            _run_property("third-dual.06.naive-identification-diverges", sc.seed, naive_diverges)
        )
    return results


# ---------------------------------------------------------------------------
# The geometry suite

def _geometry_results(sc: Scenario) -> list[PropertyResult]:
    side = sc.side_bundle
    chart = sc.chart
    samples, bound = sc.samples, sc.bound
    results = []

    def field_channels(rng):
        field = _scenario_record(
            sc, "vector_field", lambda r: random_vector_field(r, side, GENERATED_DEGREE)
        )
        shape = is_degree_zero(field)
        seed1, seed2 = rng.randrange(1 << 30), rng.randrange(1 << 30)
        as_morphism = vf_is_bundle_morphism(field, samples=samples, seed=seed1)
        linear = vf_linearity_on_cotangent(field, samples=samples, seed=seed2)
        if not (shape == as_morphism == linear):
            return False, "degree-zero channels disagree", {
                "shape": str(shape),
                "bundle_morphism": str(as_morphism),
                "momentum_linearity": str(linear),
            }
        verdict = "degree zero" if shape else "not degree zero"
        return True, f"three characterizations agree: field is {verdict}", None

    results.append(_run_property("geometry.01.vector-field-channels", sc.seed, field_channels))

    def oneform_channels(rng):
        form = _scenario_record(
            sc, "one_form", lambda r: random_one_form(r, side, GENERATED_DEGREE)
        )
        shape = is_linear_oneform(form)
        seed1, seed2 = rng.randrange(1 << 30), rng.randrange(1 << 30)
        as_morphism = oneform_is_bundle_morphism(form, samples=samples, seed=seed1)
        linear = oneform_linearity_on_tangent(form, samples=samples, seed=seed2)
        if not (shape == as_morphism == linear):
            return False, "linear one-form channels disagree", {
                "shape": str(shape),
                "bundle_morphism": str(as_morphism),
                "velocity_linearity": str(linear),
            }
        verdict = "linear" if shape else "not linear"
        return True, f"three characterizations agree: form is {verdict}", None

    results.append(_run_property("geometry.02.one-form-channels", sc.seed, oneform_channels))

    def bivector_channels(rng):
        biv = _scenario_record(
            sc, "bivector", lambda r: random_bivector(r, side, GENERATED_DEGREE)
        )
        shape = bivector_linear_shape(biv)
        sampled = is_linear_poisson(biv, samples=samples, seed=rng.randrange(1 << 30))
        if shape != sampled:
            return False, "linear bivector channels disagree", {
                "shape": str(shape),
                "contraction_morphism": str(sampled),
            }
        verdict = "fiberwise linear" if shape else "not fiberwise linear"
        return True, f"shape and contraction sampling agree: {verdict}", None

    results.append(_run_property("geometry.03.bivector-channels", sc.seed, bivector_channels))

    def lie_poisson(rng):
        point_chart = Chart.of_dim(0)
        vb3 = VectorBundle(point_chart, 3, "g")
        vars3 = total_space_vars(vb3)
        e1, e2, e3 = (MultiPoly.var(vars3, f"e{i}") for i in (1, 2, 3))
        z = MultiPoly.zero(vars3)

        def antisym(rows):
            return PolyMatrix(vars3, tuple(tuple(row) for row in rows))

        so3 = Bivector(
            vb3,
            PolyMatrix.zero(vars3, 0, 0),
            PolyMatrix.zero(vars3, 0, 3),
            antisym(((z, e3, -e2), (-e3, z, e1), (e2, -e1, z))),
        )
        pts = [(1, 1, 1), (1, 2, 3), (-1, 2, -5)] + [
            random_tuple(rng, 3, bound) for _ in range(4)
        ]
        checks = [
            ("so3 linear shape", bivector_linear_shape(so3)),
            ("so3 contraction", is_linear_poisson(so3, samples=30, seed=rng.randrange(1 << 30))),
            ("so3 jacobi", check_jacobi(so3, pts)),
        ]
        broken = Bivector(
            vb3,
            PolyMatrix.zero(vars3, 0, 0),
            PolyMatrix.zero(vars3, 0, 3),
            antisym(((z, e3, -e1), (-e3, z, e1), (e1, -e1, z))),
        )
        checks.append(("broken constants linear", bivector_linear_shape(broken)))
        checks.append(("broken constants jacobi fails", not check_jacobi(broken, [(1, 1, 1)])))
        one = MultiPoly.const(vars3, 1)
        constant = Bivector(
            vb3,
            PolyMatrix.zero(vars3, 0, 0),
            PolyMatrix.zero(vars3, 0, 3),
            antisym(((z, one, z), (-one, z, z), (z, z, z))),
        )
        checks.append(("constant bivector not linear", not bivector_linear_shape(constant)))
        checks.append(
            (
                "constant bivector fails sampling",
                not is_linear_poisson(constant, samples=30, seed=rng.randrange(1 << 30)),
            )
        )
        for label, ok in checks:
            if not ok:
                return False, f"fixture check failed: {label}", None
        return True, "structure constant fixtures behave as classified", None

    results.append(_run_property("geometry.04.lie-poisson-fixtures", sc.seed, lie_poisson))

    def closedness_channels(rng):
        form = _scenario_record(
            sc, "two_form", lambda r: random_two_form(r, side, GENERATED_DEGREE)
        )
        exact = is_closed(form)
        formal = closedness_via_exterior(form)
        pulled = omega_c_pullback(form)
        reproduces = pulled == form
        if not (exact == formal == reproduces):
            return False, "closedness channels disagree", {
                "coefficient_identity": str(exact),
                "exterior_derivative": str(formal),
                "pullback_reproduces": str(reproduces),
            }
        if not is_closed(pulled):
            return False, "pullback of the base form is not closed", None
        verdict = "closed" if exact else "not closed"
        return True, f"three closedness channels agree: {verdict}", None

    results.append(
        _run_property("geometry.05.two-form-closedness-channels", sc.seed, closedness_channels)
    )

    def flat_blocks(rng):
        form = _scenario_record(
            sc, "two_form", lambda r: random_two_form(r, side, GENERATED_DEGREE)
        )
        flat = omega_flat(form)
        minus_ct = PolyMatrix.build(
            flat.phi_c.vars,
            side.rank,
            chart.dim,
            lambda bq, i: -flat.phi_c.entries[i][bq],
        )
        if flat.phi_l != minus_ct:
            return False, "left block is not the negated transpose of the core block", None
        if flat.phi_r != PolyMatrix.identity(chart.names, side.rank):
            return False, "fiber block of the insertion map is not the identity", None
        return True, "insertion map blocks satisfy the transpose identity", None

    results.append(_run_property("geometry.06.flat-map-block-identity", sc.seed, flat_blocks))

    def section_orthogonality(rng):
        bundle = sc.bundle
        section = LinearSection(
            bundle,
            "left",
            random_poly_vector(rng, chart.names, bundle.n_E, GENERATED_DEGREE),
            random_poly_matrix(rng, chart.names, bundle.n_C, bundle.n_F, GENERATED_DEGREE),
        )
        co = dual_linear_section(section)
        for _ in range(samples):
            x = _point(rng, chart, bound)
            fval = random_tuple(rng, bundle.n_F, bound)
            qval = random_tuple(rng, bundle.n_C, bound)
            if pair_r(section.at(x, fval), co.at(x, qval)) != 0:
                return False, "dual section does not annihilate the section", {
                    "x": _fmt(x),
                    "f": _fmt(fval),
                    "q": _fmt(qval),
                }
        if bundle.n_C == 0 or bundle.n_F == 0:
            return True, "orthogonality holds; uniqueness vacuous at these ranks", None
        bump = PolyMatrix.build(
            chart.names,
            bundle.n_F,
            bundle.n_C,
            lambda i, j: co.fiber.entries[i][j] + MultiPoly.const(chart.names, 1)
            if (i, j) == (0, 0)
            else co.fiber.entries[i][j],
        )
        rival = LinearSection(co.bundle, "right", co.base, bump)
        x = _point(rng, chart, bound)
        unit_f = tuple(Fraction(int(t == 0)) for t in range(bundle.n_F))
        unit_q = tuple(Fraction(int(t == 0)) for t in range(bundle.n_C))
        if pair_r(section.at(x, unit_f), rival.at(x, unit_q)) == 0:
            return False, "a differing candidate also annihilates the section", {
                "x": _fmt(x)
            }
        return True, "dual section annihilates; any fiber change breaks it", None

    results.append(
        _run_property("geometry.07.section-duality-orthogonality", sc.seed, section_orthogonality)
    )

    def lift_correspondence(rng):
        line = Chart.of_dim(1)
        x1 = MultiPoly.var(line.names, "x1")
        fixtures = [(line, (x1 * x1,))]
        if chart.dim >= 1:
            fixtures.append(
                (chart, random_poly_vector(rng, chart.names, chart.dim, GENERATED_DEGREE))
            )
        for base_chart, base_field in fixtures:
            up = complete_tangent_lift(base_chart, base_field)
            down = complete_cotangent_lift(base_chart, base_field)
            dual_sect = dual_linear_section(linear_vf_as_section(up))
            if dual_sect.base != tuple(down.base) or dual_sect.fiber != down.fiber:
                return False, "dual of the tangent lift is not the cotangent lift", {
                    "chart_dim": str(base_chart.dim)
                }
            up_sect = linear_vf_as_section(up)
            for _ in range(max(1, samples // 10)):
                x = _point(rng, base_chart, bound)
                fval = random_tuple(rng, base_chart.dim, bound)
                qval = random_tuple(rng, base_chart.dim, bound)
                if pair_r(up_sect.at(x, fval), dual_sect.at(x, qval)) != 0:
                    return False, "lift sections are not orthogonal", {"x": _fmt(x)}
        return True, "cotangent lift is the dual section of the tangent lift", None

    results.append(
        _run_property("geometry.08.complete-lift-correspondence", sc.seed, lift_correspondence)
    )

    def metric_channels(rng):
        conn = _scenario_record(
            sc, "connection", lambda r: random_connection(r, side, GENERATED_DEGREE)
        )
        metric = _scenario_record(
            sc, "metric", lambda r: random_metric(r, side, GENERATED_DEGREE)
        )
        exact = metric_identity(conn, metric)
        sampled = is_metric_connection(conn, metric, samples=8, seed=rng.randrange(1 << 30))
        if exact != sampled:
            return False, "metric compatibility channels disagree", {
                "coefficient_identity": str(exact),
                "diagram_sampling": str(sampled),
            }
        # a compatible pair built from a unimodular square root must pass
        root_rng = random.Random(rng.randrange(1 << 30))
        good_metric = random_metric(root_rng, side, 1)
        ginv = good_metric.g.unimodular_inverse()
        half = Fraction(1, 2)
        gamma = tuple(
            tuple(
                tuple(
                    (ginv * _partial_matrix(good_metric.g, chart.names[i])).entries[a][c].scale(half)
                    for c in range(side.rank)
                )
                for i in range(chart.dim)
            )
            for a in range(side.rank)
        )
        good_conn = LinearConnection(side, gamma)
        if not metric_identity(good_conn, good_metric) or not is_metric_connection(
            good_conn, good_metric, samples=6, seed=rng.randrange(1 << 30)
        ):
            return False, "constructed compatible pair fails the criteria", None
        verdict = "compatible" if exact else "not compatible"
        return True, f"diagram and coefficient identity agree: {verdict}", None

    results.append(
        _run_property("geometry.09.metric-compatibility-channels", sc.seed, metric_channels)
    )

    def symmetry_channels(rng):
        if side.rank != chart.dim:
            return True, "side rank differs from the chart dimension; vacuous", None
        conn = _scenario_record(
            sc, "connection", lambda r: random_connection(r, side, GENERATED_DEGREE)
        )
        exact = all(
            conn.gamma[a][i][bq] == conn.gamma[a][bq][i]
            for a in range(side.rank)
            for i in range(chart.dim)
            for bq in range(chart.dim)
        )
        diagram = is_symmetric_connection(conn, samples=20, seed=rng.randrange(1 << 30))
        lagrangian = horizontal_lagrangian_check(conn, samples=5, seed=rng.randrange(1 << 30))
        if not (exact == diagram == lagrangian):
            return False, "connection symmetry channels disagree", {
                "coordinate_symmetry": str(exact),
                "side_exchange_diagram": str(diagram),
                "horizontal_isotropy": str(lagrangian),
            }
        if chart.dim >= 2:
            sym_rng = random.Random(rng.randrange(1 << 30))
            sym = random_connection(sym_rng, side, 1, symmetric=True)
            if not is_symmetric_connection(sym, samples=10, seed=rng.randrange(1 << 30)):
                return False, "symmetrized fixture fails the diagram channel", None
            if not horizontal_lagrangian_check(sym, samples=4, seed=rng.randrange(1 << 30)):
                return False, "symmetrized fixture fails the isotropy channel", None
            bumped_grid = [
                [list(row) for row in plane] for plane in sym.gamma
            ]
            bumped_grid[0][0][1] = bumped_grid[0][0][1] + MultiPoly.const(chart.names, 1)
            bumped = LinearConnection(side, tuple(
                tuple(tuple(row) for row in plane) for plane in bumped_grid
            ))
            if is_symmetric_connection(bumped, samples=10, seed=rng.randrange(1 << 30)):
                return False, "asymmetric fixture passes the diagram channel", None
            if horizontal_lagrangian_check(bumped, samples=4, seed=rng.randrange(1 << 30)):
                return False, "asymmetric fixture passes the isotropy channel", None
        verdict = "symmetric" if exact else "not symmetric"
        return True, f"three symmetry channels agree: {verdict}", None

    results.append(
        _run_property("geometry.10.connection-symmetry-channels", sc.seed, symmetry_channels)
    )

    def vertical_lifts(rng):
        bundle = sc.bundle
        section = _scenario_record(
            sc,
            "core_section",
            lambda r: random_core_section(r, chart, bundle.n_C, GENERATED_DEGREE),
        )
        rounds = max(1, samples // 5)
        for _ in range(rounds):
            x = _point(rng, chart, bound)
            e = random_tuple(rng, bundle.n_E, bound)
            f = random_tuple(rng, bundle.n_F, bound)
            lifted_r = vertical_lift(bundle, "right", section, x, e)
            lifted_l = vertical_lift(bundle, "left", section, x, f)
            want = section.value(x)
            if lifted_r.c != want or lifted_l.c != want:
                return False, "vertical lift core slot is wrong", {"x": _fmt(x)}
            side_part, core_part = kernel_split(lifted_l)
            if core_part.c != want or fiber_add("right", side_part, core_part) != lifted_l:
                return False, "left vertical lift does not split in the right kernel", {
                    "x": _fmt(x)
                }
            if lifted_r.flip() != vertical_lift(bundle.flip(), "left", section, x, e):
                return False, "vertical lifts do not exchange under the flip", {
                    "x": _fmt(x)
                }
        return True, f"vertical lifts land in the kernels on {rounds} samples", None

    results.append(_run_property("geometry.11.vertical-lift-kernel", sc.seed, vertical_lifts))

    def side_exchange_adjoint(rng):
        if chart.dim == 0:
            return True, "point chart; vacuous", None
        exchange = kappa_M(chart)
        adjoint = alpha_M(chart)
        shell = exchange.source
        dual_shell = right_dual(shell)
        rounds = max(1, samples // 5)
        for _ in range(rounds):
            x = _point(rng, chart, bound)
            v = _element(rng, shell, bound, x=x)
            image = exchange.apply(v)
            a = DVBElement(
                dual_shell,
                x,
                image.e,
                random_tuple(rng, shell.n_F, bound),
                random_tuple(rng, shell.n_C, bound),
            )
            if pair_r(image, a) != pair_r(v, adjoint.at(x).apply(a)):
                return False, "side exchange adjoint contract fails", {
                    "x": _fmt(x),
                    "v": _fmt_element(v),
                    "a": _fmt_element(a),
                }
        return True, f"double tangent exchange is adjoint to its dual on {rounds} samples", None

    results.append(
        _run_property("geometry.12.side-exchange-adjoint", sc.seed, side_exchange_adjoint)
    )
    return results


def _partial_matrix(m: PolyMatrix, name: str) -> PolyMatrix:
    return PolyMatrix.build(
        m.vars, m.rows, m.cols, lambda i, j: m.entries[i][j].partial(name)
    )


# ---------------------------------------------------------------------------
# Suite dispatch

def _scenario_header(sc: Scenario, suite: str) -> tuple[str, ...]:
    b = sc.bundle
    present = sorted(row[0] for row in SECTIONS if getattr(sc, row[0]) is not None)
    return (
        f"suite: {suite}",
        f"bundle: chart dim {b.chart.dim}; ranks (n_F, n_C, n_E) = {b.ranks}; "
        f"labels {', '.join(b.labels)}",
        f"plan: seed {sc.seed}; samples {sc.samples}; bound {sc.bound}",
        "sections: " + (", ".join(present) if present else "none (generated on demand)"),
    )


def run_suite(
    name: str, scenario: Scenario, naive_identification: bool = False
) -> Report:
    """Execute one named suite (or all of them) and assemble the report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    start = time.monotonic()
    results: list[PropertyResult] = []
    if name in ("axioms", "all"):
        results.extend(_axioms_results(scenario))
    if name in ("duality", "all"):
        results.extend(_duality_results(scenario))
    if name in ("third-dual", "all"):
        results.extend(_third_dual_results(scenario, naive_identification))
    if name in ("geometry", "all"):
        results.extend(_geometry_results(scenario))
    results.sort(key=lambda r: r.prop_id)
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(name, _scenario_header(scenario, name), tuple(results), elapsed)


# ---------------------------------------------------------------------------
# Single-predicate connection checks (CLI `connection check ...`)

def run_connection_check(kind: str, sc: Scenario) -> Report:
    """Evaluate one connection predicate on the scenario as a tiny report.

    Unlike the suites, whose properties are theorems and fail only on
    implementation defects, these checks ask a genuine question about the
    scenario data and report FAIL with a counterexample when it says no.
    """
    if kind not in ("metric", "symmetric", "lagrangian"):
        raise ValueError(f"unknown connection check {kind!r}")
    side = sc.side_bundle
    chart = sc.chart
    conn = _scenario_record(
        sc, "connection", lambda r: random_connection(r, side, GENERATED_DEGREE)
    )
    if kind in ("symmetric", "lagrangian") and side.rank != chart.dim:
        raise InconsistentScenarioError(
            "connection symmetry checks need the side rank to equal the chart dimension"
        )
    start = time.monotonic()

    def asymmetry_cx():
        spot = _first_asymmetry(conn)
        if spot is None:
            return None
        a, i, bq = spot
        return {
            "index (a, i, b)": _fmt((a, i, bq)),
            "gamma[a][i][b]": str(conn.gamma[a][i][bq]),
            "gamma[a][b][i]": str(conn.gamma[a][bq][i]),
        }

    if kind == "metric":
        prop_id = "connection.metric-compatibility"

        def fn(rng):
            metric = _scenario_record(
                sc, "metric", lambda r: random_metric(r, side, GENERATED_DEGREE)
            )
            exact = metric_identity(conn, metric)
            try:
                sampled = is_metric_connection(
                    conn, metric, samples=8, seed=rng.randrange(1 << 30)
                )
            except SingularMetricError as exc:
                return False, f"metric singular at a sampled point: {exc}", None
            if exact != sampled:
                return False, "diagram and coefficient channels disagree", {
                    "coefficient_identity": str(exact),
                    "diagram_sampling": str(sampled),
                }
            if exact:
                return True, "connection preserves the metric", None
            i, a, bq, got, want = _metric_defect(conn, metric)
            return False, "connection does not preserve the metric", {
                "index (i, a, b)": _fmt((i, a, bq)),
                "metric_derivative": str(got),
                "covariant_combination": str(want),
            }

    elif kind == "symmetric":
        prop_id = "connection.symmetric"

        def fn(rng):
            verdict = is_symmetric_connection(conn, samples=20, seed=rng.randrange(1 << 30))
            if verdict:
                return True, "connection is symmetric", None
            return False, "connection is not symmetric", asymmetry_cx()

    else:
        prop_id = "connection.lagrangian-horizontal"

        def fn(rng):
            verdict = horizontal_lagrangian_check(
                conn, samples=5, seed=rng.randrange(1 << 30)
            )
            if verdict:
                return True, "horizontal spaces of the dual connection are isotropic", None
            cx = asymmetry_cx()
            return False, "lifted canonical form does not vanish on horizontal pairs", cx

    result = _run_property(prop_id, sc.seed, fn)
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(
        f"connection:{kind}",
        _scenario_header(sc, f"connection:{kind}"),
        (result,),
        elapsed,
    )
