"""Property suites over a scenario, with deterministic replayable reports.

Four suites: `axioms` exercises the two additions, their interchange, kernel
splittings and core differences on the scenario bundle; `duality` the right
pairing, kernel pairings, dual-bundle axioms and the adjoint contract of
dualized morphisms; `third-dual` the canonical maps onto the third right
dual, their defining relation, and the conjugated transport identity,
beside which the naive slot identification gives the inverse exactly where
the bilinear block vanishes; `geometry` the fiberwise-linear object
characterizations, lifts, sections, and connection criteria.  `all`
concatenates them.  Every suite is a fixed table of properties.

A property is one row `(prop_id, fn)` of its suite's table.  `fn(sc, s)`
gets the scenario and the library's one sampler, `core._Sampler`, over the
property's `random.Random`, the scenario bundle and the coordinate bound;
it returns `(passed, detail, counterexample)`.  A sampled `geomech`
criterion that a property calls gets a seed from `s.seed()` and draws
through a sampler of its own.  A property that needs a section the scenario
leaves out reads the stand-in of `Scenario.section`.

Samples are slot vectors; the `Fraction` views of an element are made only
where a property reads them, such as a counterexample.  The sampled
structure laws (the `axioms` checkers, which the dual-bundle property
reuses) call `core`'s private structure maps.  `axioms.07` applies the
morphism with `DVBMorphism.apply`, which reads the integer plan at each
element's point (see `core`); the plan keeps its values at the last point,
so each sample point is evaluated once.  It asks `geomech._respects`, as
`geomech`'s sampled checker does, with its own draws; the properties whose
channels decide one quality compare and word them with `_agreement`.

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
    _Sampler,
    _difference,
    _dot,
    _fractions,
    _left_add,
    _left_scale,
    _right_add,
    _right_scale,
    _scalar,
    _split,
    _zero_slots,
    compose_morphisms,
    fiber_add,
    fiber_scale,
    identity_morphism,
    invert_morphism,
    kernel_split,
)
from .duality import (
    _pair,
    _same,
    canonical_R,
    canonical_R_morphism,
    fiber_right_dual,
    left_dual,
    naive_third_dual_transport,
    right_dual,
    right_dual_morphism,
    third_dual_transport,
    verify_R_relation,
    R_VARIANTS,
)
from .geomech import (
    _first_asymmetry,
    _metric_defect,
    _respects,
    Bivector,
    LinearConnection,
    LinearSection,
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
from .ring import MultiPoly, PolyMatrix
from .scenario import (
    GENERATED_DEGREE,
    SECTIONS,
    InconsistentScenarioError,
    Scenario,
    derive_seed,
    random_connection,
    random_metric,
    random_morphism,
    random_poly_matrix,
    random_poly_vector,
)

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

    def to_obj(self) -> dict:
        return {
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
    """A counterexample value as report text."""
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _run_property(prop_id: str, sc: Scenario, fn) -> PropertyResult:
    """Run one table row; its counterexample values are formatted here."""
    seed = derive_seed(sc.seed, prop_id)
    try:
        passed, detail, cx = fn(sc, _Sampler(random.Random(seed), sc.bundle, sc.bound))
    except Exception as exc:  # surface scenario pathologies as failures
        return PropertyResult(
            prop_id,
            False,
            f"uncaught {type(exc).__name__}: {exc}",
            seed,
            {"error": str(exc)},
        )
    if cx is not None:
        cx = {key: _fmt(value) for key, value in cx.items()}
    return PropertyResult(prop_id, passed, detail, seed, cx)


# ---------------------------------------------------------------------------
# Sampled law checkers over the sampler's bundle, shared by the axioms suite
# and the dual-bundle property.  Each returns a result triple.

def _structure_laws(s: _Sampler, side: str, samples: int):
    b = s.bundle
    right = side == "right"
    add, scale = (_right_add, _right_scale) if right else (_left_add, _left_scale)
    zero_f, zero_c, zero_e = (_zero_slots(n) for n in b.ranks)
    # the shared outer slot, the two free slots of u, v and w, then r and s
    free = (b.n_F, b.n_C) if right else (b.n_C, b.n_E)
    lengths = (b.n_E if right else b.n_F, *free * 3, 1, 1)
    for _ in range(samples):
        x, shared, *drawn, r, r2 = s.sample(*lengths)
        u, v, w = (
            DVBElement._of_slots(b, x, *((a, c, shared) if right else (shared, a, c)))
            for a, c in zip(drawn[::2], drawn[1::2])
        )
        zero = DVBElement._of_slots(
            b, x, *((zero_f, zero_c, shared) if right else (shared, zero_c, zero_e))
        )
        r, r2 = _scalar(r), _scalar(r2)
        uv, ru, r2u = add(u, v), scale(r, u), scale(r2, u)
        laws = (
            uv == add(v, u),
            add(uv, w) == add(u, add(v, w)),
            add(u, zero) == u,
            add(u, scale(-1, u)) == zero,
            scale(r, uv) == add(ru, scale(r, v)),
            scale(r + r2, u) == add(ru, r2u),
            scale(r, r2u) == scale(r * r2, u),
            scale(1, u) == u,
        )
        if not all(laws):
            return False, f"a {side}-structure vector space law fails", {
                "u": u, "v": v, "w": w, "r": r, "s": r2
            }
    return True, f"vector space laws of the {side} structure on {samples} tuples", None


def _interchange(s: _Sampler, samples: int):
    b, element = s.bundle, DVBElement._of_slots
    for _ in range(samples):
        x, f1, f2, e1, e2, c1, c2, c3, c4 = s.sample(b.n_F, b.n_F, b.n_E, b.n_E, *(b.n_C,) * 4)
        u, v = element(b, x, f1, c1, e1), element(b, x, f2, c2, e1)
        w, z = element(b, x, f1, c3, e2), element(b, x, f2, c4, e2)
        lhs = _left_add(_right_add(u, v), _right_add(w, z))
        rhs = _right_add(_left_add(u, w), _left_add(v, z))
        if lhs != rhs:
            return False, "interchange of the two additions fails", {
                "u": u, "v": v, "w": w, "z": z
            }
    return True, f"the two additions interchange on {samples} quadruples", None


def _core_agreement(s: _Sampler, samples: int):
    b = s.bundle
    zf, ze = _zero_slots(b.n_F), _zero_slots(b.n_E)
    for _ in range(samples):
        x, c1, c2, r = s.sample(b.n_C, b.n_C, 1)
        u, v = DVBElement._of_slots(b, x, zf, c1, ze), DVBElement._of_slots(b, x, zf, c2, ze)
        r = _scalar(r)
        right_sum = _right_add(u, v)
        ok = (
            right_sum == _left_add(u, v)
            and _right_scale(r, u) == _left_scale(r, u)
            and right_sum._f == zf
            and right_sum._e == ze
        )
        if not ok:
            return False, "core elements see different right and left structures", {
                "u": u, "v": v, "r": r
            }
    return True, "both structures agree on core elements", None


def _kernel_split(s: _Sampler, samples: int):
    b = s.bundle
    zf, zc, ze = (_zero_slots(n) for n in b.ranks)
    for _ in range(samples):
        # the draws of w and of the element outside follow a check each
        x, f, c = s.sample(b.n_F, b.n_C)
        v = DVBElement._of_slots(b, x, f, c, ze)
        side, core = _split(v)
        zero = DVBElement._of_slots(b, x, zf, zc, ze)
        ok = (
            _right_add(side, core) == v
            and _split(side) == (side, zero)
            and _split(core) == (zero, core)
        )
        if not ok:
            return False, "kernel splitting projector laws fail", {"v": v}
        # the flip carries the statement to the left kernel
        w = s.element(x, f=zf)
        flipped = w.flip()
        if _right_add(*_split(flipped)) != flipped:
            return False, "left kernel splitting fails through the flip", {"w": w}
        if b.n_E > 0:
            outside = s.element(x, e=((1,) * b.n_E, 1))
            try:
                _split(outside)
                return False, "kernel splitting accepted an element outside the kernel", {
                    "v": outside
                }
            except NotInKernelError:
                pass
    return True, "kernel elements split into side and core parts", None


def _core_difference(s: _Sampler, samples: int):
    b = s.bundle
    zf, ze = _zero_slots(b.n_F), _zero_slots(b.n_E)
    for _ in range(samples):
        x, f, e, c1, c2 = s.sample(b.n_F, b.n_E, b.n_C, b.n_C)
        u, v = DVBElement._of_slots(b, x, f, c1, e), DVBElement._of_slots(b, x, f, c2, e)
        k = _difference(u, v)
        over_e = DVBElement._of_slots(b, x, zf, k, e)
        over_f = DVBElement._of_slots(b, x, f, k, ze)
        if _right_add(v, over_e) != u or _left_add(v, over_f) != u:
            return False, "core difference does not recover the element", {
                "u": u, "v": v, "k": _fractions(k)
            }
        if b.n_C > 0:
            nums, den = k
            bumped = ((nums[0] + den,) + nums[1:], den)
            if _right_add(v, DVBElement._of_slots(b, x, zf, bumped, e)) == u:
                return False, "core difference is not unique", {"u": u, "v": v}
    return True, "elements sharing both projections differ by a unique core shift", None


# ---------------------------------------------------------------------------
# The axioms suite

def _morphism_respects(sc: Scenario, s: _Sampler):
    b = sc.bundle
    n_f, n_c, n_e = b.ranks
    apply, element = sc.section("morphism").apply, DVBElement._of_slots
    for _ in range(sc.samples):
        # the right side's draws; the left side's follow its check
        x, shared_e, shared_f, r, uf, uc, vf, vc = s.sample(n_e, n_f, 1, n_f, n_c, n_f, n_c)
        r = _scalar(r)
        u, v = element(b, x, uf, uc, shared_e), element(b, x, vf, vc, shared_e)
        if not _respects(apply, _right_add, _right_scale, u, apply(u), v, r):
            return False, "morphism breaks the right structure", {"u": u, "v": v, "r": r}
        pc, pe, qc, qe = s.draw(n_c, n_e, n_c, n_e)
        p, q = element(b, x, shared_f, pc, pe), element(b, x, shared_f, qc, qe)
        if not _respects(apply, _left_add, _left_scale, p, apply(p), q, r):
            return False, "morphism breaks the left structure", {"p": p, "q": q, "r": r}
    return True, f"block morphism respects both structures on {sc.samples} samples", None


_AXIOMS = (
    ("axioms.01.right-structure-laws",
     lambda sc, s: _structure_laws(s, "right", sc.samples)),
    ("axioms.02.left-structure-laws",
     lambda sc, s: _structure_laws(s, "left", sc.samples)),
    ("axioms.03.interchange-law", lambda sc, s: _interchange(s, sc.samples)),
    ("axioms.04.core-structures-agree", lambda sc, s: _core_agreement(s, sc.samples)),
    ("axioms.05.kernel-splitting", lambda sc, s: _kernel_split(s, sc.samples)),
    ("axioms.06.core-difference", lambda sc, s: _core_difference(s, sc.samples)),
    ("axioms.07.morphism-respects-structures", _morphism_respects),
)


# ---------------------------------------------------------------------------
# The duality suite

def _pairing_bilinear(sc: Scenario, s: _Sampler):
    b = sc.bundle
    n_f, n_c, n_e = b.ranks
    db, element = right_dual(b), DVBElement._of_slots
    for _ in range(sc.samples):
        x, f, q, vc, ve, wc, we, ac, bc = s.sample(n_f, n_c, n_c, n_e, n_c, n_e, n_f, n_f)
        v, vp = element(b, x, f, vc, ve), element(b, x, f, wc, we)
        a, bb = element(db, x, ve, ac, q), element(db, x, we, bc, q)
        lhs = _pair(fiber_add("left", v, vp), fiber_add("right", a, bb))
        if not _same(lhs, _pair(v, a), _pair(vp, bb)):
            return False, "pairing is not bi-additive", {"v": v, "v2": vp, "a": a, "b": bb}
        zero_cov = element(db, x, ve, _zero_slots(n_f), _zero_slots(n_c))
        if _pair(v, zero_cov)[0] != 0:
            return False, "zero covector pairs to a nonzero value", {"v": v}
    return True, f"pairing additivity in both slots on {sc.samples} samples", None


def _pairing_sign_rules(sc: Scenario, s: _Sampler):
    b = sc.bundle
    db, element = right_dual(b), DVBElement._of_slots
    for _ in range(sc.samples):
        x, vf, vc, ve, ac, ae, r = s.sample(*b.ranks, b.n_F, b.n_C, 1)
        v, a, r = element(b, x, vf, vc, ve), element(db, x, ve, ac, ae), _scalar(r)
        base = _pair(v, a)
        scaled = r.numerator * base[0], r.denominator * base[1]
        if not _same(_pair(fiber_scale("right", r, v), a), scaled) or not _same(
            _pair(v, fiber_scale("left", r, a)), scaled
        ):
            return False, "scalar action does not factor out of the pairing", {
                "v": v, "a": a, "r": r
            }
    return True, f"right and left scalings factor out on {sc.samples} samples", None


def _kernel_pairings(sc: Scenario, s: _Sampler):
    b = sc.bundle
    db, element = right_dual(b), DVBElement._of_slots
    for _ in range(sc.samples):
        # the draw of a_shift follows the first check
        x, vf, vc, ve, p, q, shift_c = s.sample(*b.ranks, b.n_F, b.n_C, b.n_C)
        v = element(b, x, vf, vc, ve)
        # covector with zero core dual slot sees only the F projection
        a0 = element(db, x, ve, p, _zero_slots(b.n_C))
        v_shift = element(b, x, vf, shift_c, ve)
        value = _pair(v, a0)
        if not _same(value, _dot(p, v._f)) or not _same(value, _pair(v_shift, a0)):
            return False, "kernel covector pairing depends on more than F", {"v": v, "a": a0}
        # kernel element with zero F slot sees only the C* dual slot
        k = element(b, x, _zero_slots(b.n_F), vc, ve)
        a = element(db, x, ve, p, q)
        a_shift = element(db, x, ve, *s.draw(b.n_F), q)
        value = _pair(k, a)
        if not _same(value, _dot(q, v._c)) or not _same(value, _pair(k, a_shift)):
            return False, "kernel element pairing depends on more than C*", {"k": k, "a": a}
    return True, f"kernel pairings reduce to single slots on {sc.samples} samples", None


def _dual_bundle_axioms(sc: Scenario, s: _Sampler):
    d = s.over(right_dual(sc.bundle))
    quarter = max(1, sc.samples // 4)
    checks = (
        ("right laws", _structure_laws(d, "right", quarter)),
        ("left laws", _structure_laws(d, "left", quarter)),
        ("interchange", _interchange(d, quarter)),
        ("core agreement", _core_agreement(d, quarter)),
        ("kernel splitting", _kernel_split(d, quarter)),
    )
    for label, (ok, detail, cx) in checks:
        if not ok:
            return False, f"dual bundle breaks {label}: {detail}", cx
    return True, "the right dual satisfies the double bundle axioms", None


def _adjoint_loop(s: _Sampler, dual, count: int, fails: str, passes: str):
    """<phi(v), a> = <v, dual(a)> at `count` regular points for the right dual
    `dual` of phi, drawing x, then v over phi's source, then a over the dual
    of phi's target above phi(v)."""
    phi = dual.phi
    on_source, on_dual = s.over(phi.source), s.over(right_dual(phi.target))

    def sample():
        v = on_source.element()
        x = v.x
        image = phi.apply(v)
        a = on_dual.element(x=x, f=image._e)
        if not _same(_pair(image, a), _pair(v, dual.apply(a))):
            return False, fails, {"x": x, "v": v, "a": a}

    return s.regular_points(count, sample, (True, passes, None))


def _adjoint_contract(sc: Scenario, s: _Sampler):
    return _adjoint_loop(
        s, right_dual_morphism(sc.section("morphism")), sc.samples, "adjoint contract fails",
        f"pairing against the dual image matches on {sc.samples} samples",
    )


def _dual_contravariance(sc: Scenario, s: _Sampler):
    phi = sc.section("morphism")
    other = random_morphism(s.rng, sc.bundle, GENERATED_DEGREE)
    composite = compose_morphisms(phi, other)
    points = max(1, min(sc.samples, 10))

    def sample():
        x = s.point()
        lhs = fiber_right_dual(composite.at(x))
        rhs = fiber_right_dual(other.at(x)).after(fiber_right_dual(phi.at(x)))
        if lhs != rhs:
            return False, "dual of a composite is not the reversed composite", {"x": x}

    return s.regular_points(points, sample, (
        True, f"dualizing reverses composition at {points} points", None
    ))


def _left_dual_transport(sc: Scenario, s: _Sampler):
    b = sc.bundle
    ld = left_dual(b)
    if ld.ranks != (b.n_C, b.n_E, b.n_F):
        return False, "left dual ranks are wrong", {"ranks": ld.ranks}
    if left_dual(right_dual(b)).ranks != b.ranks:
        return False, "left dual does not undo the right dual on ranks", None
    n_f, n_c, n_e = b.ranks
    element = DVBElement._of_slots
    # v, v2 in b and their covectors in the left dual, built flipped: the
    # left dual's elements and structures are the right dual's of b.flip()
    flipped = b.flip()
    dual = right_dual(flipped)
    for _ in range(sc.samples):
        x, e, phi_slot, vf, vc, wf, wc, cc, cc2 = s.sample(n_e, n_c, n_f, n_c, n_f, n_c, n_e, n_e)
        v, vp = element(flipped, x, e, vc, vf), element(flipped, x, e, wc, wf)
        cov, cov2 = element(dual, x, vf, cc, phi_slot), element(dual, x, wf, cc2, phi_slot)
        lhs = _pair(fiber_add("left", v, vp), fiber_add("right", cov, cov2))
        if not _same(lhs, _pair(v, cov), _pair(vp, cov2)):
            return False, "left pairing additivity fails", {
                "v": v.flip(), "v2": vp.flip(), "b": cov.flip(), "b2": cov2.flip()
            }
    return True, "left dual shape and pairing follow from the flip transport", None


def _scalar_worked_example(sc: Scenario, s: _Sampler):
    chart = Chart.of_dim(0)
    kb = DecomposedDVB(chart, 1, 1, 1)
    names = chart.names

    def const(v):
        return PolyMatrix.constant(names, ((v,),))

    seven = MultiPoly.const(names, 7)
    phi = DVBMorphism(kb, kb, const(2), const(3), const(5), (((seven,),),))
    at_point = phi.at(())
    fm = fiber_right_dual(at_point)
    # the blocks (1/5, 2, 3, 7/5) as integer rows over their denominators
    if fm._int_blocks != ((((1,),), 5), (((2,),), 1), (((3,),), 1), (((7,),), 5)):
        return False, "scalar dual blocks are wrong", {
            "l": fm.l, "c": fm.c, "r": fm.r, "psi": fm.psi
        }
    # both pairing routes must equal 2 p'f + 3 q'c + 7 q'fe on a grid; the
    # covector a and its pullback depend on (e, p, q) only.  Every slot is
    # one integer over 1, so the elements are built from slot vectors.
    grid = range(-2, 3)
    dual_kb = right_dual(kb)
    element = DVBElement._of_slots
    pulled = {}
    for f in grid:
        for c in grid:
            for e in grid:
                v = element(kb, (), ((f,), 1), ((c,), 1), ((e,), 1))
                image = at_point.apply(v)
                for p in grid:
                    for q in grid:
                        if (e, p, q) not in pulled:
                            a = element(dual_kb, (), image._e, ((p,), 1), ((q,), 1))
                            pulled[e, p, q] = a, fm.apply(a)
                        a, a_pulled = pulled[e, p, q]
                        want = 2 * p * f + 3 * q * c + 7 * q * f * e
                        if not _same(_pair(image, a), (want, 1)) or not _same(
                            _pair(v, a_pulled), (want, 1)
                        ):
                            return False, "scalar adjoint identity fails", {
                                "f": f, "c": c, "e": e, "p": p, "q": q
                            }
    return True, "scalar morphism (2,3,5,7) dualizes to (1/5, 2, 3, 7/5)", None


_DUALITY = (
    ("duality.01.pairing-bilinear", _pairing_bilinear),
    ("duality.02.pairing-sign-rules", _pairing_sign_rules),
    ("duality.03.kernel-pairings", _kernel_pairings),
    ("duality.04.dual-bundle-axioms", _dual_bundle_axioms),
    ("duality.05.adjoint-contract", _adjoint_contract),
    ("duality.06.dual-contravariance", _dual_contravariance),
    ("duality.07.left-dual-transport", _left_dual_transport),
    ("duality.08.scalar-worked-example", _scalar_worked_example),
)


# ---------------------------------------------------------------------------
# The third-dual suite

def _defining_relation(sc: Scenario, s: _Sampler):
    rounds = max(1, sc.samples // 10)
    for _ in range(rounds):
        v = s.element()
        phi = canonical_R("R", v)
        if not verify_R_relation(v, phi, samples=20, seed=s.seed()):
            return False, "canonical image violates the defining relation", {"v": v}
    return True, f"defining relation holds for {rounds} canonical images", None


def _relation_rejects_perturbation(sc: Scenario, s: _Sampler):
    b = sc.bundle
    if b.n_F + b.n_C + b.n_E == 0:
        return True, "no slot to perturb at these ranks; vacuous", None
    v = s.element()
    phi = canonical_R("R", v)
    if b.n_C > 0:
        bad = DVBElement(phi.bundle, phi.x, phi.f, (phi.c[0] + 1,) + phi.c[1:], phi.e)
    elif b.n_F > 0:
        bad = DVBElement(phi.bundle, phi.x, (phi.f[0] + 1,) + phi.f[1:], phi.c, phi.e)
    else:
        bad = DVBElement(phi.bundle, phi.x, phi.f, phi.c, (phi.e[0] + 1,) + phi.e[1:])
    if verify_R_relation(v, bad, samples=60, seed=s.seed()):
        return False, "perturbed candidate still satisfies the relation", {
            "v": v, "candidate": bad
        }
    return True, "a perturbed candidate is rejected by the relation", None


def _variant_identities(sc: Scenario, s: _Sampler):
    rounds = max(1, sc.samples // 10)
    for _ in range(rounds):
        v = s.element()
        pairs = (
            ("R+-", fiber_scale("left", -1, v)),
            ("R-+", fiber_scale("right", -1, v)),
            ("R=", fiber_scale("left", -1, fiber_scale("right", -1, v))),
        )
        for variant, twisted in pairs:
            if canonical_R(variant, v) != canonical_R("R", twisted):
                return False, f"variant {variant} is not a sign twist of the base map", {
                    "v": v
                }
        for variant in R_VARIANTS:
            if not verify_R_relation(
                v, canonical_R(variant, v), samples=12, seed=s.seed(), variant=variant
            ):
                return False, f"variant {variant} violates its signed relation", {"v": v}
    return True, f"all sign variants verified on {rounds} elements", None


def _canonical_maps_involutive(sc: Scenario, s: _Sampler):
    ident = identity_morphism(sc.bundle)
    for variant in R_VARIANTS:
        rm = canonical_R_morphism(sc.bundle, variant)
        if compose_morphisms(rm, rm) != ident:
            return False, f"canonical map {variant} is not involutive", None
    return True, "all four canonical maps square to the identity", None


def _conjugated_transport_inverts(sc: Scenario, s: _Sampler):
    phi = sc.section("morphism")
    transport = third_dual_transport(phi)
    naive = naive_third_dual_transport(phi)
    inverse = invert_morphism(phi)
    points = max(1, min(sc.samples, 10))
    contrasted = False

    def sample():
        nonlocal contrasted
        x = s.point()
        expected = inverse.at(x)
        if transport.at(x) != expected:
            return False, "conjugated triple dual differs from the inverse", {"x": x}
        if not contrasted:
            # without the canonical maps the triple dual inverts phi exactly
            # where Psi vanishes; the first regular point alone checks this,
            # as the naive route costs three more eliminations a point
            contrasted = True
            psi_vanishes = not any(p for row in phi.at(x)._int_blocks[3][0] for p in row)
            if (naive.at(x) == expected) != psi_vanishes:
                return False, "naive identification disagrees with the bilinear block", {"x": x}

    return s.regular_points(points, sample, (
        True, f"conjugated triple dual equals the inverse at {points} points", None
    ))


_THIRD_DUAL = (
    ("third-dual.01.defining-relation", _defining_relation),
    ("third-dual.02.relation-rejects-perturbation", _relation_rejects_perturbation),
    ("third-dual.03.variant-identities", _variant_identities),
    ("third-dual.04.canonical-maps-involutive", _canonical_maps_involutive),
    ("third-dual.05.conjugated-transport-inverts", _conjugated_transport_inverts),
)


# ---------------------------------------------------------------------------
# The geometry suite

def _agreement(channels: dict, disagree: str, agree: str, quality: str):
    """The result triple of channels that decide one quality; `channels` maps
    each channel's counterexample key to its verdict.  Differing verdicts fail
    with "<disagree> channels disagree" and the verdicts as the counterexample;
    equal ones pass with "<agree> <quality>", or "<agree> not <quality>"."""
    first, *rest = channels.values()
    if any(verdict != first for verdict in rest):
        return False, f"{disagree} channels disagree", channels
    return True, f"{agree} {quality}" if first else f"{agree} not {quality}", None


def _vector_field_channels(sc: Scenario, s: _Sampler):
    field = sc.section("vector_field")
    seed1, seed2 = s.seed(), s.seed()
    return _agreement({
        "shape": is_degree_zero(field),
        "bundle_morphism": vf_is_bundle_morphism(field, sc.samples, seed1),
        "momentum_linearity": vf_linearity_on_cotangent(field, sc.samples, seed2),
    }, "degree-zero", "three characterizations agree: field is", "degree zero")


def _one_form_channels(sc: Scenario, s: _Sampler):
    form = sc.section("one_form")
    seed1, seed2 = s.seed(), s.seed()
    return _agreement({
        "shape": is_linear_oneform(form),
        "bundle_morphism": oneform_is_bundle_morphism(form, sc.samples, seed1),
        "velocity_linearity": oneform_linearity_on_tangent(form, sc.samples, seed2),
    }, "linear one-form", "three characterizations agree: form is", "linear")


def _bivector_channels(sc: Scenario, s: _Sampler):
    biv = sc.section("bivector")
    return _agreement({
        "shape": bivector_linear_shape(biv),
        "contraction_morphism": is_linear_poisson(biv, samples=sc.samples, seed=s.seed()),
    }, "linear bivector", "shape and contraction sampling agree:", "fiberwise linear")


def _lie_poisson_fixtures(sc: Scenario, s: _Sampler):
    point_chart = Chart.of_dim(0)
    vb3 = VectorBundle(point_chart, 3, "g")
    vars3 = total_space_vars(vb3)
    e1, e2, e3 = (MultiPoly.var(vars3, f"e{i}") for i in (1, 2, 3))
    z = MultiPoly.zero(vars3)

    def fiber_bivector(rows):
        """A bivector over the point chart with only its fiber block."""
        return Bivector(
            vb3,
            PolyMatrix.zero(vars3, 0, 0),
            PolyMatrix.zero(vars3, 0, 3),
            PolyMatrix(vars3, tuple(tuple(row) for row in rows)),
        )

    so3 = fiber_bivector(((z, e3, -e2), (-e3, z, e1), (e2, -e1, z)))
    pts = [(1, 1, 1), (1, 2, 3), (-1, 2, -5)] + [s.rationals(3) for _ in range(4)]
    checks = [
        ("so3 linear shape", bivector_linear_shape(so3)),
        ("so3 contraction", is_linear_poisson(so3, samples=30, seed=s.seed())),
        ("so3 jacobi", check_jacobi(so3, pts)),
    ]
    broken = fiber_bivector(((z, e3, -e1), (-e3, z, e1), (e1, -e1, z)))
    checks.append(("broken constants linear", bivector_linear_shape(broken)))
    checks.append(("broken constants jacobi fails", not check_jacobi(broken, [(1, 1, 1)])))
    one = MultiPoly.const(vars3, 1)
    constant = fiber_bivector(((z, one, z), (-one, z, z), (z, z, z)))
    checks.append(("constant bivector not linear", not bivector_linear_shape(constant)))
    checks.append(
        (
            "constant bivector fails sampling",
            not is_linear_poisson(constant, samples=30, seed=s.seed()),
        )
    )
    for label, ok in checks:
        if not ok:
            return False, f"fixture check failed: {label}", None
    return True, "structure constant fixtures behave as classified", None


def _closedness_channels(sc: Scenario, s: _Sampler):
    form = sc.section("two_form")
    result = _agreement({
        "coefficient_identity": is_closed(form),
        "exterior_derivative": closedness_via_exterior(form),
        "pullback_reproduces": (pulled := omega_c_pullback(form)) == form,
    }, "closedness", "three closedness channels agree:", "closed")
    if result[0] and not is_closed(pulled):
        return False, "pullback of the base form is not closed", None
    return result


def _flat_map_blocks(sc: Scenario, s: _Sampler):
    side, chart = sc.side_bundle, sc.chart
    flat = omega_flat(sc.section("two_form"))
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


def _three_tuples(s: _Sampler, a: int, b: int, c: int) -> tuple[tuple, tuple, tuple]:
    """Rational tuples of lengths a, b and c, cut from one draw of a + b + c."""
    values = s.rationals(a + b + c)
    return values[:a], values[a : a + b], values[a + b :]


def _section_orthogonality(sc: Scenario, s: _Sampler):
    bundle, chart = sc.bundle, sc.chart
    section = LinearSection(
        bundle,
        "left",
        random_poly_vector(s.rng, chart.names, bundle.n_E, GENERATED_DEGREE),
        random_poly_matrix(s.rng, chart.names, bundle.n_C, bundle.n_F, GENERATED_DEGREE),
    )
    co = dual_linear_section(section)
    for _ in range(sc.samples):
        x, fval, qval = _three_tuples(s, chart.dim, bundle.n_F, bundle.n_C)
        if _pair(section.at(x, fval), co.at(x, qval))[0] != 0:
            return False, "dual section does not annihilate the section", {
                "x": x, "f": fval, "q": qval
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
    x = s.point()
    unit_f = tuple(Fraction(int(t == 0)) for t in range(bundle.n_F))
    unit_q = tuple(Fraction(int(t == 0)) for t in range(bundle.n_C))
    if _pair(section.at(x, unit_f), rival.at(x, unit_q))[0] == 0:
        return False, "a differing candidate also annihilates the section", {"x": x}
    return True, "dual section annihilates; any fiber change breaks it", None


def _lift_correspondence(sc: Scenario, s: _Sampler):
    chart = sc.chart
    line = Chart.of_dim(1)
    x1 = MultiPoly.var(line.names, "x1")
    fixtures = [(line, (x1 * x1,))]
    if chart.dim >= 1:
        fixtures.append(
            (chart, random_poly_vector(s.rng, chart.names, chart.dim, GENERATED_DEGREE))
        )
    for base_chart, base_field in fixtures:
        up = complete_tangent_lift(base_chart, base_field)
        down = complete_cotangent_lift(base_chart, base_field)
        dual_sect = dual_linear_section(linear_vf_as_section(up))
        if dual_sect.base != tuple(down.base) or dual_sect.fiber != down.fiber:
            return False, "dual of the tangent lift is not the cotangent lift", {
                "chart_dim": base_chart.dim
            }
        up_sect = linear_vf_as_section(up)
        for _ in range(max(1, sc.samples // 10)):
            x, fval, qval = _three_tuples(s, *(base_chart.dim,) * 3)
            if _pair(up_sect.at(x, fval), dual_sect.at(x, qval))[0] != 0:
                return False, "lift sections are not orthogonal", {"x": x}
    return True, "cotangent lift is the dual section of the tangent lift", None


def _metric_channels(sc: Scenario, s: _Sampler):
    side, chart = sc.side_bundle, sc.chart
    conn = sc.section("connection")
    metric = sc.section("metric")
    result = _agreement({
        "coefficient_identity": metric_identity(conn, metric),
        "diagram_sampling": is_metric_connection(conn, metric, samples=8, seed=s.seed()),
    }, "metric compatibility", "diagram and coefficient identity agree:", "compatible")
    if not result[0]:
        return result
    # a compatible pair built from a unimodular square root must pass
    good_metric = random_metric(random.Random(s.seed()), side, 1)
    ginv = good_metric.g.unimodular_inverse()
    half = Fraction(1, 2)
    ginv_dg = [(ginv * _partial_matrix(good_metric.g, name)).entries for name in chart.names]
    gamma = tuple(
        tuple(
            tuple(ginv_dg[i][a][c].scale(half) for c in range(side.rank))
            for i in range(chart.dim)
        )
        for a in range(side.rank)
    )
    good_conn = LinearConnection(side, gamma)
    if not metric_identity(good_conn, good_metric) or not is_metric_connection(
        good_conn, good_metric, samples=6, seed=s.seed()
    ):
        return False, "constructed compatible pair fails the criteria", None
    return result


def _partial_matrix(m: PolyMatrix, name: str) -> PolyMatrix:
    return PolyMatrix.build(
        m.vars, m.rows, m.cols, lambda i, j: m.entries[i][j].partial(name)
    )


def _symmetry_channels(sc: Scenario, s: _Sampler):
    side, chart = sc.side_bundle, sc.chart
    if side.rank != chart.dim:
        return True, "side rank differs from the chart dimension; vacuous", None
    conn = sc.section("connection")
    result = _agreement({
        "coordinate_symmetry": _first_asymmetry(conn) is None,
        "side_exchange_diagram": is_symmetric_connection(conn, samples=20, seed=s.seed()),
        "horizontal_isotropy": horizontal_lagrangian_check(conn, samples=5, seed=s.seed()),
    }, "connection symmetry", "three symmetry channels agree:", "symmetric")
    if not result[0]:
        return result
    if chart.dim >= 2:
        sym = random_connection(random.Random(s.seed()), side, 1, symmetric=True)
        if not is_symmetric_connection(sym, samples=10, seed=s.seed()):
            return False, "symmetrized fixture fails the diagram channel", None
        if not horizontal_lagrangian_check(sym, samples=4, seed=s.seed()):
            return False, "symmetrized fixture fails the isotropy channel", None
        bumped_grid = [
            [list(row) for row in plane] for plane in sym.gamma
        ]
        bumped_grid[0][0][1] = bumped_grid[0][0][1] + MultiPoly.const(chart.names, 1)
        bumped = LinearConnection(side, tuple(
            tuple(tuple(row) for row in plane) for plane in bumped_grid
        ))
        if is_symmetric_connection(bumped, samples=10, seed=s.seed()):
            return False, "asymmetric fixture passes the diagram channel", None
        if horizontal_lagrangian_check(bumped, samples=4, seed=s.seed()):
            return False, "asymmetric fixture passes the isotropy channel", None
    return result


def _vertical_lift_kernel(sc: Scenario, s: _Sampler):
    bundle = sc.bundle
    section = sc.section("core_section")
    rounds = max(1, sc.samples // 5)
    for _ in range(rounds):
        x, e, f = _three_tuples(s, bundle.chart.dim, bundle.n_E, bundle.n_F)
        lifted_r = vertical_lift(bundle, "right", section, x, e)
        lifted_l = vertical_lift(bundle, "left", section, x, f)
        want = section.value(x)
        if lifted_r.c != want or lifted_l.c != want:
            return False, "vertical lift core slot is wrong", {"x": x}
        side_part, core_part = kernel_split(lifted_l)
        if core_part.c != want or fiber_add("right", side_part, core_part) != lifted_l:
            return False, "left vertical lift does not split in the right kernel", {"x": x}
        if lifted_r.flip() != vertical_lift(bundle.flip(), "left", section, x, e):
            return False, "vertical lifts do not exchange under the flip", {"x": x}
    return True, f"vertical lifts land in the kernels on {rounds} samples", None


def _side_exchange_adjoint(sc: Scenario, s: _Sampler):
    if sc.chart.dim == 0:
        return True, "point chart; vacuous", None
    rounds = max(1, sc.samples // 5)
    return _adjoint_loop(
        s, alpha_M(sc.chart), rounds, "side exchange adjoint contract fails",
        f"double tangent exchange is adjoint to its dual on {rounds} samples",
    )


_GEOMETRY = (
    ("geometry.01.vector-field-channels", _vector_field_channels),
    ("geometry.02.one-form-channels", _one_form_channels),
    ("geometry.03.bivector-channels", _bivector_channels),
    ("geometry.04.lie-poisson-fixtures", _lie_poisson_fixtures),
    ("geometry.05.two-form-closedness-channels", _closedness_channels),
    ("geometry.06.flat-map-block-identity", _flat_map_blocks),
    ("geometry.07.section-duality-orthogonality", _section_orthogonality),
    ("geometry.08.complete-lift-correspondence", _lift_correspondence),
    ("geometry.09.metric-compatibility-channels", _metric_channels),
    ("geometry.10.connection-symmetry-channels", _symmetry_channels),
    ("geometry.11.vertical-lift-kernel", _vertical_lift_kernel),
    ("geometry.12.side-exchange-adjoint", _side_exchange_adjoint),
)


# ---------------------------------------------------------------------------
# Suite dispatch

_SUITES = {
    "axioms": _AXIOMS,
    "duality": _DUALITY,
    "third-dual": _THIRD_DUAL,
    "geometry": _GEOMETRY,
}
SUITE_NAMES = (*_SUITES, "all")


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


def _report(suite: str, sc: Scenario, rows) -> Report:
    """Run the `(prop_id, fn)` rows and assemble their report."""
    start = time.monotonic()
    results = sorted(
        (_run_property(prop_id, sc, fn) for prop_id, fn in rows), key=lambda r: r.prop_id
    )
    elapsed = int((time.monotonic() - start) * 1000)
    return Report(suite, _scenario_header(sc, suite), tuple(results), elapsed)


def run_suite(name: str, scenario: Scenario) -> Report:
    """Execute one named suite (or all of them) and assemble the report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    rows = [row for suite, table in _SUITES.items() if name in (suite, "all") for row in table]
    return _report(name, scenario, rows)


# ---------------------------------------------------------------------------
# Single-predicate connection checks (CLI `connection check ...`)

def _asymmetry_cx(conn: LinearConnection, spot):
    if spot is None:
        return None
    a, i, bq = spot
    return {
        "index (a, i, b)": (a, i, bq),
        "gamma[a][i][b]": conn.gamma[a][i][bq],
        "gamma[a][b][i]": conn.gamma[a][bq][i],
    }


def _metric_check(sc: Scenario, s: _Sampler):
    conn = sc.section("connection")
    metric = sc.section("metric")
    defect = _metric_defect(conn, metric)
    exact = defect is None
    sampled = is_metric_connection(conn, metric, samples=8, seed=s.seed())
    if exact != sampled:
        return False, "diagram and coefficient channels disagree", {
            "coefficient_identity": exact, "diagram_sampling": sampled
        }
    if exact:
        return True, "connection preserves the metric", None
    i, a, bq, got, want = defect
    return False, "connection does not preserve the metric", {
        "index (i, a, b)": (i, a, bq), "metric_derivative": got, "covariant_combination": want
    }


def _symmetric_check(sc: Scenario, s: _Sampler):
    conn = sc.section("connection")
    spot = _first_asymmetry(conn)
    exact = spot is None
    diagram = is_symmetric_connection(conn, samples=20, seed=s.seed())
    if exact != diagram:
        return False, "diagram and coordinate channels disagree", {
            "coordinate_symmetry": exact, "side_exchange_diagram": diagram
        }
    if exact:
        return True, "connection is symmetric", None
    return False, "connection is not symmetric", _asymmetry_cx(conn, spot)


def _lagrangian_check(sc: Scenario, s: _Sampler):
    conn = sc.section("connection")
    if horizontal_lagrangian_check(conn, samples=5, seed=s.seed()):
        return True, "horizontal spaces of the dual connection are isotropic", None
    return (
        False,
        "lifted canonical form does not vanish on horizontal pairs",
        _asymmetry_cx(conn, _first_asymmetry(conn)),
    )


_CONNECTION_CHECKS = {
    "metric": ("connection.metric-compatibility", _metric_check),
    "symmetric": ("connection.symmetric", _symmetric_check),
    "lagrangian": ("connection.lagrangian-horizontal", _lagrangian_check),
}


def run_connection_check(kind: str, sc: Scenario) -> Report:
    """Evaluate one connection predicate on the scenario as a tiny report.

    Unlike the suites, whose properties are theorems and fail only on
    implementation defects, these checks ask a genuine question about the
    scenario data and report FAIL with a counterexample when it says no.
    """
    if kind not in _CONNECTION_CHECKS:
        raise ValueError(f"unknown connection check {kind!r}")
    if kind in ("symmetric", "lagrangian") and sc.side_bundle.rank != sc.chart.dim:
        raise InconsistentScenarioError(
            "connection symmetry checks need the side rank to equal the chart dimension"
        )
    return _report(f"connection:{kind}", sc, [_CONNECTION_CHECKS[kind]])
