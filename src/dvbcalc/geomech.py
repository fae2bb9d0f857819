"""Geometric mechanics on decomposed tangent and cotangent shells.

Everything here lives over a vector bundle E with polynomial data: vector
fields and one-forms on the total space (coordinates (x, e), fiber names
e1..eN), bivectors and linear 2-forms, vertical and complete lifts, linear
sections and their duals, linear connections with their dual, metric, and
symmetry characterizations.

The recurring theme is that fiberwise-linear objects on E are exactly the
ones whose associated maps between the tangent shell K(TM, E, E) and the
cotangent shell K(E*, TM*, E) respect both bundle structures.  Shape
predicates are decided exactly on polynomial degrees; structure predicates
are sampled at rational points and checked exactly: each draws through a
`core._Sampler` over its seed, and keeps fiber values as slot vectors.
One sampled checker, `_respects_both_structures`, decides "respects both
structures" for maps into a shell: the contraction of a bivector, and a
double-linear function (a momentum or velocity function) as the map
w -> (x | () | value(w) | ()) into the core line L = (0 | Q | 0), whose
two structures both add and scale its core slot; per structure it asks
`_respects`, which the `axioms` suite asks of its morphism with its own
draws.  One more, `_section_is_bundle_morphism`, decides whether a field or
form is a bundle morphism into its shell.

Connection conventions: the splitting sends (x | xdot | edot | e) to
(x | xdot | edot + Gamma(xdot, e) | e) with a plus sign, and the dual
connection is produced by the duality machinery (flip, right dual, invert),
which lands on the negated transpose of Gamma.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from typing import Sequence

from .core import (
    Chart,
    DecomposedDVB,
    DVBElement,
    DVBMorphism,
    FiberMismatchError,
    VectorBundle,
    _fractions,
    _is_right,
    _left_add,
    _left_scale,
    _mat_vec,
    _pairing,
    _reduced,
    _right_add,
    _right_scale,
    _Sampler,
    _scalar,
    _signed_identity,
    _slot,
    _slots_of,
    _vec_add,
    _vec_scale,
    _zero_slots,
    compose_morphisms,
    identity_morphism,
    invert_morphism_poly,
    psi_zero,
)
from .duality import (
    dual_label,
    right_dual,
    right_dual_morphism,
    right_dual_morphism_poly,
)
from .forms import DifferentialForm, make_form
from .ring import (
    _WITNESSES,
    MultiPoly,
    Point,
    PolyMatrix,
    _check_grid,
    _EvalPlan,
    _identically_singular,
    _Pairs,
)


def fiber_var_names(rank: int) -> tuple[str, ...]:
    return tuple(f"e{a + 1}" for a in range(rank))


def total_space_vars(vb: VectorBundle) -> tuple[str, ...]:
    """Coordinates (x..., e...) of the total space of the bundle."""
    fiber = fiber_var_names(vb.rank)
    clash = set(vb.chart.names) & set(fiber)
    if clash:
        raise ValueError(f"chart names collide with fiber names: {sorted(clash)}")
    return vb.chart.names + fiber


def tangent_prolongation(vb: VectorBundle) -> DecomposedDVB:
    """Shell of the tangent of a vector bundle: sides TM and E, core E.

    Slots read (f, c, e) = (base velocity, fiber velocity, fiber point); the
    right structure is tangent-vector addition at a fixed fiber point, the
    left structure is the derivative of the addition in E.
    """
    return DecomposedDVB(vb.chart, vb.chart.dim, vb.rank, vb.rank, ("TM", vb.label, vb.label))


def cotangent_prolongation(vb: VectorBundle) -> DecomposedDVB:
    """Shell of the cotangent of a vector bundle: sides E* and E, core TM*.

    It is the tangent shell's right dual, flipped, with slots (f, c, e) =
    (fiber momentum, base momentum, fiber point); so `pair_r` pairs the flip
    of (x | phi | p | e) with (x | xdot | edot | e) as p.xdot + phi.edot.
    """
    return right_dual(tangent_prolongation(vb)).flip()


def _fiber_degrees(poly: MultiPoly, n_base: int) -> set[int]:
    return {sum(exps[n_base:]) for exps in poly._pairs}


def _of_fiber_degree(polys, n_base: int, degree: int) -> bool:
    """Every term of every polynomial has e-degree `degree`."""
    return all(_fiber_degrees(p, n_base) <= {degree} for p in polys)


def _fiber_linear(coeffs: Sequence[MultiPoly], vars: tuple[str, ...]) -> MultiPoly:
    """sum_a coeffs[a] e^a in `vars` = (x..., e...), coefficients over the chart.

    A term of coeffs[a] e^a is a term of coeffs[a] with e^a's exponent appended.
    """
    k = len(coeffs)
    pairs = _Pairs()
    for a, p in enumerate(coeffs):
        unit = tuple(int(b == a) for b in range(k))
        for exps, pair in p._pairs.items():
            pairs[exps + unit] = pair
    return MultiPoly(vars, pairs)


def _respects(image, add, scale, u: DVBElement, at_u: DVBElement, v: DVBElement, r) -> bool:
    """image(u + v) = image(u) + image(v) and image(r u) = r image(u) for one
    structure's `add` and `scale`, given at_u = image(u).  Images that the
    structure cannot add (their shared legs differ) do not respect it."""
    try:
        return image(add(u, v)) == add(at_u, image(v)) and image(scale(r, u)) == scale(r, at_u)
    except FiberMismatchError:
        return False


def _respects_both_structures(shell: DecomposedDVB, image, samples: int, seed: int) -> bool:
    """Sampled test that `image`, a map into a shell, respects both structures.

    Each sample draws x, e, e2, f, f2, c, c2, r in that order, in one call,
    and builds u = (x | f | c | e), v = (x | f2 | c2 | e) sharing e with u,
    and w = (x | f | c2 | e2) sharing f with u, on slot vectors, and asks
    `_respects` of the right structure on (u, v), then of the left on (u, w);
    a double-linear function is checked as a map into the core line (`_into_line`).
    """
    s = _Sampler(random.Random(seed), shell)
    n_f, n_c, n_e = shell.ranks
    element = DVBElement._of_slots
    for _ in range(samples):
        x, e, e2, f, f2, c, c2, r = s.sample(n_e, n_e, n_f, n_f, n_c, n_c, 1)
        r = _scalar(r)
        u = element(shell, x, f, c, e)
        at_u = image(u)
        if not (
            _respects(image, _right_add, _right_scale, u, at_u, element(shell, x, f2, c2, e), r)
            and _respects(image, _left_add, _left_scale, u, at_u, element(shell, x, f, c2, e2), r)
        ):
            return False
    return True


def _into_line(shell: DecomposedDVB, value):
    """w -> (x | () | value(w) | ()) from `shell` into the core line over its
    chart, where `value` maps w's key to an unreduced ratio like `_pairing`'s."""
    line, none = DecomposedDVB(shell.chart, 0, 1, 0), _zero_slots(0)

    def image(w: DVBElement) -> DVBElement:
        num, den = value(w._key)
        return DVBElement._of_slots(line, w._key[1], none, _reduced((num,), den), none)

    return image


def _section_is_bundle_morphism(bundle: VectorBundle, image, samples: int, seed: int) -> bool:
    """Sampled test that e -> image(x, e) is a morphism for the left structure.

    `image` takes a fiber slot vector.  The images of two fiber points over
    one base point must share their left leg, and the image must turn fiber
    sums and scalings into left sums and scalings of the target shell.
    """
    s = _Sampler(random.Random(seed), bundle)
    for _ in range(samples):
        x, e1, e2, r = s.sample(bundle.rank, bundle.rank, 1)
        r = _scalar(r)
        v1, v2 = image(x, e1), image(x, e2)
        if v1._f != v2._f:
            return False
        if image(x, _vec_add(e1, e2)) != _left_add(v1, v2):
            return False
        if image(x, _vec_scale(r.numerator, r.denominator, e1)) != _left_scale(r, v1):
            return False
    return True


# ---------------------------------------------------------------------------
# Vector fields on the total space

@dataclass(frozen=True)
class GeneralVectorField:
    """Vector field on the total space: base and fiber components in (x, e)."""

    bundle: VectorBundle
    base: tuple[MultiPoly, ...]
    vert: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        vars = total_space_vars(self.bundle)
        _check_grid("base", self.base, (self.bundle.chart.dim,), vars)
        _check_grid("vert", self.vert, (self.bundle.rank,), vars)

    # one plan for both rows, over the total space (x, e)
    _plan = cached_property(
        lambda self: _EvalPlan(((self.base, self.vert),), len(self.base) + len(self.vert))
    )
    # the shell every image lives in, built once per field
    _shell = cached_property(lambda self: tangent_prolongation(self.bundle))

    def _tangent_image(self, x, e) -> DVBElement:  # e a slot vector
        (xdot, edot), den = self._plan.at(x, e)[0]
        return DVBElement._of_slots(self._shell, x, _reduced(xdot, den), _reduced(edot, den), e)

    def _momentum(self, key) -> tuple[int, int]:
        """The momentum function at a cotangent shell key, as `_pairing`'s ratio:
        the right pairing of the field's tangent image with the flipped key."""
        _, x, phi, p, e = key
        (xdot, edot), den = self._plan.at(x, e)[0]
        return _pairing(p, (xdot, den), phi, (edot, den))


@dataclass(frozen=True)
class LinearVectorField:
    """Degree-zero field: e-free base, fiber matrix acting linearly on e."""

    bundle: VectorBundle
    base: tuple[MultiPoly, ...]
    fiber: PolyMatrix

    def __post_init__(self) -> None:
        names, k = self.bundle.chart.names, self.bundle.rank
        _check_grid("base", self.base, (self.bundle.chart.dim,), names)
        _check_grid("fiber", self.fiber, (k, k), names)

    def as_general(self) -> GeneralVectorField:
        vars = total_space_vars(self.bundle)
        base = tuple(p.extend(vars) for p in self.base)
        vert = tuple(_fiber_linear(row, vars) for row in self.fiber.entries)
        return GeneralVectorField(self.bundle, base, vert)


def is_degree_zero(field: GeneralVectorField) -> bool:
    """Exact shape test: base e-free, vertical part homogeneous of e-degree 1."""
    n = field.bundle.chart.dim
    return _of_fiber_degree(field.base, n, 0) and _of_fiber_degree(field.vert, n, 1)


def vf_is_bundle_morphism(field: GeneralVectorField, samples: int = 40, seed: int = 0) -> bool:
    """Sampled test that the field is a bundle morphism into the tangent shell.

    The section e -> (x | base | vert | e) must project to a map on the base
    (base components independent of e) and be additive and homogeneous in e
    with respect to the left structure of the tangent shell.
    """
    return _section_is_bundle_morphism(field.bundle, field._tangent_image, samples, seed)


def vf_linearity_on_cotangent(field: GeneralVectorField, samples: int = 40, seed: int = 0) -> bool:
    """Sampled linearity of the momentum function under both shell structures."""
    cot = cotangent_prolongation(field.bundle)
    return _respects_both_structures(cot, _into_line(cot, field._momentum), samples, seed)


# ---------------------------------------------------------------------------
# One-forms on the total space

@dataclass(frozen=True)
class GeneralOneForm:
    """One-form on the total space: dx and de coefficients in (x, e)."""

    bundle: VectorBundle
    dx_coeffs: tuple[MultiPoly, ...]
    de_coeffs: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        vars = total_space_vars(self.bundle)
        _check_grid("dx", self.dx_coeffs, (self.bundle.chart.dim,), vars)
        _check_grid("de", self.de_coeffs, (self.bundle.rank,), vars)

    # one plan for both rows, over the total space (x, e)
    _plan = cached_property(
        lambda self: _EvalPlan(
            ((self.dx_coeffs, self.de_coeffs),), len(self.dx_coeffs + self.de_coeffs)
        )
    )

    # the shell every image lives in, built once per form
    _shell = cached_property(lambda self: cotangent_prolongation(self.bundle))

    def _cotangent_image(self, x, e) -> DVBElement:  # e a slot vector
        (p, phi), den = self._plan.at(x, e)[0]
        return DVBElement._of_slots(self._shell, x, _reduced(phi, den), _reduced(p, den), e)

    def _velocity(self, key) -> tuple[int, int]:
        """The velocity function at a tangent shell key, as `_pairing`'s ratio:
        the right pairing of the key with the flipped cotangent image."""
        _, x, xdot, edot, e = key
        (p, phi), den = self._plan.at(x, e)[0]
        return _pairing((p, den), xdot, (phi, den), edot)


@dataclass(frozen=True)
class LinearOneForm:
    """Fiberwise-linear one-form: theta_a de^a + theta_ia e^a dx^i."""

    bundle: VectorBundle
    theta_a: tuple[MultiPoly, ...]
    theta_ia: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        names = self.bundle.chart.names
        n, k = self.bundle.chart.dim, self.bundle.rank
        _check_grid("theta_a", self.theta_a, (k,), names)
        _check_grid("theta_ia", self.theta_ia, (n, k), names)

    def as_general(self) -> GeneralOneForm:
        vars = total_space_vars(self.bundle)
        dx = tuple(_fiber_linear(row, vars) for row in self.theta_ia)
        de = tuple(p.extend(vars) for p in self.theta_a)
        return GeneralOneForm(self.bundle, dx, de)


def is_linear_oneform(form: GeneralOneForm) -> bool:
    """Exact shape test: de coefficients e-free, dx coefficients e-degree 1."""
    n = form.bundle.chart.dim
    return (
        _of_fiber_degree(form.de_coeffs, n, 0)
        and _of_fiber_degree(form.dx_coeffs, n, 1)
    )


def oneform_is_bundle_morphism(form: GeneralOneForm, samples: int = 40, seed: int = 0) -> bool:
    """Sampled test that e -> form(x, e) is a morphism into the cotangent shell."""
    return _section_is_bundle_morphism(form.bundle, form._cotangent_image, samples, seed)


def oneform_linearity_on_tangent(form: GeneralOneForm, samples: int = 40, seed: int = 0) -> bool:
    """Sampled linearity of the velocity function under both shell structures."""
    tan = tangent_prolongation(form.bundle)
    return _respects_both_structures(tan, _into_line(tan, form._velocity), samples, seed)


# ---------------------------------------------------------------------------
# Bivectors

@dataclass(frozen=True)
class Bivector:
    """Bivector on the total space in blocks over (x, e) coordinates.

    l_ij is the base-base block, l_ia the mixed block, l_ab the fiber-fiber
    block; the two diagonal blocks must be antisymmetric as polynomials.
    """

    bundle: VectorBundle
    l_ij: PolyMatrix
    l_ia: PolyMatrix
    l_ab: PolyMatrix

    def __post_init__(self) -> None:
        vars = total_space_vars(self.bundle)
        n, k = self.bundle.chart.dim, self.bundle.rank
        _check_grid("l_ij", self.l_ij, (n, n), vars)
        _check_grid("l_ia", self.l_ia, (n, k), vars)
        _check_grid("l_ab", self.l_ab, (k, k), vars)
        # canonical polynomials are equal exactly when their stored forms are
        for block in (self.l_ij.entries, self.l_ab.entries):
            m = len(block)
            if any(block[i][j] != -block[j][i] for i in range(m) for j in range(i, m)):
                raise ValueError("diagonal blocks must be antisymmetric")

    def full_matrix(self) -> PolyMatrix:
        """The (n + rank)-square antisymmetric matrix of all blocks."""
        n, k = self.bundle.chart.dim, self.bundle.rank
        ij, ia, ab = self.l_ij.entries, self.l_ia.entries, self.l_ab.entries
        # the transposed mixed block by explicit indices: an empty mixed block
        # has no rows to transpose but still contributes k rows
        rows = [ij[i] + ia[i] for i in range(n)]
        rows += [tuple(-ia[i][a] for i in range(n)) + ab[a] for a in range(k)]
        return PolyMatrix(total_space_vars(self.bundle), tuple(rows))


def lambda_sharp(biv: Bivector):
    """Contraction map from the cotangent shell to the tangent shell.

    A covector (p, phi) at (x, e) goes to the tangent vector with
    xdot = l_ij p + l_ia phi and edot = -l_ia^T p + l_ab phi.
    """
    cot = cotangent_prolongation(biv.bundle)
    tan = tangent_prolongation(biv.bundle)
    plan = biv.full_matrix()._plan
    n = biv.bundle.chart.dim

    def apply(w: DVBElement) -> DVBElement:
        if w.bundle != cot:
            raise ValueError("argument must live on the cotangent shell")
        _, x, (phi, phi_den), (p, p_den), e = w._key
        # the covector (p, phi) over one denominator, times the matrix at (x, e)
        den = lcm(p_den, phi_den)
        covector = [a * (den // p_den) for a in p] + [a * (den // phi_den) for a in phi]
        out, d = _mat_vec(plan.at(x, e)[0], (covector, den))
        return DVBElement._of_slots(tan, x, _reduced(out[:n], d), _reduced(out[n:], d), e)

    return apply


def bivector_linear_shape(biv: Bivector) -> bool:
    """Exact shape of a fiberwise-linear bivector.

    The base-base block vanishes, the mixed block is e-free, and the
    fiber-fiber block is homogeneous of e-degree 1.
    """
    n = biv.bundle.chart.dim
    return (
        all(p.is_zero for row in biv.l_ij.entries for p in row)
        and _of_fiber_degree((p for row in biv.l_ia.entries for p in row), n, 0)
        and _of_fiber_degree((p for row in biv.l_ab.entries for p in row), n, 1)
    )


def is_linear_poisson(biv: Bivector, samples: int = 40, seed: int = 0) -> bool:
    """Sampled test that the contraction map respects both shell structures."""
    cot = cotangent_prolongation(biv.bundle)
    return _respects_both_structures(cot, lambda_sharp(biv), samples, seed)


def check_jacobi(biv: Bivector, points: Sequence[Sequence]) -> bool:
    """Schouten self-bracket evaluated at total space points; True iff zero.

    Each point lists all (x..., e...) coordinates.  The bracket components
    are cyclic sums of P^{su} d_s P^{vw} over the full block matrix P.
    """
    full = biv.full_matrix()
    vars = full.vars
    m = len(vars)
    # P above its partials d_s P, s = 1..m: at a point, integer rows over one
    # denominator, so each bracket component is an integer over its square
    stacked = PolyMatrix(vars, full.entries + tuple(
        tuple(p.partial(name) for p in row) for name in vars for row in full.entries
    ))
    for point in points:
        rows, _ = stacked.eval_ints(point)
        p_at, d_at = rows[:m], [rows[m * (s + 1) : m * (s + 2)] for s in range(m)]
        for u, v, w in combinations(range(m), 3):
            if sum(
                p_at[s][u] * d_at[s][v][w]
                + p_at[s][v] * d_at[s][w][u]
                + p_at[s][w] * d_at[s][u][v]
                for s in range(m)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# Linear two-forms

@dataclass(frozen=True)
class LinearTwoForm:
    """Fiberwise-linear 2-form: (omega_ija e^a) dx^i^dx^j / 2 + omega_ia dx^i^de^a.

    omega_ija is antisymmetric in (i, j) as an exact polynomial identity; all
    coefficients depend on the chart only.
    """

    bundle: VectorBundle
    omega_ija: tuple[tuple[tuple[MultiPoly, ...], ...], ...]
    omega_ia: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        names = self.bundle.chart.names
        n, k = self.bundle.chart.dim, self.bundle.rank
        _check_grid("omega_ija", self.omega_ija, (n, n, k), names)
        _check_grid("omega_ia", self.omega_ia, (n, k), names)
        w = self.omega_ija
        if any(w[i][j][a] != -w[j][i][a] for i in range(n) for j in range(i, n) for a in range(k)):
            raise ValueError("three-index grid must be antisymmetric in ij")

    def as_form(self) -> DifferentialForm:
        """The assembled 2-form over the total space variables."""
        vars = total_space_vars(self.bundle)
        n, k = self.bundle.chart.dim, self.bundle.rank
        comps = {}
        for i in range(n):
            for j in range(i + 1, n):
                comps[(i, j)] = _fiber_linear(self.omega_ija[i][j], vars)
        for i in range(n):
            for a in range(k):
                comps[(i, n + a)] = self.omega_ia[i][a].extend(vars)
        return make_form(vars, 2, comps)


def omega_flat(form: LinearTwoForm) -> DVBMorphism:
    """Insertion map from the tangent shell to the cotangent shell.

    Blocks read off the coefficients: the covector legs are
    phi_b = omega_ib xdot^i and p_j = omega_ija e^a xdot^i - omega_ja edot^a,
    and the fiber point passes through unchanged.
    """
    vb = form.bundle
    names = vb.chart.names
    n, k = vb.chart.dim, vb.rank
    phi_l = PolyMatrix(
        names,
        tuple(tuple(form.omega_ia[i][b] for i in range(n)) for b in range(k)),
    )
    phi_c = PolyMatrix(
        names,
        tuple(tuple(-form.omega_ia[j][a] for a in range(k)) for j in range(n)),
    )
    psi = tuple(
        tuple(tuple(form.omega_ija[i][j][a] for i in range(n)) for a in range(k))
        for j in range(n)
    )
    return DVBMorphism(
        tangent_prolongation(vb),
        cotangent_prolongation(vb),
        phi_l,
        phi_c,
        PolyMatrix.identity(names, k),
        psi,
    )


def is_closed(form: LinearTwoForm) -> bool:
    """Exact closedness identity on the coefficients."""
    n, k = form.bundle.chart.dim, form.bundle.rank
    ia, names = form.omega_ia, form.bundle.chart.names
    return all(
        form.omega_ija[i][j][a] == ia[i][a].partial(names[j]) - ia[j][a].partial(names[i])
        for i in range(n)
        for j in range(n)
        for a in range(k)
    )


def closedness_via_exterior(form: LinearTwoForm) -> bool:
    """Closedness decided by the formal exterior derivative of the full form."""
    return form.as_form().d().is_zero


@lru_cache(maxsize=None)
def _canonical_two_form(names: tuple[str, ...]) -> DifferentialForm:
    """d theta for the tautological 1-form theta = sum p_i dx^i.

    Variables run (x..., p...), with p1..pn the momenta of the chart names.
    """
    pvars = tuple(names) + tuple(f"p{i + 1}" for i in range(len(names)))
    theta = make_form(
        pvars, 1, {(i,): MultiPoly.var(pvars, f"p{i + 1}") for i in range(len(names))}
    )
    return theta.d()


def omega_c_pullback(form: LinearTwoForm) -> LinearTwoForm:
    """Pull the canonical base symplectic form back through the core leg.

    The core leg sends (x, e) to the base covector p_i = -omega_ia e^a; the
    pullback of sum dp_i^dx^i regroups into a linear 2-form, which equals
    the input exactly when the input is closed.
    """
    vb = form.bundle
    names = vb.chart.names
    n, k = vb.chart.dim, vb.rank
    omega_base = _canonical_two_form(names)

    source = total_space_vars(vb)
    images = [MultiPoly.var(source, name) for name in names]
    images += [-_fiber_linear(row, source) for row in form.omega_ia]
    pulled = omega_base.pullback(source, tuple(images))

    new_ija = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for a in range(k):
                # the dx^i^dx^j coefficient is e-linear; read off the e^a part
                coeff = pulled.coeff((i, j)).partial(source[n + a])
                row.append(_restrict_to_chart(coeff, names, n))
            plane.append(tuple(row))
        new_ija.append(tuple(plane))
    new_ia = tuple(
        tuple(
            _restrict_to_chart(pulled.coeff((i, n + a)), names, n) for a in range(k)
        )
        for i in range(n)
    )
    return LinearTwoForm(vb, tuple(new_ija), new_ia)


def _restrict_to_chart(poly: MultiPoly, names: tuple[str, ...], n: int) -> MultiPoly:
    if _fiber_degrees(poly, n) - {0}:
        raise ValueError("polynomial still depends on fiber variables")
    return MultiPoly(names, _Pairs({exps[:n]: pair for exps, pair in poly._pairs.items()}))


# ---------------------------------------------------------------------------
# Vertical lifts and linear sections

@dataclass(frozen=True)
class CoreSection:
    """A section of the core bundle, one polynomial per core coordinate."""

    chart: Chart
    gamma: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        _check_grid("gamma", self.gamma, (len(self.gamma),), self.chart.names)

    _plan = cached_property(lambda self: _EvalPlan(((self.gamma,),), self.chart.dim))

    def _slots_at(self, x: Point):
        ((values,), den), = self._plan.at(x)
        return _reduced(values, den)

    def value(self, x) -> tuple[Fraction, ...]:
        return _fractions(self._slots_at(self.chart.point(x)))


def vertical_lift(bundle: DecomposedDVB, side: str, section: CoreSection, x, outer) -> DVBElement:
    """Kernel-valued section through a core section.

    The right lift fills (x | 0 | gamma(x) | e), the left lift fills
    (x | f | gamma(x) | 0); both land in the kernel of the opposite
    projection.
    """
    if section.chart != bundle.chart:
        raise ValueError("section chart differs from the bundle chart")
    if len(section.gamma) != bundle.n_C:
        raise ValueError("section length must match the core rank")
    point = bundle.chart.point(x)
    core = section._slots_at(point)
    if _is_right(side):
        outer = _slots_of(_slot(outer, bundle.n_E, "E"))
        return DVBElement._of_slots(bundle, point, _zero_slots(bundle.n_F), core, outer)
    outer = _slots_of(_slot(outer, bundle.n_F, "F"))
    return DVBElement._of_slots(bundle, point, outer, core, _zero_slots(bundle.n_E))


@dataclass(frozen=True)
class LinearSection:
    """Linear section of one side projection of a decomposed bundle.

    A left section maps a side point f to (x | f | fiber(x) f | base(x));
    a right section maps e to (x | base(x) | fiber(x) e | e).  The base
    gives the projection onto the opposite side, the fiber matrix feeds
    the core.
    """

    bundle: DecomposedDVB
    side: str
    base: tuple[MultiPoly, ...]
    fiber: PolyMatrix

    def __post_init__(self) -> None:
        names, b = self.bundle.chart.names, self.bundle
        base_rank, in_rank = (b.n_F, b.n_E) if _is_right(self.side) else (b.n_E, b.n_F)
        _check_grid("base", self.base, (base_rank,), names)
        _check_grid("fiber", self.fiber, (b.n_C, in_rank), names)

    _plan = cached_property(
        lambda self: _EvalPlan(((self.base,), self.fiber.entries), self.bundle.chart.dim)
    )

    def at(self, x, value) -> DVBElement:
        b, left = self.bundle, self.side == "left"
        point = b.chart.point(x)
        vec = _slots_of(_slot(value, *((b.n_F, "F") if left else (b.n_E, "E"))))
        ((opposite,), den), fiber = self._plan.at(point)
        core, opposite = _reduced(*_mat_vec(fiber, vec)), _reduced(opposite, den)
        if left:
            return DVBElement._of_slots(b, point, vec, core, opposite)
        return DVBElement._of_slots(b, point, opposite, core, vec)


def dual_linear_section(section: LinearSection) -> LinearSection:
    """The unique right section of the dual annihilating a left section.

    The base projection is kept and the fiber matrix is the negated
    transpose; the pairing of the two sections vanishes identically.
    """
    if section.side != "left":
        raise ValueError("dualization starts from a left section")
    b, fiber = section.bundle, section.fiber.entries
    # transposed by explicit indices, so that a fiber matrix with no rows
    # still gives n_F empty rows
    minus_t = PolyMatrix.build(b.chart.names, b.n_F, b.n_C, lambda i, j: -fiber[j][i])
    return LinearSection(right_dual(b), "right", section.base, minus_t)


def linear_vf_as_section(field: LinearVectorField) -> LinearSection:
    """A degree-zero field as a left section of the flipped tangent shell."""
    shell = tangent_prolongation(field.bundle).flip()
    return LinearSection(shell, "left", field.base, field.fiber)


def complete_tangent_lift(chart: Chart, base: Sequence[MultiPoly]) -> LinearVectorField:
    """Complete lift of a base vector field to its tangent bundle.

    The fiber matrix is the Jacobian of the base components.
    """
    names = chart.names
    base = tuple(base)
    if len(base) != chart.dim:
        raise ValueError("need one component per chart coordinate")
    jac = PolyMatrix(
        names,
        tuple(tuple(p.partial(name) for name in names) for p in base),
    )
    return LinearVectorField(VectorBundle(chart, chart.dim, "TM"), base, jac)


def complete_cotangent_lift(chart: Chart, base: Sequence[MultiPoly]) -> LinearVectorField:
    """Complete lift of a base vector field to its cotangent bundle.

    Same base flow; the fiber matrix is the negated transposed Jacobian.
    """
    lifted = complete_tangent_lift(chart, base)
    return LinearVectorField(
        VectorBundle(chart, chart.dim, "T*M"),
        lifted.base,
        -lifted.fiber.transpose(),
    )


# ---------------------------------------------------------------------------
# Linear connections

@dataclass(frozen=True)
class LinearConnection:
    """Christoffel data Gamma[a][i][b] over the chart: upper, base, lower."""

    bundle: VectorBundle
    gamma: tuple[tuple[tuple[MultiPoly, ...], ...], ...]

    def __post_init__(self) -> None:
        n, k = self.bundle.chart.dim, self.bundle.rank
        _check_grid("gamma", self.gamma, (k, n, k), self.bundle.chart.names)

    _plan = cached_property(lambda self: _EvalPlan(self.gamma, self.bundle.chart.dim))


def connection_splitting(conn: LinearConnection) -> DVBMorphism:
    """Splitting morphism on the tangent shell with identity induced maps.

    Sends (x | xdot | edot | e) to (x | xdot | edot + Gamma(xdot, e) | e):
    the shell's identity with the Christoffel data as its bilinear block.
    """
    vb = conn.bundle
    psi = tuple(
        tuple(
            tuple(conn.gamma[a][i][b] for i in range(vb.chart.dim))
            for b in range(vb.rank)
        )
        for a in range(vb.rank)
    )
    return replace(identity_morphism(tangent_prolongation(vb)), psi=psi)


def dual_connection(conn: LinearConnection) -> LinearConnection:
    """Connection induced on the dual bundle through the duality machinery.

    The splitting is flipped, dualized along the right structure, and
    inverted; the resulting bilinear block is read back as Christoffel data.
    The outcome is the negated transpose in the two fiber indices, which is
    exactly what the derivative of the fiber pairing demands.
    """
    split = connection_splitting(conn)
    dual_split = invert_morphism_poly(right_dual_morphism_poly(split.flip()))
    vb = conn.bundle
    gamma_star = tuple(
        tuple(
            tuple(dual_split.psi[big_a][g][i] for g in range(vb.rank))
            for i in range(vb.chart.dim)
        )
        for big_a in range(vb.rank)
    )
    return LinearConnection(
        VectorBundle(vb.chart, vb.rank, dual_label(vb.label)), gamma_star
    )


# ---------------------------------------------------------------------------
# Metric connections

@dataclass(frozen=True)
class Metric:
    """Symmetric fiber metric as a polynomial matrix over the chart.

    A metric is nondegenerate: g is refused when its determinant vanishes
    at every point of `ring._WITNESSES` (`ring._identically_singular`)."""

    bundle: VectorBundle
    g: PolyMatrix

    def __post_init__(self) -> None:
        k = self.bundle.rank
        _check_grid("g", self.g, (k, k), self.bundle.chart.names)
        # canonical polynomials are equal exactly when their stored forms are
        g = self.g.entries
        if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i)):
            raise ValueError("metric must be symmetric")
        if _identically_singular(self.g):
            raise ValueError(f"determinant vanishes at all {len(_WITNESSES)} witness points")


def metric_pair_morphism(metric: Metric) -> DVBMorphism:
    """Shell morphism applying the metric on core and side, identity on base."""
    vb = metric.bundle
    names = vb.chart.names
    return DVBMorphism(
        tangent_prolongation(vb),
        tangent_prolongation(VectorBundle(vb.chart, vb.rank, dual_label(vb.label))),
        PolyMatrix.identity(names, vb.chart.dim),
        metric.g,
        metric.g,
        psi_zero(names, vb.rank, vb.rank, vb.chart.dim),
    )


def tangent_metric_morphism(metric: Metric) -> DVBMorphism:
    """Tangent of the metric map: `metric_pair_morphism` with the derivative
    of g as its bilinear block, Psi[a][b][i] = d_i g_ab."""
    vb = metric.bundle
    names = vb.chart.names
    psi = tuple(
        tuple(
            tuple(metric.g.entries[a][b].partial(names[i]) for i in range(vb.chart.dim))
            for b in range(vb.rank)
        )
        for a in range(vb.rank)
    )
    return replace(metric_pair_morphism(metric), psi=psi)


def is_metric_connection(
    conn: LinearConnection, metric: Metric, samples: int = 8, seed: int = 0
) -> bool:
    """Sampled commutation of the splitting with the metric shell maps.

    Compares (pairing map after splitting) with (dual splitting after
    tangent metric map) on sampled tangent shell elements.  Both composites
    are polynomial and neither inverts g, so every sampled point counts.
    """
    if conn.bundle != metric.bundle:
        raise ValueError("connection and metric live on different bundles")
    lhs = compose_morphisms(metric_pair_morphism(metric), connection_splitting(conn))
    rhs = compose_morphisms(
        connection_splitting(dual_connection(conn)), tangent_metric_morphism(metric)
    )
    s = _Sampler(random.Random(seed), tangent_prolongation(conn.bundle))
    for _ in range(samples):
        v = s.element()
        if lhs.apply(v) != rhs.apply(v):
            return False
    return True


def metric_identity(conn: LinearConnection, metric: Metric) -> bool:
    """Exact polynomial form of metric compatibility.

    d_i g_ab = Gamma^c_ia g_cb + Gamma^c_ib g_ac for all indices.
    """
    return _metric_defect(conn, metric) is None


def _metric_defect(conn: LinearConnection, metric: Metric):
    """First (i, a, b, d_i g_ab, covariant combination) where the identity fails.

    Indices run in the order i, a, b; None when the identity holds.
    """
    if conn.bundle != metric.bundle:
        raise ValueError("connection and metric live on different bundles")
    names = conn.bundle.chart.names
    n, k = conn.bundle.chart.dim, conn.bundle.rank
    g = metric.g.entries
    for i in range(n):
        for a in range(k):
            for b in range(k):
                want = MultiPoly.zero(names)
                for c in range(k):
                    want = want + conn.gamma[c][i][a] * g[c][b]
                    want = want + conn.gamma[c][i][b] * g[a][c]
                got = g[a][b].partial(names[i])
                if got != want:
                    return i, a, b, got, want
    return None


# ---------------------------------------------------------------------------
# Symmetry of connections on the tangent bundle

def _first_asymmetry(conn: LinearConnection):
    """First (a, i, b) with Gamma^a_ib != Gamma^a_bi, or None.

    Indices run in the order a, i, b; i and b range over the chart.
    """
    n = conn.bundle.chart.dim
    for a in range(conn.bundle.rank):
        for i in range(n):
            for b in range(n):
                if conn.gamma[a][i][b] != conn.gamma[a][b][i]:
                    return a, i, b
    return None


def kappa_triple(bundle: DecomposedDVB) -> DVBMorphism:
    """Side-exchange morphism onto the flipped bundle; needs equal side ranks.

    Identity on all stored slots: the image of (x | f | c | e) is the point
    of the flipped bundle with the same tuples, which exchanges the roles of
    the two side legs.
    """
    if bundle.n_F != bundle.n_E:
        raise ValueError("side exchange needs equal side ranks")
    return _signed_identity(bundle, bundle.flip())


def kappa_M(chart: Chart) -> DVBMorphism:
    """Side exchange on the double tangent shell of a chart."""
    return kappa_triple(tangent_prolongation(VectorBundle(chart, chart.dim, "TM")))


def alpha_M(chart: Chart):
    """Right dual of the double tangent side exchange.

    Runs from the tangent-of-cotangent shell to the cotangent-of-tangent
    shell; with identity exchange blocks the dual blocks are identities too,
    so the action only rewires which slot means what.
    """
    return right_dual_morphism(kappa_M(chart))


def is_symmetric_connection(conn: LinearConnection, samples: int = 20, seed: int = 0) -> bool:
    """Symmetry of a tangent bundle connection, by the side-exchange diagram.

    Samples the side exchange conjugation of the splitting, always including
    the side basis pairs so any asymmetric Christoffel entry is certain to
    register.  The coordinate test, Gamma^a_ib against Gamma^a_bi exactly,
    is `_first_asymmetry`; the suites compare the two verdicts.
    """
    vb = conn.bundle
    n = vb.chart.dim
    if vb.rank != n:
        raise ValueError("symmetry needs the bundle ranks to match the chart")
    split = connection_splitting(conn)
    shell = split.source
    exchange = kappa_triple(shell)
    lhs = compose_morphisms(exchange, split)
    rhs = compose_morphisms(split.flip(), exchange)
    s = _Sampler(random.Random(seed), shell)

    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    elements = []
    for _ in range(2):
        x = s.point()
        elements += [shell.element(x, f, (0,) * n, e) for f in units for e in units]
    for _ in range(samples):
        elements.append(s.element())
    return all(lhs.apply(v) == rhs.apply(v) for v in elements)


# ---------------------------------------------------------------------------
# Lagrangian criterion for the dual horizontal distribution

@lru_cache(maxsize=None)
def lifted_symplectic_form(names: tuple[str, ...]) -> DifferentialForm:
    """Tangent lift of the canonical 2-form of the cotangent space over a chart.

    Variables run (x..., p..., x..._dot, p..._dot).  Built from the formal
    lift of the tautological 1-form, never written out by hand.
    """
    return _canonical_two_form(names).tangent_lift()


def horizontal_lagrangian_check(
    conn: LinearConnection, samples: int = 5, seed: int = 0
) -> bool:
    """Isotropy of the dual connection's horizontal spaces at sampled covectors.

    At each (x, p) the horizontal space of the dual connection is spanned by
    one vector per base direction with the covariant part forced to zero.
    The lifted canonical 2-form is evaluated on every pair through the mixed
    insertion channel; all values vanish exactly when the connection is
    symmetric.
    """
    vb = conn.bundle
    n = vb.chart.dim
    if vb.rank != n:
        raise ValueError("the check needs the bundle ranks to match the chart")
    omega = lifted_symplectic_form(vb.chart.names)
    s = _Sampler(random.Random(seed), vb)
    zeros = (Fraction(0),) * n
    for _ in range(samples):
        x = s.point()
        p = s.positives(n)
        spot = x + tuple(p) + zeros + zeros
        # the planes Gamma[b] at x, as integer rows over one denominator
        gamma = conn._plan.at(x)
        # (xdot, pdot) of each base direction i
        basis = [
            tuple(Fraction(int(t == i)) for t in range(n)) + tuple(
                Fraction(sum(rows[i][a] * q for (rows, _), q in zip(gamma, p)), gamma[0][1])
                for a in range(n)
            )
            for i in range(n)
        ]
        for i, j in combinations(range(n), 2):
            if omega.evaluate(spot, (basis[i] + zeros + zeros, zeros + zeros + basis[j])) != 0:
                return False
    return True
