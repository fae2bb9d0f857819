"""Duals of decomposed double bundles and the canonical pairings.

Dualizing along the right structure permutes the three fiber slots: the dual
of a bundle with sides (F, E) and core C has sides (E, C*) and core F*.  An
element of the dual is stored as (x | e | p | q) with p a covector on F and
q a covector on C; the evaluation against (x | f | c | e) is p.f + q.c and
both bundles must sit over the same E point.  The left dual is never written
by hand: it is flip, then right dual, then flip, and the left pairing is the
right pairing of the two flipped elements.

Applying the right dual three times returns the original bundle object, but
the identification hides a sign: the canonical map to the third dual negates
the core slot.  Three companion maps with other sign patterns satisfy the
same kind of evaluation relation; all four are involutive block morphisms.
A map that scales the slots (f, c, e) by (s_F, s_C, s_E) satisfies the
relation <a, alpha> = s1 <v, a> + s2 <alpha, phi> exactly when s1 = s_F,
s2 = s_E and s_C = -s_F s_E, as expanding the three pairings shows, so one
table of (s_F, s_E) fixes each variant.
Transporting a dualized morphism back through the canonical maps recovers
its inverse, while transporting through the plain slot identification does
not once the bilinear block is nonzero.

Dual morphisms divide by the right block R, so they are pointwise objects; a
polynomial route exists when that block is unimodular.  At a point the dual
of phi holds phi's own integer blocks there and applies itself by solving
R y = e for the one E point of the element, with one fraction-free
elimination and a single right-hand side (solving rather than inverting:
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 14.1).
Its own blocks, with R inverted whole, are built only when they are read,
by equality, composition, inversion or the `Fraction` views.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from operator import mul

from .core import (
    BaseMismatchError,
    DecomposedDVB,
    DVBElement,
    DVBMorphism,
    FiberMorphism,
    PointwiseMorphism,
    _int_mul,
    _lowest,
    _pairing,
    _poly_mul,
    _reduced,
    _right_dual_blocks,
    _Sampler,
    _signed_identity,
    _vec_scale,
)
from .ring import Point, _adjugate, _bareiss, _unimodular_inverse, transpose


class ProjectionMismatchError(ValueError):
    """Paired elements do not project to the same side point."""


def dual_label(label: str) -> str:
    """Starred label with double stars collapsed, so dualizing is involutive."""
    return label[:-1] if label.endswith("*") else label + "*"


# The pairings and dual morphisms ask for the right dual of the same few
# bundles on every call; it is made once per bundle object and kept in the
# bundle's own slot, so every caller meets that one object.
def right_dual(b: DecomposedDVB) -> DecomposedDVB:
    """Dual along the right structure: sides (E, C*), core F*."""
    if b._right_dual is None:
        labels = b.labels
        dual = DecomposedDVB(
            b.chart, b.n_E, b.n_F, b.n_C, (labels[2], dual_label(labels[0]), dual_label(labels[1]))
        )
        object.__setattr__(b, "_right_dual", dual)
    return b._right_dual


def left_dual(b: DecomposedDVB) -> DecomposedDVB:
    """Dual along the left structure, computed as flip . right_dual . flip."""
    return right_dual(b.flip()).flip()


def triple_right_dual(b: DecomposedDVB) -> DecomposedDVB:
    """Right dual applied three times; equal to b itself in this model."""
    return right_dual(right_dual(right_dual(b)))


def _pair(v: DVBElement, a: DVBElement) -> tuple[int, int]:
    """p.f + q.c for v = (x | f | c | e) and a = (x | e | p | q) in the right
    dual, over v's E point.  The value is the unreduced integer ratio of
    `core._pairing`."""
    b, x, f, c, e = v._key
    ab, ax, af, p, ae = a._key
    dual = right_dual(b)
    if ab is not dual and ab != dual:
        raise BaseMismatchError("second argument does not live in the dual bundle")
    if x != ax:
        raise BaseMismatchError(f"base points differ: {x} vs {ax}")
    if e != af:
        raise ProjectionMismatchError("elements project to different points")
    return _pairing(p, f, ae, c)


def _same(p: tuple[int, int], *terms: tuple[int, int]) -> bool:
    """Whether the integer ratio p = (num, den) is the sum of the ratios `terms`."""
    num, den = 0, 1
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return p[0] * den == num * p[1]


def pair_r(v: DVBElement, a: DVBElement) -> Fraction:
    """Evaluate a right-dual element on v over a shared right projection.

    With v = (x | f | c | e) and a = (x | e | p | q) the value is p.f + q.c,
    computed on the slot vectors.
    """
    return Fraction(*_pair(v, a))


def pair_l(v: DVBElement, b: DVBElement) -> Fraction:
    """Evaluate a left-dual element on v over a shared left projection.

    With v = (x | f | c | e) and b = (x | q | p | f) the value is p.e + q.c:
    the left dual is flip, right dual, flip, so this is the right pairing of
    the flipped pair.
    """
    return Fraction(*_pair(v.flip(), b.flip()))


# ---------------------------------------------------------------------------
# Dual morphisms

def _dual_blocks(blocks, source, target):
    """The integer blocks of the right dual at a point, from the integer
    `blocks` there of a morphism source -> target: R is inverted whole, in
    one elimination of [R | den I]."""
    return _right_dual_blocks(blocks, _adjugate(blocks[2]), source, target, _int_mul)


def fiber_right_dual(fm: FiberMorphism) -> FiberMorphism:
    """Right dual of one fiber of an isomorphism; reverses the direction.

    The new left block is the inverse of the old right block, and the new
    core and right blocks are the transposes of the old left and core blocks.
    """
    blocks = _dual_blocks(fm._int_blocks, fm.source, fm.target)
    return FiberMorphism._of_blocks(right_dual(fm.target), right_dual(fm.source), fm.x, blocks)


class _DualFiber(FiberMorphism):
    """The right dual of a morphism phi at one point, which holds phi's
    integer blocks there (`_of`: the blocks, phi's source and target).

    `apply` solves against R once.  The blocks, which equality, `after`,
    `inverse` and the views read, are `fiber_right_dual`'s, built on first
    read, so the object equals `fiber_right_dual(phi.at(x))`.  Both routes
    raise SingularMatrixError where R is singular.
    """

    @staticmethod
    def _of_phi(source, target, x, of) -> _DualFiber:
        fm = object.__new__(_DualFiber)
        vars(fm).update(source=source, target=target, x=x, _of=of)
        return fm

    @cached_property
    def _int_blocks(self):
        return tuple(map(_lowest, _dual_blocks(*self._of)))

    def apply(self, a: DVBElement) -> DVBElement:
        """(e | p | q) -> (y | L^T p + sum_g q_g Psi[g]^T y | C^T q) with
        y = R^-1 e, from one elimination of [R | den e], where R is phi's
        right block, rows over den, and Psi[g] the E x F plane of core row g."""
        b, x, (en, ed), (pn, pd), (qn, qd) = a._key
        if b is not self.source and b != self.source:
            raise BaseMismatchError("element bundle differs from morphism source")
        if x != self.x:
            raise BaseMismatchError("element base point differs from block point")
        (l, c, (rn, r_den), psi), source, _ = self._of
        # a plan's blocks share one denominator: L, C and Psi are put in
        # lowest terms first, while the elimination reduces each row of R
        (ln, l_den), (cn, c_den), (psi, psi_den) = map(_lowest, (l, c, psi))
        d, _, _, (y,) = _bareiss(rn, ([r_den * v for v in en],))
        # R (y / d) = e numerators, so R^-1 e = y / (d ed)
        if d < 0:
            d, y = -d, [-v for v in y]
        y_den, n_f = d * ed, source.n_F
        q_psi = [sum(map(mul, qn, column)) for column in transpose(psi, source.n_E * n_f)]
        left, right = qd * psi_den * y_den, l_den * pd
        core = [
            sum(map(mul, column, pn)) * left + sum(map(mul, q_psi[big_a::n_f], y)) * right
            for big_a, column in enumerate(transpose(ln, n_f))
        ]
        return DVBElement._of_slots(
            self.target,
            x,
            _reduced(y, y_den),
            _reduced(core, left * l_den * pd),
            _reduced([sum(map(mul, column, qn)) for column in transpose(cn, source.n_C)], c_den * qd),
        )


def _blocks_at(phi, x: Point):
    """phi's integer blocks at x: a block morphism's from its plan, which
    keeps the last point it evaluated (phi.apply's, in the adjoint checks),
    and another morphism's from phi.at(x)."""
    if isinstance(phi, DVBMorphism):
        return phi._plan.at(phi.source.chart.point(x))
    return phi.at(x)._int_blocks


def right_dual_morphism(phi) -> PointwiseMorphism:
    """Right dual of an isomorphism as a pointwise morphism.

    Accepts a block morphism or another pointwise morphism.  The adjoint
    contract pins the convention: pairing phi(v) against a equals pairing v
    against the dual image of a, whenever the projections match.  At x it
    gives a `_DualFiber`, which holds phi's blocks there.
    """
    source, target = right_dual(phi.target), right_dual(phi.source)
    return PointwiseMorphism(
        source,
        target,
        lambda x: _DualFiber._of_phi(source, target, x, (_blocks_at(phi, x), phi.source, phi.target)),
    )


def right_dual_morphism_poly(phi: DVBMorphism) -> DVBMorphism:
    """Polynomial right dual, available when the right block is unimodular."""
    blocks = phi._blocks()
    rinv = _unimodular_inverse(blocks[2][0], phi.source.chart.dim)
    if rinv is None:
        raise ValueError("right block is not unimodular; use right_dual_morphism")
    blocks = _right_dual_blocks(blocks, (rinv, 1), phi.source, phi.target, _poly_mul)
    return DVBMorphism._from_blocks(right_dual(phi.target), right_dual(phi.source), blocks)


# ---------------------------------------------------------------------------
# Canonical maps onto the third dual

# The relation signs (s_F, s_E) of each variant; see verify_R_relation.
_VARIANT_SIGNS = {"R": (1, 1), "R+-": (1, -1), "R-+": (-1, 1), "R=": (-1, -1)}
R_VARIANTS = tuple(_VARIANT_SIGNS)


def _relation_signs(variant: str) -> tuple[int, int]:
    if variant not in _VARIANT_SIGNS:
        raise ValueError(f"unknown canonical map variant {variant!r}")
    return _VARIANT_SIGNS[variant]


def _slot_signs(variant: str) -> tuple[int, int, int]:
    """The signs (s_F, s_C, s_E) by which the map scales the slots (f, c, e)."""
    s_f, s_e = _relation_signs(variant)
    return s_f, -s_f * s_e, s_e


def canonical_R(variant: str, v: DVBElement) -> DVBElement:
    """Image of v under a canonical map onto the third right dual.

    The base map negates the core slot; the +- and -+ companions negate the
    E or F slot instead, and the = companion negates all three.
    """
    signs = _slot_signs(variant)
    b, x, *slots = v._key
    return DVBElement._of_slots(
        triple_right_dual(b), x, *(_vec_scale(s, 1, slot) for s, slot in zip(signs, slots))
    )


def canonical_R_morphism(b: DecomposedDVB, variant: str = "R") -> DVBMorphism:
    """The canonical map as a block morphism with signed identity blocks."""
    return _signed_identity(b, triple_right_dual(b), _slot_signs(variant))


def verify_R_relation(
    v: DVBElement,
    phi: DVBElement,
    samples: int = 60,
    seed: int = 0,
    variant: str = "R",
) -> bool:
    """Check the evaluation relation that characterizes the canonical maps.

    The candidate phi lives in the third right dual of v's bundle.  For each
    compatible pair (a, alpha), with a in the first dual over the E point of
    v and alpha in the second dual over the C* point of a and the F point of
    phi, the relation reads

        <a, alpha> = s1 <v, a> + s2 <alpha, phi>

    with (s1, s2) = (s_F, s_E), the F and E slot signs of the variant.  The
    free slots are the F* and C* covectors of a and the E* covector of alpha,
    drawn at random.
    """
    s = _Sampler(random.Random(seed), v.bundle)
    return _relation_holds(v, phi, variant, (s.draw(*v.bundle.ranks) for _ in range(samples)))


def _relation_holds(v: DVBElement, phi: DVBElement, variant: str, pool) -> bool:
    """Whether the relation of `verify_R_relation` holds at every (p, q, eps)
    triple of F*, C* and E* slots in `pool`, an iterable read one triple at
    a time after the checks of v and phi."""
    s1, s2 = _relation_signs(variant)
    bundle = v.bundle
    if phi.bundle != triple_right_dual(bundle):
        raise ProjectionMismatchError("candidate lives in the wrong bundle")
    if phi.x != v.x:
        raise ProjectionMismatchError("candidate sits over a different base point")
    d1 = right_dual(bundle)
    d2 = right_dual(d1)
    _, x, _, _, e = v._key
    phi_f = phi._f
    for p, q, eps in pool:
        a = DVBElement._of_slots(d1, x, e, p, q)
        alpha = DVBElement._of_slots(d2, x, q, eps, phi_f)
        (vn, vd), (pn, pd) = _pair(v, a), _pair(alpha, phi)
        if not _same(_pair(a, alpha), (s1 * vn, vd), (s2 * pn, pd)):
            return False
    return True


def _triple_fiber_dual(fm: FiberMorphism) -> FiberMorphism:
    return fiber_right_dual(fiber_right_dual(fiber_right_dual(fm)))


def third_dual_transport(phi) -> PointwiseMorphism:
    """Triple dual of an isomorphism conjugated by the canonical maps.

    The composite runs from the target back to the source and reproduces the
    pointwise inverse of phi, sign bookkeeping included.
    """
    r_source = canonical_R_morphism(phi.source)
    r_target = canonical_R_morphism(phi.target)

    def blocks(x: Point) -> FiberMorphism:
        lifted = _triple_fiber_dual(phi.at(x)).after(r_target.at(x))
        return r_source.at(x).inverse().after(lifted)

    return PointwiseMorphism(phi.target, phi.source, blocks)


def naive_third_dual_transport(phi) -> PointwiseMorphism:
    """Triple dual read back through the plain slot identification.

    Skipping the canonical maps drops their core sign, so the result agrees
    with the inverse of phi only while the bilinear block vanishes.
    """
    return PointwiseMorphism(
        phi.target, phi.source, lambda x: _triple_fiber_dual(phi.at(x))
    )
