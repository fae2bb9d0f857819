"""Decomposed double vector bundles over a rational polynomial chart.

A decomposed double bundle is a fibered product of three vector bundles over
one chart: a left side fiber F, a core C, and a right side fiber E.  An
element is stored as (x | f | c | e) with every slot a tuple of exact
rationals.  The two vector bundle structures share the core:

    right structure, over the E side:   (f, c, e) + (f', c', e)  = (f+f', c+c', e)
    left  structure, over the F side:   (f, c, e) + (f, c', e')  = (f, c+c', e+e')

Scalar action follows the same split: the right action scales (f, c) and
fixes e, the left action scales (c, e) and fixes f.  The flip exchanges the
two structures by swapping the outer slots.

An element holds its slots in the integer slot kernel, the layout of FLINT's
`fmpq_mat`: each slot is a tuple of integer numerators over one positive
denominator, in lowest terms, so equal slots are equal tuples.  `DVBElement`
keeps its bundle, its base point (a tuple of `Fraction`s) and the three slot
vectors; its `f`, `c` and `e` are `Fraction` views, made on first read.  The
right and left additions, the scalings, kernel splitting, the core difference,
the flip and the application of a morphism (`_apply_blocks`) are each written
once, on the slot vectors, with their bundle, base point, side and
shared-slot checks; the public `fiber_add`, `fiber_scale`, `kernel_split`,
`core_difference` and the `apply` of `DVBMorphism` and `FiberMorphism` call
them, and the sampled structure laws of the `axioms` suite call the private
routines directly.  `_apply_blocks` reads a morphism's blocks as integer
matrices over one denominator per block.

Every sampled check, in the suites, `geomech` and `duality`, draws through
one `_Sampler` (an rng, a bundle and a coordinate bound), each of whose
draws is one call of `ring._draw_sample`, the library's one pair loop: a
chart point and then slot vectors in lowest terms, without a `Fraction` per
slot entry or a vector gcd.

Morphisms between decomposed bundles over the same chart are block maps over
the identity of the base,

    (f, c, e)  |->  (L(x) f,  C(x) c + Psi(x)(f, e),  R(x) e),

with polynomial matrix blocks and a bilinear polynomial block Psi indexed as
Psi[core-out][e-in][f-in].  All four blocks, Psi included, are evaluated
through one cached `ring._EvalPlan`: `DVBMorphism.apply` reads its integer
matrices at the element's base point, and `DVBMorphism.at` keeps them, in
lowest terms, as the blocks of a `FiberMorphism`, whose `Fraction` views
are made only when read.

Composition, inverse, right dual and flip are written once, as a block
algebra that takes its matrix product: `ring.mat_mul` on the `_Pairs` that
a DVBMorphism's entries hold (`_blocks` reads them, and `_from_blocks`
makes each result `_Pairs` an entry as it is, so nothing is converted
either way), an integer product on a FiberMorphism's integer rows.  The
Psi contraction over the core index is one product with the Psi planes
flattened to rows.  Inverses and duals divide by block determinants: at a
point `ring._adjugate` inverts a block as stored, in one elimination on its
primitive rows, and over the chart `unimodular_inverse` inverts unimodular
blocks.  A dual morphism's `apply` (`duality`) solves against its block
instead.  Only morphisms with equal source and target ranks can be
inverted.  One builder, `_signed_identity`, makes every morphism whose blocks are
signed identities and whose Psi is zero: the identity, the side exchange
and the canonical maps onto the third dual.  A connection's splitting is
the tangent shell's identity with another Psi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, mul
from typing import Callable, Sequence

from .ring import (
    MultiPoly,
    Point,
    PolyMatrix,
    SingularMatrixError,
    _check_grid,
    _adjugate,
    _draw,
    _draw_sample,
    _EvalPlan,
    _frac_rows,
    _fraction,
    _randint,
    _span,
    _unimodular_inverse,
    mat_mul,
    random_tuple,
    rat,
    transpose,
)


class BaseMismatchError(ValueError):
    """Two elements live over different base points or charts."""


class FiberMismatchError(ValueError):
    """An operation required matching side fibers and got different ones."""


class NotInKernelError(ValueError):
    """Kernel splitting applied to an element outside the kernel."""


@dataclass(frozen=True)
class Chart:
    """A polynomial coordinate chart; dim 0 models a one point base."""

    names: tuple[str, ...]

    @staticmethod
    def of_dim(n: int) -> Chart:
        if n < 0:
            raise ValueError("chart dimension must be nonnegative")
        return Chart(tuple(f"x{i + 1}" for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.names)

    def point(self, coords: Sequence[Fraction | int | str]) -> Point:
        if len(coords) != self.dim:
            raise ValueError(f"point arity {len(coords)} vs chart dim {self.dim}")
        return tuple(rat(c) for c in coords)


def _check_rank(rank) -> None:
    if type(rank) is not int:
        raise TypeError(f"fiber rank must be an int, got {rank!r}")
    if rank < 0:
        raise ValueError("fiber ranks must be nonnegative")


@dataclass(frozen=True)
class VectorBundle:
    """Plain vector bundle data: a chart, a rank, and a display label."""

    chart: Chart
    rank: int
    label: str = "E"

    def __post_init__(self) -> None:
        _check_rank(self.rank)


@dataclass(frozen=True, slots=True)
class DecomposedDVB:
    chart: Chart
    n_F: int
    n_C: int
    n_E: int
    labels: tuple[str, str, str] = ("F", "C", "E")
    # Made on first use and kept, outside equality, hash and repr: the right
    # dual (`duality.right_dual` fills it) and the flip, whose flip is this
    # bundle.  So the pairings, the dual morphisms and the flipped elements
    # of one bundle all meet one dual and one flip object, and compare them
    # by identity.
    _right_dual: DecomposedDVB | None = field(default=None, init=False, repr=False, compare=False)
    _flip: DecomposedDVB | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for rank in (self.n_F, self.n_C, self.n_E):
            _check_rank(rank)

    @property
    def ranks(self) -> tuple[int, int, int]:
        return (self.n_F, self.n_C, self.n_E)

    def flip(self) -> DecomposedDVB:
        if self._flip is None:
            labels = self.labels
            flipped = DecomposedDVB(
                self.chart, self.n_E, self.n_C, self.n_F, (labels[2], labels[1], labels[0])
            )
            object.__setattr__(flipped, "_flip", self)
            object.__setattr__(self, "_flip", flipped)
        return self._flip

    def element(
        self,
        x: Sequence[Fraction | int | str],
        f: Sequence[Fraction | int | str],
        c: Sequence[Fraction | int | str],
        e: Sequence[Fraction | int | str],
    ) -> DVBElement:
        return DVBElement(self, x, f, c, e)


def _slot(values, rank: int, name: str) -> tuple[Fraction, ...]:
    out = tuple(rat(v) for v in values)
    if len(out) != rank:
        raise ValueError(f"{name} slot has {len(out)} entries, bundle rank is {rank}")
    return out


_new = object.__new__


class DVBElement:
    """A point (x | f | c | e) of a decomposed double bundle.

    It holds the key (bundle, x, f, c, e), with x a tuple of `Fraction`s and
    f, c, e slot vectors (`_f`, `_c`, `_e`); `f`, `c` and `e` read them as
    tuples of `Fraction`s, made on first read.  Like `bundle.element`, the
    constructor takes exact values (ints, `Fraction`s, strings `n` or `n/d`
    as `rat` reads them) and raises `ValueError` for a point arity or slot
    length that does not fit the bundle or a string outside that grammar,
    and `TypeError` for a bool or an inexact value; `_of_slots`, which the
    structure maps use, checks nothing, because they keep every shape.
    Equality and hashing compare the keys.  Instances are immutable.
    """

    # the views are cached in the instance dict, made when first needed
    __slots__ = ("_key", "__dict__")

    def __init__(self, bundle: DecomposedDVB, x, f, c, e):
        x = bundle.chart.point(x)
        f, c, e = _slot(f, bundle.n_F, "F"), _slot(c, bundle.n_C, "C"), _slot(e, bundle.n_E, "E")
        _set_key(self, (bundle, x, _slots_of(f), _slots_of(c), _slots_of(e)))
        vars(self).update(f=f, c=c, e=e)

    @staticmethod
    def _of_slots(bundle: DecomposedDVB, x: Point, f: _Slots, c: _Slots, e: _Slots):
        el = _new(DVBElement)
        _set_key(el, (bundle, x, f, c, e))
        return el

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a DVBElement")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a DVBElement")

    bundle = property(lambda self: self._key[0])
    x = property(lambda self: self._key[1])
    _f = property(lambda self: self._key[2])
    _c = property(lambda self: self._key[3])
    _e = property(lambda self: self._key[4])
    f = cached_property(lambda self: _fractions(self._key[2]))
    c = cached_property(lambda self: _fractions(self._key[3]))
    e = cached_property(lambda self: _fractions(self._key[4]))

    def __eq__(self, other):
        if other.__class__ is not DVBElement:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"DVBElement(bundle={self.bundle!r}, x={self.x!r}, "
            f"f={self.f!r}, c={self.c!r}, e={self.e!r})"
        )

    def __str__(self) -> str:
        """The report text, `(x=(1/2) | f=(3) | c=(-2/3) | e=(1))`."""
        x, f, c, e = (
            "(" + ", ".join(map(str, slot)) + ")" for slot in (self.x, self.f, self.c, self.e)
        )
        return f"(x={x} | f={f} | c={c} | e={e})"

    def flip(self) -> DVBElement:
        """The same point viewed in the flipped bundle."""
        b, x, f, c, e = self._key
        return DVBElement._of_slots(b.flip(), x, e, c, f)


# the slot's own setter, which the raising __setattr__ does not reach
_set_key = DVBElement._key.__set__

Side = str  # "right" or "left"


# ---------------------------------------------------------------------------
# The integer slot kernel
#
# A slot vector is a pair (numerators, denominator) with the gcd of the
# denominator and all the numerators equal to 1, so a zero vector has
# denominator 1.  The structure maps below read and build the slot vectors
# of `DVBElement`s and make no `Fraction`.  `_vec_add` and `_vec_scale`, the
# one add and scale (read as globals so tests can swap them), reduce their
# results in their own frame, and the adds compare the bundle, the base point
# and the shared slot by identity before by value.

_Slots = tuple[tuple[int, ...], int]


def _reduced(nums, den: int) -> _Slots:
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([n // g for n in nums]), den // g


def _zero_slots(n: int) -> _Slots:
    return (0,) * n, 1


def _slots_of(values: Sequence[Fraction]) -> _Slots:
    den = lcm(*[a.denominator for a in values])
    return _reduced([a.numerator * (den // a.denominator) for a in values], den)


def _scalar(slots: _Slots) -> Fraction:
    """A slot vector of length 1 as its `Fraction`; it is in lowest terms."""
    (n,), d = slots
    return _fraction(n, d)


def _fractions(slots: _Slots) -> tuple[Fraction, ...]:
    nums, den = slots
    return tuple([Fraction(n, den) for n in nums])


def _vec_add(a, b) -> _Slots:
    """The sum of two slot vectors, in lowest terms; the inputs need not be."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        nums = tuple(map(add, an, bn))
    else:
        nums, ad = tuple([p * bd + q * ad for p, q in zip(an, bn)]), ad * bd
    g = gcd(ad, *nums)
    if g == 1:
        return nums, ad
    return tuple([n // g for n in nums]), ad // g


def _vec_scale(rn: int, rd: int, a: _Slots) -> _Slots:
    """The slot vector a times rn/rd (rd > 0), in lowest terms."""
    nums, den = a
    den *= rd
    g = gcd(den, rn * gcd(*nums))
    if g == 1:
        return tuple([rn * n for n in nums]), den
    return tuple([rn * n // g for n in nums]), den // g


def _pairing(a: _Slots, b: _Slots, c: _Slots, d: _Slots) -> tuple[int, int]:
    """a.b + c.d for four slot vectors, in lowest terms or not, as the
    unreduced ratio (numerator, denominator) of two integer dots."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = a, b, c, d
    first, second = ad * bd, cd * dd
    return sum(map(mul, an, bn)) * second + sum(map(mul, cn, dn)) * first, first * second


def _dot(a: _Slots, b: _Slots) -> tuple[int, int]:
    """a.b for two slot vectors, as an unreduced ratio like `_pairing`'s."""
    return sum(map(mul, a[0], b[0])), a[1] * b[1]


def _is_right(side: Side) -> bool:
    if side == "right":
        return True
    if side == "left":
        return False
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def _same_base(u, v) -> None:
    """Check two element keys for one bundle and one base point."""
    if u[0] is not v[0] and u[0] != v[0]:
        raise BaseMismatchError("elements belong to different bundles")
    if u[1] != v[1]:
        raise BaseMismatchError(f"base points differ: {u[1]} vs {v[1]}")


def _right_add(u: DVBElement, v: DVBElement) -> DVBElement:
    uk, vk = u._key, v._key
    b, x, f, c, e = uk
    if b is not vk[0] or x is not vk[1]:
        _same_base(uk, vk)
    if e is not vk[4] and e != vk[4]:
        raise FiberMismatchError("right addition needs a shared E point")
    return DVBElement._of_slots(b, x, _vec_add(f, vk[2]), _vec_add(c, vk[3]), e)


def _left_add(u: DVBElement, v: DVBElement) -> DVBElement:
    uk, vk = u._key, v._key
    b, x, f, c, e = uk
    if b is not vk[0] or x is not vk[1]:
        _same_base(uk, vk)
    if f is not vk[2] and f != vk[2]:
        raise FiberMismatchError("left addition needs a shared F point")
    return DVBElement._of_slots(b, x, f, _vec_add(c, vk[3]), _vec_add(e, vk[4]))


def _right_scale(r: Fraction | int, v: DVBElement) -> DVBElement:
    b, x, f, c, e = v._key
    rn, rd = r.numerator, r.denominator
    return DVBElement._of_slots(b, x, _vec_scale(rn, rd, f), _vec_scale(rn, rd, c), e)


def _left_scale(r: Fraction | int, v: DVBElement) -> DVBElement:
    b, x, f, c, e = v._key
    rn, rd = r.numerator, r.denominator
    return DVBElement._of_slots(b, x, f, _vec_scale(rn, rd, c), _vec_scale(rn, rd, e))


def _split(v: DVBElement) -> tuple[DVBElement, DVBElement]:
    b, x, f, c, e = v._key
    if any(e[0]):
        raise NotInKernelError("element has a nonzero E projection")
    return (
        DVBElement._of_slots(b, x, f, _zero_slots(b.n_C), e),
        DVBElement._of_slots(b, x, _zero_slots(b.n_F), c, e),
    )


def _difference(u: DVBElement, v: DVBElement) -> _Slots:
    uk, vk = u._key, v._key
    if uk[0] is not vk[0] or uk[1] is not vk[1]:
        _same_base(uk, vk)
    if uk[2] != vk[2] or uk[4] != vk[4]:
        raise FiberMismatchError("core difference needs matching F and E slots")
    return _vec_add(uk[3], _vec_scale(-1, 1, vk[3]))


def _lowest(m):
    """An integer matrix (rows, den), den > 0, in lowest terms."""
    rows, den = m
    g = gcd(den, *chain.from_iterable(rows))
    if g == 1:
        return m
    return tuple(tuple([v // g for v in row]) for row in rows), den // g


def _mat_vec(m, v) -> tuple[list[int], int]:
    """An integer matrix times a slot vector, not yet in lowest terms."""
    rows, md = m
    nums, vd = v
    return [sum(map(mul, row, nums)) for row in rows], md * vd


def _apply_blocks(source, target, int_blocks_at, v: DVBElement) -> DVBElement:
    """(f, c, e) -> (L f, C c + Psi(f, e), R e) on the slot vectors, with the
    blocks at v's base point read from `int_blocks_at` (in the layout of
    `FiberMorphism._int_blocks`) once v's bundle is checked to be `source`."""
    b, x, f, (cn, cd), e = v._key
    if b is not source and b != source:
        raise BaseMismatchError("element bundle differs from morphism source")
    l, (cm, cmd), r, (psi, pd) = int_blocks_at(x)
    (fn, fd), (en, ed) = f, e
    e_times_f, core_den, psi_den = [p * q for p in en for q in fn], cmd * cd, pd * ed * fd
    core = [
        sum(map(mul, row, cn)) * psi_den + sum(map(mul, plane, e_times_f)) * core_den
        for row, plane in zip(cm, psi)
    ]
    return DVBElement._of_slots(
        target,
        x,
        _reduced(*_mat_vec(l, f)),
        _reduced(core, core_den * psi_den),
        _reduced(*_mat_vec(r, e)),
    )


# ---------------------------------------------------------------------------
# The sampler: every sampled check of the library draws here


class _Sampler:
    """The draws of one sampled check: its rng, a bundle and the coordinate bound.

    Every draw comes from the one rng in call order, so a check replays from
    its seed, and each method is one call of `ring._draw_sample`.  `sample`
    draws a point of the bundle's chart (a vector bundle has one too) and
    one slot vector per length; `element` needs a decomposed bundle.  A
    checker takes what it draws before anything that can raise, redraw or
    return in one `sample` or `draw` (a scalar is a slot vector of length 1,
    `_scalar`); a draw after such a point is a call of its own.
    """

    __slots__ = ("rng", "bundle", "bound")

    def __init__(self, rng, bundle: DecomposedDVB, bound: int = 7):
        self.rng = rng
        self.bundle = bundle
        self.bound = bound

    def over(self, bundle: DecomposedDVB) -> _Sampler:
        """The same draws over another bundle, such as a dual or a shell."""
        return _Sampler(self.rng, bundle, self.bound)

    def sample(self, *lengths: int) -> list:
        """A point of the chart, then one slot vector per length."""
        return _draw_sample(self.rng, self.bound, self.bundle.chart.dim, lengths)

    def draw(self, *lengths: int) -> list[_Slots]:
        """One slot vector per length."""
        return _draw_sample(self.rng, self.bound, 0, lengths)[1:]

    def rationals(self, n: int) -> tuple[Fraction, ...]:
        return random_tuple(self.rng, n, self.bound)

    def point(self) -> Point:
        return random_tuple(self.rng, self.bundle.chart.dim, self.bound)

    def positives(self, n: int) -> list[int]:
        """n integers from [1, bound]."""
        return _draw(self.rng, (_span(1, self.bound),) * n)

    def element(self, x=None, f=None, c=None, e=None) -> DVBElement:
        """An element of the bundle from one draw of the slots not given, in
        order, after its point unless x is given; given slots are slot vectors."""
        b, given = self.bundle, (f, c, e)
        lengths = [n for n, slot in zip(b.ranks, given) if slot is None]
        dim = b.chart.dim if x is None else 0
        point, *drawn = _draw_sample(self.rng, self.bound, dim, lengths)
        drawn = iter(drawn)
        slots = [next(drawn) if slot is None else slot for slot in given]
        return DVBElement._of_slots(b, point if x is None else x, *slots)

    def seed(self) -> int:
        """A seed for a sampled criterion that keeps its own sampler."""
        return _randint(self.rng, 0, (1 << 30) - 1)

    def regular_points(self, count: int, sample, finished):
        """Run `sample` until it has passed at `count` points.

        `sample` draws its own point and returns a result triple to stop
        with, or None.  In exact arithmetic a SingularMatrixError is a true
        singularity of a morphism at the drawn point, not a defect,
        so that sample is drawn again; after `count` such redraws the
        property passes vacuously.  Once `count` samples pass, `finished`
        is the result.
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
# Structure maps on DVBElement: the public entry points of the kernel routines


def fiber_add(side: Side, u: DVBElement, v: DVBElement) -> DVBElement:
    """Add in the chosen structure; the opposite side fiber must agree."""
    return (_right_add if _is_right(side) else _left_add)(u, v)


def fiber_scale(side: Side, r: Fraction | int | str, v: DVBElement) -> DVBElement:
    return (_right_scale if _is_right(side) else _left_scale)(rat(r), v)


def fiber_sub(side: Side, u: DVBElement, v: DVBElement) -> DVBElement:
    return fiber_add(side, u, fiber_scale(side, -1, v))


def kernel_split(v: DVBElement) -> tuple[DVBElement, DVBElement]:
    """Split a right-kernel element into its side part and core part.

    The element must project to zero on the E side.  The side part is the
    left zero over (x, f); the core part carries the core slot alone.  Their
    right sum recombines to the input, and the analogous statement for the
    left kernel is reached through the flip.
    """
    return _split(v)


def core_difference(u: DVBElement, v: DVBElement) -> tuple[Fraction, ...]:
    """Core shift between two elements with equal projections on both sides.

    This is the unique k with u = v +_right (core k over e) and equally
    u = v +_left (core k over f).
    """
    return _fractions(_difference(u, v))


# ---------------------------------------------------------------------------
# Block algebra
#
# Composition, inverse, right dual and flip are written once, on blocks
# (L, C, R, Psi) held as matrices (rows, den), nested-tuple rows over one
# denominator, with the E x F plane Psi[g] of core row g flattened to row g
# of Psi.  Widths come from the bundles, because a matrix with no rows
# stores no width.  With T the transpose:
#
#   composite outer . inner:  Psi[g]  = sum_d C2[g][d] Psi1[d] + R1^T Psi2[g] L1
#   inverse:                  Psi[g]  = -sum_d C^-1[g][d] R^-T Psi[d] L^-1
#   right dual:               Psi'[A] = (Psi[g][a][A])_(g,a) R^-1
#   flip:                     Psi'[g] = Psi[g]^T
#
# A sum over d is one product with the flat Psi; contracting one factor at a
# time keeps the inverse at O(n^4) coefficient products.  The formulas take
# the product `mul`, over the product of the two denominators, and share the
# rest: `_poly_mul` multiplies rows of polynomials in `ring`'s kernel form,
# exponent -> (n, d) in lowest terms (over 1), with `ring.mat_mul`;
# `_int_mul` integer rows at a point, left unreduced until a FiberMorphism
# stores them in lowest terms.


def _poly_mul(a, b, cols: int):
    return mat_mul(a[0], b[0], cols), 1


def _int_mul(a, b, cols: int):
    (a_rows, a_den), (b_rows, b_den) = a, b
    columns = transpose(b_rows, cols)
    return tuple([tuple([sum(map(mul, r, c)) for c in columns]) for r in a_rows]), a_den * b_den


def _sum(a, b):
    (a_rows, a_den), (b_rows, b_den) = a, b
    if a_den == b_den:
        return tuple(tuple(map(add, x, y)) for x, y in zip(a_rows, b_rows)), a_den
    rows = [[p * b_den + q * a_den for p, q in zip(x, y)] for x, y in zip(a_rows, b_rows)]
    return tuple(map(tuple, rows)), a_den * b_den


def _flat(planes):
    """Each plane of a Psi block as one row, row by row."""
    return tuple(tuple(chain.from_iterable(plane)) for plane in planes)


def _planes(rows, n_e: int, n_f: int):
    """The rows of a flat Psi block as n_e x n_f planes."""
    return tuple(tuple(row[a * n_f : (a + 1) * n_f] for a in range(n_e)) for row in rows)


def _pull(psi, r, l, source, target, mul):
    """R^T P L for each E x F plane P of a flat Psi over `target`; (l, r)
    are side blocks of a morphism source -> target."""
    rows, den = psi
    rt = transpose(r[0], source.n_E), r[1]
    planes = _planes(rows, target.n_E, target.n_F)
    pulled = [mul(mul(rt, (p, den), target.n_F), l, source.n_F)[0] for p in planes]
    return _flat(pulled), r[1] * den * l[1]


def _compose_blocks(outer, inner, source, middle, mul):
    """Blocks of outer . inner, with inner running source -> middle."""
    l2, c2, r2, psi2 = outer
    l1, c1, r1, psi1 = inner
    return (
        mul(l2, l1, source.n_F),
        mul(c2, c1, source.n_C),
        mul(r2, r1, source.n_E),
        _sum(mul(c2, psi1, source.n_E * source.n_F), _pull(psi2, r1, l1, source, middle, mul)),
    )


def _inverse_blocks(psi, inverses, source, target, mul):
    """Blocks of the inverse of a morphism source -> target, given its Psi
    and its inverted side and core blocks (L^-1, C^-1, R^-1)."""
    li, (ci, ci_den), ri = inverses
    pulled = _pull(psi, ri, li, target, source, mul)
    minus_ci = tuple(tuple(-k for k in row) for row in ci), ci_den
    return (li, (ci, ci_den), ri, mul(minus_ci, pulled, target.n_E * target.n_F))


def _right_dual_blocks(blocks, rinv, source, target, mul):
    """Blocks of the right dual of a morphism source -> target, given R^-1;
    the dual runs from the dual of target to the dual of source."""
    (l, l_den), (c, c_den), _, (psi, den) = blocks
    n_f = source.n_F
    # (row[A::n_f] for row in psi) is the matrix (Psi[g][a][A])_(g,a)
    planes = [
        mul((tuple(row[big_a::n_f] for row in psi), den), rinv, target.n_E)[0]
        for big_a in range(n_f)
    ]
    l_t, c_t = (transpose(l, n_f), l_den), (transpose(c, source.n_C), c_den)
    return rinv, l_t, c_t, (_flat(planes), den * rinv[1])


def _flip_blocks(blocks, source):
    l, c, r, (psi, den) = blocks
    return r, c, l, (_flat(zip(*p) for p in _planes(psi, source.n_E, source.n_F)), den)


# ---------------------------------------------------------------------------
# Morphisms

PsiBlock = tuple[tuple[tuple[MultiPoly, ...], ...], ...]


def psi_zero(vars, n_c_out: int, n_e_in: int, n_f_in: int) -> PsiBlock:
    z = MultiPoly.zero(vars)
    return tuple(
        tuple(tuple(z for _ in range(n_f_in)) for _ in range(n_e_in))
        for _ in range(n_c_out)
    )


@dataclass(frozen=True)
class DVBMorphism:
    """Block morphism of decomposed bundles over the identity base map."""

    source: DecomposedDVB
    target: DecomposedDVB
    phi_l: PolyMatrix
    phi_c: PolyMatrix
    phi_r: PolyMatrix
    psi: PsiBlock

    def __post_init__(self) -> None:
        if self.source.chart != self.target.chart:
            raise BaseMismatchError("morphism requires a shared chart")
        vars = self.source.chart.names
        (f, c, e), (tf, tc, te) = self.source.ranks, self.target.ranks
        _check_grid("Phi_l", self.phi_l, (tf, f), vars)
        _check_grid("Phi_c", self.phi_c, (tc, c), vars)
        _check_grid("Phi_r", self.phi_r, (te, e), vars)
        _check_grid("Psi", self.psi, (tc, e, f), vars)

    @staticmethod
    def _from_blocks(source, target, blocks) -> DVBMorphism:
        """The morphism of kernel-form blocks over 1, as the block algebra
        gives them: each `_Pairs` becomes an entry as it is."""
        names = source.chart.names
        l, c, r, psi = (PolyMatrix._of_pairs(names, rows) for rows, _ in blocks)
        return DVBMorphism(source, target, l, c, r, _planes(psi.entries, source.n_E, source.n_F))

    def _rows(self):
        """L, C, R and the flat Psi as rows of MultiPoly."""
        return self.phi_l.entries, self.phi_c.entries, self.phi_r.entries, _flat(self.psi)

    def _blocks(self):
        """L, C, R and the flat Psi as rows of their entries' own `_Pairs`
        over 1, as the block algebra takes them."""
        return tuple(
            (tuple(tuple([p._pairs for p in row]) for row in rows), 1) for rows in self._rows()
        )

    @cached_property
    def _plan(self) -> _EvalPlan:
        """The plan of the blocks, in the layout of
        `FiberMorphism._int_blocks`; built on first use."""
        return _EvalPlan(self._rows(), self.source.chart.dim)

    def at(self, x: Sequence[Fraction | int | str]) -> FiberMorphism:
        """Evaluate all blocks at a base point, through the integer plan."""
        point = self.source.chart.point(x)
        return FiberMorphism._of_blocks(self.source, self.target, point, self._plan.at(point))

    def apply(self, v: DVBElement) -> DVBElement:
        return _apply_blocks(self.source, self.target, self._plan.at, v)

    def flip(self) -> DVBMorphism:
        """The same morphism between the flipped bundles."""
        blocks = _flip_blocks(self._blocks(), self.source)
        return DVBMorphism._from_blocks(self.source.flip(), self.target.flip(), blocks)


def _signed_identity(
    source: DecomposedDVB, target: DecomposedDVB, signs=(1, 1, 1)
) -> DVBMorphism:
    """The morphism (f, c, e) -> (s_F f, s_C c, s_E e) between bundles of
    equal ranks: signed identity blocks, one sign per slot, and zero Psi."""
    vars = source.chart.names
    ones = (PolyMatrix.identity(vars, n) for n in source.ranks)
    return DVBMorphism(
        source,
        target,
        *(one if s > 0 else -one for one, s in zip(ones, signs)),
        psi_zero(vars, source.n_C, source.n_E, source.n_F),
    )


def identity_morphism(bundle: DecomposedDVB) -> DVBMorphism:
    return _signed_identity(bundle, bundle)


def compose_morphisms(outer: DVBMorphism, inner: DVBMorphism) -> DVBMorphism:
    """Blockwise composite outer . inner."""
    if inner.target != outer.source:
        raise ValueError("composition needs inner target equal to outer source")
    blocks = _compose_blocks(
        outer._blocks(), inner._blocks(), inner.source, inner.target, _poly_mul
    )
    return DVBMorphism._from_blocks(inner.source, outer.target, blocks)


@dataclass(frozen=True, init=False)
class FiberMorphism:
    """Morphism blocks evaluated at one base point: exact rational data.

    The blocks are integer rows over one positive denominator each, in
    lowest terms, so equal blocks are equal tuples; `l`, `c`, `r` and `psi`
    are their `Fraction` views, made on first read.  Only `_of_blocks`
    builds one, for `DVBMorphism.at`, `PointwiseMorphism.at` and the block
    algebra (`after`, `inverse`, `duality.fiber_right_dual`).
    """

    source: DecomposedDVB
    target: DecomposedDVB
    x: Point
    _int_blocks: tuple

    def __init__(self, *args, **kwargs):
        raise TypeError("a FiberMorphism comes from .at(x) or from the block algebra")

    @staticmethod
    def _of_blocks(source, target, x, blocks) -> FiberMorphism:
        fm = _new(FiberMorphism)
        vars(fm).update(source=source, target=target, x=x, _int_blocks=tuple(map(_lowest, blocks)))
        return fm

    l = cached_property(lambda self: _frac_rows(self._int_blocks[0]))
    c = cached_property(lambda self: _frac_rows(self._int_blocks[1]))
    r = cached_property(lambda self: _frac_rows(self._int_blocks[2]))
    psi = cached_property(
        lambda self: _planes(_frac_rows(self._int_blocks[3]), self.source.n_E, self.source.n_F)
    )

    def _int_blocks_at(self, x: Point):
        if x != self.x:
            raise BaseMismatchError("element base point differs from block point")
        return self._int_blocks

    def apply(self, v: DVBElement) -> DVBElement:
        return _apply_blocks(self.source, self.target, self._int_blocks_at, v)

    def after(self, inner: FiberMorphism) -> FiberMorphism:
        if inner.target != self.source or inner.x != self.x:
            raise ValueError("fiber composition needs matching middle bundle and point")
        blocks = _compose_blocks(
            self._int_blocks, inner._int_blocks, inner.source, inner.target, _int_mul
        )
        return FiberMorphism._of_blocks(inner.source, self.target, self.x, blocks)

    def inverse(self) -> FiberMorphism:
        """Pointwise inverse; blocks invert and Psi picks up a minus sign."""
        _check_square_ranks(self)
        l, c, r, psi = self._int_blocks
        inverses = tuple(map(_adjugate, (l, c, r)))
        blocks = _inverse_blocks(psi, inverses, self.source, self.target, _int_mul)
        return FiberMorphism._of_blocks(self.target, self.source, self.x, blocks)


@dataclass(frozen=True)
class PointwiseMorphism:
    """A morphism available through exact per-point block evaluation."""

    source: DecomposedDVB
    target: DecomposedDVB
    blocks_at: Callable[[Point], FiberMorphism]

    def at(self, x: Point) -> FiberMorphism:
        fm = self.blocks_at(tuple(rat(v) for v in x))
        source, target = self.source, self.target
        if (fm.source is not source and fm.source != source) or (
            fm.target is not target and fm.target != target
        ):
            raise ValueError("pointwise blocks disagree with declared bundles")
        return fm


def _check_square_ranks(phi) -> None:
    if phi.source.ranks != phi.target.ranks:
        raise ValueError("only square-rank morphisms can be inverted")


def invert_morphism(phi: DVBMorphism) -> PointwiseMorphism:
    """Pointwise inverse of an isomorphism; singular points raise on use."""
    _check_square_ranks(phi)
    return PointwiseMorphism(
        phi.target, phi.source, lambda x: phi.at(x).inverse()
    )


def invert_morphism_poly(phi: DVBMorphism) -> DVBMorphism:
    """Polynomial inverse, available when every block is unimodular."""
    _check_square_ranks(phi)
    blocks = phi._blocks()
    dim = phi.source.chart.dim
    inverses = tuple(_unimodular_inverse(rows, dim) for rows, _ in blocks[:3])
    if any(m is None for m in inverses):
        raise ValueError("blocks are not unimodular; use invert_morphism")
    blocks = _inverse_blocks(
        blocks[3], tuple((m, 1) for m in inverses), phi.source, phi.target, _poly_mul
    )
    return DVBMorphism._from_blocks(phi.target, phi.source, blocks)
