"""Exact differential forms with polynomial coefficients.

A k-form over a variable list is stored as a sorted tuple of components
(index tuple, coefficient): indices strictly increasing positions into the
variable list, coefficients polynomials over exactly those variables.  All
operations are exact: exterior derivative, wedge, pullback along polynomial
maps, the tangent lift onto doubled variables, and evaluation on rational
vectors.  Degree zero forms are plain polynomials stored under the empty
index tuple.

Every form is built by the `DifferentialForm` constructor, the one place
that orders components: `make_form`, `+`, `wedge`, `d`, the pullback and the
tangent lift hand it terms with indices in any order, and it sorts each
index with its permutation sign and sums the terms per sorted index.
Evaluation reads every component from one `ring` evaluation plan, cached on
the form, and the determinant of each minor from `ring.det_frac`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .ring import MultiPoly, Point, _coords, _EvalPlan, det_frac, rat

Index = tuple[int, ...]

# Suffix of the velocity variables of a tangent lift: z becomes (z, z_dot).
_DOT = "_dot"


def _sort_sign(idx: Sequence[int]) -> tuple[Index, int] | None:
    """Sorted index tuple and permutation sign; None when an index repeats."""
    items = list(idx)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None
    return tuple(items), sign


@dataclass(frozen=True)
class DifferentialForm:
    """A k-form from (index, polynomial) components in any index order.

    The constructor checks each component, then sorts its index with the
    permutation sign, drops an index that repeats a position, sums the
    components that land on one sorted index, and keeps the nonzero sums as
    `comps`, in increasing index order.  So two forms are equal exactly when
    they are equal as forms.  It raises `TypeError` for a degree that is not
    an int or variables that are not a tuple of str, and `ValueError` when
    the degree is negative, an index's length is not the degree, an index is
    out of range for the variables, or a component's variables are not the
    form's.
    """

    vars: tuple[str, ...]
    degree: int
    comps: tuple[tuple[Index, MultiPoly], ...]

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            raise TypeError(f"form degree must be an int, got {self.degree!r}")
        if type(self.vars) is not tuple or any(type(v) is not str for v in self.vars):
            raise TypeError(f"form variables must be a tuple of str, got {self.vars!r}")
        if self.degree < 0:
            raise ValueError("form degree must be nonnegative")
        data: dict[Index, MultiPoly] = {}
        for idx, term in self.comps:
            if len(idx) != self.degree:
                raise ValueError(f"index {idx} does not match degree {self.degree}")
            if any(i < 0 or i >= len(self.vars) for i in idx):
                raise ValueError(f"index {idx} out of range for {len(self.vars)} variables")
            if term.vars != self.vars:
                raise ValueError("component variables must match the form")
            sorted_sign = _sort_sign(idx)
            if sorted_sign is None:
                continue
            key, sign = sorted_sign
            term = term if sign > 0 else -term
            data[key] = data[key] + term if key in data else term
        out = []
        for idx in sorted(data):
            poly: MultiPoly = data[idx]
            if not poly.is_zero:
                out.append((idx, poly))
        object.__setattr__(self, "comps", tuple(out))

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def coeff(self, idx: Sequence[int]) -> MultiPoly:
        """Antisymmetric component for any index order."""
        sorted_sign = _sort_sign(idx)
        if sorted_sign is None:
            return MultiPoly.zero(self.vars)
        key, sign = sorted_sign
        for stored, poly in self.comps:
            if stored == key:
                return poly if sign > 0 else -poly
        return MultiPoly.zero(self.vars)

    def _check_compatible(self, other: DifferentialForm) -> None:
        if self.vars != other.vars:
            raise ValueError("forms live over different variable lists")

    def __add__(self, other: DifferentialForm) -> DifferentialForm:
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return DifferentialForm(self.vars, self.degree, self.comps + other.comps)

    def wedge(self, other: DifferentialForm) -> DifferentialForm:
        self._check_compatible(other)
        return DifferentialForm(
            self.vars,
            self.degree + other.degree,
            (
                (left_idx + right_idx, left * right)
                for left_idx, left in self.comps
                for right_idx, right in other.comps
                if set(left_idx).isdisjoint(right_idx)
            ),
        )

    def d(self) -> DifferentialForm:
        """Exterior derivative."""
        return DifferentialForm(
            self.vars,
            self.degree + 1,
            (
                ((u,) + idx, poly.partial(name))
                for idx, poly in self.comps
                for u, name in enumerate(self.vars)
                if u not in idx
            ),
        )

    def pullback(
        self, source_vars: Sequence[str], images: Sequence[MultiPoly]
    ) -> DifferentialForm:
        """Pull back along the map sending each of self's variables to an image.

        Images are polynomials over the source variables, listed in the order
        of self's variables.  Coefficients compose with the map and each
        differential becomes the differential of the image.
        """
        src = tuple(source_vars)
        if len(images) != len(self.vars):
            raise ValueError("need one image per variable")
        for img in images:
            if img.vars != src:
                raise ValueError("images must share the source variable list")
        d_images = [_differential(img) for img in images]
        total = DifferentialForm(src, self.degree, ())
        for idx, poly in self.comps:
            term = DifferentialForm(
                src, 0, (((), poly.compose(tuple(images))),)
            )
            for j in idx:
                term = term.wedge(d_images[j])
            total = total + term
        return total

    def tangent_lift(self) -> DifferentialForm:
        """Lift to the doubled variable list (z, z_dot).

        Coefficients gain the derivative term sum(da/dz_u * z_u_dot) on the
        undotted indices, and each index slot is dotted once in turn.
        """
        big = self.vars + tuple(name + _DOT for name in self.vars)
        n = len(self.vars)
        terms = []
        for idx, poly in self.comps:
            lifted = poly.extend(big)
            dotted_coeff = MultiPoly.zero(big)
            for name in self.vars:
                partial = poly.partial(name)
                if partial.is_zero:
                    continue
                dotted_coeff = dotted_coeff + partial.extend(big) * MultiPoly.var(
                    big, name + _DOT
                )
            terms.append((idx, dotted_coeff))
            for slot in range(len(idx)):
                terms.append((idx[:slot] + (idx[slot] + n,) + idx[slot + 1 :], lifted))
        return DifferentialForm(big, self.degree, terms)

    _plan = cached_property(
        lambda self: _EvalPlan(((tuple(poly for _, poly in self.comps),),), len(self.vars))
    )

    def evaluate(self, point: Point, vectors: Sequence[Sequence[Fraction]]) -> Fraction:
        """Value on rational vectors: sum of components times minors."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        vecs = [tuple(rat(v) for v in vec) for vec in vectors]
        for vec in vecs:
            if len(vec) != len(self.vars):
                raise ValueError("vector arity does not match the variables")
        ((values,), den), = self._plan.at(_coords(point, len(self.vars)))
        total = Fraction(0)
        for value, (idx, _) in zip(values, self.comps):
            if value:
                total += value * det_frac(tuple(tuple(vec[j] for j in idx) for vec in vecs))
        return total / den


def _differential(poly: MultiPoly) -> DifferentialForm:
    terms = (((u,), poly.partial(name)) for u, name in enumerate(poly.vars))
    return DifferentialForm(poly.vars, 1, terms)


def make_form(
    vars: Sequence[str], degree: int, components: Mapping[Sequence[int], MultiPoly]
) -> DifferentialForm:
    """The constructor's form, with its components given as a mapping."""
    return DifferentialForm(tuple(vars), degree, components.items())

