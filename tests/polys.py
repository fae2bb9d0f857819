"""Polynomial test data: a polynomial from a dict {exponents: coefficient},
a polynomial matrix's values at a point, and a polynomial literal that
vanishes at every witness point of the parser's determinant certificate."""

from fractions import Fraction

from dvbcalc.ring import MultiPoly, _Pairs, rat
from dvbcalc.scenario import _WITNESSES


def poly_from_dict(vars, data) -> MultiPoly:
    """The sum of c x^e over `data`'s items, each c an int, a `Fraction` or
    text `rat` reads, over the variables `vars`; zero terms are left out."""
    pairs = _Pairs()
    for e, c in data.items():
        c = rat(c)
        if c:
            pairs[tuple(e)] = c.numerator, c.denominator
    return MultiPoly(tuple(vars), pairs)


def values_at(m, point):
    """The entries of a `PolyMatrix` at a point, each by `MultiPoly.eval`."""
    return tuple(tuple(p.eval(point) for p in row) for row in m.entries)


def witness_root_literal():
    """The scenario literal of prod (x1 - w) over the first coordinates w of
    the witness points, a nonzero polynomial in x1 that vanishes at each."""
    coeffs = [Fraction(1)]  # by degree, lowest first
    for w in _WITNESSES:
        coeffs = [low - w[0] * c for low, c in zip([0, *coeffs], [*coeffs, 0])]
    return [{"coeff": str(c), "exps": [k]} for k, c in enumerate(coeffs) if c]
