"""Polynomial test data: a polynomial from a dict {exponents: coefficient},
a polynomial matrix's values at a point, a block morphism with constant
blocks, and a polynomial literal that vanishes at every witness point of the
parser's determinant certificate."""

from fractions import Fraction

from dvbcalc.core import DVBMorphism
from dvbcalc.ring import MultiPoly, PolyMatrix, _Pairs, rat
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


def constant_morphism(source, target, l, c, r, psi) -> DVBMorphism:
    """The morphism source -> target whose blocks are the constants l, c, r
    (rows of values) and psi (planes psi[g][a][i]); its `.at(x)` is the
    fiber morphism of those values at any point x of the chart."""
    vars = source.chart.names

    def rows(values):
        return tuple(tuple(MultiPoly.const(vars, v) for v in row) for row in values)

    return DVBMorphism(
        source, target, *(PolyMatrix(vars, rows(m)) for m in (l, c, r)), tuple(map(rows, psi))
    )


def witness_root_literal():
    """The scenario literal of prod (x1 - w) over the first coordinates w of
    the witness points, a nonzero polynomial in x1 that vanishes at each."""
    coeffs = [Fraction(1)]  # by degree, lowest first
    for w in _WITNESSES:
        coeffs = [low - w[0] * c for low, c in zip([0, *coeffs], [*coeffs, 0])]
    return [{"coeff": str(c), "exps": [k]} for k, c in enumerate(coeffs) if c]
