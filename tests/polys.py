"""Polynomial test data: a polynomial from a dict {exponents: coefficient},
and a polynomial matrix's values at a point."""

from dvbcalc.ring import MultiPoly, _Pairs, rat


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
