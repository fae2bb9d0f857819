from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.ring import (
    MultiPoly,
    PolyMatrix,
    SingularMatrixError,
    dot,
    mat_inverse_frac,
    mat_mul,
    mat_solve_at,
    rat,
    solve_fraction_free,
)

XY = ("x", "y")


def poly(data, vars=XY):
    return MultiPoly.from_dict(vars, data)


X = MultiPoly.var(XY, "x")
Y = MultiPoly.var(XY, "y")
ONE = MultiPoly.const(XY, 1)


# -- frozen oracle values ----------------------------------------------------


def test_eval_square():
    p = MultiPoly.var(("x",), "x") ** 2
    assert p.eval((3,)) == 9


def test_eval_zero_anywhere():
    assert MultiPoly.zero(XY).eval((rat("5/7"), rat("-2"))) == 0


def test_eval_mixed_term():
    # 2*x*y - 1/2 at (1, 3) = 11/2
    p = poly({(1, 1): 2, (0, 0): rat("-1/2")})
    assert p.eval((1, 3)) == rat("11/2")


def test_partial_square():
    assert (X * X).partial("x") == 2 * X
    assert (X * X).partial("y") == MultiPoly.zero(XY)


def test_partial_mixed():
    # d/dx (x^2*y + 3x) = 2xy + 3
    p = poly({(2, 1): 1, (1, 0): 3})
    assert p.partial("x") == poly({(1, 1): 2, (0, 0): 3})


def test_add_inverse():
    assert X + (-X) == MultiPoly.zero(XY)


def test_product_difference_of_squares():
    assert (X + ONE) * (X - ONE) == poly({(2, 0): 1, (0, 0): -1})


def test_compose_shift():
    # x^2 after x -> x+1 gives x^2 + 2x + 1
    sq = MultiPoly.var(("x",), "x") ** 2
    shifted = sq.compose((X + ONE,))
    assert shifted == poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})


def test_compose_requires_matching_image_count():
    with pytest.raises(ValueError):
        (X + Y).compose((X,))


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var(XY, "z")
    with pytest.raises(ValueError):
        X.partial("z")


def test_variable_list_mismatch_rejected():
    other = MultiPoly.var(("x", "z"), "x")
    with pytest.raises(ValueError):
        X + other
    with pytest.raises(ValueError):
        X * other


def test_eval_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        X.eval((1,))


def test_canonical_order_graded_lex():
    p = poly({(0, 2): 1, (1, 0): 1, (2, 0): 1, (0, 0): 5})
    degrees = [sum(e) for e, _ in p.terms]
    assert degrees == sorted(degrees, reverse=True)
    assert p == poly({(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 0): 5})


def test_solve_scalar():
    m = PolyMatrix.constant(("x",), [[2]])
    assert mat_solve_at(m, (rat(0),), (rat(6),)) == (3,)


def test_solve_identity():
    m = PolyMatrix.identity(("x",), 2)
    assert mat_solve_at(m, (rat(1),), (rat("4/3"), rat(-2))) == (rat("4/3"), -2)


def test_solve_upper_triangular():
    m = PolyMatrix.constant(("x",), [[1, 1], [0, 2]])
    assert mat_solve_at(m, (rat(0),), (rat(3), rat(4))) == (1, 2)


def test_solve_singular_raises():
    m = PolyMatrix.constant(("x",), [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        mat_solve_at(m, (rat(0),), (rat(1), rat(1)))


def test_solve_polynomial_entries_at_point():
    x = MultiPoly.var(("x",), "x")
    m = PolyMatrix(("x",), ((x, MultiPoly.zero(("x",))), (MultiPoly.zero(("x",)), x)))
    assert mat_solve_at(m, (rat(2),), (rat(4), rat(6))) == (2, 3)
    with pytest.raises(SingularMatrixError):
        mat_solve_at(m, (rat(0),), (rat(1), rat(1)))


def test_unimodular_inverse():
    x = MultiPoly.var(("x",), "x")
    one = MultiPoly.const(("x",), 1)
    zero = MultiPoly.zero(("x",))
    m = PolyMatrix(("x",), ((one, x), (zero, one)))
    inv = m.unimodular_inverse()
    assert inv is not None
    assert m * inv == PolyMatrix.identity(("x",), 2)
    # x on the diagonal is invertible pointwise but not unimodularly
    assert PolyMatrix(("x",), ((x,),)).unimodular_inverse() is None


def test_det_cofactor():
    m = PolyMatrix.constant(("x",), [[1, 2], [3, 4]])
    assert m.det() == MultiPoly.const(("x",), -2)


# -- property tests ----------------------------------------------------------

fractions = st.fractions(
    min_value=-7, max_value=7, max_denominator=7
)


@st.composite
def polys(draw, vars=XY, max_terms=4, max_degree=3):
    data = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(len(vars))
        )
        data[exps] = draw(fractions)
    return MultiPoly.from_dict(vars, data)


points = st.tuples(fractions, fractions)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
def test_derivation_rule(p, q):
    lhs = (p * q).partial("x")
    rhs = p.partial("x") * q + p * q.partial("x")
    assert lhs == rhs


@given(polys(), polys(), polys(), points)
def test_eval_commutes_with_compose(p, img_x, img_y, point):
    composed = p.compose((img_x, img_y))
    assert composed.eval(point) == p.eval((img_x.eval(point), img_y.eval(point)))


@given(polys(), polys(), points)
def test_eval_is_ring_hom(p, q, point):
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    m = tuple(tuple(draw(fractions) for _ in range(n)) for _ in range(n))
    b = tuple(draw(fractions) for _ in range(n))
    return m, b


@given(square_systems())
@settings(max_examples=60)
def test_solve_then_multiply_back(system):
    m, b = system
    try:
        x = solve_fraction_free(m, b)
    except SingularMatrixError:
        return
    assert tuple(dot(row, x) for row in m) == b


@given(square_systems())
@settings(max_examples=40)
def test_inverse_roundtrip(system):
    m, _ = system
    try:
        inv = mat_inverse_frac(m)
    except SingularMatrixError:
        return
    n = len(m)
    identity = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    assert mat_mul(m, inv, n, Fraction(0)) == identity


# -- integer kernels of eval and dot against the plain Fraction formula -----


def fraction_eval(p, point):
    pt = [rat(v) for v in point]
    total = Fraction(0)
    for exps, coeff in p.terms:
        term = coeff
        for base, k in zip(pt, exps):
            term *= base**k
        total += term
    return total


def fraction_dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


# coefficient denominators 6, 10, 15 pairwise share factors
SHARED = poly({(2, 1): rat("5/6"), (1, 0): rat("-7/10"), (0, 3): rat("4/15"),
               (0, 0): rat("1/6")})


@pytest.mark.parametrize(
    "point",
    [
        (2, -3),
        ("1/2", "-5/3"),
        (Fraction(-4, 9), Fraction(3, 4)),
        (0, "-2/7"),
        ("3/5", 0),
        (0, 0),
        (Fraction(-1), "6/4"),
    ],
)
def test_eval_matches_fraction_formula(point):
    for p in (SHARED, SHARED * SHARED, -SHARED, MultiPoly.zero(XY), ONE):
        value = p.eval(point)
        assert type(value) is Fraction
        assert value == fraction_eval(p, point)


def test_eval_over_no_variables():
    assert MultiPoly.const((), rat("-3/4")).eval(()) == rat("-3/4")
    assert MultiPoly.zero(()).eval(()) == 0


@pytest.mark.parametrize(
    "u, v",
    [
        ((), ()),
        ((Fraction(1, 6), Fraction(-3, 10)), (Fraction(5, 4), Fraction(2, 15))),
        ((0, Fraction(-2, 3), 5), (Fraction(7, 9), 0, Fraction(-1, 5))),
        ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-1, 3))),
        ((3, -4), (5, 6)),
    ],
)
def test_dot_matches_fraction_formula(u, v):
    value = dot(u, v)
    assert type(value) is Fraction
    assert value == fraction_dot(u, v)


def test_dot_length_mismatch_rejected():
    with pytest.raises(ValueError):
        dot((Fraction(1),), ())


@given(polys(), points)
def test_eval_matches_fraction_formula_random(p, point):
    assert p.eval(point) == fraction_eval(p, point)


@given(st.lists(st.tuples(fractions, fractions), max_size=6))
def test_dot_matches_fraction_formula_random(pairs):
    u = tuple(a for a, _ in pairs)
    v = tuple(b for _, b in pairs)
    assert dot(u, v) == fraction_dot(u, v)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@given(polys(), points)
@settings(max_examples=50)
def test_eval_agrees_with_sympy(sympy, p, point):
    x, y = sympy.symbols("x y")
    expr = sum(
        (
            sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
            for e, c in p.terms
        ),
        sympy.Integer(0),
    )
    expected = expr.subs(
        {x: sympy.Rational(point[0].numerator, point[0].denominator),
         y: sympy.Rational(point[1].numerator, point[1].denominator)}
    )
    value = p.eval(point)
    assert (value.numerator, value.denominator) == (expected.p, expected.q)
