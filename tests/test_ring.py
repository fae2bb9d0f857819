import random
import re
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvbcalc import ring, scenario
from dvbcalc.core import (
    Chart,
    DecomposedDVB,
    DVBElement,
    DVBMorphism,
    VectorBundle,
    _slots_of,
)
from dvbcalc.duality import fiber_right_dual
from dvbcalc.forms import make_form
from dvbcalc.geomech import (
    Bivector,
    CoreSection,
    GeneralOneForm,
    GeneralVectorField,
    LinearConnection,
    LinearSection,
    check_jacobi,
    cotangent_prolongation,
    lambda_sharp,
    tangent_prolongation,
    total_space_vars,
    vertical_lift,
)
from dvbcalc.ring import (
    MultiPoly,
    PolyMatrix,
    SingularMatrixError,
    det_frac,
    mat_inverse_frac,
    mat_mul,
    random_tuple,
    rat,
    solve_fraction_free,
)
from polys import constant_morphism, poly_from_dict, values_at

XY = ("x", "y")


def poly(data, vars=XY):
    return poly_from_dict(vars, data)


X = MultiPoly.var(XY, "x")
Y = MultiPoly.var(XY, "y")
ONE = MultiPoly.const(XY, 1)


# -- frozen oracle values ----------------------------------------------------


def test_eval_square():
    x = MultiPoly.var(("x",), "x")
    assert (x * x).eval((3,)) == 9


def test_eval_zero_anywhere():
    assert MultiPoly.zero(XY).eval((rat("5/7"), rat("-2"))) == 0


def test_eval_mixed_term():
    # 2*x*y - 1/2 at (1, 3) = 11/2
    p = poly({(1, 1): 2, (0, 0): rat("-1/2")})
    assert p.eval((1, 3)) == rat("11/2")


def test_partial_square():
    assert (X * X).partial("x") == X.scale(2)
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
    x = MultiPoly.var(("x",), "x")
    shifted = (x * x).compose((X + ONE,))
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
    assert solve_fraction_free(values_at(m, (rat(0),)), (rat(6),)) == (3,)


def test_solve_identity():
    m = PolyMatrix.identity(("x",), 2)
    assert solve_fraction_free(values_at(m, (rat(1),)), (rat("4/3"), rat(-2))) == (rat("4/3"), -2)


def test_solve_upper_triangular():
    m = PolyMatrix.constant(("x",), [[1, 1], [0, 2]])
    assert solve_fraction_free(values_at(m, (rat(0),)), (rat(3), rat(4))) == (1, 2)


def test_solve_singular_raises():
    m = PolyMatrix.constant(("x",), [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve_fraction_free(values_at(m, (rat(0),)), (rat(1), rat(1)))


def test_solve_polynomial_entries_at_point():
    x = MultiPoly.var(("x",), "x")
    m = PolyMatrix(("x",), ((x, MultiPoly.zero(("x",))), (MultiPoly.zero(("x",)), x)))
    assert solve_fraction_free(values_at(m, (rat(2),)), (rat(4), rat(6))) == (2, 3)
    with pytest.raises(SingularMatrixError):
        solve_fraction_free(values_at(m, (rat(0),)), (rat(1), rat(1)))


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
    # 1 - x + x^2 has a constant term and is 1 at x = 0 and at x = 1
    assert PolyMatrix(("x",), ((one - x + x * x,),)).unimodular_inverse() is None


def test_corner_values_reject_a_nonconstant_determinant_before_any_minor_table(monkeypatch):
    """A determinant whose values at the origin and at (1, 1) differ is not
    constant, so no minor table is built; one that is equal at both points
    is decided by the tables."""
    calls = []
    extend = ring._extend_minors
    monkeypatch.setattr(ring, "_extend_minors", lambda *args: calls.append(1) or extend(*args))
    x, y = MultiPoly.var(XY, "x"), MultiPoly.var(XY, "y")
    one, zero = MultiPoly.const(XY, 1), MultiPoly.zero(XY)
    # det = 1 + x: 1 at the origin, 2 at (1, 1)
    differ = PolyMatrix(XY, ((one + x, y), (zero, one)))
    assert differ.unimodular_inverse() is None
    assert ring._unimodular_inverse(differ._pairs, 2) is None
    assert calls == []
    # det = x^2 - x: 0 at both points, not constant
    equal = PolyMatrix(XY, ((x * x - x,),))
    assert equal.unimodular_inverse() is None
    assert calls
    calls.clear()
    # det = 1 everywhere, with 32-digit coefficients off the diagonal
    big = poly_from_dict(XY, {(1, 2): Fraction(10**31 + 7, 10**31 + 9)})
    unimodular = PolyMatrix(XY, ((one, big), (zero, one)))
    assert unimodular * unimodular.unimodular_inverse() == PolyMatrix.identity(XY, 2)
    assert calls


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
    return poly_from_dict(vars, data)


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
    assert tuple(fraction_dot(row, x) for row in m) == b


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
    assert naive_mat_mul(m, inv, n, Fraction(0)) == identity


# -- the integer kernel of eval against the plain Fraction formula ----------


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


# -- rat: ints and Fractions as they are, text by the scenario reader -------

NOT_A_NUMBER = "not an integer n or a fraction n/d"
TOO_LONG = "more than 32 digits in the numerator or denominator"


@pytest.mark.parametrize(
    "text, message",
    [
        # the coefficient texts tests/test_fuzz.py's REJECTED writes into a file
        *[(t, NOT_A_NUMBER) for t in ("0.5", "1e3", "+1", " 1", "1_0", "\u0663")],
        ("1" * 33, TOO_LONG),
        ("1e100000", NOT_A_NUMBER),
        ("1/" + "2" * 33, TOO_LONG),
        (" 1/2 ", NOT_A_NUMBER),
    ],
)
def test_rat_reads_text_in_the_scenario_grammar_only(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rat(text)
    with pytest.raises(scenario.ScenarioParseError, match=f": {message}$"):
        scenario.parse_poly([{"coeff": text, "exps": []}], (), "p")


def test_rat_rejects_an_exponent_form_before_building_its_power():
    # Fraction("1e10000000") alone takes about 15 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{NOT_A_NUMBER}$"):
        rat("1e10000000")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text", ["3/6", "-0", "007/010", "-" + "9" * 32, "1/" + "9" * 32, "1/0", "-4/0"]
)
def test_rat_reads_text_as_the_scenario_reader_does(text):
    def outcome(f):
        try:
            return f(text)
        except ZeroDivisionError as exc:
            return str(exc)

    assert outcome(rat) == outcome(ring.parse_number) == outcome(Fraction)


@given(st.one_of(st.integers(), st.fractions()))
@example(10**40)
@example(-(10**32))
def test_rat_keeps_ints_and_fractions(value):
    got = rat(value)
    assert type(got) is Fraction and got == value
    if type(value) is Fraction:
        assert got is value


def test_const_and_scale_reject_a_bool():
    for build in (lambda v: MultiPoly.const(XY, v), X.scale):
        with pytest.raises(TypeError, match="^cannot interpret True as a rational$"):
            build(True)
        assert build(1) == build("1")


def test_draws_match_stdlib_randint_and_state():
    """`_draw` and the pair loop `_draw_sample` keep the stdlib's
    rejection rule: the same values as `randint`/`randrange` (the pairs in
    lowest terms), and the same rng state afterwards."""
    for seed in range(200):
        # includes 1, every 2^k and every 2^k - 1, and the bound cap 1000;
        # the pair counts 0-5 on the bounds the suites use and on the cap
        for b in (*range(1, 65), 1000):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in range(6) if b in (1, 7, 49, 1000) else (3,):
                pairs = [(theirs.randint(-b, b), theirs.randint(1, b)) for _ in range(n)]
                want = [(p // gcd(p, q), q // gcd(p, q)) for p, q in pairs]
                (point,) = ring._draw_sample(ours, b, n, ())
                assert [(a.numerator, a.denominator) for a in point] == want
            assert ours.getstate() == theirs.getstate()
            assert ring._randint(ours, -b, 2 * b) == theirs.randint(-b, 2 * b)
            assert ring._randint(ours, 0, b - 1) == theirs.randrange(b)
            assert ring._randint(ours, 0, (1 << 30) - 1) == theirs.randrange(1 << 30)
            assert random_tuple(ours, 1, b)[0] == Fraction(theirs.randint(-b, b), theirs.randint(1, b))
            assert ours.random() == theirs.random()


@pytest.mark.parametrize("bound", [1, 2, 7, 1000])
def test_draw_sample_matches_stdlib_fraction_pairs(bound):
    """The one pair loop against the stdlib: the point and each slot vector
    are the `Fraction(randint(-b, b), randint(1, b))` values in draw order,
    the rng state afterwards is the stdlib's, and every slot vector is in
    lowest terms with den > 0, a zero vector over 1.  The lengths are random
    lists that include 0, and dim 0 is a point chart."""
    shapes = random.Random(bound)
    for seed in range(150):
        dim = shapes.randint(0, 3)
        lengths = [shapes.choice((0, 0, 1, 2, 3, 4, 6)) for _ in range(shapes.randint(0, 9))]
        ours, theirs = random.Random(seed), random.Random(seed)
        point, *slots = ring._draw_sample(ours, bound, dim, lengths)

        def values(n):
            pairs = [(theirs.randint(-bound, bound), theirs.randint(1, bound)) for _ in range(n)]
            return [Fraction(p, q) for p, q in pairs]

        assert type(point) is tuple and list(point) == values(dim)
        assert all(type(a) is Fraction for a in point)
        assert len(slots) == len(lengths)
        for (nums, den), n in zip(slots, lengths):
            assert type(nums) is tuple and [Fraction(a, den) for a in nums] == values(n)
            assert den > 0 and gcd(den, *nums) == 1
            assert any(nums) or den == 1
        assert ours.getstate() == theirs.getstate()


@given(polys(), points)
def test_eval_matches_fraction_formula_random(p, point):
    assert p.eval(point) == fraction_eval(p, point)


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


# -- minor-table determinant and inverse, and the sum-of-products kernel ------
#
# References: a Laplace expansion written here, and sympy's division-free
# Berkowitz determinant and adjugate.


def laplace_det(rows, one=ONE):
    """Laplace expansion along the first row, over polynomials or, with
    one=Fraction(1), over rationals."""
    if not rows:
        return one
    total = one - one
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * laplace_det(minor, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def laplace_inverse(m, det_value):
    n = m.rows
    rows = [list(row) for row in m.entries]

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1 :] for r, row in enumerate(rows) if r != i]
        value = laplace_det(minor)
        return value if (i + j) % 2 == 0 else -value

    return PolyMatrix.build(XY, n, n, lambda i, j: cofactor(j, i).scale(1 / det_value))


def random_sparse_poly(rng):
    """Zero about half the time; otherwise one to three short terms."""
    if rng.random() < 0.5:
        return MultiPoly.zero(XY)
    return poly(
        {
            (rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        }
    )


def random_sparse_matrix(rng, rows, cols):
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.2 else None
    return PolyMatrix.build(
        XY,
        rows,
        cols,
        lambda i, j: MultiPoly.zero(XY) if i == zero_row else random_sparse_poly(rng),
    )


def random_unimodular(rng, n, scale=1):
    """scale * (permuted lower x upper unitriangular): constant determinant."""

    def triangular(below):
        def entry(i, j):
            if i == j:
                return ONE
            return random_sparse_poly(rng) if (i > j) == below else MultiPoly.zero(XY)

        return PolyMatrix.build(XY, n, n, entry)

    product = (triangular(True) * triangular(False)).entries
    order = list(range(n))
    rng.shuffle(order)
    return PolyMatrix(XY, tuple(tuple(p.scale(scale) for p in product[i]) for i in order))


def sympy_poly(sympy, p):
    x, y = sympy.symbols("x y")
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1] for e, c in p.terms),
        sympy.Integer(0),
    )


def sympy_matrix(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy_poly(sympy, p) for row in m.entries for p in row])


def from_sympy(sympy, expr):
    x, y = sympy.symbols("x y")
    terms = sympy.Poly(sympy.expand(expr), x, y).terms()
    return poly({e: Fraction(int(c.p), int(c.q)) for e, c in terms})


@pytest.mark.parametrize("seed", range(28))
def test_det_matches_laplace(seed):
    rng = random.Random(seed)
    m = random_sparse_matrix(rng, seed % 7, seed % 7)
    assert m.det() == laplace_det([list(row) for row in m.entries])


@pytest.mark.parametrize("seed", range(14))
def test_det_matches_sympy(sympy, seed):
    rng = random.Random(100 + seed)
    n = seed % 7
    m = random_sparse_matrix(rng, n, n)
    expected = sympy_matrix(sympy, m).det(method="berkowitz") if n else 1
    assert m.det() == from_sympy(sympy, expected)


def unimodular_case(seed):
    """A matrix with constant determinant +-scale^n; odd seeds have scale 1."""
    n = seed % 7
    scale = Fraction(1) if seed % 2 else Fraction(-3, 2)
    return random_unimodular(random.Random(200 + seed), n, scale), scale


@pytest.mark.parametrize("seed", range(14))
def test_unimodular_inverse_matches_laplace(seed):
    m, scale = unimodular_case(seed)
    n = m.rows
    d = m.det()
    # an odd row permutation flips the sign
    assert d in (MultiPoly.const(XY, scale**n), MultiPoly.const(XY, -(scale**n)))
    inv = m.unimodular_inverse()
    assert inv is not None
    assert m * inv == PolyMatrix.identity(XY, n)
    assert inv * m == PolyMatrix.identity(XY, n)
    if n <= 5:
        assert inv == laplace_inverse(m, dict(d.terms)[(0, 0)])


@pytest.mark.parametrize("seed", [s for s in range(14) if 0 < s % 7 <= 4])
def test_unimodular_inverse_matches_sympy(sympy, seed):
    m, _ = unimodular_case(seed)
    n = m.rows
    s = sympy_matrix(sympy, m)
    expected = s.adjugate(method="berkowitz") / s.det(method="berkowitz")
    assert m.unimodular_inverse().entries == tuple(
        tuple(from_sympy(sympy, expected[i, j]) for j in range(n)) for i in range(n)
    )


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_mul_matches_sympy(sympy, p, q):
    assert p * q == from_sympy(sympy, sympy_poly(sympy, p) * sympy_poly(sympy, q))


@given(polys())
@settings(max_examples=40, deadline=None)
def test_partial_matches_sympy(sympy, p):
    expr = sympy_poly(sympy, p)
    for name in XY:
        assert p.partial(name) == from_sympy(sympy, sympy.diff(expr, sympy.Symbol(name)))


small_polys = polys(max_terms=3, max_degree=2)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=30, deadline=None)
def test_compose_matches_sympy(sympy, p, img_x, img_y):
    x, y = sympy.symbols("x y")
    images = {x: sympy_poly(sympy, img_x), y: sympy_poly(sympy, img_y)}
    expected = sympy_poly(sympy, p).subs(images, simultaneous=True)
    assert p.compose((img_x, img_y)) == from_sympy(sympy, expected)


@pytest.mark.parametrize("seed", range(10))
def test_singular_or_nonconstant_determinant_has_no_inverse(seed):
    rng = random.Random(300 + seed)
    n = 1 + seed % 5
    m = random_unimodular(rng, n).entries
    if seed % 2:
        # a zero row: singular
        rows = m[:-1] + ((MultiPoly.zero(XY),) * n,)
    else:
        # the last row times x: determinant +-x, invertible only pointwise
        rows = m[:-1] + (tuple(p * X for p in m[-1]),)
    singular = PolyMatrix(XY, rows)
    assert singular.det() == laplace_det([list(row) for row in rows])
    assert singular.unimodular_inverse() is None


def test_non_square_det_and_inverse_rejected():
    m = PolyMatrix.build(XY, 2, 3, lambda i, j: X if i == j else ONE)
    with pytest.raises(ValueError):
        m.det()
    with pytest.raises(ValueError):
        m.unimodular_inverse()


def naive_mat_mul(a, b, cols, zero):
    return tuple(
        tuple(sum((row[t] * b[t][j] for t in range(len(b))), zero) for j in range(cols))
        for row in a
    )


@pytest.mark.parametrize("shape", [(r, k, c) for r in (0, 1, 3) for k in (0, 1, 3) for c in (0, 2)])
def test_mat_mul_matches_naive_sum(shape):
    rows, inner, cols = shape
    rng = random.Random(str(shape))
    a = random_sparse_matrix(rng, rows, inner).entries
    b = random_sparse_matrix(rng, inner, cols).entries
    product = mat_mul(PolyMatrix(XY, a)._pairs, PolyMatrix(XY, b)._pairs, cols)
    assert PolyMatrix._of_pairs(XY, product).entries == naive_mat_mul(a, b, cols, MultiPoly.zero(XY))


def test_mat_mul_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mat_mul(((ONE._pairs,),), (), 1)


def test_dense_det_stays_exponential_not_factorial(monkeypatch):
    """A dense n x n determinant takes at most n 2^(n-1) polynomial products;
    Laplace expansion would take about e n! (13700 for n = 7)."""
    n = 7
    products = []
    kernel = ring._sum_products

    def counting(pairs):
        pairs = list(pairs)
        products.append(len(pairs))
        return kernel(pairs)

    monkeypatch.setattr(ring, "_sum_products", counting)
    rng = random.Random(7)
    m = PolyMatrix.build(
        XY, n, n, lambda i, j: poly({(1, 0): rng.randint(1, 9), (0, 0): rng.randint(-9, 9)})
    )
    d = m.det()
    assert sum(products) <= n * 2 ** (n - 1)
    assert max(sum(e) for e, _ in d.terms) == n


# -- the pair kernel against plain Fraction sums of products -----------------
#
# The oracle holds a polynomial as exponent -> nonzero Fraction and forms each
# sum of products term by term in Fraction arithmetic.


def frac_poly(rng, nvars, terms, digits):
    """Up to `terms` terms with exponents 0-3, numerators and denominators of
    `digits` digits, so the denominators are distinct."""
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return {
        tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(
            rng.choice((1, -1)) * rng.randint(lo, hi), rng.randint(lo, hi)
        )
        for _ in range(terms)
    }


def kernel_form(p):
    return ring._Pairs({e: (c.numerator, c.denominator) for e, c in p.items()})


def frac_sum_products(pairs):
    acc = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def frac_det(rows, nvars):
    """Leibniz expansion of a square matrix of oracle polynomials."""
    n = len(rows)
    total = []
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {(0,) * nvars: Fraction(sign)}
        for i, j in enumerate(perm):
            term = frac_sum_products([(term, rows[i][j])])
        total.append((term, {(0,) * nvars: Fraction(1)}))
    return frac_sum_products(total)


def kernel_case(seed):
    """Seed -> (number of variables, pairs of oracle polynomials).  Variables
    cycle through 0-3 and digits through 1, 2 and 32; every fourth case ends
    with the negation of its first pair, so those terms cancel, and zero
    polynomials occur as factors."""
    rng = random.Random(seed)
    nvars, digits = seed % 4, (1, 2, 32)[seed % 3]
    pairs = [
        tuple(frac_poly(rng, nvars, rng.randint(0, 4), digits) for _ in range(2))
        for _ in range(rng.randint(0, 4))
    ]
    if seed % 4 == 0 and pairs:
        a, b = pairs[0]
        pairs.append(({e: -c for e, c in a.items()}, b))
    return nvars, pairs


def frac_of(p):
    """A kernel-form polynomial as exponent -> Fraction, by value."""
    return {e: Fraction(n, d) for e, (n, d) in p.items()}


# 1/6 + 1/3 = 1/2 and 5/12 + 1/12 = 1/2: sums whose denominators share a
# factor with the new numerator, so only a second gcd brings them to lowest terms
SHARED_FACTORS = [
    [({(): Fraction(1, 6)}, {(): Fraction(1)}), ({(): Fraction(1, 3)}, {(): Fraction(1)})],
    [
        ({(1,): Fraction(5, 4)}, {(0,): Fraction(1, 3)}),
        ({(0,): Fraction(1, 4)}, {(1,): Fraction(1, 3)}),
    ],
]


# Products with a zero-exponent term, which shifts no exponent: constant
# factors, factors with a constant term in both argument orders (the shorter
# first and second), constant-term products landing on another product's
# exponent, and constant-term products that cancel.
A3 = {(0, 0): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 7)}
B2 = {(0, 0): Fraction(3), (1, 1): Fraction(1, 4)}
# (2 + x/2)(1/3 + 5x): x/6 and 10x land on one exponent
C2 = {(0, 0): Fraction(2), (1, 0): Fraction(1, 2)}
D2 = {(0, 0): Fraction(1, 3), (1, 0): Fraction(5)}
ZERO_EXPONENT = [
    [({(0, 0): Fraction(3, 4)}, {(0, 0): Fraction(-2, 9)})],
    [({(): Fraction(2, 3)}, {(): Fraction(3, 4)}), ({(): Fraction(1, 6)}, {(): Fraction(5)})],
    [(A3, B2)],
    [(B2, A3)],
    [(A3, B2), (B2, A3)],
    [
        ({(1, 0): Fraction(1, 2)}, {(0, 0): Fraction(1, 3)}),
        ({(0, 0): Fraction(1, 5)}, {(1, 0): Fraction(1, 7)}),
    ],
    [(C2, D2)],
    [
        ({(1, 0): Fraction(1, 2)}, {(0, 0): Fraction(1, 3)}),
        ({(0, 0): Fraction(-1, 6)}, {(1, 0): Fraction(1)}),
    ],
    # (x + 1)(x - 1): the x terms cancel
    [({(1, 0): Fraction(1), (0, 0): Fraction(1)}, {(1, 0): Fraction(1), (0, 0): Fraction(-1)})],
]


@pytest.mark.parametrize("seed", range(36))
def test_kernel_matches_fraction_sums_of_products(seed):
    _, pairs = kernel_case(seed)
    got = ring._sum_products([(kernel_form(a), kernel_form(b)) for a, b in pairs])
    assert frac_of(got) == frac_sum_products(pairs)


@pytest.mark.parametrize("pairs", SHARED_FACTORS + ZERO_EXPONENT + [[], [({}, {(): Fraction(2)})]])
def test_kernel_on_shared_factors_and_zero(pairs):
    got = ring._sum_products([(kernel_form(a), kernel_form(b)) for a, b in pairs])
    assert frac_of(got) == frac_sum_products(pairs)
    a, b = (kernel_form(frac_sum_products(pairs[:1])), kernel_form(frac_sum_products(pairs[1:])))
    assert frac_of(a + b) == frac_of(got)
    assert frac_of(-got) == {e: -c for e, c in frac_of(got).items()}


def mat_case(seed):
    """Seed -> (nvars, a, b, cols) of oracle matrices, shapes 0-3 including
    0 x 0 and 1 x 1, with about a third of the entries zero."""
    rng = random.Random(seed)
    nvars, digits = seed % 4, (1, 32)[seed % 2]
    rows, inner, cols = (rng.randint(0, 3) for _ in range(3))
    if seed < 2:
        rows = inner = cols = seed

    def entry():
        return frac_poly(rng, nvars, rng.choice((0, 1, 2, 3)), digits)

    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    return nvars, a, b, cols


def kernel_rows(m):
    return tuple(tuple(kernel_form(p) for p in row) for row in m)


@pytest.mark.parametrize("seed", range(24))
def test_kernel_mat_mul_matches_fraction_sums(seed):
    _, a, b, cols = mat_case(seed)
    got = mat_mul(kernel_rows(a), kernel_rows(b), cols)
    want = [[frac_sum_products(list(zip(row, col))) for col in zip(*b)] for row in a]
    if not b:
        want = [[{} for _ in range(cols)] for _ in a]
    assert [[frac_of(p) for p in row] for row in got] == want


def minor_case(seed):
    """Seed -> (nvars, rows): k rows of an n-column matrix, 0 <= k <= n <= 3."""
    rng = random.Random(seed)
    nvars, digits = seed % 4, (1, 32)[seed % 2]
    n = seed % 4
    k = rng.randint(0, n)
    return nvars, [
        [frac_poly(rng, nvars, rng.choice((0, 1, 2, 3)), digits) for _ in range(n)]
        for _ in range(k)
    ]


def frac_minors(rows, nvars):
    """Every nonzero k x k minor of k rows, keyed by its column bitmask."""
    n = len(rows[0]) if rows else 0
    out = {}
    for cols in combinations(range(n), len(rows)):
        minor = frac_det([[row[j] for j in cols] for row in rows], nvars)
        if minor:
            out[sum(1 << j for j in cols)] = minor
    return out


@pytest.mark.parametrize("seed", range(32))
def test_minor_table_matches_fraction_determinants(seed):
    nvars, rows = minor_case(seed)
    got = ring._extend_minors(ring._unit_table(nvars), kernel_rows(rows))
    assert {mask: frac_of(p) for mask, p in got.items()} == frac_minors(rows, nvars)


def height_cases():
    """Every kernel entry point on dense inputs at 32 digits, each with the
    exact oracle value of every polynomial it returns."""
    for seed in range(36):
        nvars, pairs = kernel_case(seed)
        kernel_pairs = [(kernel_form(a), kernel_form(b)) for a, b in pairs]
        yield ring._sum_products(kernel_pairs), frac_sum_products(pairs)
        if len(pairs) > 1:
            a, b = (frac_sum_products(pairs[:1]), frac_sum_products(pairs[1:]))
            yield kernel_form(a) + kernel_form(b), frac_sum_products(pairs)
    for pairs in SHARED_FACTORS:
        a, b = (frac_sum_products(pairs[:1]), frac_sum_products(pairs[1:]))
        yield kernel_form(a) + kernel_form(b), frac_sum_products(pairs)
    for pairs in ZERO_EXPONENT:
        kernel_pairs = [(kernel_form(a), kernel_form(b)) for a, b in pairs]
        yield ring._sum_products(kernel_pairs), frac_sum_products(pairs)
    for seed in range(24):
        _, a, b, cols = mat_case(seed)
        got = mat_mul(kernel_rows(a), kernel_rows(b), cols)
        for row, got_row in zip(a, got):
            for col, p in zip(zip(*b), got_row):
                yield p, frac_sum_products(list(zip(row, col)))
    for seed in range(32):
        nvars, rows = minor_case(seed)
        got = ring._extend_minors(ring._unit_table(nvars), kernel_rows(rows))
        want = frac_minors(rows, nvars)
        yield from ((got[mask], want[mask]) for mask in want)


def bits(pairs):
    return sum(n.bit_length() + d.bit_length() for n, d in pairs)


def test_kernel_keeps_fraction_height():
    """Every pair the kernel returns is (Fraction.numerator,
    Fraction.denominator) of the exact term: in lowest terms, with its own
    denominator, so its bits are those of the Fraction.  One denominator
    shared by a polynomial's terms, or a missed gcd, adds bits here."""
    total = 0
    for got, want in height_cases():
        exact = [(c.numerator, c.denominator) for c in want.values()]
        assert bits(got.values()) == bits(exact)
        assert dict(got) == dict(zip(want, exact))
        total += len(exact)
    assert total > 400  # 479 terms: the cases are not vacuous


# -- rational determinant, solve and inverse: one Bareiss elimination --------


def frac_matrix(seed):
    """Seeds cycle through sizes 0-6 and three kinds: dense random entries
    (about a quarter zero), a singular matrix whose last row combines the
    others, and an upper triangular matrix with its rows reversed, so the
    leading pivot is zero and the elimination must swap rows."""
    rng = random.Random(400 + seed)
    n, kind = seed % 7, seed // 7 % 3

    def entry():
        return Fraction(0) if rng.random() < 0.25 else random_tuple(rng, 1)[0]

    if kind == 0:
        return [[entry() for _ in range(n)] for _ in range(n)]
    if kind == 1 and n:
        rows = [[entry() for _ in range(n)] for _ in range(n - 1)]
        weights = [random_tuple(rng, 1)[0] for _ in rows]
        last = [fraction_dot(weights, col) for col in zip(*rows)] if rows else [Fraction(0)]
        return rows + [last]

    def upper(i, j):
        if i == j:
            return Fraction(rng.randint(1, 7))
        return entry() if j > i else Fraction(0)

    return [[upper(i, j) for j in range(n)] for i in range(n)][::-1]


@pytest.mark.parametrize("seed", range(42))
def test_det_frac_matches_laplace(seed):
    m = frac_matrix(seed)
    expected = laplace_det(m, Fraction(1))
    assert det_frac(m) == expected
    n, kind = seed % 7, seed // 7 % 3
    if kind == 1 and n:
        assert expected == 0
    if kind == 2:
        # reversing n rows is a permutation of sign (-1)^(n(n-1)/2)
        diagonal = Fraction(1)
        for i in range(n):
            diagonal *= m[n - 1 - i][i]
        assert expected == (-1) ** (n * (n - 1) // 2) * diagonal


@pytest.mark.parametrize("seed", range(0, 42, 2))
def test_det_frac_matches_sympy(sympy, seed):
    m = frac_matrix(seed)
    n = len(m)
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m for x in row]
    s = sympy.Matrix(n, n, entries)
    expected = s.det(method="berkowitz") if n else 1
    assert det_frac(m) == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


@pytest.mark.parametrize("seed", range(42))
def test_frac_solve_and_inverse_agree_with_det(seed):
    m = frac_matrix(seed)
    n = len(m)
    if det_frac(m) == 0:
        with pytest.raises(SingularMatrixError):
            mat_inverse_frac(m)
        with pytest.raises(SingularMatrixError):
            solve_fraction_free(m, [Fraction(1)] * n)
        return
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    assert naive_mat_mul(m, mat_inverse_frac(m), n, Fraction(0)) == identity
    b = tuple(Fraction(i + 1, 2) for i in range(n))
    assert tuple(fraction_dot(row, solve_fraction_free(m, b)) for row in m) == b


def test_mat_inverse_frac_eliminates_once(monkeypatch):
    """One elimination of [m | I] for all n columns, not one per column."""
    m = frac_matrix(5)
    assert det_frac(m) != 0
    calls = []
    kernel = ring._bareiss

    def counting(matrix, columns):
        calls.append(len(columns))
        return kernel(matrix, columns)

    monkeypatch.setattr(ring, "_bareiss", counting)
    mat_inverse_frac(m)
    assert calls == [5]


def primitive_hadamard_bound(matrix) -> int:
    """Hadamard's bound on |det| of the primitive rows of a rational matrix:
    each row times the lcm of its denominators, divided by its gcd."""
    squares = 1
    for row in matrix:
        scale = lcm(*[a.denominator for a in row])
        ints = [a.numerator * (scale // a.denominator) for a in row]
        content = gcd(*ints)
        squares *= sum((v // content) ** 2 for v in ints)
    return isqrt(squares)


def test_elimination_pivots_stay_within_the_primitive_row_bound(monkeypatch):
    """Every pivot `_bareiss` returns for a dense block with a distinct 10-
    to 12-digit denominator in each entry has at most the bits of the
    Hadamard bound of the block's primitive rows, on the pointwise inverse,
    the right dual, the parse-time certificate and `det_frac`.  Rows over
    one denominator for the whole block would need about n times as many."""
    rng = random.Random(22)
    n = 4
    block = tuple(
        tuple(
            Fraction(rng.randint(-10**12, 10**12), rng.randint(10**9, 10**12 - 1))
            for _ in range(n)
        )
        for _ in range(n)
    )
    dens = [a.denominator for row in block for a in row]
    assert len(set(dens)) == n * n and all(10**9 <= d < 10**12 for d in dens)
    bound = primitive_hadamard_bound(block).bit_length()
    one, zero = [{"coeff": 1, "exps": [0]}], []
    obj = {
        "bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": n},
        "morphism": {
            "Phi_l": [[one]],
            "Phi_c": [[one]],
            "Phi_r": [[[{"coeff": str(a), "exps": [0]}] for a in row] for row in block],
            "Psi": [[[zero] for _ in range(n)]],
        },
    }
    fm = scenario.scenario_from_obj(obj).morphism.at((Fraction(1, 2),))
    assert fm.r == block
    pivots = []
    kernel = ring._bareiss

    def recording(matrix, columns):
        out = kernel(matrix, columns)
        pivots.append(out[0])
        return out

    monkeypatch.setattr(ring, "_bareiss", recording)
    paths = {
        "FiberMorphism.inverse": fm.inverse,
        "fiber_right_dual": lambda: fiber_right_dual(fm),
        "parse-time witness": lambda: scenario.scenario_from_obj(obj),
        "det_frac": lambda: det_frac(block),
    }
    bits = {}
    for name, run in paths.items():
        pivots.clear()
        run()
        bits[name] = max(abs(d).bit_length() for d in pivots)
    assert all(b <= bound for b in bits.values()), (bits, bound)


def test_non_square_rational_input_rejected():
    wide = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(4), Fraction(5), Fraction(6)))
    tall = tuple(zip(*wide))
    solve_text = "^solve requires a square matrix and matching rhs$"
    with pytest.raises(ValueError, match=solve_text):
        solve_fraction_free(wide, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match=solve_text):
        solve_fraction_free(tall, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match=solve_text):
        solve_fraction_free(((Fraction(1),),), (Fraction(1), Fraction(2)))
    for m in (wide, tall):
        with pytest.raises(ValueError, match=solve_text):
            mat_inverse_frac(m)
        with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
            det_frac(m)


# -- one evaluation plan behind every polynomial record ------------------------
#
# Every record that evaluates through a cached `_EvalPlan` is checked against
# `fraction_eval`, one `Fraction` per term.  Charts have dimension 0-3 and
# fibers rank 0-3, so blocks with no rows or no columns occur.  Polynomials
# are zero, constant or general, with coefficients that include the pairwise
# sharing denominators 6, 10 and 15; coordinates are zero, negative, small or
# long, given as ints, 'p/q' strings or Fractions.

plan_coefficients = st.one_of(
    st.sampled_from([Fraction(5, 6), Fraction(-7, 10), Fraction(4, 15), Fraction(-1, 6)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
plan_values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**4),
)
# each value as a Fraction, a 'p/q' string or, when integral, an int
plan_inputs = plan_values.flatmap(
    lambda q: st.sampled_from([Fraction(q), str(q)] + [int(q)] * (q.denominator == 1))
)
# scenario text caps exponents at 16, but morphisms built or derived through
# the API take any degree, and their one plan must evaluate them too
morphism_exponents = st.integers(0, 8) | st.just(19)


@st.composite
def plan_polys(draw, vars, exponents=st.integers(0, 4)):
    kind = draw(st.sampled_from(["zero", "constant", "general", "general"]))
    if kind == "zero":
        return MultiPoly.zero(vars)
    if kind == "constant":
        return MultiPoly.const(vars, draw(plan_coefficients))
    data = {}
    for _ in range(draw(st.integers(1, 3))):
        data[tuple(draw(exponents) for _ in vars)] = draw(plan_coefficients)
    return poly_from_dict(vars, data)


def plan_vector(draw, vars, n, **kw):
    return tuple(draw(plan_polys(vars, **kw)) for _ in range(n))


def plan_matrix(draw, vars, rows, cols, **kw):
    return PolyMatrix(vars, tuple(plan_vector(draw, vars, cols, **kw) for _ in range(rows)))


def plan_point(draw, n):
    return tuple(draw(plan_inputs) for _ in range(n))


def ranks(draw):
    return tuple(draw(st.integers(0, 3)) for _ in range(3))


def values(polys, point):
    return tuple(fraction_eval(p, point) for p in polys)


def assert_lowest_terms(v):
    for nums, den in (v._f, v._c, v._e):
        assert den > 0 and gcd(den, *nums) == 1


def reference_blocks(phi, x):
    def rows(m):
        return tuple(values(row, x) for row in m)

    return (
        rows(phi.phi_l.entries),
        rows(phi.phi_c.entries),
        rows(phi.phi_r.entries),
        tuple(rows(plane) for plane in phi.psi),
    )


@st.composite
def morphisms_and_points(draw):
    chart = Chart.of_dim(draw(st.integers(0, 3)))
    source = DecomposedDVB(chart, *ranks(draw))
    target = DecomposedDVB(chart, *ranks(draw))
    vars, kw = chart.names, {"exponents": morphism_exponents}
    phi = DVBMorphism(
        source,
        target,
        plan_matrix(draw, vars, target.n_F, source.n_F, **kw),
        plan_matrix(draw, vars, target.n_C, source.n_C, **kw),
        plan_matrix(draw, vars, target.n_E, source.n_E, **kw),
        tuple(
            plan_matrix(draw, vars, source.n_E, source.n_F, **kw).entries
            for _ in range(target.n_C)
        ),
    )
    return phi, [plan_point(draw, chart.dim) for _ in range(draw(st.integers(1, 3)))]


@given(morphisms_and_points(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_at_matches_per_entry_eval(case, rng):
    phi, points = case
    for raw in points:
        x = tuple(map(rat, raw))
        fm = phi.at(raw)
        want = reference_blocks(phi, x)
        assert (fm.x, (fm.l, fm.c, fm.r, fm.psi)) == (x, want)
        reference = constant_morphism(phi.source, phi.target, *want).at(x)
        assert fm == reference and hash(fm) == hash(reference)
        assert values_at(phi.phi_l, raw) == want[0]
        for p in (row[0] for row in phi.phi_c.entries if row):
            assert p.eval(raw) == fraction_eval(p, x)
        b = phi.source
        for _ in range(2):
            v = DVBElement(b, x, *(random_tuple(rng, n, 49) for n in b.ranks))
            k = phi.apply(v)
            assert_lowest_terms(k)
            assert k == phi.at(x).apply(v) == reference.apply(v)


@st.composite
def side_records(draw):
    """A vector field and a one-form on a vector bundle, with a point (x, e)."""
    vb = VectorBundle(Chart.of_dim(draw(st.integers(0, 3))), draw(st.integers(0, 3)))
    vars, n, k = total_space_vars(vb), vb.chart.dim, vb.rank
    field = GeneralVectorField(vb, plan_vector(draw, vars, n), plan_vector(draw, vars, k))
    form = GeneralOneForm(vb, plan_vector(draw, vars, n), plan_vector(draw, vars, k))
    return field, form, plan_point(draw, n), plan_point(draw, k)


@given(side_records(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_vector_field_and_one_form_plans_match_per_entry_eval(case, rng):
    field, form, x, e = case
    vb = field.bundle
    tan, cot = tangent_prolongation(vb), cotangent_prolongation(vb)
    point = tuple(map(rat, x + e))
    base, vert = values(field.base, point), values(field.vert, point)
    x, e_slots = tuple(map(rat, x)), _slots_of(tuple(map(rat, e)))
    image = field._image(x, e_slots)
    assert_lowest_terms(image)
    assert image == tan.element(x, base, vert, e)
    dx, de = values(form.dx_coeffs, point), values(form.de_coeffs, point)
    image = form._image(x, e_slots)
    assert_lowest_terms(image)
    assert image == cot.element(x, de, dx, e)
    n, k = vb.chart.dim, vb.rank
    p, phi, xdot, edot = (random_tuple(rng, m, 49) for m in (n, k, n, k))
    value = Fraction(*field._value(cot.element(x, phi, p, e)._key))
    assert value == fraction_dot(p, base) + fraction_dot(phi, vert)
    value = Fraction(*form._value(tan.element(x, xdot, edot, e)._key))
    assert value == fraction_dot(dx, xdot) + fraction_dot(de, edot)


@st.composite
def section_records(draw):
    """Left and right linear sections and a core section of one bundle."""
    bundle = DecomposedDVB(Chart.of_dim(draw(st.integers(0, 3))), *ranks(draw))
    vars, (n_f, n_c, n_e) = bundle.chart.names, bundle.ranks
    left = LinearSection(
        bundle, "left", plan_vector(draw, vars, n_e), plan_matrix(draw, vars, n_c, n_f)
    )
    right = LinearSection(
        bundle, "right", plan_vector(draw, vars, n_f), plan_matrix(draw, vars, n_c, n_e)
    )
    core = CoreSection(bundle.chart, plan_vector(draw, vars, n_c))
    points = (plan_point(draw, m) for m in (bundle.chart.dim, n_f, n_e))
    return (left, right, core, *points)


def mat_vec(m, v):
    return tuple(fraction_dot(row, v) for row in m)


@given(section_records())
@settings(max_examples=40, deadline=None)
def test_section_plans_match_per_entry_eval(case):
    left, right, core, x, f, e = case
    b = left.bundle
    pt, fv, ev = (tuple(map(rat, t)) for t in (x, f, e))
    got = left.at(x, f)
    assert_lowest_terms(got)
    fiber = tuple(values(row, pt) for row in left.fiber.entries)
    assert got == b.element(pt, fv, mat_vec(fiber, fv), values(left.base, pt))
    got = right.at(x, e)
    assert_lowest_terms(got)
    fiber = tuple(values(row, pt) for row in right.fiber.entries)
    assert got == b.element(pt, values(right.base, pt), mat_vec(fiber, ev), ev)
    gamma = values(core.gamma, pt)
    assert core.value(x) == gamma
    for side, want in (
        ("right", b.element(pt, (0,) * b.n_F, gamma, ev)),
        ("left", b.element(pt, fv, gamma, (0,) * b.n_E)),
    ):
        lifted = vertical_lift(b, side, core, x, e if side == "right" else f)
        assert_lowest_terms(lifted)
        assert lifted == want


@st.composite
def chart_records(draw):
    """A connection, a symmetric g and a 2-form over the total space of one
    bundle; g stays a matrix, so its draws keep the singular ones."""
    vb = VectorBundle(Chart.of_dim(draw(st.integers(0, 3))), draw(st.integers(0, 3)))
    names, n, k = vb.chart.names, vb.chart.dim, vb.rank
    conn = LinearConnection(vb, tuple(plan_matrix(draw, names, n, k).entries for _ in range(k)))
    upper = [plan_vector(draw, names, k) for _ in range(k)]
    g = PolyMatrix(names, tuple(
        tuple(upper[min(a, b)][max(a, b)] for b in range(k)) for a in range(k)
    ))
    vars = total_space_vars(vb)
    degree = draw(st.integers(0, min(2, len(vars))))
    comps = {idx: draw(plan_polys(vars)) for idx in combinations(range(len(vars)), degree)}
    form = make_form(vars, degree, comps)
    vectors = [plan_point(draw, len(vars)) for _ in range(degree)]
    return conn, g, form, plan_point(draw, n), plan_point(draw, len(vars)), vectors


@given(chart_records())
@settings(max_examples=40, deadline=None)
def test_connection_metric_and_form_plans_match_per_entry_eval(case):
    conn, g, form, x, spot, vectors = case
    pt = tuple(map(rat, x))
    planes = conn._plan.at(pt)
    assert len(planes) == len(conn.gamma)
    for (rows, den), plane in zip(planes, conn.gamma):
        assert den > 0
        assert tuple(tuple(Fraction(v, den) for v in row) for row in rows) == tuple(
            values(row, pt) for row in plane
        )
    assert det_frac(values_at(g, x)) == fraction_eval(g.det(), pt)
    vecs = [tuple(map(rat, v)) for v in vectors]
    want = sum(
        (
            fraction_eval(poly, tuple(map(rat, spot)))
            * det_frac(tuple(tuple(vec[j] for j in idx) for vec in vecs))
            for idx, poly in form.comps
        ),
        Fraction(0),
    )
    value = form.evaluate(spot, vectors)
    assert type(value) is Fraction and value == want


def antisymmetric(draw, vars, n):
    upper = [plan_vector(draw, vars, n) for _ in range(n)]
    z = MultiPoly.zero(vars)
    return PolyMatrix(vars, tuple(
        tuple(upper[i][j] if i < j else -upper[j][i] if i > j else z for j in range(n))
        for i in range(n)
    ))


@st.composite
def bivectors_and_points(draw):
    vb = VectorBundle(Chart.of_dim(draw(st.integers(0, 2))), draw(st.integers(0, 2)))
    vars, n, k = total_space_vars(vb), vb.chart.dim, vb.rank
    biv = Bivector(
        vb,
        antisymmetric(draw, vars, n),
        plan_matrix(draw, vars, n, k),
        antisymmetric(draw, vars, k),
    )
    return biv, [plan_point(draw, n + k) for _ in range(draw(st.integers(1, 3)))]


def jacobi_reference(biv, point):
    """The cyclic sums of P^{su} d_s P^{vw}, one Fraction per term."""
    full = biv.full_matrix()
    vars, m = full.vars, len(full.vars)
    p = tuple(values(row, point) for row in full.entries)
    d = [
        [values((q.partial(vars[s]) for q in row), point) for row in full.entries]
        for s in range(m)
    ]
    for u, v, w in combinations(range(m), 3):
        total = Fraction(0)
        for s in range(m):
            total += p[s][u] * d[s][v][w] + p[s][v] * d[s][w][u] + p[s][w] * d[s][u][v]
        if total != 0:
            return False
    return True


@given(bivectors_and_points(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_bivector_plans_match_per_entry_eval(case, rng):
    biv, points = case
    vb = biv.bundle
    n, k = vb.chart.dim, vb.rank
    sharp = lambda_sharp(biv)
    tan, cot = tangent_prolongation(vb), cotangent_prolongation(vb)
    for raw in points:
        point = tuple(map(rat, raw))
        full = tuple(values(row, point) for row in biv.full_matrix().entries)
        assert values_at(biv.full_matrix(), raw) == full
        p, phi = random_tuple(rng, n, 49), random_tuple(rng, k, 49)
        out = mat_vec(full, p + phi)
        got = sharp(cot.element(point[:n], phi, p, point[n:]))
        assert_lowest_terms(got)
        assert got == tan.element(point[:n], out[:n], out[n:], point[n:])
        assert check_jacobi(biv, [raw]) == jacobi_reference(biv, point)


# -- guards ---------------------------------------------------------------------

X1, XY_VARS = ("x1",), ("x", "y")

RING_GUARDS = {
    "scalar product": (
        lambda: MultiPoly.var(X1, "x1") * 2,
        TypeError, "unsupported operand type(s) for *: 'MultiPoly' and 'int'",
    ),
    "compose variable lists": (
        lambda: MultiPoly.var(XY_VARS, "x").compose((MultiPoly.var(X1, "x1"), MultiPoly.var(XY_VARS, "y"))),
        ValueError, "images use differing variable lists",
    ),
    "extend missing variable": (
        lambda: MultiPoly.var(XY_VARS, "y").extend(("x", "z")),
        ValueError, "variable 'y' missing from ('x', 'z')",
    ),
    "ragged matrix": (
        lambda: PolyMatrix(X1, ((MultiPoly.zero(X1),), ())),
        ValueError, "ragged polynomial matrix",
    ),
    "matrix entry variables": (
        lambda: PolyMatrix(X1, ((MultiPoly.zero(XY_VARS),),)),
        ValueError, "entry variables ('x', 'y') differ from matrix ('x1',)",
    ),
}


@pytest.mark.parametrize("guard", RING_GUARDS)
def test_ring_guard(guard):
    call, exc, message = RING_GUARDS[guard]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_composing_a_polynomial_over_no_variables_keeps_it():
    p = MultiPoly.const((), rat("-3/4"))
    assert p.compose(()) is p
