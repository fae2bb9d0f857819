import itertools
import random
import re
from fractions import Fraction

import pytest

from dvbcalc.forms import DifferentialForm, make_form
from dvbcalc.ring import MultiPoly, rat
from polys import poly_from_dict

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly(vars, text_terms):
    """Terms as {exps: coeff} over vars."""
    return poly_from_dict(vars, text_terms)


def rand_poly(rng, vars, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, max_degree) for _ in vars)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return poly_from_dict(vars, terms)


def test_d_of_function():
    f = poly(XY, {(2, 0): 1})  # x^2
    df = make_form(XY, 0, {(): f}).d()
    assert df.coeff((0,)) == poly(XY, {(1, 0): 2})
    assert df.coeff((1,)).is_zero


def test_d_of_one_form():
    # d(x dy) = dx^dy
    form = make_form(XY, 1, {(1,): poly(XY, {(1, 0): 1})})
    two = form.d()
    assert two.coeff((0, 1)) == MultiPoly.const(XY, 1)


def test_d_squared_is_zero():
    rng = random.Random(3)
    for _ in range(20):
        form = make_form(
            XYZ, 1, {(i,): rand_poly(rng, XYZ) for i in range(3)}
        )
        assert form.d().d().is_zero


def test_wedge_antisymmetry_and_square():
    rng = random.Random(5)
    for _ in range(10):
        a = make_form(XYZ, 1, {(i,): rand_poly(rng, XYZ) for i in range(3)})
        b = make_form(XYZ, 1, {(i,): rand_poly(rng, XYZ) for i in range(3)})
        assert (a.wedge(b) + b.wedge(a)).is_zero
        assert a.wedge(a).is_zero


def test_make_form_antisymmetrizes():
    one = MultiPoly.const(XY, 1)
    form = make_form(XY, 2, {(1, 0): one})
    assert form.coeff((0, 1)) == -one
    assert form.coeff((1, 0)) == one
    assert make_form(XY, 2, {(0, 0): one}).is_zero


def test_evaluate_area_form():
    form = make_form(XY, 2, {(0, 1): MultiPoly.const(XY, 1)})
    value = form.evaluate((rat(0), rat(0)), ((1, 0), (0, 1)))
    assert value == 1
    assert form.evaluate((rat(0), rat(0)), ((0, 1), (1, 0))) == -1
    with pytest.raises(ValueError):
        form.evaluate((rat(0), rat(0)), ((1, 0),))


def laplace_det(rows):
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * entry * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, entry in enumerate(rows[0])
    )


def test_evaluate_volume_form_on_permuted_basis():
    # the leading pivot of each minor is zero, so evaluation must swap rows
    vars = ("w", "x", "y", "z")
    one = MultiPoly.const(vars, 1)
    origin = (rat(0),) * 4
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    volume = make_form(vars, 4, {(0, 1, 2, 3): one})
    assert volume.evaluate(origin, [units[1], units[0], units[2], units[3]]) == -1
    assert volume.evaluate(origin, [units[1], units[2], units[3], units[0]]) == -1
    assert volume.evaluate(origin, [units[1], units[0], units[3], units[2]]) == 1
    three = make_form(vars, 3, {(0, 1, 2): one})
    assert three.evaluate(origin, [units[1], units[0], units[2]]) == -1
    assert three.evaluate(origin, [units[2], units[0], units[1]]) == 1


@pytest.mark.parametrize("degree", [3, 4])
def test_evaluate_matches_laplace_minors(degree):
    vars = ("v", "w", "x", "y", "z")
    rng = random.Random(degree)
    for _ in range(5):
        form = make_form(
            vars,
            degree,
            {idx: rand_poly(rng, vars, 1) for idx in itertools.combinations(range(5), degree)},
        )
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vars)
        # vector i vanishes on the first i + 1 variables, so a minor over v
        # starts with a zero pivot, and often meets another one further on
        vectors = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if j > i else 0 for j in range(5)]
            for i in range(degree - 1)
        ]
        vectors.append([Fraction(rng.randint(1, 4)) for _ in range(5)])
        expected = sum(
            poly.eval(point) * laplace_det([[vec[j] for j in idx] for vec in vectors])
            for idx, poly in form.comps
        )
        assert form.evaluate(point, vectors) == expected


def test_pullback_of_dy_under_square_map():
    # y = x^2 pulls dy back to 2x dx
    target = ("y",)
    form = make_form(target, 1, {(0,): MultiPoly.const(target, 1)})
    source = ("x",)
    image = poly(source, {(2,): 1})
    pulled = form.pullback(source, (image,))
    assert pulled.coeff((0,)) == poly(source, {(1,): 2})


def test_pullback_commutes_with_d():
    rng = random.Random(7)
    source = ("u", "v")
    for _ in range(10):
        form = make_form(XY, 1, {(i,): rand_poly(rng, XY) for i in range(2)})
        images = (rand_poly(rng, source), rand_poly(rng, source))
        assert form.d().pullback(source, images) == form.pullback(source, images).d()


def test_tangent_lift_of_coordinate_differential():
    form = make_form(XY, 1, {(0,): MultiPoly.const(XY, 1)})  # dx
    lifted = form.tangent_lift()
    assert lifted.vars == ("x", "y", "x_dot", "y_dot")
    assert lifted.coeff((2,)) == MultiPoly.const(lifted.vars, 1)
    assert lifted.coeff((0,)).is_zero


def test_tangent_lift_of_function():
    f = poly(XY, {(1, 1): 1})  # xy
    lifted = make_form(XY, 0, {(): f}).tangent_lift()
    big = lifted.vars
    expected = (
        MultiPoly.var(big, "y") * MultiPoly.var(big, "x_dot")
        + MultiPoly.var(big, "x") * MultiPoly.var(big, "y_dot")
    )
    assert lifted.coeff(()) == expected


def test_tangent_lift_commutes_with_d():
    rng = random.Random(11)
    for _ in range(10):
        form = make_form(XY, 1, {(i,): rand_poly(rng, XY) for i in range(2)})
        assert form.d().tangent_lift() == form.tangent_lift().d()


def test_lifted_canonical_two_form():
    # theta = p dx on (x, p); the lift of d(theta) is dp^dx_dot + dp_dot^dx
    vars = ("x", "p")
    theta = make_form(vars, 1, {(0,): MultiPoly.var(vars, "p")})
    omega = theta.d()  # dp^dx = -(dx^dp)
    assert omega.coeff((0, 1)) == MultiPoly.const(vars, -1)
    lifted = omega.tangent_lift()
    big = lifted.vars  # (x, p, x_dot, p_dot)
    one = MultiPoly.const(big, 1)
    assert lifted.coeff((1, 2)) == one  # dp^dx_dot
    assert lifted.coeff((0, 3)) == -one  # dx^dp_dot with the lifted sign
    assert lifted == theta.tangent_lift().d()


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@pytest.mark.parametrize("degree", range(3))
def test_d_matches_sympy_partials(sympy, degree):
    """(d w)_I = sum over positions p of (-1)^p d/dx_(I_p) w_(I without I_p),
    with the partial derivatives taken by sympy."""
    symbols = sympy.symbols(XYZ)

    def to_sympy(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([s**k for s, k in zip(symbols, e)])
                for e, c in p.terms
            ),
            sympy.Integer(0),
        )

    def from_sympy(expr):
        terms = sympy.Poly(sympy.expand(expr), *symbols).terms()
        return poly(XYZ, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})

    rng = random.Random(40 + degree)
    for _ in range(8):
        indices = itertools.combinations(range(3), degree)
        form = make_form(XYZ, degree, {idx: rand_poly(rng, XYZ) for idx in indices})
        derivative = form.d()
        for idx in itertools.combinations(range(3), degree + 1):
            expected = sum(
                (
                    (-1) ** pos * sympy.diff(to_sympy(form.coeff(idx[:pos] + idx[pos + 1 :])), symbols[u])
                    for pos, u in enumerate(idx)
                ),
                sympy.Integer(0),
            )
            assert derivative.coeff(idx) == from_sympy(expected)


# The constructor is the one canonicalizer: every build of a form, the
# public constructor's included, sorts each index with its sign, drops an
# index that repeats a position, sums like indices and keeps the nonzero
# sums in increasing index order.


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_constructor_sorts_each_index_with_its_sign(perm):
    f = poly(XYZ, {(1, 0, 2): 3, (0, 1, 0): Fraction(-1, 2)})
    sign = (-1) ** sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
    form = DifferentialForm(XYZ, 3, ((perm, f),))
    signed = f if sign > 0 else -f
    assert form == make_form(XYZ, 3, {(0, 1, 2): signed})
    assert form.coeff((0, 1, 2)) == signed
    assert form.coeff(perm) == f


def test_constructor_drops_an_index_that_repeats_a_position():
    x = MultiPoly.var(XY, "x")
    assert DifferentialForm(XY, 2, (((0, 0), x),)).is_zero
    assert DifferentialForm(XY, 2, (((1, 1), x), ((0, 1), x))) == make_form(XY, 2, {(0, 1): x})


def test_constructor_adds_like_indices_and_drops_a_sum_that_cancels():
    f, g = poly(XY, {(1, 0): 1}), poly(XY, {(0, 2): 3})
    form = DifferentialForm(XY, 1, (((0,), f), ((1,), g), ((0,), g)))
    assert form.comps == (((0,), f + g), ((1,), g))
    assert DifferentialForm(XY, 2, (((0, 1), f), ((1, 0), f))).comps == ()
    assert DifferentialForm(XY, 1, (((1,), g), ((1,), -g), ((0,), f))).comps == (((0,), f),)


def test_comps_hold_strictly_increasing_indices_in_increasing_order():
    rng = random.Random(23)
    vars = ("v", "w", "x", "y", "z")
    for degree in range(1, 5):
        indices = list(itertools.permutations(range(5), degree))
        rng.shuffle(indices)
        terms = tuple((idx, rand_poly(rng, vars, 1)) for idx in indices[:12])
        form = DifferentialForm(vars, degree, terms)
        one = make_form(vars, 1, {(i,): rand_poly(rng, vars, 1) for i in range(5)})
        for built in (form, form.d(), one.wedge(form), form.tangent_lift()):
            keys = [idx for idx, _ in built.comps]
            assert keys == sorted(keys)
            assert all(idx == tuple(sorted(set(idx))) for idx in keys), keys


def test_constructor_errors():
    x = MultiPoly.var(XY, "x")
    with pytest.raises(ValueError, match="^form degree must be nonnegative$"):
        DifferentialForm(XY, -1, ())
    with pytest.raises(ValueError, match=r"^index \(0, 1\) does not match degree 1$"):
        DifferentialForm(XY, 1, (((0, 1), x),))
    with pytest.raises(ValueError, match=r"^index \(1, 2\) out of range for 2 variables$"):
        DifferentialForm(XY, 2, (((1, 2), x),))
    with pytest.raises(ValueError, match=r"^index \(-1,\) out of range for 2 variables$"):
        make_form(XY, 1, {(-1,): x})
    with pytest.raises(ValueError, match="^component variables must match the form$"):
        DifferentialForm(XY, 1, (((0,), MultiPoly.var(XYZ, "x")),))


@pytest.mark.parametrize("degree", [1.5, True, False, Fraction(1), "1", None])
def test_constructor_refuses_a_degree_that_is_not_an_int(degree):
    with pytest.raises(TypeError, match=f"^form degree must be an int, got {re.escape(repr(degree))}$"):
        DifferentialForm(XY, degree, ())


@pytest.mark.parametrize("vars", [["x", "y"], "xy", ("x", 1), ("x", b"y"), None])
def test_constructor_refuses_variables_that_are_not_a_tuple_of_str(vars):
    with pytest.raises(
        TypeError, match=f"^form variables must be a tuple of str, got {re.escape(repr(vars))}$"
    ):
        DifferentialForm(vars, 1, ())


def test_operation_guards():
    x = MultiPoly.var(XY, "x")
    one_xy, one_xyz = make_form(XY, 1, {(0,): x}), make_form(XYZ, 1, {(0,): MultiPoly.var(XYZ, "x")})
    for op in (one_xy.__add__, one_xy.wedge):
        with pytest.raises(ValueError, match="^forms live over different variable lists$"):
            op(one_xyz)
    with pytest.raises(ValueError, match="^cannot add forms of different degrees$"):
        one_xy + make_form(XY, 0, {(): x})
    with pytest.raises(ValueError, match="^need one image per variable$"):
        one_xy.pullback(XY, (x,))
    with pytest.raises(ValueError, match="^images must share the source variable list$"):
        one_xy.pullback(XY, (x, MultiPoly.var(XYZ, "y")))
    with pytest.raises(ValueError, match="^vector arity does not match the variables$"):
        one_xy.evaluate((1, 2), ((1, 2, 3),))
