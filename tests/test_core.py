import random
import re
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.core import (
    BaseMismatchError,
    Chart,
    DecomposedDVB,
    DVBElement,
    DVBMorphism,
    FiberMismatchError,
    FiberMorphism,
    NotInKernelError,
    PointwiseMorphism,
    VectorBundle,
    compose_morphisms,
    core_difference,
    fiber_add,
    fiber_scale,
    fiber_sub,
    identity_morphism,
    invert_morphism,
    invert_morphism_poly,
    kernel_split,
    psi_zero,
    _difference,
    _fractions,
    _left_add,
    _left_scale,
    _Sampler,
    _right_add,
    _right_scale,
    _slots_of,
    _split,
    _vec_add,
    _vec_scale,
)
from dvbcalc.duality import left_dual, pair_l, pair_r, right_dual, right_dual_morphism_poly
from dvbcalc.geomech import cotangent_prolongation, tangent_prolongation
from dvbcalc.ring import (
    MultiPoly,
    PolyMatrix,
    _draw_sample,
    random_tuple,
    rat,
)
from dvbcalc.scenario import (
    gen_random_scenario,
    random_morphism,
    random_poly_matrix,
    random_poly_vector,
    scenario_from_text,
    scenario_to_text,
)
from polys import constant_morphism, values_at

CHART = Chart.of_dim(1)
B = DecomposedDVB(CHART, 1, 1, 1)
B222 = DecomposedDVB(Chart.of_dim(2), 2, 2, 2)


def rand_rat(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


def rand_tuple(rng, n):
    return tuple(rand_rat(rng) for _ in range(n))


def core_embed(b, x, c):
    """The core tuple c over x as an element with both outer slots zero."""
    return b.element(x, (0,) * b.n_F, c, (0,) * b.n_E)


def scalar_morphism(l, c, r, psi):
    vars = CHART.names
    return DVBMorphism(
        B,
        B,
        PolyMatrix.constant(vars, [[l]]),
        PolyMatrix.constant(vars, [[c]]),
        PolyMatrix.constant(vars, [[r]]),
        ((((MultiPoly.const(vars, psi)),),),),
    )


# -- fiber structures ---------------------------------------------------------


def test_right_add():
    u = B.element((0,), (1,), (2,), (5,))
    v = B.element((0,), (3,), (4,), (5,))
    assert fiber_add("right", u, v) == B.element((0,), (4,), (6,), (5,))


def test_left_add():
    u = B.element((0,), (5,), (2,), (1,))
    v = B.element((0,), (5,), (4,), (3,))
    assert fiber_add("left", u, v) == B.element((0,), (5,), (6,), (4,))


def test_scales():
    v = B.element((0,), (1,), (2,), (3,))
    assert fiber_scale("right", 2, v) == B.element((0,), (2,), (4,), (3,))
    assert fiber_scale("left", 2, v) == B.element((0,), (1,), (4,), (6,))


def test_sub_inverts_add():
    u = B.element((0,), (1,), (2,), (5,))
    v = B.element((0,), (3,), (4,), (5,))
    assert fiber_sub("right", fiber_add("right", u, v), v) == u
    w = B.element((0,), (1,), (7,), (9,))
    assert fiber_sub("left", fiber_add("left", u, w), w) == u


def test_add_mismatch_errors():
    u = B.element((0,), (1,), (2,), (3,))
    v = B.element((0,), (1,), (2,), (4,))
    with pytest.raises(FiberMismatchError):
        fiber_add("right", u, v)
    w = B.element((1,), (1,), (2,), (3,))
    with pytest.raises(BaseMismatchError):
        fiber_add("right", u, w)
    other = DecomposedDVB(CHART, 1, 1, 1, ("A", "B", "C"))
    with pytest.raises(BaseMismatchError):
        fiber_add("left", u, other.element((0,), (1,), (2,), (3,)))


def test_interchange_law_random():
    rng = random.Random(7)
    for _ in range(100):
        x = rand_tuple(rng, 2)
        f, fp = rand_tuple(rng, 2), rand_tuple(rng, 2)
        e, ep = rand_tuple(rng, 2), rand_tuple(rng, 2)
        a = B222.element(x, f, rand_tuple(rng, 2), e)
        b = B222.element(x, fp, rand_tuple(rng, 2), e)
        c = B222.element(x, f, rand_tuple(rng, 2), ep)
        d = B222.element(x, fp, rand_tuple(rng, 2), ep)
        lhs = fiber_add("left", fiber_add("right", a, b), fiber_add("right", c, d))
        rhs = fiber_add("right", fiber_add("left", a, c), fiber_add("left", b, d))
        assert lhs == rhs


def test_core_addition_agreement():
    rng = random.Random(11)
    for _ in range(50):
        x = rand_tuple(rng, 2)
        u = core_embed(B222, x, rand_tuple(rng, 2))
        v = core_embed(B222, x, rand_tuple(rng, 2))
        assert fiber_add("right", u, v) == fiber_add("left", u, v)


def test_kernel_split_recombines():
    v = B222.element((1, 2), (3, 4), (5, 6), (0, 0))
    side, core = kernel_split(v)
    assert side == B222.element((1, 2), (3, 4), (0, 0), (0, 0))
    assert core == core_embed(B222, (1, 2), (5, 6))
    assert fiber_add("right", side, core) == v


def test_kernel_split_projector_laws():
    v = B222.element((1, 2), (3, 4), (5, 6), (0, 0))
    side, core = kernel_split(v)
    side2, side_core = kernel_split(side)
    assert side2 == side and side_core == core_embed(B222, (1, 2), (0, 0))
    core_side, core2 = kernel_split(core)
    assert core2 == core and core_side == core_embed(B222, (1, 2), (0, 0))


def test_kernel_split_rejects_nonkernel():
    with pytest.raises(NotInKernelError):
        kernel_split(B.element((0,), (1,), (2,), (3,)))


def test_unique_core_difference_both_structures():
    rng = random.Random(13)
    for _ in range(50):
        x = rand_tuple(rng, 2)
        f, e = rand_tuple(rng, 2), rand_tuple(rng, 2)
        u = B222.element(x, f, rand_tuple(rng, 2), e)
        v = B222.element(x, f, rand_tuple(rng, 2), e)
        k = core_difference(u, v)
        via_right = fiber_add("right", v, B222.element(x, (0, 0), k, e))
        via_left = fiber_add("left", v, B222.element(x, f, k, (0, 0)))
        assert via_right == u and via_left == u


# -- flip ---------------------------------------------------------------------


def test_flip_bundle_and_element():
    bundle = DecomposedDVB(CHART, 2, 1, 3, ("F", "C", "E"))
    assert bundle.flip().ranks == (3, 1, 2)
    assert bundle.flip().flip() == bundle
    v = bundle.element((0,), (1, 2), (3,), (4, 5, 6))
    assert v.flip() == bundle.flip().element((0,), (4, 5, 6), (3,), (1, 2))
    assert v.flip().flip() == v


def test_flip_is_made_once_and_its_flip_is_the_bundle():
    """A bundle keeps its flip, whose flip is the bundle object itself; an
    equal but distinct bundle keeps its own, equal flip, and a replaced one
    starts with no flip."""
    bundle = DecomposedDVB(CHART, 2, 1, 3, ("A", "B", "C"))
    twin = DecomposedDVB(CHART, 2, 1, 3, ("A", "B", "C"))
    flipped = bundle.flip()
    assert bundle.flip() is flipped and flipped.flip() is bundle
    assert flipped.labels == ("C", "B", "A")
    assert twin.flip() is not flipped and twin.flip() == flipped and twin.flip().flip() is twin
    v = bundle.element((0,), (1, 2), (3,), (4, 5, 6))
    assert v.flip().bundle is flipped and v.flip().flip().bundle is bundle
    assert replace(bundle)._flip is None and replace(bundle).flip() == flipped
    assert repr(bundle) == repr(twin) and hash(bundle) == hash(twin)


def test_flip_exchanges_additions():
    rng = random.Random(17)
    for _ in range(50):
        x = rand_tuple(rng, 2)
        e = rand_tuple(rng, 2)
        u = B222.element(x, rand_tuple(rng, 2), rand_tuple(rng, 2), e)
        v = B222.element(x, rand_tuple(rng, 2), rand_tuple(rng, 2), e)
        assert fiber_add("right", u, v).flip() == fiber_add("left", u.flip(), v.flip())
        assert fiber_scale("right", rat("2/3"), u).flip() == fiber_scale(
            "left", rat("2/3"), u.flip()
        )


# -- prolongation shells --------------------------------------------------------


def test_tangent_prolongation_shell():
    vb = VectorBundle(Chart.of_dim(2), 3, "E")
    shell = tangent_prolongation(vb)
    assert shell.ranks == (2, 3, 3)
    assert shell.labels == ("TM", "E", "E")


def test_cotangent_prolongation_shell():
    vb = VectorBundle(Chart.of_dim(2), 3, "E")
    shell = cotangent_prolongation(vb)
    assert shell.ranks == (3, 2, 3)
    assert shell.labels == ("E*", "TM*", "E")


# -- morphisms ------------------------------------------------------------------


def test_apply_scalar_example():
    phi = scalar_morphism(2, 3, 5, 7)
    v = B.element((0,), (1,), (1,), (1,))
    assert phi.apply(v) == B.element((0,), (2,), (10,), (5,))


def test_apply_preserves_kernels():
    phi = scalar_morphism(2, 3, 5, 7)
    v = B.element((0,), (1,), (4,), (0,))
    assert phi.apply(v).e == (Fraction(0),)
    w = B.element((0,), (0,), (4,), (1,))
    assert phi.apply(w).f == (Fraction(0),)


def test_apply_additive_both_sides():
    rng = random.Random(19)
    vars = B222.chart.names
    x_poly = MultiPoly.var(vars, "x1")
    one = MultiPoly.const(vars, 1)
    zero = MultiPoly.zero(vars)
    phi = DVBMorphism(
        B222,
        B222,
        PolyMatrix(vars, ((one, x_poly), (zero, one))),
        PolyMatrix(vars, ((one, zero), (x_poly, one))),
        PolyMatrix(vars, ((one, zero), (zero, one))),
        tuple(
            tuple((x_poly if (g + a) % 2 else one, zero) for a in range(2))
            for g in range(2)
        ),
    )
    for _ in range(40):
        x = rand_tuple(rng, 2)
        e = rand_tuple(rng, 2)
        f = rand_tuple(rng, 2)
        u = B222.element(x, rand_tuple(rng, 2), rand_tuple(rng, 2), e)
        v = B222.element(x, rand_tuple(rng, 2), rand_tuple(rng, 2), e)
        assert phi.apply(fiber_add("right", u, v)) == fiber_add(
            "right", phi.apply(u), phi.apply(v)
        )
        s = B222.element(x, f, rand_tuple(rng, 2), rand_tuple(rng, 2))
        t = B222.element(x, f, rand_tuple(rng, 2), rand_tuple(rng, 2))
        assert phi.apply(fiber_add("left", s, t)) == fiber_add(
            "left", phi.apply(s), phi.apply(t)
        )
        r = rand_rat(rng)
        assert phi.apply(fiber_scale("right", r, u)) == fiber_scale(
            "right", r, phi.apply(u)
        )
        assert phi.apply(fiber_scale("left", r, s)) == fiber_scale(
            "left", r, phi.apply(s)
        )


def test_compose_scalar_blocks():
    phi = scalar_morphism(2, 3, 5, 7)
    comp = compose_morphisms(phi, phi)
    point = (rat(0),)
    fm = comp.at(point)
    assert fm.l == ((4,),) and fm.c == ((9,),) and fm.r == ((25,),)
    assert fm.psi == (((Fraction(91),),),)


def test_compose_matches_pointwise_application():
    phi = scalar_morphism(2, 3, 5, 7)
    psi = scalar_morphism(1, 2, 3, 4)
    comp = compose_morphisms(psi, phi)
    v = B.element((1,), ("1/2",), ("2/3",), ("3/5",))
    assert comp.apply(v) == psi.apply(phi.apply(v))


def test_compose_identity_neutral():
    phi = scalar_morphism(2, 3, 5, 7)
    ident = identity_morphism(B)
    assert compose_morphisms(phi, ident) == phi
    assert compose_morphisms(ident, phi) == phi


def test_compose_associative():
    a = scalar_morphism(2, 3, 5, 7)
    b = scalar_morphism(1, 2, 3, 4)
    c = scalar_morphism(3, 1, 2, 5)
    assert compose_morphisms(a, compose_morphisms(b, c)) == compose_morphisms(
        compose_morphisms(a, b), c
    )


def test_invert_scalar_blocks():
    phi = scalar_morphism(2, 3, 5, 7)
    fm = invert_morphism(phi).at((rat(0),))
    assert fm.l == ((rat("1/2"),),)
    assert fm.c == ((rat("1/3"),),)
    assert fm.r == ((rat("1/5"),),)
    assert fm.psi == (((rat("-7/30"),),),)


def test_invert_roundtrip():
    phi = scalar_morphism(2, 3, 5, 7)
    inv = invert_morphism(phi)
    v = B.element((2,), ("1/2",), ("2/3",), ("3/5",))
    assert inv.at(v.x).apply(phi.apply(v)) == v
    assert phi.apply(inv.at(v.x).apply(v)) == v


def symbolic_results(phi):
    return invert_morphism_poly(phi), right_dual_morphism_poly(phi), compose_morphisms(phi, phi)


def pair_copies(phi):
    """Plain copies of a morphism's pairs, block by block."""
    return [[[dict(p) for p in row] for row in rows] for rows, _ in phi._blocks()]


def parsed_morphism(seed):
    return scenario_from_text(scenario_to_text(gen_random_scenario(seed))).morphism


@pytest.mark.parametrize("seed", range(6))
def test_kernel_blocks_are_built_once_and_match_the_rows(seed):
    """A morphism's kernel blocks are its entries' own pairs, built once with
    the entries; the results of the block algebra hold the pairs it built,
    and no operation changes the pairs it reads."""
    phi = parsed_morphism(seed)
    before = pair_copies(phi)
    first = symbolic_results(phi)
    for m in (phi, *first):
        for (rows, den), entries in zip(m._blocks(), m._rows()):
            assert den == 1
            assert all(p is q._pairs for row, qs in zip(rows, entries) for p, q in zip(row, qs))
    assert symbolic_results(phi) == first
    assert pair_copies(phi) == before
    assert compose_morphisms(first[0], phi) == identity_morphism(phi.source)


@pytest.mark.parametrize("seed", range(6))
def test_block_algebra_reads_no_terms_view(seed):
    """The polynomial inverse, right dual and composite run on the pairs:
    neither the parsed entries nor the results' entries make their sorted
    `Fraction` terms."""
    phi = parsed_morphism(seed)
    for m in (phi, *symbolic_results(phi)):
        for rows in m._rows():
            assert not any("terms" in vars(p) for row in rows for p in row)


def test_invert_poly_matches_pointwise():
    vars = B222.chart.names
    x_poly = MultiPoly.var(vars, "x1")
    one = MultiPoly.const(vars, 1)
    zero = MultiPoly.zero(vars)
    phi = DVBMorphism(
        B222,
        B222,
        PolyMatrix(vars, ((one, x_poly), (zero, one))),
        PolyMatrix(vars, ((one, zero), (x_poly * x_poly, one))),
        PolyMatrix.identity(vars, 2),
        psi_zero(vars, 2, 2, 2),
    )
    inv_poly = invert_morphism_poly(phi)
    inv_point = invert_morphism(phi)
    for x in ((rat(0), rat(1)), (rat("1/2"), rat(-3))):
        assert inv_poly.at(x) == inv_point.at(x)
    assert compose_morphisms(inv_poly, phi) == identity_morphism(B222)
    # det L = 1 - x1 + x1^2 takes the value 1 at x1 = 0 and at x1 = 1 and has
    # a constant term, but is not constant
    l = PolyMatrix(vars, ((one - x_poly + x_poly * x_poly, zero), (zero, one)))
    assert l.unimodular_inverse() is None
    with pytest.raises(ValueError, match="^blocks are not unimodular; use invert_morphism$"):
        invert_morphism_poly(DVBMorphism(B222, B222, l, phi.phi_c, phi.phi_r, phi.psi))


def test_flip_morphism_transports_apply():
    phi = scalar_morphism(2, 3, 5, 7)
    v = B.element((1,), ("1/2",), ("2/3",), ("3/5",))
    assert phi.flip().apply(v.flip()) == phi.apply(v).flip()
    assert phi.flip().flip() == phi


def test_zero_rank_core():
    degenerate = DecomposedDVB(CHART, 1, 0, 1)
    u = degenerate.element((0,), (1,), (), (2,))
    v = degenerate.element((0,), (3,), (), (2,))
    assert fiber_add("right", u, v).f == (Fraction(4),)
    ident = identity_morphism(degenerate)
    assert ident.apply(u) == u


# -- block algebra against element-level application ---------------------------
#
# The polynomial and pointwise routes share one block algebra, so they are
# checked against `apply`, which does not go through it.


def random_bundle(rng, chart):
    return DecomposedDVB(chart, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))


def random_blocks(rng, source, target):
    vars = source.chart.names
    return DVBMorphism(
        source,
        target,
        random_poly_matrix(rng, vars, target.n_F, source.n_F, 1),
        random_poly_matrix(rng, vars, target.n_C, source.n_C, 1),
        random_poly_matrix(rng, vars, target.n_E, source.n_E, 1),
        tuple(
            tuple(random_poly_vector(rng, vars, source.n_F, 1) for _ in range(source.n_E))
            for _ in range(target.n_C)
        ),
    )


def random_element(rng, bundle, x):
    return bundle.element(
        x, rand_tuple(rng, bundle.n_F), rand_tuple(rng, bundle.n_C), rand_tuple(rng, bundle.n_E)
    )


def compose_shapes(seed):
    """(source, middle, target); seed 0 routes through a zero-rank F slot."""
    if seed == 0:
        return tuple(DecomposedDVB(CHART, n_f, 1, 1) for n_f in (3, 0, 2))
    rng = random.Random(seed)
    chart = Chart.of_dim(rng.randint(0, 2))
    return tuple(random_bundle(rng, chart) for _ in range(3))


@pytest.mark.parametrize("seed", range(16))
def test_compose_after_and_flip_agree_with_apply(seed):
    source, middle, target = compose_shapes(seed)
    rng = random.Random(1000 + seed)
    inner = random_blocks(rng, source, middle)
    outer = random_blocks(rng, middle, target)
    composite = compose_morphisms(outer, inner)
    for _ in range(2):
        x = rand_tuple(rng, source.chart.dim)
        v = random_element(rng, source, x)
        want = outer.at(x).apply(inner.at(x).apply(v))
        after = outer.at(x).after(inner.at(x))
        assert composite.at(x).apply(v) == want
        assert after.apply(v) == want
        assert composite.flip().apply(v.flip()) == want.flip()
        assert composite.flip().at(x).apply(v.flip()) == want.flip()


@pytest.mark.parametrize("seed", range(12))
def test_inverse_undoes_apply(seed):
    rng = random.Random(2000 + seed)
    bundle = random_bundle(rng, Chart.of_dim(rng.randint(0, 2)))
    phi = random_morphism(rng, bundle, 1)
    poly_inverse = invert_morphism_poly(phi)
    for _ in range(2):
        x = rand_tuple(rng, bundle.chart.dim)
        v = random_element(rng, bundle, x)
        fm = phi.at(x)
        assert fm.inverse().apply(fm.apply(v)) == v
        assert fm.apply(fm.inverse().apply(v)) == v
        assert poly_inverse.at(x).apply(fm.apply(v)) == v


# Source ranks (2,1,1) -> target ranks (0,1,1): the L block has no rows, so
# its "inverse" is 0 x 0 and the shape error used to surface only later, in
# a product.  Every inverting route rejects the ranks up front.
RANK_MISMATCH_SOURCE = DecomposedDVB(CHART, 2, 1, 1)
RANK_MISMATCH_TARGET = DecomposedDVB(CHART, 0, 1, 1)


@pytest.mark.parametrize(
    "invert",
    [
        invert_morphism,
        invert_morphism_poly,
        lambda phi: phi.at((rat(1),)).inverse(),
    ],
    ids=["invert_morphism", "invert_morphism_poly", "FiberMorphism.inverse"],
)
def test_rank_mismatch_is_not_invertible(invert):
    vars = CHART.names
    phi = DVBMorphism(
        RANK_MISMATCH_SOURCE,
        RANK_MISMATCH_TARGET,
        PolyMatrix(vars, ()),
        PolyMatrix.identity(vars, 1),
        PolyMatrix.identity(vars, 1),
        psi_zero(vars, 1, 1, 2),
    )
    with pytest.raises(ValueError, match="only square-rank morphisms can be inverted"):
        invert(phi)


# -- the integer slot kernel ----------------------------------------------------
#
# Differential tests of the kernel against the plain Fraction formulas of the
# two structures and of a block morphism at one point, on the `Fraction`
# views.  Values are drawn with bounds 1, 7 and 49 (denominators up to 49),
# slots are zero about a third of the time, and the ranks run over 0-4.  Each
# kernel operation reduces its own result, so every slot vector it returns
# must be in lowest terms.

KERNEL_RANKS = [(n_f, n_c, n_e) for n_f in range(5) for n_c in range(5) for n_e in range(5)]
KERNEL_BOUNDS = (1, 7, 49)


def wide_tuple(rng, n, bound=49):
    if rng.randrange(3) == 0:
        return (Fraction(0),) * n
    return tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n))


def wide_scalars(rng, bound):
    """rn = 0, rn < 0, rd > 1, rn < 0 with rd > 1, and a drawn scalar."""
    drawn = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return (0, -bound, Fraction(bound, bound + 1), Fraction(-3, 2 * bound + 1), drawn)


def plain_add(side, u, v):
    def add(p, q):
        return tuple(a + b for a, b in zip(p, q))

    if side == "right":
        return DVBElement(u.bundle, u.x, add(u.f, v.f), add(u.c, v.c), u.e)
    return DVBElement(u.bundle, u.x, u.f, add(u.c, v.c), add(u.e, v.e))


def plain_scale(side, r, v):
    def scale(p):
        return tuple(r * a for a in p)

    if side == "right":
        return DVBElement(v.bundle, v.x, scale(v.f), scale(v.c), v.e)
    return DVBElement(v.bundle, v.x, v.f, scale(v.c), scale(v.e))


def assert_lowest_slots(slots):
    """gcd 1, a positive denominator, and a zero vector over 1."""
    nums, den = slots
    assert type(nums) is tuple and den > 0 and gcd(den, *nums) == 1
    assert any(nums) or den == 1


def assert_lowest_terms(v):
    for slots in (v._f, v._c, v._e):
        assert_lowest_slots(slots)


@pytest.mark.parametrize("bound", KERNEL_BOUNDS)
def test_kernel_vec_ops_match_fractions(bound):
    """`_vec_add` on equal and unequal denominators and on unreduced
    inputs, and `_vec_scale` with rn = 0, rn < 0 and rd > 1."""
    rng = random.Random(f"vec ops {bound}")
    for n in range(5):
        for _ in range(40):
            a, d = wide_tuple(rng, n, bound), wide_tuple(rng, n, bound)
            # b has a's denominator entry by entry, so its slot vector has a's
            b = tuple(p + rng.randint(-bound, bound) for p in a)
            sa, sb, sd = (_slots_of(v) for v in (a, b, d))
            assert sa[1] == sb[1]
            unreduced = tuple(6 * p for p in sa[0]), 6 * sa[1]
            cases = (a, sa, b, sb), (a, sa, d, sd), (d, sd, a, sa), (a, unreduced, d, sd)
            for u, su, v, sv in cases:
                total = _vec_add(su, sv)
                assert_lowest_slots(total)
                assert _fractions(total) == tuple(p + q for p, q in zip(u, v))
            for r in wide_scalars(rng, bound):
                for slots in (sa, unreduced):
                    scaled = _vec_scale(r.numerator, r.denominator, slots)
                    assert_lowest_slots(scaled)
                    assert _fractions(scaled) == tuple(r * p for p in a)


@pytest.mark.parametrize("ranks", KERNEL_RANKS, ids=str)
def test_kernel_structure_maps_match_fraction_formulas(ranks):
    b = DecomposedDVB(Chart.of_dim(2), *ranks)
    rng = random.Random(f"structure {ranks}")
    for bound in KERNEL_BOUNDS:
        for _ in range(4):
            x = wide_tuple(rng, 2, bound)
            f, c, e = (wide_tuple(rng, n, bound) for n in ranks)
            u = DVBElement(b, x, f, c, e)
            f2, c2, e2 = (wide_tuple(rng, n, bound) for n in ranks)
            others = {"right": DVBElement(b, x, f2, c2, e), "left": DVBElement(b, x, f, c2, e2)}
            for side, v in others.items():
                k = (_right_add if side == "right" else _left_add)(u, v)
                assert_lowest_terms(k)
                assert k._key == plain_add(side, u, v)._key
                assert k == plain_add(side, u, v) == fiber_add(side, u, v)
                for r in wide_scalars(rng, bound):
                    k = (_right_scale if side == "right" else _left_scale)(r, u)
                    assert_lowest_terms(k)
                    assert k == plain_scale(side, r, u) == fiber_scale(side, r, u)
            # equal projections on both sides: the core difference
            w = DVBElement(b, x, f, wide_tuple(rng, b.n_C, bound), e)
            diff = _difference(u, w)
            assert_lowest_slots(diff)
            assert _fractions(diff) == tuple(p - q for p, q in zip(u.c, w.c))
            assert core_difference(u, w) == _fractions(diff)
            # a right-kernel element splits into (x | f | 0 | 0) and (x | 0 | c | 0)
            kern = DVBElement(b, x, f, c, (Fraction(0),) * b.n_E)
            side_part, core_part = _split(kern)
            assert_lowest_terms(side_part)
            assert_lowest_terms(core_part)
            assert side_part == DVBElement(b, x, f, (0,) * b.n_C, (0,) * b.n_E)
            assert core_part == core_embed(b, x, c)
            assert kernel_split(kern) == (side_part, core_part)
            if b.n_E:
                with pytest.raises(NotInKernelError, match="nonzero E projection"):
                    _split(DVBElement(b, x, f, c, (Fraction(1),) * b.n_E))


@pytest.mark.parametrize("ranks", KERNEL_RANKS, ids=str)
def test_kernel_apply_matches_fraction_formula(ranks):
    """`FiberMorphism.apply` on the values of constant blocks, and
    `DVBMorphism.apply` through its evaluation plan, against the block
    formula at one point."""
    n_f, n_c, n_e = ranks
    b = DecomposedDVB(Chart.of_dim(1), *ranks)
    rng = random.Random(f"apply {ranks}")

    def times(m, vec):
        return tuple(sum((a * q for a, q in zip(row, vec)), Fraction(0)) for row in m)

    for bound in KERNEL_BOUNDS:
        x = (Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),)

        def matrix(rows, cols):
            return tuple(wide_tuple(rng, cols, bound) for _ in range(rows))

        values = (
            matrix(n_f, n_f),
            matrix(n_c, n_c),
            matrix(n_e, n_e),
            tuple(matrix(n_e, n_f) for _ in range(n_c)),
        )
        fm = constant_morphism(b, b, *values).at(x)
        assert (fm.l, fm.c, fm.r, fm.psi) == values
        phi = random_morphism(rng, b, 2)
        for _ in range(4):
            for blocks, apply in ((fm, fm.apply), (phi.at(x), phi.apply)):
                v = DVBElement(b, x, *(wide_tuple(rng, n, bound) for n in ranks))
                bilinear = tuple(
                    sum(
                        (plane[a][i] * v.e[a] * v.f[i] for a in range(n_e) for i in range(n_f)),
                        Fraction(0),
                    )
                    for plane in blocks.psi
                )
                want = DVBElement(
                    b,
                    x,
                    times(blocks.l, v.f),
                    tuple(p + q for p, q in zip(times(blocks.c, v.c), bilinear)),
                    times(blocks.r, v.e),
                )
                k = apply(v)
                assert_lowest_terms(k)
                assert k == want


def test_kernel_apply_keeps_base_checks():
    phi = scalar_morphism(2, 3, 5, 7)
    fm = phi.at((Fraction(1),))
    with pytest.raises(BaseMismatchError, match="base point differs from block point"):
        fm.apply(B.element((2,), (1,), (1,), (1,)))
    other = DecomposedDVB(CHART, 1, 1, 1, ("A", "C", "E"))
    with pytest.raises(BaseMismatchError, match="bundle differs from morphism source"):
        fm.apply(other.element((1,), (1,), (1,), (1,)))


def test_morphism_apply_checks_the_bundle_before_the_plan():
    """An element of another bundle is rejected before the plan is read at
    its point, also when its chart has fewer coordinates than the plan reads."""
    phi = scalar_morphism(2, 3, 5, 7)
    others = (
        DecomposedDVB(CHART, 1, 1, 1, ("A", "C", "E")).element((1,), (1,), (1,), (1,)),
        DecomposedDVB(Chart.of_dim(0), 1, 1, 1).element((), (1,), (1,), (1,)),
    )
    message = "^element bundle differs from morphism source$"
    for v in others:
        with pytest.raises(BaseMismatchError, match=message):
            phi.apply(v)


@pytest.mark.parametrize("bound", [1, 7, 49, 1000])
def test_kernel_draws_equal_random_tuple(bound):
    """The pair loop gives the `randint(-b, b)`, `randint(1, b)` pairs in
    lowest terms and the rng state of the stdlib, and a sampler's `draw` the
    same values in lowest terms; 1000 is the cap on a scenario's bound."""
    for seed in range(200):
        for n in range(6):
            ours, theirs = random.Random(seed), random.Random(seed)
            pairs = [(theirs.randint(-bound, bound), theirs.randint(1, bound)) for _ in range(n)]
            lowest = [(p // gcd(p, q), q // gcd(p, q)) for p, q in pairs]
            (point,) = _draw_sample(ours, bound, n, ())
            assert [(a.numerator, a.denominator) for a in point] == lowest
            assert ours.getstate() == theirs.getstate()
            ours, theirs = random.Random(seed), random.Random(seed)
            (slots,) = _Sampler(ours, None, bound).draw(n)
            assert _fractions(slots) == random_tuple(theirs, n, bound)
            assert ours.getstate() == theirs.getstate()
            assert_lowest_slots(slots)
        ours, theirs = random.Random(seed), random.Random(seed)
        sampler = _Sampler(ours, None, bound)
        assert _fractions(*sampler.draw(1)) == random_tuple(theirs, 1, bound)
        assert sampler.rationals(1) == random_tuple(theirs, 1, bound)
        assert sampler.rationals(3) == random_tuple(theirs, 3, bound)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("bound", [1, 7, 1000])
def test_sampler_calls_draw_what_the_public_draws_draw(bound):
    """`sample`, `draw`, `element` and `positives` each make the draws of the
    calls they replace, in their order: `random_tuple` for the point, one
    `draw` of a single length per length, and `randint(1, bound)` per
    positive."""
    b = DecomposedDVB(Chart.of_dim(2), 3, 0, 2)
    for seed in range(60):
        ours, theirs = random.Random(seed), random.Random(seed)
        s, t = _Sampler(ours, b, bound), _Sampler(theirs, b, bound)
        assert s.sample(2, 0, 1) == [t.point(), *t.draw(2), *t.draw(0), *t.draw(1)]
        assert s.sample() == [t.point()]
        assert s.draw(3, 1) == [*t.draw(3), *t.draw(1)] and s.draw() == []
        x, f = t.point(), *t.draw(3)
        assert s.element() == DVBElement._of_slots(b, x, f, *t.draw(0), *t.draw(2))
        e = ((1, 0), 1)
        assert s.element(x, e=e) == DVBElement._of_slots(b, x, *t.draw(3), *t.draw(0), e)
        assert s.positives(5) == [theirs.randint(1, bound) for _ in range(5)]
        assert s.positives(0) == []
        assert ours.getstate() == theirs.getstate()


def test_sampler_seeds_lie_below_two_to_the_thirty():
    """A seed is drawn from [0, 2^30) as `randint` draws it: 31 bits at a
    time, and 2^30 and 2^30 + 1 are drawn again."""

    class Bits:
        values = iter([1 << 30, (1 << 30) + 1, (1 << 30) - 1])

        def getrandbits(self, k):
            assert k == 31
            return next(self.values)

    assert _Sampler(Bits(), B).seed() == (1 << 30) - 1


def test_kernel_fast_paths_still_compare_values():
    """Equal base points, bundles and shared slots that are other objects
    still add; unequal ones raise the errors they always raised."""
    b = DecomposedDVB(Chart.of_dim(2), 2, 1, 2)
    u = b.element(("1/2", 3), (1, 2), (3,), (4, "5/7"))
    twin = DecomposedDVB(Chart.of_dim(2), 2, 1, 2)
    copies = [
        DVBElement(b, tuple(Fraction(p) for p in u.x), (5, 6), (7,), u.e),
        DVBElement(twin, u.x, u.f, (7,), (8, 9)),
        DVBElement(twin, (Fraction(1, 2), Fraction(3)), (5, 6), (7,), (4, Fraction(5, 7))),
    ]
    assert copies[0].x is not u.x and copies[0]._e is not u._e and copies[2].bundle is not b
    assert _right_add(u, copies[0]) == b.element(u.x, (6, 8), (10,), u.e)
    assert _left_add(u, copies[1]) == b.element(u.x, u.f, (10,), (12, "68/7"))
    assert _right_add(u, copies[2]) == _right_add(u, copies[0])
    assert _fractions(_difference(u, DVBElement(twin, u.x, u.f, (1,), u.e))) == (2,)
    elsewhere = b.element((1, 3), (1, 2), (3,), u.e)
    message = (
        r"^base points differ: \(Fraction\(1, 2\), Fraction\(3, 1\)\)"
        r" vs \(Fraction\(1, 1\), Fraction\(3, 1\)\)$"
    )
    other = DecomposedDVB(Chart.of_dim(2), 2, 1, 2, ("A", "C", "E"))
    stranger = other.element(u.x, u.f, u.c, u.e)
    for op in (_right_add, _left_add, _difference):
        with pytest.raises(BaseMismatchError, match=message):
            op(u, elsewhere)
        with pytest.raises(BaseMismatchError, match="^elements belong to different bundles$"):
            op(u, stranger)
    with pytest.raises(FiberMismatchError, match="^right addition needs a shared E point$"):
        _right_add(u, b.element(u.x, u.f, u.c, (4, "5/8")))
    with pytest.raises(FiberMismatchError, match="^left addition needs a shared F point$"):
        _left_add(u, b.element(u.x, (1, 3), u.c, u.e))
    with pytest.raises(FiberMismatchError, match="^core difference needs matching F and E slots$"):
        _difference(u, b.element(u.x, u.f, u.c, (4, "5/8")))


def test_kernel_fast_paths_check_the_bundle_of_a_shared_point():
    """The flip of u lies in another bundle but shares u's point object, and
    with f == e its outer slots equal u's, so only the bundle check can
    refuse the pair."""
    b = DecomposedDVB(CHART, 1, 1, 1)
    u = b.element(("1/2",), (3,), (5,), (3,))
    v = u.flip()
    assert v.x is u.x and v.bundle != b
    calls = (
        lambda: fiber_add("right", u, v),
        lambda: fiber_add("left", u, v),
        lambda: core_difference(u, v),
    )
    for call in calls:
        with pytest.raises(BaseMismatchError, match="^elements belong to different bundles$"):
            call()


# ---------------------------------------------------------------------------
# Bundles and fiber morphisms as values
#
# The plan behind DVBMorphism.at is checked against a per-entry oracle in
# test_ring.py, on every record that holds one.


def test_bundle_hash_is_the_field_tuple_hash():
    """The hash is made once per bundle, and is the dataclass hash of its
    fields, so sets and dicts of bundles keep their order."""
    for b in (B, B222, DecomposedDVB(Chart.of_dim(0), 0, 3, 1, ("A", "B*", "C"))):
        want = hash((b.chart, b.n_F, b.n_C, b.n_E, b.labels))
        assert hash(b) == want and hash(b) == want
        assert b == DecomposedDVB(b.chart, *b.ranks, b.labels)
        assert not hasattr(b, "__dict__")


@pytest.mark.parametrize("rank", [1.5, True, "1", Fraction(1), None, -2], ids=repr)
def test_bundles_take_nonnegative_int_ranks(rank):
    """A rank that is not an int (a bool is not) raises TypeError, and a
    negative one ValueError, when the bundle is built, not when a shell or
    an element of it is."""
    builds = (
        lambda r: DecomposedDVB(CHART, r, 1, 1),
        lambda r: DecomposedDVB(CHART, 1, r, 1),
        lambda r: DecomposedDVB(CHART, 1, 1, r),
        lambda r: VectorBundle(CHART, r),
    )
    if rank == -2:
        error, message = ValueError, "^fiber ranks must be nonnegative$"
    else:
        error, message = TypeError, f"^fiber rank must be an int, got {re.escape(repr(rank))}$"
    for build in builds:
        with pytest.raises(error, match=message):
            build(rank)


def test_fiber_morphism_has_no_public_constructor():
    """A fiber morphism comes only from `.at(x)` and the block algebra.  The
    constructor checked nothing: it took a 2 x 1 L block on a rank-2 F fiber,
    whose `apply` mapped f = (5, 7) to (5, 5), and a 3-coordinate point over
    a 1-dim chart."""
    b = DecomposedDVB(CHART, 2, 0, 0)
    message = "^a FiberMorphism comes from .at\\(x\\) or from the block algebra$"
    for x, l in (((Fraction(1),), ((1,), (1,))), ((1, 2, 3), ((1, 0), (0, 1)))):
        with pytest.raises(TypeError, match=message):
            FiberMorphism(b, b, x, l, (), (), ())
    with pytest.raises(TypeError, match=message):
        FiberMorphism()


def test_fiber_morphism_is_immutable():
    fm = scalar_morphism(2, 3, 5, 7).at((1,))
    built = fm.after(identity_morphism(B).at((1,)))
    for m in (fm, built):
        with pytest.raises(AttributeError, match="^cannot assign to field 'l'"):
            m.l = ((Fraction(1),),)
        for name in ("l", "x", "_int_blocks"):
            with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}"):
                delattr(m, name)
        assert m.l == ((Fraction(2),),) and m._int_blocks[0] == (((2,),), 1)


# (source ranks, target ranks): a zero rank in each slot, on equal ranks and
# on differing ones
CANONICAL_RANKS = [
    ((0, 2, 1), (0, 2, 1)),
    ((2, 0, 1), (2, 0, 1)),
    ((1, 2, 0), (1, 2, 0)),
    ((0, 1, 2), (2, 1, 0)),
    ((2, 0, 1), (1, 2, 1)),
    ((1, 2, 2), (2, 0, 1)),
]


@pytest.mark.parametrize("ranks", CANONICAL_RANKS, ids=str)
def test_fiber_morphism_has_one_canonical_form(ranks):
    """One pointwise morphism reached four ways holds one key: from
    `DVBMorphism.at`, as the `.at(x)` of the constant morphism of its values,
    as `after` an identity on either side and, on equal ranks, as
    `inverse().inverse()`.  Every block is integer rows over a positive
    denominator in lowest terms, although the plan's values share factors
    with its denominator."""
    chart = Chart.of_dim(2)
    source, target = (DecomposedDVB(chart, *r) for r in ranks)
    vars = chart.names
    x1, x2 = (MultiPoly.var(vars, name) for name in vars)

    def entry(i, j):
        # lower triangular with a nonzero diagonal, so square blocks invert
        if i == j:
            return x1.scale(Fraction(4, 3)) + MultiPoly.const(vars, Fraction(2, 3))
        if i > j:
            return (x1 * x2).scale(Fraction(3, 4)) + MultiPoly.const(vars, Fraction(-1, 6))
        return MultiPoly.zero(vars)

    def block(rows, cols):
        return PolyMatrix.build(vars, rows, cols, entry)

    (f, c, e), (tf, tc, te) = ranks
    psi = tuple(
        tuple(
            tuple(x2.scale(Fraction(2, 9)) + MultiPoly.const(vars, Fraction(g + a + i, 6))
                  for i in range(f))
            for a in range(e)
        )
        for g in range(tc)
    )
    phi = DVBMorphism(source, target, block(tf, f), block(tc, c), block(te, e), psi)
    x = (Fraction(1, 2), Fraction(2, 3))
    assert any(gcd(den, *(v for row in rows for v in row)) > 1 for rows, den in phi._plan.at(x))
    values = (
        values_at(phi.phi_l, x),
        values_at(phi.phi_c, x),
        values_at(phi.phi_r, x),
        tuple(values_at(PolyMatrix(vars, plane), x) for plane in psi),
    )
    fm = phi.at(x)
    routes = [
        constant_morphism(source, target, *values).at(x),
        fm.after(identity_morphism(source).at(x)),
        identity_morphism(target).at(x).after(fm),
    ]
    if source.ranks == target.ranks:
        routes.append(fm.inverse().inverse())
    for other in [fm, *routes]:
        assert other == fm and hash(other) == hash(fm)
        assert other._int_blocks == fm._int_blocks
        assert (other.l, other.c, other.r, other.psi) == values
        for rows, den in other._int_blocks:
            assert den > 0 and gcd(den, *(v for row in rows for v in row)) == 1


@pytest.mark.parametrize("ranks", [(0, 0, 0), (1, 2, 1)])
def test_at_checks_point_arity_for_every_rank(ranks):
    phi = identity_morphism(DecomposedDVB(Chart.of_dim(2), *ranks))
    with pytest.raises(ValueError, match="^point arity 3 vs chart dim 2$"):
        phi.at((1, 2, 3))
    with pytest.raises(ValueError, match="^point arity 1 vs chart dim 2$"):
        phi.at((1,))
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        phi.at((0.5, 1))
    assert phi.at(("1/2", 3)).x == (Fraction(1, 2), Fraction(3))


# ---------------------------------------------------------------------------
# One element type: DVBElement on slot vectors
#
# The reference formulas are the Fraction ones the structure maps and the
# pairings had before the element held slot vectors.  Values reach
# denominators up to 10**12, and slots are zero about half the time.

@pytest.mark.parametrize(
    "args, error, message",
    [
        (((0,), (1, 2), (), (3,)), ValueError, "^F slot has 2 entries, bundle rank is 1$"),
        (((0,), (1,), (), (3,)), ValueError, "^C slot has 0 entries, bundle rank is 1$"),
        (((0,), (1,), (2,), (3, 4)), ValueError, "^E slot has 2 entries, bundle rank is 1$"),
        (((0, 1), (1,), (2,), (3,)), ValueError, "^point arity 2 vs chart dim 1$"),
        (((), (1,), (2,), (3,)), ValueError, "^point arity 0 vs chart dim 1$"),
        (((0,), (1.5,), (2,), (3,)), TypeError, "^cannot interpret 1.5 as a rational$"),
        (((0.5,), (1,), (2,), (3,)), TypeError, "^cannot interpret 0.5 as a rational$"),
        (((0,), (True,), (2,), (3,)), TypeError, "^cannot interpret True as a rational$"),
        (((0,), (1,), ("1e3",), (3,)), ValueError, "^not an integer n or a fraction n/d$"),
    ],
    ids=[
        "long-F", "short-C", "long-E", "long-point", "short-point", "float-slot", "float-point",
        "bool-slot", "exponent-text-slot",
    ],
)
def test_element_checks_its_shape_and_values(args, error, message):
    for build in (lambda *a: DVBElement(B, *a), B.element):
        with pytest.raises(error, match=message):
            build(*args)


@pytest.mark.parametrize("side", ["right", "left"])
def test_fiber_scale_rejects_a_bool(side):
    u = B.element((1,), (2,), (3,), (4,))
    with pytest.raises(TypeError, match="^cannot interpret True as a rational$"):
        fiber_scale(side, True, u)
    assert fiber_scale(side, "1", u) == fiber_scale(side, 1, u) == u


exact = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**12).filter(lambda q: abs(q) < 10**12),
)


@st.composite
def slot_values(draw, n):
    if draw(st.booleans()):
        return (Fraction(0),) * n
    return tuple(draw(exact) for _ in range(n))


@st.composite
def element_cases(draw):
    """A bundle, a point, two draws of every slot, a scalar and fiber blocks."""
    dim, *ranks = (draw(st.integers(0, 3)) for _ in range(4))
    b = DecomposedDVB(Chart.of_dim(dim), *ranks)
    x = tuple(draw(exact) for _ in range(b.chart.dim))
    first = tuple(draw(slot_values(n)) for n in b.ranks)
    second = tuple(draw(slot_values(n)) for n in b.ranks)

    def matrix(rows, cols):
        return tuple(draw(slot_values(cols)) for _ in range(rows))

    n_f, n_c, n_e = b.ranks
    blocks = (
        matrix(n_f, n_f), matrix(n_c, n_c), matrix(n_e, n_e),
        tuple(matrix(n_e, n_f) for _ in range(n_c)),
    )
    return b, x, first, second, draw(exact), blocks


def fields(v):
    return (v.bundle, v.x, v.f, v.c, v.e)


def plus(p, q):
    return tuple(a + b for a, b in zip(p, q))


def times(m, vec):
    return tuple(sum((a * q for a, q in zip(row, vec)), Fraction(0)) for row in m)


def fraction_dot(p, q):
    return sum((a * b for a, b in zip(p, q)), Fraction(0))


@given(element_cases())
@settings(max_examples=80, deadline=None)
def test_single_representation_matches_fraction_formulas(case):
    b, x, (f, c, e), (f2, c2, e2), r, (l, cm, rm, psi) = case
    zeros = [(Fraction(0),) * n for n in b.ranks]
    u = DVBElement(b, x, f, c, e)

    def scaled(p):
        return tuple(r * a for a in p)

    # the two structures
    assert fields(fiber_add("right", u, DVBElement(b, x, f2, c2, e))) == (
        b, x, plus(f, f2), plus(c, c2), e
    )
    assert fields(fiber_add("left", u, DVBElement(b, x, f, c2, e2))) == (
        b, x, f, plus(c, c2), plus(e, e2)
    )
    assert fields(fiber_scale("right", r, u)) == (b, x, scaled(f), scaled(c), e)
    assert fields(fiber_scale("left", r, u)) == (b, x, f, scaled(c), scaled(e))
    assert core_difference(u, DVBElement(b, x, f, c2, e)) == tuple(p - q for p, q in zip(c, c2))
    side_part, core_part = kernel_split(DVBElement(b, x, f, c, zeros[2]))
    assert fields(side_part) == (b, x, f, zeros[1], zeros[2])
    assert fields(core_part) == (b, x, zeros[0], c, zeros[2])
    assert fields(u.flip()) == (b.flip(), x, e, c, f)
    # a fiber morphism: (L f, C c + Psi(f, e), R e)
    fm = constant_morphism(b, b, l, cm, rm, psi).at(x)
    assert (fm.l, fm.c, fm.r, fm.psi) == (l, cm, rm, psi)
    bilinear = tuple(
        fraction_dot([a for row in plane for a in row], [p * q for p in e for q in f])
        for plane in psi
    )
    assert fields(fm.apply(u)) == (b, x, times(l, f), plus(times(cm, c), bilinear), times(rm, e))
    # the pairings: <v, a> = p.f + q.c on the right, p.e + q.c on the left
    p, q = f2, c2
    a = DVBElement(right_dual(b), x, e, p, q)
    assert pair_r(u, a) == fraction_dot(a.c + a.e, u.f + u.c)
    assert pair_r(u, a) == fraction_dot(p, f) + fraction_dot(q, c)
    p, q = e2, c2
    bl = DVBElement(left_dual(b), x, q, p, f)
    assert pair_l(u, bl) == fraction_dot(p, e) + fraction_dot(q, c)
    # equality and hashing do not depend on how an element was built
    as_text = [tuple(str(v) for v in slot) for slot in (x, f, c, e)]
    as_ints = [tuple(int(v) if v.denominator == 1 else v for v in slot) for slot in (x, f, c, e)]
    for other in (
        b.element(x, f, c, e),
        b.element(*as_text),
        b.element(*as_ints),
        DVBElement(b, *as_text),
        fiber_add("right", u, b.element(x, (0,) * b.n_F, (0,) * b.n_C, e)),
        fiber_scale("left", 1, u),
        u.flip().flip(),
    ):
        assert other == u and hash(other) == hash(u) and fields(other) == fields(u)
        assert repr(other) == repr(u) and str(other) == str(u)


def test_element_builds_fraction_views_only_when_read():
    x = (Fraction(2, 3), Fraction(-5, 7))
    u = B222.element(x, (1, "1/2"), (3, 4), (5, 6))
    v = B222.element(x, (7, 8), (9, "-1/3"), (5, 6))
    views = ("f", "c", "e")
    # elements built from public input keep the values they were given
    assert all(name in vars(u) for name in views)
    fm = random_morphism(random.Random(4), B222, 2).at(x)
    built = [
        fiber_add("right", u, v),
        fiber_scale("left", "1/2", u),
        *kernel_split(B222.element(x, (1, 2), (3, 4), (0, 0))),
        u.flip(),
        fm.apply(u),
    ]
    for w in built:
        assert not any(name in vars(w) for name in views)
    w = built[0]
    assert w.c == (Fraction(12), Fraction(11, 3))
    assert [name for name in views if name in vars(w)] == ["c"]
    assert (w.f, w.e) == ((Fraction(8), Fraction(17, 2)), (Fraction(5), Fraction(6)))
    assert w.c is w.c


def test_element_is_immutable():
    u = B.element((1,), (2,), (3,), (4,))
    for v in (u, fiber_scale("right", 1, u)):
        with pytest.raises(AttributeError, match="^cannot assign to field 'f'"):
            v.f = (Fraction(1),)
        with pytest.raises(AttributeError, match="^cannot assign to field '_key'"):
            v._key = u._key
        for name in ("f", "x", "bundle", "_key"):
            with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}"):
                delattr(v, name)
        assert v.f == (Fraction(2),) and v._f == ((2,), 1) and v == u


def test_element_str_is_the_report_text():
    u = B.element(["1/2"], [3], ["-2/3"], [1])
    assert str(u) == "(x=(1/2) | f=(3) | c=(-2/3) | e=(1))"
    # an element the structure maps build prints alike, and so does a zero rank
    assert str(fiber_scale("right", 1, u)) == str(u)
    w = DecomposedDVB(Chart.of_dim(2), 2, 0, 1).element((0, "5/4"), ("-1", 2), (), (7,))
    assert str(w) == "(x=(0, 5/4) | f=(-1, 2) | c=() | e=(7))"


# -- guards -----------------------------------------------------------------------


def _point_morphism_onto_another_bundle(source=B, target=B):
    wrong = identity_morphism(B222)
    return PointwiseMorphism(source, target, wrong.at).at((0, 0))


CORE_GUARDS = {
    "chart dimension": (
        lambda: Chart.of_dim(-1), ValueError, "chart dimension must be nonnegative",
    ),
    "morphism chart": (
        lambda: replace(identity_morphism(B), target=B222),
        BaseMismatchError,
        "morphism requires a shared chart",
    ),
    "composition": (
        lambda: compose_morphisms(identity_morphism(B), identity_morphism(B222)),
        ValueError,
        "composition needs inner target equal to outer source",
    ),
    "fiber composition point": (
        lambda: identity_morphism(B).at((0,)).after(identity_morphism(B).at((1,))),
        ValueError,
        "fiber composition needs matching middle bundle and point",
    ),
    "fiber composition bundle": (
        lambda: identity_morphism(B).at((0,)).after(identity_morphism(B222).at((0, 0))),
        ValueError,
        "fiber composition needs matching middle bundle and point",
    ),
    "pointwise blocks": (
        _point_morphism_onto_another_bundle,
        ValueError,
        "pointwise blocks disagree with declared bundles",
    ),
    # one declared bundle matches, so each half of the check is seen alone
    "pointwise blocks source": (
        lambda: _point_morphism_onto_another_bundle(target=B222),
        ValueError,
        "pointwise blocks disagree with declared bundles",
    ),
    "pointwise blocks target": (
        lambda: _point_morphism_onto_another_bundle(source=B222),
        ValueError,
        "pointwise blocks disagree with declared bundles",
    ),
}


@pytest.mark.parametrize("guard", CORE_GUARDS)
def test_core_guard(guard):
    call, exc, message = CORE_GUARDS[guard]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_element_equality_with_another_type_is_not_implemented():
    v = B.element((0,), (1,), (2,), (3,))
    assert v.__eq__((0, 1, 2, 3)) is NotImplemented
    assert v != (0, 1, 2, 3)
