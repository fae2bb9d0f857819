import itertools
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbcalc.core import (
    _Sampler,
    _slots_of,
    BaseMismatchError,
    Chart,
    DecomposedDVB,
    DVBMorphism,
    FiberMorphism,
    VectorBundle,
    compose_morphisms,
    fiber_add,
    fiber_scale,
    identity_morphism,
    invert_morphism,
    psi_zero,
)
from dvbcalc.duality import (
    _pair,
    _relation_holds,
    _same,
    ProjectionMismatchError,
    R_VARIANTS,
    canonical_R,
    canonical_R_morphism,
    dual_label,
    fiber_right_dual,
    left_dual,
    naive_third_dual_transport,
    pair_l,
    pair_r,
    right_dual,
    right_dual_morphism,
    right_dual_morphism_poly,
    third_dual_transport,
    triple_right_dual,
    verify_R_relation,
)
from dvbcalc.geomech import cotangent_prolongation, tangent_prolongation
from dvbcalc.ring import MultiPoly, PolyMatrix, SingularMatrixError, rat
from dvbcalc.scenario import random_poly_matrix, random_poly_vector, random_unimodular_matrix

CHART = Chart.of_dim(1)
B = DecomposedDVB(CHART, 1, 1, 1)
B234 = DecomposedDVB(Chart.of_dim(2), 2, 3, 4)

fractions = st.fractions(min_value=-7, max_value=7, max_denominator=7)


def rand_rat(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


def rand_tuple(rng, n):
    return tuple(rand_rat(rng) for _ in range(n))


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


def random_iso(rng, bundle):
    """Self-isomorphism with unit determinant blocks, so duals exist everywhere."""
    vars = bundle.chart.names

    def unitriangular(n):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(MultiPoly.const(vars, 1))
                elif j > i:
                    entry = MultiPoly.const(vars, rand_rat(rng))
                    if vars and rng.random() < 0.5:
                        entry = entry * MultiPoly.var(vars, rng.choice(vars))
                    row.append(entry)
                else:
                    row.append(MultiPoly.zero(vars))
            rows.append(tuple(row))
        return PolyMatrix(vars, tuple(rows))

    def psi_entry():
        entry = MultiPoly.const(vars, rand_rat(rng))
        if vars and rng.random() < 0.5:
            entry = entry * MultiPoly.var(vars, rng.choice(vars))
        return entry

    psi = tuple(
        tuple(tuple(psi_entry() for _ in range(bundle.n_F)) for _ in range(bundle.n_E))
        for _ in range(bundle.n_C)
    )
    return DVBMorphism(
        bundle,
        bundle,
        unitriangular(bundle.n_F),
        unitriangular(bundle.n_C),
        unitriangular(bundle.n_E),
        psi,
    )


# -- dual bundles -----------------------------------------------------------


def test_dual_label_involution():
    assert dual_label("E") == "E*"
    assert dual_label("E*") == "E"
    assert dual_label(dual_label("T*M")) == "T*M"


def test_right_dual_ranks_and_labels():
    d = right_dual(B234)
    assert d.ranks == (4, 2, 3)
    assert d.labels == ("E", "F*", "C*")


def test_triple_dual_is_original_bundle():
    assert triple_right_dual(B234) == B234
    shell = cotangent_prolongation(VectorBundle(Chart.of_dim(2), 3, "E"))
    assert triple_right_dual(shell) == shell


def test_left_dual_ranks_and_labels():
    d = left_dual(B234)
    assert d.ranks == (3, 4, 2)
    assert d.labels == ("C*", "E*", "F")


def test_left_dual_of_right_dual_is_original():
    assert left_dual(right_dual(B234)) == B234


def test_right_dual_is_made_once_per_bundle_object():
    """A bundle keeps its right dual; an equal but distinct bundle keeps its
    own, equal one; a replaced bundle starts with empty slots."""
    b = DecomposedDVB(Chart.of_dim(2), 1, 2, 3, ("A", "B*", "C"))
    twin = DecomposedDVB(Chart.of_dim(2), 1, 2, 3, ("A", "B*", "C"))
    assert b == twin and b is not twin
    dual, twin_dual = right_dual(b), right_dual(twin)
    assert right_dual(b) is dual and right_dual(twin) is twin_dual
    assert dual is not twin_dual and dual == twin_dual
    assert triple_right_dual(b) is triple_right_dual(b) and triple_right_dual(b) == b
    assert left_dual(b) is left_dual(b) and left_dual(b) == left_dual(twin)
    # the filled slots leave equality, hashing and repr as they were
    fresh = DecomposedDVB(Chart.of_dim(2), 1, 2, 3, ("A", "B*", "C"))
    assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert repr(b) == (
        "DecomposedDVB(chart=Chart(names=('x1', 'x2')), n_F=1, n_C=2, n_E=3, "
        "labels=('A', 'B*', 'C'))"
    )
    for copy in (replace(b), replace(b, labels=("A", "B", "C"))):
        assert (copy._hash, copy._right_dual, copy._flip) == (None, None, None)
        assert right_dual(copy) is not dual
    assert right_dual(replace(b)) == dual


def test_pairings_and_pointwise_duals_meet_one_dual_bundle():
    phi = scalar_morphism(2, 3, 5, 7)
    dual = right_dual_morphism(phi)
    assert dual.source is right_dual(B) and dual.target is right_dual(B)
    fm = dual.at((1,))
    assert fm.source is right_dual(B) and fm.target is right_dual(B)
    v = B.element((1,), (1,), (2,), (3,))
    assert v.flip().bundle is B.flip() and v.flip().flip().bundle is B


def test_tangent_shell_dualizes_to_cotangent_shape():
    vb = VectorBundle(Chart.of_dim(2), 3, "E")
    d = right_dual(tangent_prolongation(vb))
    assert d == cotangent_prolongation(vb).flip()
    assert d.labels == ("E", "TM*", "E*")


@pytest.mark.parametrize("dim,rank,label", [(0, 1, "E"), (1, 0, "E"), (2, 3, "V*"), (3, 2, "TM")])
def test_cotangent_shell_is_the_flipped_right_dual_of_the_tangent_shell(dim, rank, label):
    vb = VectorBundle(Chart.of_dim(dim), rank, label)
    assert cotangent_prolongation(vb) == right_dual(tangent_prolongation(vb)).flip()
    assert cotangent_prolongation(vb).labels == (dual_label(label), "TM*", label)


# -- pairings -----------------------------------------------------------------


def test_pairing_literal_value():
    v = B.element((0,), (2,), (3,), (4,))
    a = right_dual(B).element((0,), (4,), (5,), (7,))
    assert pair_r(v, a) == 31


def test_pairing_zero_covector():
    v = B234.element((1, 2), (1, 2), (3, 4, 5), (6, 7, 8, 9))
    a = right_dual(B234).element((1, 2), v.e, (0, 0), (0, 0, 0))
    assert pair_r(v, a) == 0


def test_pairing_errors():
    v = B.element((0,), (2,), (3,), (4,))
    bad_leg = right_dual(B).element((0,), (1,), (5,), (7,))
    with pytest.raises(ProjectionMismatchError):
        pair_r(v, bad_leg)
    moved = right_dual(B).element((1,), (4,), (5,), (7,))
    with pytest.raises(BaseMismatchError):
        pair_r(v, moved)
    with pytest.raises(BaseMismatchError):
        pair_r(v, v)


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions, min_size=14, max_size=14))
def test_pairing_bilinear(vals):
    bundle = DecomposedDVB(Chart.of_dim(0), 1, 1, 1)
    dual = right_dual(bundle)
    f, c1, c2, e1, e2 = vals[0], vals[1], vals[2], vals[3], vals[4]
    p1, p2, q = vals[5], vals[6], vals[7]
    v = bundle.element((), (f,), (c1,), (e1,))
    vp = bundle.element((), (f,), (c2,), (e2,))
    a = dual.element((), (e1,), (p1,), (q,))
    b = dual.element((), (e2,), (p2,), (q,))
    lhs = pair_r(fiber_add("left", v, vp), fiber_add("right", a, b))
    assert lhs == pair_r(v, a) + pair_r(vp, b)


def test_pairing_value_independent_of_decomposition():
    rng = random.Random(23)
    bundle = B234
    dual = right_dual(bundle)
    for _ in range(40):
        x = rand_tuple(rng, 2)
        w = bundle.element(x, rand_tuple(rng, 2), rand_tuple(rng, 3), rand_tuple(rng, 4))
        big = dual.element(x, w.e, rand_tuple(rng, 2), rand_tuple(rng, 3))
        total = pair_r(w, big)
        for _ in range(4):
            c1 = rand_tuple(rng, 3)
            e1 = rand_tuple(rng, 4)
            p1 = rand_tuple(rng, 2)
            v = bundle.element(x, w.f, c1, e1)
            vp = bundle.element(
                x, w.f, tuple(a - b for a, b in zip(w.c, c1)),
                tuple(a - b for a, b in zip(w.e, e1)),
            )
            a = dual.element(x, e1, p1, big.e)
            b = dual.element(
                x, vp.e, tuple(a2 - b2 for a2, b2 in zip(big.c, p1)), big.e
            )
            assert fiber_add("left", v, vp) == w
            assert fiber_add("right", a, b) == big
            assert pair_r(v, a) + pair_r(vp, b) == total


def test_kernel_pairings():
    rng = random.Random(29)
    bundle = B234
    dual = right_dual(bundle)
    for _ in range(30):
        x = rand_tuple(rng, 2)
        v = bundle.element(x, rand_tuple(rng, 2), rand_tuple(rng, 3), rand_tuple(rng, 4))
        p = rand_tuple(rng, 2)
        # dual element in the right kernel sees only the F projection of v
        a = dual.element(x, v.e, p, (0, 0, 0))
        assert pair_r(v, a) == sum(map(mul, p, v.f))
        # element in the left kernel is seen only through its core
        v0 = bundle.element(x, (0, 0), v.c, v.e)
        q = rand_tuple(rng, 3)
        b1 = dual.element(x, v.e, rand_tuple(rng, 2), q)
        b2 = dual.element(x, v.e, rand_tuple(rng, 2), q)
        assert pair_r(v0, b1) == pair_r(v0, b2) == sum(map(mul, q, v.c))


def test_left_pairing_formula_and_mismatch():
    v = B.element((0,), (2,), (3,), (4,))
    b = left_dual(B).element((0,), (5,), (7,), (2,))
    # slots of the left dual read (q | eps | f-leg)
    assert pair_l(v, b) == 7 * 4 + 5 * 3
    bad = left_dual(B).element((0,), (5,), (7,), (1,))
    with pytest.raises(ProjectionMismatchError):
        pair_l(v, bad)


def test_left_pairing_on_dual_matches_right_pairing():
    rng = random.Random(31)
    dual = right_dual(B234)
    assert left_dual(dual) == B234
    for _ in range(30):
        x = rand_tuple(rng, 2)
        w = dual.element(x, rand_tuple(rng, 4), rand_tuple(rng, 2), rand_tuple(rng, 3))
        b = B234.element(x, rand_tuple(rng, 2), rand_tuple(rng, 3), w.f)
        assert pair_l(w, b) == pair_r(b, w)


def test_scaling_sign_identities():
    rng = random.Random(37)
    dual = right_dual(B234)
    for _ in range(30):
        x = rand_tuple(rng, 2)
        v = B234.element(x, rand_tuple(rng, 2), rand_tuple(rng, 3), rand_tuple(rng, 4))
        a = dual.element(x, v.e, rand_tuple(rng, 2), rand_tuple(rng, 3))
        base = pair_r(v, a)
        assert pair_r(fiber_scale("right", -1, v), a) == -base
        assert pair_r(v, fiber_scale("left", -1, a)) == -base


# -- dual morphisms -----------------------------------------------------------


def test_scalar_dual_blocks():
    phi = scalar_morphism(2, 3, 5, 7)
    fm = right_dual_morphism(phi).at((rat(0),))
    assert fm.l == ((Fraction(1, 5),),)
    assert fm.c == ((Fraction(2),),)
    assert fm.r == ((Fraction(3),),)
    assert fm.psi == (((Fraction(7, 5),),),)


def test_dual_of_identity():
    ident = identity_morphism(B234)
    x = (rat(1), rat("1/2"))
    assert right_dual_morphism(ident).at(x) == identity_morphism(right_dual(B234)).at(x)


def test_adjoint_contract_scalar():
    phi = scalar_morphism(2, 3, 5, 7)
    dual = right_dual_morphism(phi)
    v = B.element((0,), ("1/2",), ("2/3",), ("3/5",))
    a = right_dual(B).element((0,), (3,), ("1/7",), (2,))
    assert a.f == phi.apply(v).e
    assert pair_r(phi.apply(v), a) == pair_r(v, dual.at(a.x).apply(a))


def test_pointwise_dual_algebra_makes_no_fraction():
    """Once the point is drawn, the dual morphism, the adjoint identity on
    the integer pairing, composition and inverse run on integers: no
    `Fraction` is made."""
    rng = random.Random(83)
    phi = random_iso(rng, B234)
    identity = identity_morphism(B234)
    s = _Sampler(rng, B234)
    x = s.point()
    saved = Fraction.__dict__["__new__"]
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return saved.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        fm = phi.at(x)
        v = s.element(x=x)
        image = phi.apply(v)
        a = s.over(right_dual(B234)).element(x=x, f=image._e)
        pulled = fiber_right_dual(fm).apply(a)
        solved = right_dual_morphism(phi).at(x).apply(a)
        adjoint = _same(_pair(image, a), _pair(v, pulled))
        round_trip = fm.inverse().after(fm) == identity.at(x)
    finally:
        Fraction.__new__ = saved
    assert adjoint and round_trip and solved == pulled
    assert made == []


def test_adjoint_contract_random():
    rng = random.Random(41)
    dual_bundle = right_dual(B234)
    for _ in range(12):
        phi = random_iso(rng, B234)
        dual = right_dual_morphism(phi)
        for _ in range(6):
            x = rand_tuple(rng, 2)
            v = B234.element(
                x, rand_tuple(rng, 2), rand_tuple(rng, 3), rand_tuple(rng, 4)
            )
            a = dual_bundle.element(
                x, phi.apply(v).e, rand_tuple(rng, 2), rand_tuple(rng, 3)
            )
            assert pair_r(phi.apply(v), a) == pair_r(v, dual.at(a.x).apply(a))


def test_dual_is_contravariant():
    rng = random.Random(43)
    for _ in range(8):
        phi = random_iso(rng, B234)
        psi = random_iso(rng, B234)
        x = rand_tuple(rng, 2)
        lhs = fiber_right_dual(compose_morphisms(phi, psi).at(x))
        rhs = fiber_right_dual(psi.at(x)).after(fiber_right_dual(phi.at(x)))
        assert lhs == rhs


def _dual_apply_case(data):
    """A morphism with random blocks of ranks 0-4 over a chart of dim 0-3, a
    point x, and whether R is made singular at x: its first row vanishes
    there (on a point chart it is zero)."""
    dim = data.draw(st.integers(0, 3), label="dim")
    chart = Chart.of_dim(dim)
    n_e = data.draw(st.integers(0, 4), label="n_E")
    ranks = st.tuples(st.integers(0, 4), st.integers(0, 4))
    (f, c), (tf, tc) = data.draw(ranks, label="source F, C"), data.draw(ranks, label="target F, C")
    source, target = DecomposedDVB(chart, f, c, n_e), DecomposedDVB(chart, tf, tc, n_e)
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    vars = chart.names
    x = rand_tuple(rng, dim)
    r = random_poly_matrix(rng, vars, n_e, n_e, 1).entries
    if n_e and data.draw(st.booleans(), label="singular at x"):
        vanish = MultiPoly.const(vars, 0)
        if dim:
            vanish = MultiPoly.var(vars, "x1") - MultiPoly.const(vars, x[0])
        r = (tuple(vanish * p for p in r[0]), *r[1:])
    phi = DVBMorphism(
        source,
        target,
        random_poly_matrix(rng, vars, tf, f, 1),
        random_poly_matrix(rng, vars, tc, c, 1),
        PolyMatrix(vars, r),
        tuple(
            tuple(random_poly_vector(rng, vars, f, 1) for _ in range(n_e)) for _ in range(tc)
        ),
    )
    return phi, x, rng


def _check_dual_apply(phi, x, rng):
    """The solve route of `right_dual_morphism(phi).at(x)` against the
    adjugate route of `fiber_right_dual(phi.at(x))`."""
    lazy = right_dual_morphism(phi).at(x)
    assert isinstance(lazy, FiberMorphism)
    a = _Sampler(rng, right_dual(phi.target)).element(x=x)
    try:
        eager = fiber_right_dual(phi.at(x))
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            lazy.apply(a)
        with pytest.raises(SingularMatrixError):
            lazy.l
        return False
    assert lazy.apply(a) == eager.apply(a)
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert (lazy.l, lazy.c, lazy.r, lazy.psi) == (eager.l, eager.c, eager.r, eager.psi)
    assert lazy._int_blocks == eager._int_blocks
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dual_apply_solves_as_the_adjugate_blocks_apply(data):
    """The image of a covector under the dual at a point, by one solve
    against R, equals its image under the dual's adjugate blocks, or both
    raise SingularMatrixError; the lazy dual equals the adjugate one.  phi's
    plan may hold x already (as after `phi.apply` there), another point, or
    nothing."""
    phi, x, rng = _dual_apply_case(data)
    warm = data.draw(st.sampled_from(("none", "x", "elsewhere")), label="plan holds")
    if warm != "none":
        point = x if warm == "x" else tuple(v + 1 for v in x)
        phi.apply(_Sampler(rng, phi.source).element(x=point))
    _check_dual_apply(phi, x, rng)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_apply_of_a_pointwise_morphism(data):
    """The same equality for the dual of a pointwise inverse, whose blocks
    at x come from its own `at`."""
    phi, x, rng = _dual_apply_case(data)
    b, vars = phi.source, phi.source.chart.names
    square = DVBMorphism(
        b,
        b,
        random_unimodular_matrix(rng, vars, b.n_F, 1),
        random_unimodular_matrix(rng, vars, b.n_C, 1),
        phi.phi_r,
        tuple(tuple(random_poly_vector(rng, vars, b.n_F, 1) for _ in range(b.n_E)) for _ in range(b.n_C)),
    )
    inverse = invert_morphism(square)
    try:
        inverse.at(x)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            right_dual_morphism(inverse).at(x)
        return
    assert _check_dual_apply(inverse, x, rng)


def test_dual_apply_checks_its_element():
    dual = right_dual_morphism(scalar_morphism(2, 3, 5, 7))
    fm = dual.at((1,))
    with pytest.raises(BaseMismatchError, match="^element bundle differs from morphism source$"):
        fm.apply(B.element((1,), (1,), (2,), (3,)))
    with pytest.raises(BaseMismatchError, match="^element base point differs from block point$"):
        fm.apply(right_dual(B).element((2,), (1,), (2,), (3,)))
    # (e | p | q) = (5 | 1 | 1) goes to (e/5 | 2 p + 7 q e/5 | 3 q) = (1 | 9 | 3)
    image = fm.apply(right_dual(B).element((1,), (5,), (1,), (1,)))
    assert (image.f, image.c, image.e) == ((1,), (9,), (3,))
    with pytest.raises(ValueError, match="^point arity 2 vs chart dim 1$"):
        dual.at((1, 2))


def test_polynomial_dual_matches_pointwise():
    rng = random.Random(47)
    phi = random_iso(rng, B234)
    poly_dual = right_dual_morphism_poly(phi)
    point_dual = right_dual_morphism(phi)
    for x in ((rat(0), rat(0)), (rat("1/2"), rat(-2)), (rat(3), rat("5/7"))):
        assert poly_dual.at(x) == point_dual.at(x)


def test_polynomial_dual_needs_unimodular_right_block():
    vars = CHART.names
    x_mat = PolyMatrix(vars, ((MultiPoly.var(vars, "x1"),),))
    phi = DVBMorphism(
        B, B,
        PolyMatrix.identity(vars, 1),
        PolyMatrix.identity(vars, 1),
        x_mat,
        psi_zero(vars, 1, 1, 1),
    )
    with pytest.raises(ValueError):
        right_dual_morphism_poly(phi)
    # a right block that is not square has no inverse either
    one = MultiPoly.const(vars, 1)
    wide = DVBMorphism(
        DecomposedDVB(CHART, 1, 1, 2), B,
        PolyMatrix.identity(vars, 1),
        PolyMatrix.identity(vars, 1),
        PolyMatrix(vars, ((one, one),)),
        psi_zero(vars, 1, 2, 1),
    )
    with pytest.raises(ValueError, match="right block is not unimodular"):
        right_dual_morphism_poly(wide)


# -- canonical maps to the third dual ----------------------------------------


def test_canonical_map_literal_values():
    v = B.element((0,), (1,), (2,), (3,))
    assert canonical_R("R", v) == B.element((0,), (1,), (-2,), (3,))
    assert canonical_R("R+-", v) == B.element((0,), (1,), (2,), (-3,))
    assert canonical_R("R-+", v) == B.element((0,), (-1,), (2,), (3,))
    assert canonical_R("R=", v) == B.element((0,), (-1,), (-2,), (-3,))


def test_canonical_map_rejects_unknown_variants():
    # the variants are spelled as R_VARIANTS spells them, in ASCII only
    v = B.element((0,), (1,), (2,), (3,))
    for variant in ("Q", "R±", "R∓", "r"):
        with pytest.raises(ValueError, match=f"^unknown canonical map variant '{variant}'$"):
            canonical_R(variant, v)


def test_canonical_morphism_matches_elementwise_map():
    rng = random.Random(53)
    for variant in R_VARIANTS:
        morphism = canonical_R_morphism(B234, variant)
        for _ in range(10):
            v = B234.element(
                rand_tuple(rng, 2), rand_tuple(rng, 2), rand_tuple(rng, 3),
                rand_tuple(rng, 4),
            )
            assert morphism.apply(v) == canonical_R(variant, v)


def test_canonical_maps_are_involutive():
    v = B234.element((1, 2), (1, 2), (3, 4, 5), (6, 7, 8, 9))
    for variant in R_VARIANTS:
        assert canonical_R(variant, canonical_R(variant, v)) == v


def test_variant_relations_to_base_map():
    rng = random.Random(59)
    for _ in range(20):
        v = B234.element(
            rand_tuple(rng, 2), rand_tuple(rng, 2), rand_tuple(rng, 3),
            rand_tuple(rng, 4),
        )
        assert canonical_R("R+-", v) == canonical_R("R", fiber_scale("left", -1, v))
        assert canonical_R("R-+", v) == canonical_R("R", fiber_scale("right", -1, v))
        assert canonical_R("R=", v) == fiber_scale(
            "left", -1, canonical_R("R", fiber_scale("right", -1, v))
        )


def test_relation_holds_for_canonical_images():
    rng = random.Random(61)
    for variant in R_VARIANTS:
        for trial in range(5):
            v = B234.element(
                rand_tuple(rng, 2), rand_tuple(rng, 2), rand_tuple(rng, 3),
                rand_tuple(rng, 4),
            )
            phi = canonical_R(variant, v)
            assert verify_R_relation(v, phi, samples=40, seed=trial, variant=variant)


def test_each_variant_relation_picks_out_its_own_map():
    """With every slot of v nonzero, the relation of variant u holds for the
    image of v under the map of variant w exactly when u == w."""
    v = B234.element((1, -2), (3, -1), (2, 5, -4), (-3, 1, 7, 6))
    for u in R_VARIANTS:
        for w in R_VARIANTS:
            assert verify_R_relation(v, canonical_R(w, v), variant=u) == (u == w), (u, w)


def _grid_slots(values: tuple[Fraction, ...], ranks: tuple[int, ...]):
    """`values` cut into consecutive slot vectors of the given ranks, which
    must cover it exactly: the F*, C* and E* slots of one grid tuple."""
    if len(values) != sum(ranks):
        raise ValueError(f"{len(values)} values for slots of ranks {ranks}")
    cuts = list(itertools.accumulate(ranks, initial=0))
    return [_slots_of(values[i:j]) for i, j in zip(cuts, cuts[1:])]


def relation_on_grid(v, phi, grid) -> bool:
    """The relation of `verify_R_relation` for the map R at every choice of
    the free covector values from `grid`, enumerated exhaustively."""
    values = [rat(g) for g in grid]
    ranks = v.bundle.ranks
    pool = (_grid_slots(t, ranks) for t in itertools.product(values, repeat=sum(ranks)))
    return _relation_holds(v, phi, "R", pool)


def test_relation_on_exhaustive_grid():
    v = B.element(("1/2",), (2,), (-1,), ("2/3",))
    phi = canonical_R("R", v)
    assert relation_on_grid(v, phi, range(-2, 3))
    shifted = B.element(v.x, phi.f, (phi.c[0] + 1,), phi.e)
    assert not relation_on_grid(v, shifted, range(-2, 3))
    # the grid varies every free covector value on its own: this candidate's
    # errors cancel wherever the last C* value equals the E* value
    b = DecomposedDVB(Chart.of_dim(0), 0, 2, 1)
    w = b.element((), (), (1, 2), (3,))
    good = canonical_R("R", w)
    wrong = good.bundle.element((), (), (good.c[0], good.c[1] - 1), (good.e[0] + 1,))
    assert relation_on_grid(w, good, (0, 1))
    assert not relation_on_grid(w, wrong, (0, 1))


def test_grid_slots_cover_the_tuple_exactly():
    """The grid's cut takes its widths from the ranks; a tuple one entry
    short (here the (0, 2, 1) bundle's E* slot) raises instead of pairing a
    short slot."""
    ranks = DecomposedDVB(Chart.of_dim(0), 0, 2, 1).ranks
    values = tuple(map(Fraction, (1, 2, 3)))
    assert _grid_slots(values, ranks) == [((), 1), ((1, 2), 1), ((3,), 1)]
    with pytest.raises(ValueError, match="2 values for slots of ranks"):
        _grid_slots(values[:2], ranks)


def test_relation_fixes_core_free_points():
    v = B234.element((1, 0), (1, 2), (0, 0, 0), (3, 4, 5, 6))
    assert verify_R_relation(v, v, samples=40)


def test_relation_rejects_wrong_base():
    v = B.element((0,), (1,), (2,), (3,))
    moved = B.element((1,), (1,), (-2,), (3,))
    with pytest.raises(ProjectionMismatchError):
        verify_R_relation(v, moved)


# -- third dual transport ------------------------------------------------------


def test_third_dual_transport_scalar():
    phi = scalar_morphism(2, 3, 5, 7)
    fm = third_dual_transport(phi).at((rat(0),))
    assert fm.l == ((Fraction(1, 2),),)
    assert fm.c == ((Fraction(1, 3),),)
    assert fm.r == ((Fraction(1, 5),),)
    assert fm.psi == (((Fraction(-7, 30),),),)
    assert fm == invert_morphism(phi).at((rat(0),))


def test_third_dual_transport_identity():
    x = (rat(2), rat("1/3"))
    ident = identity_morphism(B234)
    assert third_dual_transport(ident).at(x) == ident.at(x)


def test_third_dual_transport_random():
    rng = random.Random(67)
    for _ in range(6):
        phi = random_iso(rng, B234)
        inv = invert_morphism(phi)
        transported = third_dual_transport(phi)
        for _ in range(4):
            x = rand_tuple(rng, 2)
            assert transported.at(x) == inv.at(x)


def test_naive_identification_fails_with_bilinear_block():
    phi = scalar_morphism(2, 3, 5, 7)
    naive = naive_third_dual_transport(phi).at((rat(0),))
    assert naive.psi == (((Fraction(7, 30),),),)
    assert naive != invert_morphism(phi).at((rat(0),))


def test_naive_identification_agrees_without_bilinear_block():
    vars = CHART.names
    phi = DVBMorphism(
        B, B,
        PolyMatrix.constant(vars, [[2]]),
        PolyMatrix.constant(vars, [[3]]),
        PolyMatrix.constant(vars, [[5]]),
        psi_zero(vars, 1, 1, 1),
    )
    x = (rat("1/2"),)
    assert naive_third_dual_transport(phi).at(x) == invert_morphism(phi).at(x)


def adjoint_shapes(seed):
    """(source, target) with equal E ranks; seed 0 has a zero-rank target F."""
    if seed == 0:
        return DecomposedDVB(CHART, 3, 1, 1), DecomposedDVB(CHART, 0, 1, 1)
    rng = random.Random(seed)
    chart = Chart.of_dim(rng.randint(0, 2))
    n_e = rng.randint(0, 3)
    return tuple(
        DecomposedDVB(chart, rng.randint(0, 3), rng.randint(0, 3), n_e) for _ in range(2)
    )


@pytest.mark.parametrize("seed", range(16))
def test_adjoint_contract_on_mixed_ranks(seed):
    source, target = adjoint_shapes(seed)
    rng = random.Random(3000 + seed)
    vars = source.chart.names
    phi = DVBMorphism(
        source,
        target,
        random_poly_matrix(rng, vars, target.n_F, source.n_F, 1),
        random_poly_matrix(rng, vars, target.n_C, source.n_C, 1),
        random_unimodular_matrix(rng, vars, source.n_E, 1),
        tuple(
            tuple(random_poly_vector(rng, vars, source.n_F, 1) for _ in range(source.n_E))
            for _ in range(target.n_C)
        ),
    )
    for _ in range(2):
        x = rand_tuple(rng, source.chart.dim)
        v = source.element(
            x, rand_tuple(rng, source.n_F), rand_tuple(rng, source.n_C), rand_tuple(rng, source.n_E)
        )
        image = phi.apply(v)
        a = right_dual(target).element(
            x, image.e, rand_tuple(rng, target.n_F), rand_tuple(rng, target.n_C)
        )
        want = pair_r(image, a)
        assert pair_r(v, fiber_right_dual(phi.at(x)).apply(a)) == want
        assert pair_r(v, right_dual_morphism_poly(phi).at(x).apply(a)) == want


def test_relation_candidate_in_another_bundle_is_refused():
    v = B234.element((0, 0), (1, 2), (3, 4, 5), (6, 7, 8, 9))
    with pytest.raises(ProjectionMismatchError, match="^candidate lives in the wrong bundle$"):
        verify_R_relation(v, B.element((0,), (1,), (2,), (3,)))
