"""Geometry layer: lifts, bivectors, linear forms, connections, symmetry."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest

from dvbcalc.core import (
    Chart,
    DecomposedDVB,
    DVBElement,
    VectorBundle,
    compose_morphisms,
    fiber_add,
    fiber_scale,
    identity_morphism,
    psi_zero,
    _Sampler,
    _slots_of,
)
from dvbcalc.duality import ProjectionMismatchError, pair_r, right_dual
from dvbcalc.forms import make_form
from dvbcalc.geomech import (
    Bivector,
    CoreSection,
    GeneralOneForm,
    GeneralVectorField,
    LinearConnection,
    LinearOneForm,
    LinearSection,
    LinearTwoForm,
    LinearVectorField,
    Metric,
    _respects_both_structures,
    alpha_M,
    bivector_linear_shape,
    check_jacobi,
    closedness_via_exterior,
    complete_cotangent_lift,
    complete_tangent_lift,
    connection_splitting,
    cotangent_prolongation,
    dual_connection,
    dual_linear_section,
    fiber_var_names,
    horizontal_lagrangian_check,
    is_closed,
    is_degree_zero,
    is_linear_oneform,
    is_linear_poisson,
    is_metric_connection,
    is_symmetric_connection,
    kappa_M,
    kappa_triple,
    lambda_sharp,
    lifted_symplectic_form,
    linear_vf_as_section,
    metric_identity,
    metric_pair_morphism,
    oneform_is_bundle_morphism,
    oneform_linearity_on_tangent,
    omega_c_pullback,
    omega_flat,
    tangent_metric_morphism,
    tangent_prolongation,
    total_space_vars,
    vertical_lift,
    vf_is_bundle_morphism,
    vf_linearity_on_cotangent,
)
from dvbcalc.ring import MultiPoly, PolyMatrix
from dvbcalc.scenario import (
    Scenario,
    random_connection,
    random_metric,
    random_one_form,
    random_poly,
    random_vector_field,
)
from polys import poly_from_dict

CHART1 = Chart.of_dim(1)
CHART2 = Chart.of_dim(2)
VB11 = VectorBundle(CHART1, 1)
VB22 = VectorBundle(CHART2, 2)


def poly(vars, data):
    return poly_from_dict(vars, data)


def rand_rat(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


def rand_tuple(rng, n):
    return tuple(rand_rat(rng) for _ in range(n))


# ---------------------------------------------------------------------------
# the shared "respects both structures" checker

# ranks (n_F, n_C, n_E) = (2, 1, 2): both side legs have room for a map that
# is homogeneous of degree one without being additive
SHELL = DecomposedDVB(Chart.of_dim(1), 2, 1, 2)


def _cube_ratio(v):
    # homogeneous of degree one in v, additive only on lines through 0
    den = v[0] ** 2 + v[1] ** 2
    return v[0] ** 3 / den if den else Fraction(0)


def _small_den(q):
    # sampled coordinates have denominators at most 7, so their sums have
    # denominators dividing lcm(1..7) = 420; products can have 49, 9 or 8.
    # Over Q an additive map is homogeneous, so a map that breaks only a
    # scaling law must be additive on the sampled sums alone.
    return 420 % q.denominator == 0


def DOUBLE_LINEAR(u):
    return u.c[0] + u.f[0] * u.e[1] + u.x[0] * u.f[1] * u.e[0]


ONE_LAW_BROKEN = {
    "right add": lambda u: u.c[0] + u.e[0] * _cube_ratio(u.f),
    "right scale": lambda u: u.c[0] if _small_den(u.f[0]) else Fraction(0),
    "left add": lambda u: u.c[0] + u.f[0] * _cube_ratio(u.e),
    "left scale": lambda u: u.c[0] if _small_den(u.e[0]) else Fraction(0),
}


def _broken_laws(image, seed):
    """The laws `image` breaks on elements drawn like the checker draws them."""
    rng = random.Random(seed)
    broken = set()
    for _ in range(60):
        x = rand_tuple(rng, 1)
        f, f2, e, e2 = (rand_tuple(rng, 2) for _ in range(4))
        c, c2 = rand_tuple(rng, 1), rand_tuple(rng, 1)
        r = rand_rat(rng)
        u = SHELL.element(x, f, c, e)
        for side, other in (
            ("right", SHELL.element(x, f2, c2, e)),
            ("left", SHELL.element(x, f, c2, e2)),
        ):
            if image(fiber_add(side, u, other)) != image(u) + image(other):
                broken.add(f"{side} add")
            if image(fiber_scale(side, r, u)) != r * image(u):
                broken.add(f"{side} scale")
    return broken


def _into_line(function):
    """A candidate double-linear function as a map into the core line (0 | 1 | 0)."""
    return lambda u: DecomposedDVB(u.bundle.chart, 0, 1, 0).element(u.x, (), (function(u),), ())


def _function_check(image, seed, samples=40):
    return _respects_both_structures(SHELL, _into_line(image), samples, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_double_linear_function_passes(seed):
    assert _broken_laws(DOUBLE_LINEAR, seed) == set()
    assert _function_check(DOUBLE_LINEAR, seed)


@pytest.mark.parametrize("law", sorted(ONE_LAW_BROKEN))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_law_is_checked_on_its_own(law, seed):
    image = ONE_LAW_BROKEN[law]
    assert _broken_laws(image, seed + 100) == {law}
    assert not _function_check(image, seed)


def test_maps_into_a_shell_use_the_shell_structures():
    def psi_shift(u):
        # (x | f | c | e) -> (x | f | c + f1 e2 | e) is a morphism of the shell
        return SHELL.element(u.x, u.f, (u.c[0] + u.f[0] * u.e[1],), u.e)

    def core_offset(u):
        return SHELL.element(u.x, u.f, (u.c[0] + 1,), u.e)

    assert _respects_both_structures(SHELL, lambda u: u, 20, 0)
    assert _respects_both_structures(SHELL, psi_shift, 20, 0)
    assert not _respects_both_structures(SHELL, core_offset, 20, 0)
    # an image whose left legs disagree cannot be added on the left
    swap = lambda u: SHELL.element(u.x, u.e, u.c, u.f)
    assert not _respects_both_structures(SHELL, swap, 20, 0)


def test_zero_rank_shells_pass_vacuously():
    for ranks in ((0, 0, 0), (0, 2, 0), (2, 0, 2)):
        for dim in (0, 2):
            shell = DecomposedDVB(Chart.of_dim(dim), *ranks)
            assert _respects_both_structures(shell, lambda u: u, 5, 0)
            assert _respects_both_structures(
                shell, _into_line(lambda u: sum(u.c, Fraction(0))), 5, 0
            )


@pytest.mark.parametrize("dim, rank", [(2, 0), (0, 2), (0, 0)])
def test_sampled_checkers_on_zero_rank_bundles(dim, rank):
    vb = VectorBundle(Chart.of_dim(dim), rank)
    names = vb.chart.names
    field = LinearVectorField(
        vb,
        tuple(MultiPoly.var(names, name) for name in names),
        PolyMatrix.build(names, rank, rank, lambda a, b: MultiPoly.const(names, a + 2 * b)),
    )
    form = LinearOneForm(
        vb,
        tuple(MultiPoly.const(names, a + 1) for a in range(rank)),
        tuple(tuple(MultiPoly.const(names, 3) for _ in range(rank)) for _ in names),
    )
    vars = total_space_vars(vb)
    biv = Bivector(
        vb,
        PolyMatrix.zero(vars, dim, dim),
        PolyMatrix.zero(vars, dim, rank),
        PolyMatrix.zero(vars, rank, rank),
    )
    assert vf_is_bundle_morphism(field.as_general(), samples=5)
    assert vf_linearity_on_cotangent(field.as_general(), samples=5)
    assert oneform_is_bundle_morphism(form.as_general(), samples=5)
    assert oneform_linearity_on_tangent(form.as_general(), samples=5)
    assert is_linear_poisson(biv, samples=5)
    if rank:
        # a fiber-quadratic vertical component is caught without a chart
        e1 = MultiPoly.var(vars, "e1")
        gen = field.as_general()
        bent = GeneralVectorField(vb, gen.base, (gen.vert[0] + e1 * e1,) + gen.vert[1:])
        assert not vf_is_bundle_morphism(bent, samples=5)
        assert not vf_linearity_on_cotangent(bent, samples=5)


# ---------------------------------------------------------------------------
# vector fields

def _field_e_dx():
    # base component e, vertical zero: fails to project to the base
    vars = total_space_vars(VB11)
    return GeneralVectorField(
        VB11, (MultiPoly.var(vars, "e1"),), (MultiPoly.zero(vars),)
    )


def _field_d_e():
    # constant vertical component: affine, not linear, in the fiber
    vars = total_space_vars(VB11)
    return GeneralVectorField(
        VB11, (MultiPoly.zero(vars),), (MultiPoly.const(vars, 1),)
    )


def test_linear_field_shape_and_structure():
    names = CHART1.names
    field = LinearVectorField(
        VB11,
        (poly(names, {(2,): 1}),),
        PolyMatrix(names, ((poly(names, {(1,): 3}),),)),
    )
    gen = field.as_general()
    assert is_degree_zero(gen)
    assert vf_is_bundle_morphism(gen)
    assert vf_linearity_on_cotangent(gen)


def test_base_component_with_fiber_dependence_fails_all_three():
    field = _field_e_dx()
    assert not is_degree_zero(field)
    assert not vf_is_bundle_morphism(field)
    assert not vf_linearity_on_cotangent(field)


def test_constant_vertical_component_fails_all_three():
    field = _field_d_e()
    assert not is_degree_zero(field)
    assert not vf_is_bundle_morphism(field)
    assert not vf_linearity_on_cotangent(field)


def test_quadratic_vertical_component_fails_shape():
    vars = total_space_vars(VB11)
    field = GeneralVectorField(
        VB11, (MultiPoly.zero(vars),), (poly(vars, {(0, 2): 1}),)
    )
    assert not is_degree_zero(field)
    assert not vf_is_bundle_morphism(field)
    assert not vf_linearity_on_cotangent(field)


def test_three_way_agreement_on_random_fields():
    rng = random.Random(5)
    vars = total_space_vars(VB11)
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0)]
    for _ in range(25):
        comps = []
        for _slot in range(2):
            terms = {}
            for exps in rng.sample(monomials, rng.randint(1, 3)):
                terms[exps] = rand_rat(rng)
            comps.append(poly_from_dict(vars, terms))
        field = GeneralVectorField(VB11, (comps[0],), (comps[1],))
        shaped = is_degree_zero(field)
        assert vf_is_bundle_morphism(field, samples=25, seed=11) == shaped
        assert vf_linearity_on_cotangent(field, samples=25, seed=13) == shaped


def test_momentum_function_value():
    field = _field_e_dx()
    shell = cotangent_prolongation(VB11)
    w = shell.element((2,), (5,), (3,), (7,))
    # p * base + phi * vert with base = e = 7
    assert Fraction(*field._momentum(w._key)) == 21


# ---------------------------------------------------------------------------
# one-forms

def test_linear_oneform_positive():
    names = CHART1.names
    form = LinearOneForm(
        VB11,
        (MultiPoly.zero(names),),
        ((MultiPoly.const(names, 1),),),
    )
    gen = form.as_general()
    assert is_linear_oneform(gen)
    assert oneform_is_bundle_morphism(gen)
    assert oneform_linearity_on_tangent(gen)
    # velocity function of e dx at (x | xdot | edot | e)
    shell = tangent_prolongation(VB11)
    w = shell.element((1,), (4,), (9,), (3,))
    assert Fraction(*gen._velocity(w._key)) == 12


def test_quadratic_dx_coefficient_fails_all_three():
    vars = total_space_vars(VB11)
    gen = GeneralOneForm(VB11, (poly(vars, {(0, 2): 1}),), (MultiPoly.zero(vars),))
    assert not is_linear_oneform(gen)
    assert not oneform_is_bundle_morphism(gen)
    assert not oneform_linearity_on_tangent(gen)


def test_fiber_dependent_de_coefficient_fails_all_three():
    vars = total_space_vars(VB11)
    gen = GeneralOneForm(VB11, (MultiPoly.zero(vars),), (poly(vars, {(0, 1): 1}),))
    assert not is_linear_oneform(gen)
    assert not oneform_is_bundle_morphism(gen)
    assert not oneform_linearity_on_tangent(gen)


def test_oneform_three_way_agreement_on_randoms():
    rng = random.Random(8)
    vars = total_space_vars(VB11)
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]
    for _ in range(25):
        comps = []
        for _slot in range(2):
            terms = {
                exps: rand_rat(rng)
                for exps in rng.sample(monomials, rng.randint(1, 3))
            }
            comps.append(poly_from_dict(vars, terms))
        gen = GeneralOneForm(VB11, (comps[0],), (comps[1],))
        shaped = is_linear_oneform(gen)
        assert oneform_is_bundle_morphism(gen, samples=25, seed=3) == shaped
        assert oneform_linearity_on_tangent(gen, samples=25, seed=7) == shaped


def test_linearity_channels_on_linear_and_bent_records():
    names, vars = CHART1.names, total_space_vars(VB11)
    field = LinearVectorField(
        VB11, (poly(names, {(2,): 1}),), PolyMatrix(names, ((poly(names, {(1,): 3}),),))
    )
    form = LinearOneForm(VB11, (MultiPoly.zero(names),), ((MultiPoly.const(names, 1),),))
    assert vf_linearity_on_cotangent(field.as_general())
    assert not vf_linearity_on_cotangent(_field_d_e())
    assert oneform_linearity_on_tangent(form.as_general())
    bent = GeneralOneForm(VB11, (poly(vars, {(0, 2): 1}),), (MultiPoly.zero(vars),))
    assert not oneform_linearity_on_tangent(bent)


def test_linear_pairing_of_field_and_form_is_fiber_linear():
    # contraction of a degree-zero field with a linear one-form, as a
    # polynomial on the total space, stays homogeneous of fiber degree one
    vars = total_space_vars(VB11)
    field = LinearVectorField(
        VB11,
        (poly(CHART1.names, {(2,): 1}),),
        PolyMatrix(CHART1.names, ((poly(CHART1.names, {(1,): 1}),),)),
    ).as_general()
    form = LinearOneForm(
        VB11, (MultiPoly.zero(CHART1.names),), ((MultiPoly.const(CHART1.names, 1),),)
    ).as_general()
    value = MultiPoly.zero(vars)
    for i in range(1):
        value = value + form.dx_coeffs[i] * field.base[i]
    for a in range(1):
        value = value + form.de_coeffs[a] * field.vert[a]
    assert {sum(e[1:]) for e, _ in value.terms} == {1}


# ---------------------------------------------------------------------------
# bivectors

def _so3_bivector():
    vb = VectorBundle(Chart.of_dim(0), 3)
    vars = total_space_vars(vb)
    e1, e2, e3 = (MultiPoly.var(vars, n) for n in fiber_var_names(3))
    z = MultiPoly.zero(vars)
    l_ab = PolyMatrix(vars, ((z, e3, -e2), (-e3, z, e1), (e2, -e1, z)))
    return Bivector(
        vb,
        PolyMatrix.zero(vars, 0, 0),
        PolyMatrix.zero(vars, 0, 3),
        l_ab,
    )


# 2 x 2 grids of 0/1 that are not antisymmetric: a symmetric nonzero
# off-diagonal pair, and a nonzero entry on either diagonal place
NOT_ANTISYMMETRIC = (((0, 1), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (0, 1)))


def test_bivector_validation_rejects_symmetric_block():
    vb = VectorBundle(Chart.of_dim(2), 2)
    vars = total_space_vars(vb)
    e1, z = MultiPoly.var(vars, "e1"), MultiPoly.zero(vars)
    zero = PolyMatrix.zero(vars, 2, 2)
    for block in ("l_ij", "l_ab"):
        for grid in NOT_ANTISYMMETRIC:
            blocks = {"l_ij": zero, "l_ab": zero}
            blocks[block] = PolyMatrix(vars, tuple(tuple(e1 if v else z for v in row) for row in grid))
            with pytest.raises(ValueError, match="^diagonal blocks must be antisymmetric$"):
                Bivector(vb, blocks["l_ij"], zero, blocks["l_ab"])


def test_so3_contraction_is_cross_product():
    biv = _so3_bivector()
    sharp = lambda_sharp(biv)
    cot = cotangent_prolongation(biv.bundle)
    e = (Fraction(1), Fraction(2), Fraction(3))
    phi = (Fraction(5), Fraction(7), Fraction(11))
    out = sharp(cot.element((), phi, (), e))
    cross = (
        phi[1] * e[2] - phi[2] * e[1],
        phi[2] * e[0] - phi[0] * e[2],
        phi[0] * e[1] - phi[1] * e[0],
    )
    assert out.c == cross
    assert out.e == e and out.f == ()


def test_so3_is_linear_poisson_and_jacobi():
    biv = _so3_bivector()
    assert bivector_linear_shape(biv)
    assert is_linear_poisson(biv)
    rng = random.Random(2)
    points = [rand_tuple(rng, 3) for _ in range(6)] + [(1, 1, 1)]
    assert check_jacobi(biv, points)


def test_lambda_sharp_evaluates_once_per_consecutive_point(monkeypatch):
    from dvbcalc.ring import _EvalPlan
    from dvbcalc.scenario import gen_random_scenario

    points = []
    original = _EvalPlan._evaluate

    def counting(self, point, tail):
        points.append((point, tail))
        return original(self, point, tail)

    monkeypatch.setattr(_EvalPlan, "_evaluate", counting)
    assert is_linear_poisson(gen_random_scenario(11).section("bivector"), samples=40)
    # each sample applies the map four times at (x, e), then at three points
    # of the left structure: 4 evaluations a sample instead of 7
    assert 0 < len(points) <= 160
    assert all(p != q for p, q in zip(points, points[1:]))


def test_constant_fiber_block_is_not_linear():
    vb = VectorBundle(Chart.of_dim(0), 2)
    vars = total_space_vars(vb)
    one = MultiPoly.const(vars, 1)
    z = MultiPoly.zero(vars)
    biv = Bivector(
        vb,
        PolyMatrix.zero(vars, 0, 0),
        PolyMatrix.zero(vars, 0, 2),
        PolyMatrix(vars, ((z, one), (-one, z))),
    )
    assert not bivector_linear_shape(biv)
    assert not is_linear_poisson(biv)


def test_jacobi_holds_through_cancelling_cyclic_terms():
    """{e1, e2} = e1 e2, {e3, e1} = e1 e3 and {e2, e3} = 0 is e1 times the
    bracket with Casimir e2 e3, so it is Poisson; at (1, 1, 1) its three
    cyclic terms are 0, 1 and -1, and only their sum vanishes."""
    vb = VectorBundle(Chart.of_dim(0), 3)
    vars = total_space_vars(vb)
    e1, e2, e3 = (MultiPoly.var(vars, n) for n in fiber_var_names(3))
    z = MultiPoly.zero(vars)
    l_ab = PolyMatrix(vars, ((z, e1 * e2, -(e1 * e3)), (-(e1 * e2), z, z), (e1 * e3, z, z)))
    biv = Bivector(vb, PolyMatrix.zero(vars, 0, 0), PolyMatrix.zero(vars, 0, 3), l_ab)
    assert check_jacobi(biv, [(1, 1, 1), (2, -3, 5)])


def test_structure_constants_without_jacobi_fail_the_bracket_check():
    # bracket table [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e1 is not a Lie algebra
    vb = VectorBundle(Chart.of_dim(0), 3)
    vars = total_space_vars(vb)
    e1 = MultiPoly.var(vars, "e1")
    e3 = MultiPoly.var(vars, "e3")
    z = MultiPoly.zero(vars)
    l_ab = PolyMatrix(vars, ((z, e3, -e1), (-e3, z, e1), (e1, -e1, z)))
    biv = Bivector(vb, PolyMatrix.zero(vars, 0, 0), PolyMatrix.zero(vars, 0, 3), l_ab)
    assert bivector_linear_shape(biv)
    assert is_linear_poisson(biv)
    assert not check_jacobi(biv, [(1, 1, 1)])


def test_linear_shape_agreement_with_sampling_on_mixed_blocks():
    # chart dim 1, fiber rank 2: e-free mixed block, e-linear fiber block
    vb = VectorBundle(CHART1, 2)
    vars = total_space_vars(vb)
    rng = random.Random(4)
    x1 = MultiPoly.var(vars, "x1")
    e1 = MultiPoly.var(vars, "e1")
    e2 = MultiPoly.var(vars, "e2")
    z = MultiPoly.zero(vars)
    lin = e1.scale(rand_rat(rng)) + e2.scale(rand_rat(rng))
    good = Bivector(
        vb,
        PolyMatrix.zero(vars, 1, 1),
        PolyMatrix(vars, ((x1.scale(rand_rat(rng)), MultiPoly.const(vars, 2)),)),
        PolyMatrix(vars, ((z, lin), (-lin, z))),
    )
    assert bivector_linear_shape(good) and is_linear_poisson(good)
    bad_mixed = Bivector(vb, good.l_ij, PolyMatrix(vars, ((e1, z),)), good.l_ab)
    assert not bivector_linear_shape(bad_mixed)
    assert not is_linear_poisson(bad_mixed)
    bad_base = Bivector(
        vb,
        good.l_ij,
        good.l_ia,
        PolyMatrix(vars, ((z, MultiPoly.const(vars, 1)), (-MultiPoly.const(vars, 1), z))),
    )
    assert not is_linear_poisson(bad_base)


def test_full_matrix_is_antisymmetric():
    biv = _so3_bivector()
    full = biv.full_matrix()
    assert full.transpose() == -full


# ---------------------------------------------------------------------------
# linear two-forms

def _closed_form():
    names = CHART2.names
    z = MultiPoly.zero(names)
    x1 = MultiPoly.var(names, "x1")
    minus_one = MultiPoly.const(names, -1)
    omega_ija = (
        ((z,), (minus_one,)),
        ((-minus_one,), (z,)),
    )
    omega_ia = ((x1 * x1,), (x1,))
    return LinearTwoForm(VectorBundle(CHART2, 1), omega_ija, omega_ia)


def _open_form():
    names = CHART2.names
    z = MultiPoly.zero(names)
    x1 = MultiPoly.var(names, "x1")
    omega_ija = (((z,), (z,)), ((z,), (z,)))
    omega_ia = ((x1 * x1,), (x1,))
    return LinearTwoForm(VectorBundle(CHART2, 1), omega_ija, omega_ia)


def test_two_form_validation_rejects_symmetric_three_index_grid():
    names = CHART2.names
    one = MultiPoly.const(names, 1)
    z = MultiPoly.zero(names)
    for grid in NOT_ANTISYMMETRIC:
        omega_ija = tuple(tuple((one if v else z,) for v in row) for row in grid)
        with pytest.raises(ValueError, match="^three-index grid must be antisymmetric in ij$"):
            LinearTwoForm(VectorBundle(CHART2, 1), omega_ija, ((z,), (z,)))


def test_flat_map_in_rank_one():
    names = CHART1.names
    z = MultiPoly.zero(names)
    form = LinearTwoForm(
        VB11, (((z,),),), ((MultiPoly.const(names, 1),),)
    )
    phi = omega_flat(form)
    shell = tangent_prolongation(VB11)
    out = phi.apply(shell.element((2,), (5,), (7,), (3,)))
    # covector leg xdot, base momentum -edot, fiber point kept
    assert out.f == (Fraction(5),)
    assert out.c == (Fraction(-7),)
    assert out.e == (Fraction(3),)
    assert out.bundle == cotangent_prolongation(VB11)


def test_flat_map_blocks_are_skew_partners():
    form = _closed_form()
    phi = omega_flat(form)
    assert phi.phi_l == -phi.phi_c.transpose()


def test_closedness_three_ways():
    closed = _closed_form()
    assert is_closed(closed)
    assert closedness_via_exterior(closed)
    assert omega_c_pullback(closed) == closed

    open_form = _open_form()
    assert not is_closed(open_form)
    assert not closedness_via_exterior(open_form)
    pulled = omega_c_pullback(open_form)
    assert pulled != open_form
    assert is_closed(pulled)
    assert pulled.omega_ia == open_form.omega_ia


def test_closedness_predicates_agree_on_randoms():
    rng = random.Random(6)
    names = CHART2.names
    for _ in range(10):
        entries = {}
        for key in ((0, 0), (1, 0), (0, 1)):
            entries[key] = rand_rat(rng)
        w11 = poly_from_dict(names, {(1, 0): rand_rat(rng), (0, 1): rand_rat(rng)})
        w21 = poly_from_dict(names, entries)
        wija = poly_from_dict(names, {(0, 0): rand_rat(rng)})
        form = LinearTwoForm(
            VectorBundle(CHART2, 1),
            (((MultiPoly.zero(names),), (wija,)), ((-wija,), (MultiPoly.zero(names),))),
            ((w11,), (w21,)),
        )
        assert is_closed(form) == closedness_via_exterior(form)
        assert is_closed(form) == (omega_c_pullback(form) == form)


# ---------------------------------------------------------------------------
# vertical lifts

def test_vertical_lifts_land_in_opposite_kernels():
    shell = tangent_prolongation(VB22)
    section = CoreSection(
        CHART2,
        (poly(CHART2.names, {(1, 0): 1}), poly(CHART2.names, {(0, 1): 2})),
    )
    right = vertical_lift(shell, "right", section, (2, 3), (5, 7))
    assert right.f == (0, 0)
    assert right.c == (Fraction(2), Fraction(6))
    assert right.e == (Fraction(5), Fraction(7))
    left = vertical_lift(shell, "left", section, (2, 3), (5, 7))
    assert left.e == (0, 0)
    assert left.f == (Fraction(5), Fraction(7))
    assert left.c == right.c


def test_right_vertical_lift_on_cotangent_shell_is_pulled_back_covector():
    shell = cotangent_prolongation(VB22)
    section = CoreSection(
        CHART2,
        (poly(CHART2.names, {(1, 0): 1}), poly(CHART2.names, {(0, 0): 4})),
    )
    lifted = vertical_lift(shell, "right", section, (3, 1), (9, 11))
    # base covector sits in the core slot, fiber covector leg vanishes
    assert lifted.f == (0, 0)
    assert lifted.c == (Fraction(3), Fraction(4))
    assert lifted.e == (Fraction(9), Fraction(11))


def test_vertical_lift_validates_core_rank_and_side():
    shell = tangent_prolongation(VB22)
    short = CoreSection(CHART2, (MultiPoly.zero(CHART2.names),))
    with pytest.raises(ValueError):
        vertical_lift(shell, "right", short, (0, 0), (0, 0))
    section = CoreSection(
        CHART2, (MultiPoly.zero(CHART2.names), MultiPoly.zero(CHART2.names))
    )
    with pytest.raises(ValueError):
        vertical_lift(shell, "up", section, (0, 0), (0, 0))


# ---------------------------------------------------------------------------
# linear sections and complete lifts

def _random_section(rng, bundle):
    names = bundle.chart.names
    base = tuple(
        poly_from_dict(
            names, {(0,) * bundle.chart.dim: rand_rat(rng), (1,) + (0,) * (bundle.chart.dim - 1): rand_rat(rng)}
        )
        for _ in range(bundle.n_E)
    )
    fiber = PolyMatrix.build(
        names,
        bundle.n_C,
        bundle.n_F,
        lambda i, j: poly_from_dict(names, {(0,) * bundle.chart.dim: rand_rat(rng)}),
    )
    return LinearSection(bundle, "left", base, fiber)


def test_dual_section_annihilates_the_section():
    from dvbcalc.core import DecomposedDVB

    rng = random.Random(9)
    bundle = DecomposedDVB(CHART1, 2, 3, 2)
    section = _random_section(rng, bundle)
    dual = dual_linear_section(section)
    assert dual.bundle == right_dual(bundle)
    for _ in range(30):
        x = rand_tuple(rng, 1)
        f = rand_tuple(rng, 2)
        q = rand_tuple(rng, 3)
        assert pair_r(section.at(x, f), dual.at(x, q)) == 0


def test_dual_section_slots():
    rng = random.Random(10)
    from dvbcalc.core import DecomposedDVB

    bundle = DecomposedDVB(CHART1, 2, 2, 2)
    section = _random_section(rng, bundle)
    dual = dual_linear_section(section)
    x = (Fraction(3),)
    q = (Fraction(2), Fraction(5))
    out = dual.at(x, q)
    point = x
    minus_mt = -section.fiber.transpose()
    expect_core = tuple(
        sum(
            (minus_mt.entries[i][j].eval(point) * q[j] for j in range(2)),
            Fraction(0),
        )
        for i in range(2)
    )
    assert out.e == q
    assert out.c == expect_core
    assert out.f == tuple(p.eval(point) for p in section.base)


@pytest.mark.parametrize("ranks", [(2, 0, 1), (0, 2, 1), (0, 0, 2)])
def test_sections_with_an_empty_side_or_core(ranks):
    """A fiber matrix with no rows or no columns still has the declared
    shape, and the dual section annihilates the section."""
    from dvbcalc.core import DecomposedDVB

    rng = random.Random(12)
    bundle = DecomposedDVB(CHART1, *ranks)
    section = _random_section(rng, bundle)
    dual = dual_linear_section(section)
    assert dual.fiber.rows == bundle.n_F
    assert bundle.n_F == 0 or dual.fiber.cols == bundle.n_C
    for _ in range(5):
        x = rand_tuple(rng, 1)
        v = section.at(x, rand_tuple(rng, bundle.n_F))
        assert len(v.c) == bundle.n_C
        assert pair_r(v, dual.at(x, rand_tuple(rng, bundle.n_C))) == 0


def test_dual_section_requires_left_side():
    rng = random.Random(11)
    from dvbcalc.core import DecomposedDVB

    bundle = DecomposedDVB(CHART1, 2, 2, 2)
    dual = dual_linear_section(_random_section(rng, bundle))
    with pytest.raises(ValueError):
        dual_linear_section(dual)


def test_complete_lifts_of_quadratic_field():
    names = CHART1.names
    x1 = MultiPoly.var(names, "x1")
    up = complete_tangent_lift(CHART1, (x1 * x1,))
    assert up.base == (x1 * x1,)
    assert up.fiber.entries[0][0] == x1.scale(2)
    down = complete_cotangent_lift(CHART1, (x1 * x1,))
    assert down.base == (x1 * x1,)
    assert down.fiber.entries[0][0] == x1.scale(-2)


def test_complete_lifts_correspond_under_section_duality():
    names = CHART2.names
    x1 = MultiPoly.var(names, "x1")
    x2 = MultiPoly.var(names, "x2")
    base = (x1 * x2, x2 * x2)
    up = complete_tangent_lift(CHART2, base)
    down = complete_cotangent_lift(CHART2, base)
    dual = dual_linear_section(linear_vf_as_section(up))
    assert dual.base == down.base
    assert dual.fiber == down.fiber
    assert dual.side == "right"


def test_section_view_matches_field_through_the_flip():
    names = CHART1.names
    x1 = MultiPoly.var(names, "x1")
    field = complete_tangent_lift(CHART1, (x1 * x1,))
    section = linear_vf_as_section(field)
    x, e = (Fraction(2),), (Fraction(3),)
    assert section.at(x, e).flip() == field.as_general()._tangent_image(x, _slots_of(e))


def test_each_record_builds_its_shell_once():
    """Every tangent image of a field, and every cotangent image of a form,
    lives in one shell bundle object, built once per record."""
    rng = random.Random(5)
    vb = VectorBundle(Chart.of_dim(2), 2, "E")
    field, form = random_vector_field(rng, vb, 2), random_one_form(rng, vb, 2)
    s = _Sampler(rng, tangent_prolongation(vb))
    images = []
    for _ in range(3):
        x, e = s.sample(vb.rank)
        images.append((field._tangent_image(x, e), form._cotangent_image(x, e)))
    (tan, cot), *rest = images
    assert tan.bundle == tangent_prolongation(vb) and cot.bundle == cotangent_prolongation(vb)
    for t, c in rest:
        assert t.bundle is tan.bundle and c.bundle is cot.bundle


# ---------------------------------------------------------------------------
# covector against vector pairing

def covector_vector_pairing(cot, tan):
    """p.xdot + phi.edot of (x | phi | p | e) against (x | xdot | edot | e):
    the flipped cotangent point lives in the right dual of the tangent shell."""
    return pair_r(tan, cot.flip())


def test_covector_vector_pairing_value_and_errors():
    rng = random.Random(12)
    tan_shell = tangent_prolongation(VB22)
    cot_shell = cotangent_prolongation(VB22)
    for _ in range(20):
        x = rand_tuple(rng, 2)
        e = rand_tuple(rng, 2)
        xdot, edot = rand_tuple(rng, 2), rand_tuple(rng, 2)
        p, phi = rand_tuple(rng, 2), rand_tuple(rng, 2)
        tan = tan_shell.element(x, xdot, edot, e)
        cot = cot_shell.element(x, phi, p, e)
        assert covector_vector_pairing(cot, tan) == sum(map(mul, p, xdot)) + sum(map(mul, phi, edot))
    tan = tan_shell.element((0, 0), (1, 0), (0, 0), (1, 2))
    cot = cot_shell.element((0, 0), (1, 1), (1, 0), (2, 2))
    with pytest.raises(ProjectionMismatchError):
        covector_vector_pairing(cot, tan)


# ---------------------------------------------------------------------------
# connections

def _connection(vb, entries):
    names = vb.chart.names
    z = MultiPoly.zero(names)
    n, k = vb.chart.dim, vb.rank
    grid = [[[z for _ in range(k)] for _ in range(n)] for _ in range(k)]
    for (a, i, b), p in entries.items():
        grid[a][i][b] = p
    return LinearConnection(
        vb, tuple(tuple(tuple(row) for row in plane) for plane in grid)
    )


def test_splitting_action_and_blocks():
    names = CHART1.names
    x1 = MultiPoly.var(names, "x1")
    conn = _connection(VB11, {(0, 0, 0): x1})
    split = connection_splitting(conn)
    assert split.phi_l == PolyMatrix.identity(names, 1)
    assert split.phi_c == PolyMatrix.identity(names, 1)
    assert split.phi_r == PolyMatrix.identity(names, 1)
    shell = tangent_prolongation(VB11)
    out = split.apply(shell.element((2,), (3,), (5,), (7,)))
    # edot gains Gamma(xdot, e) = 2 * 3 * 7
    assert out == shell.element((2,), (3,), (47,), (7,))


def test_dual_connection_is_negated_transpose():
    rng = random.Random(13)
    names = CHART2.names
    entries = {}
    for a in range(2):
        for i in range(2):
            for b in range(2):
                entries[(a, i, b)] = poly_from_dict(
                    names,
                    {(0, 0): rand_rat(rng), (1, 0): rand_rat(rng), (0, 1): rand_rat(rng)},
                )
    conn = _connection(VB22, entries)
    dual = dual_connection(conn)
    assert dual.bundle == VectorBundle(CHART2, 2, "E*")
    for a in range(2):
        for i in range(2):
            for b in range(2):
                assert dual.gamma[a][i][b] == -conn.gamma[b][i][a]
    back = dual_connection(dual)
    assert back == conn


def test_dual_connection_satisfies_pairing_derivative():
    rng = random.Random(14)
    names = CHART2.names
    entries = {
        (a, i, b): poly_from_dict(names, {(1, 1): rand_rat(rng)})
        for a in range(2)
        for i in range(2)
        for b in range(2)
    }
    conn = _connection(VB22, entries)
    dual = dual_connection(conn)
    for _ in range(25):
        x = rand_tuple(rng, 2)
        xdot = rand_tuple(rng, 2)
        e, p = rand_tuple(rng, 2), rand_tuple(rng, 2)
        ge = tuple(
            sum(
                (conn.gamma[a][i][b].eval(x) * xdot[i] * e[b] for i in range(2) for b in range(2)),
                Fraction(0),
            )
            for a in range(2)
        )
        gp = tuple(
            sum(
                (dual.gamma[a][i][b].eval(x) * xdot[i] * p[b] for i in range(2) for b in range(2)),
                Fraction(0),
            )
            for a in range(2)
        )
        assert sum(map(mul, ge, p)) + sum(map(mul, e, gp)) == 0


# ---------------------------------------------------------------------------
# metric connections

def test_metric_validation_rejects_asymmetric_matrix():
    names = CHART1.names
    one = MultiPoly.const(names, 1)
    z = MultiPoly.zero(names)
    with pytest.raises(ValueError):
        Metric(VectorBundle(CHART1, 2), PolyMatrix(names, ((z, one), (z, z))))


def test_metric_rejects_one_asymmetric_entry_by_name():
    names = CHART2.names
    x1 = MultiPoly.var(names, "x1")
    one = MultiPoly.const(names, 1)
    g = PolyMatrix(names, ((one, x1), (x1 + one, one)))
    with pytest.raises(ValueError, match="^metric must be symmetric$"):
        Metric(VectorBundle(CHART2, 2), g)
    assert Metric(VectorBundle(CHART2, 2), PolyMatrix(names, ((one, x1), (x1, one))))


def test_tangent_metric_morphism_action():
    names = CHART1.names
    metric = Metric(VB11, PolyMatrix(names, ((MultiPoly.var(names, "x1"),),)))
    tg = tangent_metric_morphism(metric)
    shell = tangent_prolongation(VB11)
    out = tg.apply(shell.element((2,), (3,), (5,), (7,)))
    # q = g e, qdot = g edot + dg(xdot) e
    assert out.f == (Fraction(3),)
    assert out.c == (Fraction(31),)
    assert out.e == (Fraction(14),)
    assert out.bundle == tangent_prolongation(VectorBundle(CHART1, 1, "E*"))


def test_identity_metric_with_skew_coefficients_is_compatible():
    names = CHART2.names
    x1 = MultiPoly.var(names, "x1")
    conn = _connection(
        VectorBundle(CHART2, 2), {(0, 0, 1): x1, (1, 0, 0): -x1}
    )
    metric = Metric(VectorBundle(CHART2, 2), PolyMatrix.identity(names, 2))
    assert metric_identity(conn, metric)
    assert is_metric_connection(conn, metric)


def zero_connection(vb):
    """The connection whose Christoffel data are all zero."""
    return LinearConnection(vb, psi_zero(vb.chart.names, vb.rank, vb.chart.dim, vb.rank))


def test_zero_connection_with_constant_metric_is_compatible():
    names = CHART2.names
    metric = Metric(
        VectorBundle(CHART2, 2),
        PolyMatrix.constant(names, ((2, 0), (0, 3))),
    )
    conn = zero_connection(VectorBundle(CHART2, 2))
    assert metric_identity(conn, metric)
    assert is_metric_connection(conn, metric)


def test_symmetric_coefficients_break_identity_metric():
    names = CHART2.names
    conn = _connection(
        VectorBundle(CHART2, 2), {(0, 0, 0): MultiPoly.const(names, 1)}
    )
    metric = Metric(VectorBundle(CHART2, 2), PolyMatrix.identity(names, 2))
    assert not metric_identity(conn, metric)
    assert not is_metric_connection(conn, metric)


def test_half_inverse_derivative_connection_is_compatible():
    # g = A A^T with unimodular A; Gamma_i = (1/2) g^{-1} d_i g
    names = CHART2.names
    x1 = MultiPoly.var(names, "x1")
    x2 = MultiPoly.var(names, "x2")
    one = MultiPoly.const(names, 1)
    z = MultiPoly.zero(names)
    a = PolyMatrix(names, ((one, x1 * x2), (z, one)))
    g = a * a.transpose()
    metric = Metric(VectorBundle(CHART2, 2), g)
    ginv = g.unimodular_inverse()
    assert ginv is not None
    grid = []
    for c in range(2):
        planes = []
        for i in range(2):
            dg = PolyMatrix.build(
                names, 2, 2, lambda r, s: g.entries[r][s].partial(names[i])
            )
            gamma_i = (ginv * dg).entries
            planes.append(tuple(gamma_i[c][b].scale(Fraction(1, 2)) for b in range(2)))
        grid.append(tuple(planes))
    conn = LinearConnection(VectorBundle(CHART2, 2), tuple(grid))
    assert metric_identity(conn, metric)
    assert is_metric_connection(conn, metric)


def test_identity_and_sampled_compatibility_agree_on_randoms():
    rng = random.Random(15)
    names = CHART2.names
    metric = Metric(VectorBundle(CHART2, 2), PolyMatrix.identity(names, 2))
    for _ in range(8):
        entries = {
            (a, i, b): poly_from_dict(names, {(0, 0): rand_rat(rng)})
            for a in range(2)
            for i in range(2)
            for b in range(2)
        }
        conn = _connection(VectorBundle(CHART2, 2), entries)
        assert metric_identity(conn, metric) == is_metric_connection(conn, metric)


def test_zero_metric_is_refused():
    # a metric is nondegenerate, whether a file or the API builds it
    names = CHART1.names
    with pytest.raises(ValueError, match="determinant vanishes at all 4 witness points"):
        Metric(VB11, PolyMatrix(names, ((MultiPoly.zero(names),),)))


def test_metric_over_a_chart_past_eight_coordinates_is_certified():
    # the witness points repeat their entries past the eighth coordinate
    vb = VectorBundle(Chart.of_dim(10), 1)
    names = vb.chart.names
    x10 = MultiPoly.var(names, "x10")
    assert Metric(vb, PolyMatrix(names, ((x10,),))).g.entries == ((x10,),)
    with pytest.raises(ValueError, match="determinant vanishes"):
        Metric(vb, PolyMatrix(names, ((MultiPoly.zero(names),),)))


def test_metric_check_takes_no_symbolic_determinant(monkeypatch):
    """Both channels are polynomial, so no verdict takes a determinant."""

    def no_det(self):
        raise AssertionError("symbolic determinant taken")

    monkeypatch.setattr(PolyMatrix, "det", no_det)
    rng = random.Random(14)
    verdicts = []
    for dim, rank in [(1, 1), (2, 2), (3, 2), (2, 3), (1, 4)]:
        vb = VectorBundle(Chart.of_dim(dim), rank)
        names = vb.chart.names
        upper = [[random_poly(rng, names, 2) for _ in range(rank)] for _ in range(rank)]
        dense = Metric(vb, PolyMatrix(names, tuple(
            tuple(upper[min(a, b)][max(a, b)] for b in range(rank)) for a in range(rank)
        )))
        cases = (
            (random_connection(rng, vb, 1), dense),
            (random_connection(rng, vb, 1), random_metric(rng, vb, 2)),
            (zero_connection(vb), random_metric(rng, vb, 0)),
        )
        for seed, (conn, metric) in enumerate(cases):
            verdict = is_metric_connection(conn, metric, seed=seed)
            assert verdict == metric_identity(conn, metric)
            verdicts.append(verdict)
    assert verdicts == [False, False, True] * 5
    x1 = MultiPoly.var(CHART1.names, "x1")
    metric = Metric(VB11, PolyMatrix(CHART1.names, ((x1,),)))
    # seed 9 draws x1 = 0 first, where g vanishes: that one sample already
    # shows the incompatibility, as d g = 1 there
    assert _Sampler(random.Random(9), tangent_prolongation(VB11)).element().x == (0,)
    conn = zero_connection(VB11)
    assert not metric_identity(conn, metric)
    assert not is_metric_connection(conn, metric, samples=1, seed=9)


def test_pair_morphism_has_no_bilinear_part():
    names = CHART2.names
    metric = Metric(
        VectorBundle(CHART2, 2), PolyMatrix.constant(names, ((1, 0), (0, 5)))
    )
    pairm = metric_pair_morphism(metric)
    assert all(p.is_zero for plane in pairm.psi for row in plane for p in row)
    assert pairm.phi_c == metric.g and pairm.phi_r == metric.g


# ---------------------------------------------------------------------------
# side exchange and its dual

def test_side_exchange_requires_equal_side_ranks():
    from dvbcalc.core import DecomposedDVB

    with pytest.raises(ValueError):
        kappa_triple(DecomposedDVB(CHART1, 1, 1, 2))


def test_double_tangent_exchange_swaps_outer_slots():
    exchange = kappa_M(CHART2)
    shell = exchange.source
    v = shell.element((1, 2), (3, 4), (5, 6), (7, 8))
    out = exchange.apply(v)
    assert out.bundle == shell.flip()
    assert (out.f, out.c, out.e) == (v.f, v.c, v.e)
    # read back through the canonical identification: outer slots swap
    assert out.flip() == shell.element((1, 2), (7, 8), (5, 6), (3, 4))


def test_side_exchange_is_an_involution():
    from dvbcalc.core import DecomposedDVB

    bundle = DecomposedDVB(CHART1, 2, 3, 2)
    once = kappa_triple(bundle)
    back = kappa_triple(bundle.flip())
    assert compose_morphisms(back, once) == identity_morphism(bundle)


def test_dual_exchange_blocks_and_action():
    alpha = alpha_M(CHART1)
    x = (Fraction(2),)
    fm = alpha.at(x)
    assert fm.l == ((1,),) and fm.c == ((1,),) and fm.r == ((1,),)
    assert fm.psi[0][0][0] == 0
    # tangent-of-dual point (x | xdot | pdot | p) lands on the covector of
    # the tangent space that reads (p, pdot, xdot) after the flip
    w = alpha.source.element(x, (3,), (5,), (7,))
    out = alpha.at(x).apply(w)
    assert (out.f, out.c, out.e) == ((3,), (5,), (7,))
    flipped = out.flip()
    assert (flipped.f, flipped.c, flipped.e) == ((7,), (5,), (3,))


def test_dual_exchange_is_adjoint_to_exchange():
    rng = random.Random(16)
    exchange = kappa_M(CHART2)
    alpha = alpha_M(CHART2)
    dual_target = right_dual(exchange.target)
    for _ in range(20):
        x = rand_tuple(rng, 2)
        v = exchange.source.element(
            x, rand_tuple(rng, 2), rand_tuple(rng, 2), rand_tuple(rng, 2)
        )
        image = exchange.apply(v)
        a = DVBElement(dual_target, v.x, image.e, rand_tuple(rng, 2), rand_tuple(rng, 2))
        assert pair_r(image, a) == pair_r(v, alpha.at(a.x).apply(a))


# ---------------------------------------------------------------------------
# symmetric connections

def test_symmetric_connection_detected_both_ways():
    names = CHART2.names
    x2 = MultiPoly.var(names, "x2")
    conn = _connection(
        VectorBundle(CHART2, 2), {(0, 0, 1): x2, (0, 1, 0): x2}
    )
    assert is_symmetric_connection(conn)
    assert horizontal_lagrangian_check(conn)


def test_zero_connection_is_symmetric():
    conn = zero_connection(VectorBundle(CHART2, 2))
    assert is_symmetric_connection(conn)
    assert horizontal_lagrangian_check(conn)


def test_asymmetric_connection_rejected_both_ways():
    names = CHART2.names
    conn = _connection(
        VectorBundle(CHART2, 2), {(0, 0, 1): MultiPoly.const(names, 1)}
    )
    assert not is_symmetric_connection(conn)
    assert not horizontal_lagrangian_check(conn)
    # every sample sees the asymmetry, whatever momentum it draws
    assert not any(horizontal_lagrangian_check(conn, samples=1, seed=s) for s in range(8))


def test_symmetry_needs_tangent_like_ranks():
    conn = zero_connection(VectorBundle(CHART2, 1))
    with pytest.raises(ValueError):
        is_symmetric_connection(conn)
    with pytest.raises(ValueError):
        horizontal_lagrangian_check(conn)


def test_symmetry_fixtures_agree_across_all_three_channels():
    names = CHART2.names
    x1 = MultiPoly.var(names, "x1")
    fixtures = [
        ({(0, 0, 1): x1, (0, 1, 0): x1, (1, 1, 1): MultiPoly.const(names, 3)}, True),
        ({(0, 0, 1): x1, (0, 1, 0): -x1}, False),
        ({(1, 0, 1): MultiPoly.const(names, 2)}, False),
        ({}, True),
    ]
    for entries, expected in fixtures:
        conn = _connection(VectorBundle(CHART2, 2), entries)
        assert is_symmetric_connection(conn) == expected
        assert horizontal_lagrangian_check(conn) == expected


def test_lifted_symplectic_form_coordinate_expression():
    # over (x1, x2, p1, p2, x1_dot, x2_dot, p1_dot, p2_dot) the lift of the
    # canonical 2-form is dp_i ^ dxdot_i plus dpdot_i ^ dx_i
    names = CHART2.names
    form = lifted_symplectic_form(names)
    vars = form.vars
    expected = make_form(
        vars,
        2,
        {
            (2, 4): MultiPoly.const(vars, 1),
            (3, 5): MultiPoly.const(vars, 1),
            (0, 6): MultiPoly.const(vars, -1),
            (1, 7): MultiPoly.const(vars, -1),
        },
    )
    assert form == expected


# ---------------------------------------------------------------------------
# Field shapes: one grid check for every record and morphism

def _grid_records():
    """One valid record of each kind over a chart of dim 2 with every rank 2,
    so that every length of every field is 2."""
    sc = Scenario(bundle=DecomposedDVB(CHART2, 2, 2, 2))
    z = MultiPoly.zero(CHART2.names)
    return {
        "DVBMorphism": sc.section("morphism"),
        "GeneralVectorField": sc.section("vector_field"),
        "LinearVectorField": complete_tangent_lift(CHART2, (z, z)),
        "GeneralOneForm": sc.section("one_form"),
        "LinearOneForm": LinearOneForm(sc.side_bundle, (z, z), ((z, z), (z, z))),
        "Bivector": sc.section("bivector"),
        "LinearTwoForm": sc.section("two_form"),
        "CoreSection": sc.section("core_section"),
        "LinearSection": LinearSection(
            sc.bundle, "left", (z, z), PolyMatrix.zero(CHART2.names, 2, 2)
        ),
        "LinearConnection": sc.section("connection"),
        "Metric": sc.section("metric"),
    }


# (record, attribute, the field's name in messages, nesting depth)
GRID_FIELDS = [
    ("DVBMorphism", "phi_l", "Phi_l", 2),
    ("DVBMorphism", "phi_c", "Phi_c", 2),
    ("DVBMorphism", "phi_r", "Phi_r", 2),
    ("DVBMorphism", "psi", "Psi", 3),
    ("GeneralVectorField", "base", "base", 1),
    ("GeneralVectorField", "vert", "vert", 1),
    ("LinearVectorField", "base", "base", 1),
    ("LinearVectorField", "fiber", "fiber", 2),
    ("GeneralOneForm", "dx_coeffs", "dx", 1),
    ("GeneralOneForm", "de_coeffs", "de", 1),
    ("LinearOneForm", "theta_a", "theta_a", 1),
    ("LinearOneForm", "theta_ia", "theta_ia", 2),
    ("Bivector", "l_ij", "l_ij", 2),
    ("Bivector", "l_ia", "l_ia", 2),
    ("Bivector", "l_ab", "l_ab", 2),
    ("LinearTwoForm", "omega_ija", "omega_ija", 3),
    ("LinearTwoForm", "omega_ia", "omega_ia", 2),
    ("CoreSection", "gamma", "gamma", 1),
    ("LinearSection", "base", "base", 1),
    ("LinearSection", "fiber", "fiber", 2),
    ("LinearConnection", "gamma", "gamma", 3),
    ("Metric", "g", "g", 2),
]

# A core section has no rank of its own: only its variables are checked
# there, its length by the scenario and by `vertical_lift`.
UNSIZED = {("CoreSection", "gamma")}


def _resized(grid, depth, delta):
    """The grid with the first tuple `depth` levels down one entry shorter
    (delta -1) or longer (delta 1); in a matrix, every row at depth 1."""
    if isinstance(grid, PolyMatrix):
        rows = grid.entries
        if depth == 0:
            return PolyMatrix(grid.vars, _resized(rows, 0, delta))
        return PolyMatrix(grid.vars, tuple(_resized(row, 0, delta) for row in rows))
    if depth == 0:
        return grid[:-1] if delta < 0 else grid + grid[:1]
    return (_resized(grid[0], depth - 1, delta),) + grid[1:]


def _misplaced(grid):
    """The grid with its first entry (every entry of a matrix) over other variables."""
    if isinstance(grid, PolyMatrix):
        return PolyMatrix.zero(("y",), grid.rows, grid.cols)
    if isinstance(grid, MultiPoly):
        return MultiPoly.zero(("y",))
    return (_misplaced(grid[0]),) + grid[1:]


def _first_entry(grid):
    while not isinstance(grid, MultiPoly):
        grid = grid[0]
    return grid


def _raises(record, attr, value) -> str:
    with pytest.raises(ValueError) as info:
        replace(record, **{attr: value})
    return str(info.value)


@pytest.mark.parametrize(
    "record, attr, name, depth", GRID_FIELDS, ids=[f"{r}.{a}" for r, a, _, _ in GRID_FIELDS]
)
def test_field_shape_and_variables_are_checked(record, attr, name, depth):
    valid = _grid_records()[record]
    grid = getattr(valid, attr)
    matrix = isinstance(grid, PolyMatrix)
    levels = () if (record, attr) in UNSIZED else range(depth)
    for level in levels:
        for delta in (-1, 1):
            if matrix:
                shape = [2, 2]
                shape[level] += delta
                expected = f"{name} has shape {tuple(shape)}, expected (2, 2)"
            else:
                expected = f"{name}{'[0]' * level} has {2 + delta} entries, expected 2"
            assert _raises(valid, attr, _resized(grid, level, delta)) == expected
    where = name if matrix else name + "[0]" * depth
    vars = grid.vars if matrix else _first_entry(grid).vars
    assert _raises(valid, attr, _misplaced(grid)) == f"{where} must use the variables {vars}"


def test_linear_section_and_vertical_lift_share_the_side_check():
    records = _grid_records()
    section = records["LinearSection"]
    message = r"^side must be 'right' or 'left', got 'up'$"
    with pytest.raises(ValueError, match=message):
        replace(section, side="up")
    with pytest.raises(ValueError, match=message):
        vertical_lift(section.bundle, "up", records["CoreSection"], (1, 2), (3, 4))


# ---------------------------------------------------------------------------
# guards

def _zero_bivector(vb):
    vars = total_space_vars(vb)
    n, k = vb.chart.dim, vb.rank
    return Bivector(vb, PolyMatrix.zero(vars, n, n), PolyMatrix.zero(vars, n, k), PolyMatrix.zero(vars, k, k))


GEOMECH_GUARDS = {
    "fiber name clash": (
        lambda: total_space_vars(VectorBundle(Chart(("e1", "x")), 1)),
        "chart names collide with fiber names: ['e1']",
    ),
    "contraction argument": (
        lambda: lambda_sharp(_zero_bivector(VB11))(
            tangent_prolongation(VB11).element((0,), (1,), (2,), (3,))
        ),
        "argument must live on the cotangent shell",
    ),
    "vertical lift chart": (
        lambda: vertical_lift(
            DecomposedDVB(CHART1, 1, 1, 1), "right",
            CoreSection(CHART2, (MultiPoly.zero(CHART2.names),)), (0,), (1,),
        ),
        "section chart differs from the bundle chart",
    ),
    "complete lift components": (
        lambda: complete_tangent_lift(CHART2, (MultiPoly.var(CHART2.names, "x1"),)),
        "need one component per chart coordinate",
    ),
    "metric connection bundles": (
        lambda: is_metric_connection(
            _connection(VB11, {}), Metric(VB22, PolyMatrix.identity(CHART2.names, 2))
        ),
        "connection and metric live on different bundles",
    ),
    "metric identity bundles": (
        lambda: metric_identity(
            _connection(VB11, {}), Metric(VB22, PolyMatrix.identity(CHART2.names, 2))
        ),
        "connection and metric live on different bundles",
    ),
}


@pytest.mark.parametrize("guard", GEOMECH_GUARDS)
def test_geomech_guard(guard):
    call, message = GEOMECH_GUARDS[guard]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
