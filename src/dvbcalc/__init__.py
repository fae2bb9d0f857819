"""Exact calculus for double vector bundles in decomposed coordinates.

Everything is computed over rational polynomial data: bundle elements carry
tuples of fractions, morphisms carry polynomial blocks, and every identity
the package claims is checked by exact arithmetic rather than floating
point tolerance.  The top level re-exports the working vocabulary; the
submodules group it by subject:

* ``ring``: multivariate rational polynomials and polynomial matrices.
* ``core``: charts, decomposed double vector bundles, the two fiber
  structures, kernels and cores, block morphisms.
* ``duality``: right and left duals, the fiberwise pairings, dualized
  morphisms, the canonical maps onto the third dual.
* ``forms``: exterior calculus over the polynomial ring.
* ``geomech``: tangent and cotangent shells, fields, one- and two-forms and
  bivectors on a vector bundle, lifts, sections, connections and metrics.
* ``scenario`` / ``suites`` / ``cli``: the JSON scenario format, the
  property suites, and the ``dvb`` command line tool.
"""

from .ring import (
    MultiPoly,
    PolyMatrix,
    SingularMatrixError,
    rat,
)
from .core import (
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
)
from .duality import (
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
from .geomech import (
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
    omega_c_pullback,
    omega_flat,
    oneform_is_bundle_morphism,
    oneform_linearity_on_tangent,
    tangent_metric_morphism,
    tangent_prolongation,
    total_space_vars,
    vertical_lift,
    vf_is_bundle_morphism,
    vf_linearity_on_cotangent,
)
from .scenario import (
    InconsistentScenarioError,
    Scenario,
    ScenarioParseError,
    derive_seed,
    gen_random_scenario,
    load_scenario,
    scenario_from_obj,
    scenario_from_text,
    scenario_to_text,
)
from .suites import (
    PropertyResult,
    Report,
    SUITE_NAMES,
    run_connection_check,
    run_suite,
)

__version__ = "1.0.0"
