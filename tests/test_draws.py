"""Every sampled check draws through `core._Sampler`, in a pinned order.

The draw-order guard wraps `random.Random.getrandbits`, which every draw of
the library reaches (`ring._draw` reads it, and so do the stdlib's own
`randint` and `choice`), and records each call of one sampled criterion on
fixed records and seeds, of one `run_suite("all")` round, and of two runs
that do not simply pass: an axioms run that fails under a broken kernel add
and a duality run that redraws singular points.  The sha256 of the calls
and the verdict must equal the recorded digest, so a change that moves,
adds or drops a draw fails here even when the verdicts and the report
bodies still read the same.

The single-path guard reads the source: the rational draws
(`random_tuple` and the pair loop `_draw_sample`) and the retired
`random_rational`, `_rational_draws` and `_random_slots` may be named only
in `ring`, in `core._Sampler` and in the generators of `scenario`.
"""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dvbcalc import core
from dvbcalc.core import Chart, DecomposedDVB
from dvbcalc.duality import canonical_R, verify_R_relation
from dvbcalc.geomech import (
    horizontal_lagrangian_check,
    is_linear_poisson,
    is_metric_connection,
    is_symmetric_connection,
    oneform_is_bundle_morphism,
    oneform_linearity_on_tangent,
    vf_is_bundle_morphism,
    vf_linearity_on_cotangent,
)
from dvbcalc.scenario import Scenario, gen_random_scenario, scenario_from_obj
from dvbcalc.suites import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "dvbcalc"

# scenario 0 with a symmetric connection (chart dim = side rank = 3) and
# scenario 1 (chart dim 2, side rank 3), built before any draw is recorded
SCENARIOS = (gen_random_scenario(0, symmetric=True), gen_random_scenario(1))


def _element(bundle):
    """A fixed element with nonzero slots: entries 1/2, -2/3, 3/4, ..."""
    values = iter(Fraction((-1) ** i * (i + 1), i + 2) for i in range(64))
    return bundle.element(*(
        [next(values) for _ in range(n)] for n in (bundle.chart.dim, *bundle.ranks)
    ))


def _r_relation(sc, samples, seed):
    v = _element(sc.bundle)
    return verify_R_relation(v, canonical_R("R", v), samples=samples, seed=seed)


CRITERIA = {
    "vf_is_bundle_morphism": lambda sc: vf_is_bundle_morphism(sc.vector_field, 10, 3),
    "oneform_is_bundle_morphism": lambda sc: oneform_is_bundle_morphism(sc.one_form, 10, 4),
    "vf_linearity_on_cotangent": lambda sc: vf_linearity_on_cotangent(sc.vector_field, 10, 5),
    "oneform_linearity_on_tangent": lambda sc: oneform_linearity_on_tangent(sc.one_form, 10, 6),
    "is_linear_poisson": lambda sc: is_linear_poisson(sc.bivector, 10, 7),
    "is_metric_connection": lambda sc: is_metric_connection(sc.connection, sc.metric, 8, 8),
    "is_symmetric_connection": lambda sc: is_symmetric_connection(sc.connection, 20, 9),
    "horizontal_lagrangian_check": lambda sc: horizontal_lagrangian_check(sc.connection, 5, 10),
    "verify_R_relation": lambda sc: _r_relation(sc, 12, 11),
    "run_suite_all": lambda sc: run_suite("all", sc).passed,
}

# recorded from the code before the draws moved into `core._Sampler`
DIGESTS = {
    ("vf_is_bundle_morphism", 0): "4a887c829efaaf66c88229686179be1f491a42b3d9c051280ac0c16a5cf69504",
    ("vf_is_bundle_morphism", 1): "efd83dc48e39ad79f7d1000be695d13f2931c3e5b0c5c5b9196cac27ec9662d2",
    ("oneform_is_bundle_morphism", 0): "734e57ef6c6166d7ba07832b8294dff8f340f6df8a71e76a4894d2c3fb6064cd",
    ("oneform_is_bundle_morphism", 1): "03d754b34c67f9e965b498f7f80226f3f51b103652d6694abdca1f47cf9fd84b",
    ("vf_linearity_on_cotangent", 0): "9c44f303fa7fcf541d56901a0fd5a99e4e91506e38d04fc28b72064359809015",
    ("vf_linearity_on_cotangent", 1): "1f34aa0608fb363534239b54a585ceeabcad31de21d42bac201228dfe9caae28",
    ("oneform_linearity_on_tangent", 0): "b6a77dd563465875fcc4d364ab54abd599a85d017e1cabc83e6cdd8c1aea5c36",
    ("oneform_linearity_on_tangent", 1): "b00913342aae90edbdc233c866f257541c7d92ab781a2edc771e19c5ef6585f8",
    ("is_linear_poisson", 0): "cbcb3b49fe030724406213a836c3d6663e406ca101f0c868e91312bbf321d460",
    ("is_linear_poisson", 1): "40178cc741ddfe7f4eab74889f6d427cdc4093afa2c48beda383ea98ac769e1e",
    ("is_metric_connection", 0): "1f7914b2bd8aff930d4673dbdb9b7613612fe280571012c43250a0379b523e7b",
    ("is_metric_connection", 1): "bc86fe012cd184e2a85dc3e4addfc5e77a46e31fd7612c7fda1f37473f10576b",
    ("is_symmetric_connection", 0): "048b769d2727948603dd8110fd2b43a837ee184f96ea2e73904ed848882c1740",
    ("is_symmetric_connection", 1): "2011fd005e4e53ee0fbf9b7d9f0f41fed90fd0448ade3bf3523b402d2942a48e",
    ("horizontal_lagrangian_check", 0): "d44dcfe4f8bffe6224132127e265a655d7e8eb9d90afb431512b9ef372dedc7f",
    ("horizontal_lagrangian_check", 1): "2011fd005e4e53ee0fbf9b7d9f0f41fed90fd0448ade3bf3523b402d2942a48e",
    ("verify_R_relation", 0): "6044c5096e47edd578c03a00aa072fad2d231ca953bff2ff8388d714dc1f0e1a",
    ("verify_R_relation", 1): "969896fa9d5217f05a3377a5877ae1a5160c7645905afacb5073c2c04322347d",
    ("run_suite_all", 0): "21eaaad3603e5febdf7f1ac30f0da48fc5cfd00381a878fb3638c2e89d80c843",
}


def _digest(monkeypatch, call) -> str:
    calls = []
    real = random.Random.getrandbits

    def getrandbits(self, k):
        value = real(self, k)
        calls.append((k, value))
        return value

    monkeypatch.setattr(random.Random, "getrandbits", getrandbits)
    try:
        verdict = call()
    except (ArithmeticError, ValueError) as exc:
        verdict = type(exc).__name__
    monkeypatch.undo()
    return hashlib.sha256(repr((calls, verdict)).encode()).hexdigest()


# one suite round is pinned, on scenario 0
CASES = [
    (name, i) for name in CRITERIA for i in range(len(SCENARIOS)) if i == 0 or "suite" not in name
]


@pytest.mark.parametrize("name, index", CASES)
def test_draw_order_is_pinned(name, index, monkeypatch):
    digest = _digest(monkeypatch, lambda: CRITERIA[name](SCENARIOS[index]))
    assert digest == DIGESTS[name, index]


def _off_by_one_add(monkeypatch):
    """The broken kernel add of `tests/test_suites.py`: every axioms property
    but the interchange law fails, axioms.05 at its first check."""
    original = core._vec_add

    def off_by_one(a, b):
        nums, _ = a
        return original(original(a, b), ((1,) * len(nums), 1))

    monkeypatch.setattr(core, "_vec_add", off_by_one)
    sc = Scenario(bundle=DecomposedDVB(Chart.of_dim(2), 2, 1, 2), seed=3, samples=9, bound=4)
    return lambda: run_suite("axioms", sc)


def _singular_on_a_hyperplane(monkeypatch):
    """Phi_r = x1 and Psi = x1 over a chart of dim 2 with coordinate bound 1:
    about a third of the points lie on x1 = 0, so duality.05 redraws."""

    def lit(exps):
        return [[[{"coeff": "1", "exps": exps}]]]

    sc = scenario_from_obj({
        "bundle": {"n": 2, "n_F": 1, "n_C": 1, "n_E": 1},
        "morphism": {
            "Phi_l": lit([0, 0]), "Phi_c": lit([0, 0]), "Phi_r": lit([1, 0]), "Psi": [lit([1, 0])]
        },
        "plan": {"seed": 2, "samples": 6, "bound": 1},
    })
    return lambda: run_suite("duality", sc)


# failing and redrawn runs; the verdict is each property's id, pass and detail
RUNS = {"axioms_under_broken_add": _off_by_one_add, "duality_redrawn": _singular_on_a_hyperplane}

# recorded from the code before the sampler's draws moved into one kernel
RUN_DIGESTS = {
    "axioms_under_broken_add": "64f123c746fa301811c3aea2f8638e87facdc61cfad4865bf6bf0ffd4646e6b2",
    "duality_redrawn": "6547a2a92c9c2cdd80bdc02b0771feaaf8f643c76066f020cb4d5cdf5ea95afb",
}


def _verdicts(report):
    return [(r.prop_id, r.passed, r.detail) for r in report.results]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_failing_and_redrawn_draw_orders_are_pinned(name, monkeypatch):
    run = RUNS[name](monkeypatch)
    verdicts = _verdicts(run())
    if name == "duality_redrawn":
        assert any("singular points redrawn" in detail for _, _, detail in verdicts)
    else:
        failed = [prop[7:9] for prop, passed, _ in verdicts if not passed]
        assert failed == ["01", "02", "04", "05", "06", "07"]
    assert _digest(monkeypatch, lambda: _verdicts(run())) == RUN_DIGESTS[name]


DRAWS = {"random_tuple", "random_rational", "_draw_sample", "_rational_draws", "_random_slots"}


def _allowed(module: str, scope: tuple[str, ...]) -> bool:
    if module == "ring" or module in ("core", "scenario") and scope == ("<import>",):
        return True
    if module == "core":
        return scope[:1] == ("_Sampler",)
    return module == "scenario" and scope[:1] != () and scope[0].startswith(
        ("random_", "gen_random")
    )


def _references(tree):
    """(name, scope) for each name of DRAWS the module imports or reads;
    scope is the chain of enclosing class and function names."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    if alias.name in DRAWS:
                        yield alias.name, ("<import>",)
            elif isinstance(child, ast.Name) and child.id in DRAWS:
                yield child.id, scope
            elif isinstance(child, ast.Attribute) and child.attr in DRAWS:
                yield child.attr, scope
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            yield from walk(child, inner)

    yield from walk(tree, ())


def test_rational_draws_have_one_path():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for name, scope in _references(ast.parse(path.read_text(encoding="utf-8"))):
            if not _allowed(module, scope):
                stray.append(f"{module}: {name} in {'.'.join(scope) or '<module>'}")
    assert not stray, stray
