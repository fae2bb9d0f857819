"""Scenario parsing, serialization, and seeded generation."""

import dataclasses
import importlib.util
import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvbcalc.core import Chart, DecomposedDVB
from dvbcalc.geomech import (
    CoreSection,
    bivector_linear_shape,
    is_closed,
    is_degree_zero,
    is_linear_oneform,
    is_symmetric_connection,
)
from dvbcalc.ring import (
    MultiPoly,
    PolyMatrix,
    _draw,
    _randint,
    _span,
    _term_key,
    parse_number,
    random_tuple,
)
from dvbcalc.scenario import (
    _DEPTH,
    PLAN_RANGES,
    SECTIONS,
    InconsistentScenarioError,
    Scenario,
    ScenarioParseError,
    derive_seed,
    gen_random_scenario,
    parse_poly,
    random_bivector,
    random_connection,
    random_metric,
    random_morphism,
    random_one_form,
    random_poly,
    random_two_form,
    random_unimodular_matrix,
    random_vector_field,
    scenario_from_obj,
    scenario_from_text,
    scenario_to_text,
)
from polys import poly_from_dict, witness_root_literal


def poly_lit(coeff, exps):
    return [{"coeff": coeff, "exps": exps}]


def minimal_obj():
    return {"bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1}}


# --- parse errors ----------------------------------------------------------

def test_bad_json_text():
    with pytest.raises(ScenarioParseError):
        scenario_from_text("{not json")


def test_missing_bundle():
    with pytest.raises(ScenarioParseError):
        scenario_from_obj({"plan": {"seed": 1}})


def test_unknown_top_level_key():
    obj = minimal_obj()
    obj["extra"] = {}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_unknown_bundle_key():
    obj = {"bundle": {"n": 1, "n_F": 1, "n_C": 1, "n_E": 1, "rank": 2}}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_bool_is_not_an_integer():
    obj = {"bundle": {"n": True, "n_F": 1, "n_C": 1, "n_E": 1}}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_negative_rank_rejected():
    obj = {"bundle": {"n": 1, "n_F": -1, "n_C": 1, "n_E": 1}}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


@pytest.mark.parametrize("key", ["n", "n_F", "n_C", "n_E"])
def test_dimension_and_ranks_capped_at_8(key):
    obj = minimal_obj()
    obj["bundle"][key] = 8
    sc = scenario_from_obj(obj)
    assert (sc.bundle.chart.dim,) + sc.bundle.ranks == tuple(
        obj["bundle"][k] for k in ("n", "n_F", "n_C", "n_E")
    )
    obj["bundle"][key] = 9
    with pytest.raises(ScenarioParseError, match=f"bundle.{key} 9 is outside"):
        scenario_from_obj(obj)


def test_labels_must_be_three_strings():
    obj = minimal_obj()
    obj["bundle"]["labels"] = ["F", "C"]
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_float_coefficient_rejected():
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [poly_lit(1.5, [0])]}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_string_fraction_coefficient_accepted():
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [poly_lit("3/4", [1])]}
    sc = scenario_from_obj(obj)
    assert str(sc.core_section.gamma[0]) == "3/4*x1"


def test_wrong_exponent_arity():
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [poly_lit("1", [0, 0])]}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_negative_exponent_rejected():
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [poly_lit("1", [-1])]}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


def test_duplicate_exponents_are_rejected():
    obj = minimal_obj()
    obj["core_section"] = {
        "gamma": [[{"coeff": "1", "exps": [1]}, {"coeff": "2", "exps": [1]}]]
    }
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "core_section.gamma[0], term 1: exponents [1] repeat an earlier term"


def test_ragged_matrix_rejected():
    obj = minimal_obj()
    obj["metric"] = {"g": [[poly_lit("1", [0])], []]}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


@pytest.mark.parametrize("key", ["samples", "bound"])
@pytest.mark.parametrize("value, accepted", [(0, False), (1000, True), (1001, False)])
def test_plan_caps(key, value, accepted):
    obj = minimal_obj()
    obj["plan"] = {key: value}
    if accepted:
        sc = scenario_from_obj(obj)
        assert getattr(sc, key) == value
        assert getattr(sc.with_plan(**{key: 1}), key) == 1
    else:
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_obj(obj)
        assert str(info.value) == f"plan.{key} {value} is outside [1, 1000]"
        with pytest.raises(ScenarioParseError):
            Scenario(bundle=DecomposedDVB(Chart.of_dim(1), 1, 1, 1)).with_plan(**{key: value})


def test_plan_zero_samples_rejected():
    obj = minimal_obj()
    obj["plan"] = {"samples": 0}
    with pytest.raises(ScenarioParseError):
        scenario_from_obj(obj)


@pytest.mark.parametrize(
    "seed, accepted", [(-1, False), (2**32, False), (4294967303, False), (2**32 - 1, True)]
)
def test_plan_seed_must_be_32_bit(seed, accepted):
    obj = minimal_obj()
    obj["plan"] = {"seed": seed}
    if accepted:
        assert scenario_from_obj(obj).seed == seed
    else:
        with pytest.raises(ScenarioParseError, match="plan.seed"):
            scenario_from_obj(obj)


BUNDLE = DecomposedDVB(Chart.of_dim(1), 1, 1, 1)


# a float plan value fails the suites with a TypeError or raises out of
# run_suite, and a bool one is written as `true`, which the reader rejects
@pytest.mark.parametrize(
    "key, value", [("samples", 5.0), ("seed", 2.0), ("seed", True), ("bound", False), ("bound", "7")]
)
def test_plan_values_must_be_integers(key, value):
    with pytest.raises(ScenarioParseError, match=rf"^plan\.{key} must be an integer$"):
        Scenario(bundle=BUNDLE, **{key: value})
    with pytest.raises(ScenarioParseError, match=rf"^plan\.{key} must be an integer$"):
        Scenario(bundle=BUNDLE).with_plan(**{key: value})


@pytest.mark.parametrize("key", ["n_F", "n_C", "n_E"])
@pytest.mark.parametrize("value", [True, 1.0])
def test_bundle_ranks_must_be_integers(key, value):
    # the bundle refuses such a rank itself, so no scenario can hold one
    with pytest.raises(TypeError, match=r"^fiber rank must be an int, got "):
        dataclasses.replace(BUNDLE, **{key: value})


@pytest.mark.parametrize("key", ["n", "n_F", "n_C", "n_E"])
def test_constructor_caps_the_ranks_as_the_reader_does(key):
    # the text of a rank-9 bundle is rejected by the reader
    change = {"chart": Chart.of_dim(9)} if key == "n" else {key: 9}
    bundle = dataclasses.replace(BUNDLE, **change)
    with pytest.raises(ScenarioParseError, match=rf"^bundle\.{key} 9 is outside \[0, 8\]$"):
        Scenario(bundle=bundle)


def test_constructor_needs_the_chart_the_writer_names():
    # the text gives only the dimension, so the chart ("a", "b") would read
    # back as x1, x2 and compare unequal
    with pytest.raises(ScenarioParseError, match=r"^bundle chart must have the coordinates x1\.\.xn$"):
        Scenario(bundle=DecomposedDVB(Chart(("a", "b")), 1, 1, 1))


@pytest.mark.parametrize(
    "labels", [("F", "C"), ("F", "C", "E", "G"), ("F", "C", 3), ["F", "C", "E"], "FCE", None]
)
def test_bundle_labels_must_be_three_strings(labels):
    bundle = dataclasses.replace(BUNDLE, labels=labels)
    with pytest.raises(ScenarioParseError, match="^bundle.labels must be three strings$"):
        Scenario(bundle=bundle)


def test_missing_file_is_parse_error(tmp_path):
    from dvbcalc.scenario import load_scenario

    with pytest.raises(ScenarioParseError):
        load_scenario(str(tmp_path / "nope.json"))


# --- consistency errors ----------------------------------------------------

def test_morphism_block_shape_mismatch():
    obj = {"bundle": {"n": 1, "n_F": 2, "n_C": 1, "n_E": 1}}
    obj["morphism"] = {
        "Phi_l": [[poly_lit("1", [0])]],  # should be 2x2
        "Phi_c": [[poly_lit("1", [0])]],
        "Phi_r": [[poly_lit("1", [0])]],
        "Psi": [[[poly_lit("0", [0]), poly_lit("0", [0])]]],
    }
    with pytest.raises(InconsistentScenarioError):
        scenario_from_obj(obj)


def test_bivector_not_antisymmetric():
    obj = minimal_obj()
    one = poly_lit("1", [0, 0])
    obj["bivector"] = {
        "l_ij": [[poly_lit("0", [0, 0])]],
        "l_ia": [[poly_lit("0", [0, 0])]],
        "l_ab": [[one]],  # nonzero diagonal cannot be antisymmetric
    }
    with pytest.raises(InconsistentScenarioError):
        scenario_from_obj(obj)


def test_identically_singular_metric_rejected():
    obj = minimal_obj()
    obj["metric"] = {"g": [[poly_lit("0", [0])]]}
    with pytest.raises(InconsistentScenarioError):
        scenario_from_obj(obj)


def test_core_section_wrong_length():
    obj = {"bundle": {"n": 1, "n_F": 1, "n_C": 2, "n_E": 1}}
    obj["core_section"] = {"gamma": [poly_lit("1", [0])]}
    with pytest.raises(InconsistentScenarioError):
        scenario_from_obj(obj)


def test_scenario_rejects_foreign_morphism():
    chart = Chart.of_dim(1)
    b = DecomposedDVB(chart, 1, 1, 1)
    other = DecomposedDVB(chart, 2, 1, 1)
    rng = random.Random(0)
    phi = random_morphism(rng, other, 1)
    with pytest.raises(InconsistentScenarioError):
        Scenario(bundle=b, morphism=phi)


def test_with_plan_overrides_only_given_fields():
    sc = gen_random_scenario(4)
    out = sc.with_plan(samples=9)
    assert out.samples == 9 and out.seed == sc.seed and out.bound == sc.bound


# --- round trips -----------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3, 9, 21])
def test_roundtrip_is_byte_identical(seed):
    sc = gen_random_scenario(seed)
    text = scenario_to_text(sc)
    again = scenario_from_text(text)
    assert scenario_to_text(again) == text


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("seed", range(200))
def test_roundtrip_at_the_rank_and_degree_caps_is_byte_identical(seed, symmetric, monkeypatch):
    # the perfbench goldens stop at rank 6.  The reader certifies each square
    # block nonsingular by its values at a few witness points, and no parse
    # calls the symbolic determinant, which has no cost bound: this guards
    # that no file `dvb gen` writes reaches it
    def fallback(self):
        raise AssertionError(f"symbolic determinant of a {self.rows}x{self.cols} block")

    monkeypatch.setattr(PolyMatrix, "det", fallback)
    sc = gen_random_scenario(seed, max_rank=8, max_degree=8, symmetric=symmetric)
    text = scenario_to_text(sc)
    assert scenario_to_text(scenario_from_text(text)) == text


def _polys(value):
    if isinstance(value, MultiPoly):
        yield value
    elif isinstance(value, PolyMatrix):
        yield from _polys(value.entries)
    elif isinstance(value, tuple):
        for item in value:
            yield from _polys(item)


def test_writing_builds_no_terms_view():
    sc = scenario_from_text(scenario_to_text(gen_random_scenario(5)))
    scenario_to_text(sc)
    polys = [
        p
        for key, _, _, fields in SECTIONS
        for _, attr, _, _ in fields
        for p in _polys(getattr(getattr(sc, key), attr))
    ]
    assert any(not p.is_zero for p in polys)
    assert all("terms" not in vars(p) for p in polys)


def test_roundtrip_preserves_sections():
    sc = gen_random_scenario(7)
    again = scenario_from_obj(json.loads(scenario_to_text(sc)))
    assert again.bundle == sc.bundle
    assert again.morphism == sc.morphism
    assert again.bivector == sc.bivector
    assert again.metric == sc.metric
    assert again.connection == sc.connection
    assert again.core_section == sc.core_section


def _nested_obj(value, depth: int) -> list:
    """JSON lists of polynomial literals, `depth` lists deep."""
    if depth == 0:
        return [{"coeff": str(c), "exps": list(e)} for e, c in value.terms]
    return [_nested_obj(item, depth - 1) for item in value]


def scenario_to_obj(sc: Scenario) -> dict:
    """The writer's oracle: the JSON object of a scenario, its literals built
    from `MultiPoly.terms`, whose `json.dumps` the writer's text must be."""
    b = sc.bundle
    out = {
        "bundle": dict(n=b.chart.dim, n_F=b.n_F, n_C=b.n_C, n_E=b.n_E, labels=list(b.labels)),
        "plan": {key: getattr(sc, key) for key in PLAN_RANGES},
    }
    for key, _, _, fields in SECTIONS:
        record = getattr(sc, key)
        if record is not None:
            out[key] = {
                name: _nested_obj(
                    getattr(record, attr).entries if shape == "matrix" else getattr(record, attr),
                    _DEPTH[shape],
                )
                for name, attr, shape, _ in fields
            }
    return out


def assert_written_as_json(sc):
    text = scenario_to_text(sc)
    assert text == json.dumps(scenario_to_obj(sc), indent=2, sort_keys=True) + "\n"
    return text


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("seed", range(50))
def test_serialization_is_sorted_json(seed, symmetric):
    assert_written_as_json(gen_random_scenario(seed, symmetric=symmetric))


def _bare(n=1, labels=("F", "C", "E")):
    return Scenario(bundle=DecomposedDVB(Chart.of_dim(n), 2, 1, 2, labels), seed=11)


def _with_sections(sc, keys):
    return dataclasses.replace(sc, **{key: sc.section(key) for key in keys})


def _wide_coefficients():
    # coefficients of 32 digits: an integer, a fraction and their negatives
    top = 10**32 - 1
    names = Chart.of_dim(2).names
    gamma = (
        poly_from_dict(names, {(1, 0): Fraction(top), (0, 2): Fraction(-top, top - 2)}),
        poly_from_dict(names, {(0, 0): Fraction(-top), (1, 1): Fraction(1, top)}),
    )
    return Scenario(
        bundle=DecomposedDVB(Chart.of_dim(2), 0, 2, 0),
        core_section=CoreSection(Chart.of_dim(2), gamma),
    )


WRITER_CASES = {
    "labels": lambda: _bare(2, ("\u00e9\u2028", '"quoted"', "back\\slash\x00\x1f\n")),
    "empty labels": lambda: _bare(labels=("", "", "")),
    "no sections": lambda: _bare(),
    "no sections, dim 0": lambda: _bare(0),
    "every section, dim 0": lambda: _with_sections(_bare(0), [row[0] for row in SECTIONS]),
    **{f"{row[0]} alone": (lambda key=row[0]: _with_sections(_bare(2), [key])) for row in SECTIONS},
    "32 digits": _wide_coefficients,
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_serialization_of_each_writer_case(case):
    sc = WRITER_CASES[case]()
    assert scenario_from_text(assert_written_as_json(sc)) == sc


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.text(), st.text(), st.text()),
    st.integers(-1, 2**32),
    st.integers(0, 1001),
    st.integers(0, 1001),
)
@example(("\x00", '"', "\\"), 2**32 - 1, 1000, 1)
def test_every_accepted_scenario_round_trips(labels, seed, samples, bound):
    try:
        sc = _bare(labels=labels).with_plan(seed=seed, samples=samples, bound=bound)
    except ScenarioParseError:
        return
    assert scenario_from_text(assert_written_as_json(sc)) == sc


def test_serialization_of_a_chart_with_no_coordinates():
    # constant blocks: "exps": [], a zero literal, negative and integer coefficients
    obj = {
        "bundle": {"n": 0, "n_F": 1, "n_C": 2, "n_E": 1},
        "morphism": {
            "Phi_l": [[poly_lit(-3, [])]],
            "Phi_c": [[poly_lit("7/2", []), []], [poly_lit("-1/9", []), poly_lit(1, [])]],
            "Phi_r": [[poly_lit("-5", [])]],
            "Psi": [[[[]]], [[poly_lit("-12/7", [])]]],
        },
        "core_section": {"gamma": [[], poly_lit(4, [])]},
    }
    text = assert_written_as_json(scenario_from_obj(obj))
    assert '"exps": []' in text and '"coeff": "-3"' in text and '"gamma": [\n      [],' in text


def _scaled_literals(value, factor):
    """Every coefficient of nested polynomial literals times `factor`,
    written as an integer where the product is one."""
    if isinstance(value, list) and value and isinstance(value[0], dict):
        out = []
        for term in value:
            c = Fraction(term["coeff"]) * factor
            out.append({"coeff": int(c) if c.denominator == 1 else str(c), "exps": term["exps"]})
        return out
    return [_scaled_literals(item, factor) for item in value]


@pytest.mark.parametrize("factor", [-2, 3])
def test_serialization_of_every_section_with_scaled_coefficients(factor):
    # scaling a whole field keeps every symmetry, nonsingularity and Jacobi
    # condition, and turns the coefficients negative or integral
    obj = _full_obj()
    for key in SECTION_KEYS:
        obj[key] = {name: _scaled_literals(value, factor) for name, value in obj[key].items()}
    sc = scenario_from_obj(obj)
    assert all(getattr(sc, key) is not None for key in SECTION_KEYS)
    assert_written_as_json(sc)


# --- the section table -----------------------------------------------------

SECTION_KEYS = [row[0] for row in SECTIONS]
# depth of the first polynomial literal inside a field of each shape
SHAPE_DEPTH = {"vector": 1, "rows": 2, "matrix": 2, "grid3": 3}


def _full_obj(seed=5):
    # ranks are at least 1, so every field holds at least one polynomial
    return json.loads(scenario_to_text(gen_random_scenario(seed)))


def _only(obj, keys):
    return {k: v for k, v in obj.items() if k in ("bundle", "plan") or k in keys}


def test_section_table_covers_every_optional_scenario_field():
    optional = [f.name for f in dataclasses.fields(Scenario) if f.default is None]
    assert SECTION_KEYS == optional


@pytest.mark.parametrize("keys", [[k] for k in SECTION_KEYS] + [SECTION_KEYS])
@pytest.mark.parametrize("seed", [5, 12])
def test_each_section_round_trips_byte_identically(keys, seed):
    text = json.dumps(_only(_full_obj(seed), keys), indent=2, sort_keys=True) + "\n"
    sc = scenario_from_text(text)
    assert sorted(k for k in SECTION_KEYS if getattr(sc, k) is not None) == sorted(keys)
    assert scenario_to_text(sc) == text


@pytest.mark.parametrize(
    "key, name, shape",
    [(row[0], field[0], field[2]) for row in SECTIONS for field in row[3]],
)
def test_malformed_field_names_its_section_and_field(key, name, shape):
    obj = _only(_full_obj(), [key])
    spot = obj[key]
    index = name
    for _ in range(SHAPE_DEPTH[shape]):
        spot, index = spot[index], 0
    spot[index] = "not a polynomial"
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    where = f"{key}.{name}" + "[0]" * SHAPE_DEPTH[shape]
    assert str(info.value) == f"{where} must be a list"


@pytest.mark.parametrize("key", SECTION_KEYS)
def test_unknown_or_missing_section_key_rejected(key):
    obj = _only(_full_obj(), [key])
    obj[key]["junk"] = []
    with pytest.raises(ScenarioParseError, match=rf"^{key} has unknown keys \['junk'\]$"):
        scenario_from_obj(obj)
    obj = _only(_full_obj(), [key])
    first = next(iter(obj[key]))
    del obj[key][first]
    with pytest.raises(ScenarioParseError, match=rf"^{key} is missing keys"):
        scenario_from_obj(obj)
    obj[key] = []
    with pytest.raises(ScenarioParseError, match=rf"^{key} must be an object$"):
        scenario_from_obj(obj)


def test_sections_are_checked_in_table_order():
    # the metric's determinant is checked before the connection is parsed
    obj = minimal_obj()
    obj["metric"] = {"g": [[poly_lit("0", [0])]]}
    obj["connection"] = {"gamma": "malformed"}
    with pytest.raises(InconsistentScenarioError, match="determinant vanishes"):
        scenario_from_obj(obj)
    obj["morphism"] = {"Phi_l": "malformed"}
    with pytest.raises(ScenarioParseError, match="^morphism is missing keys"):
        scenario_from_obj(obj)


def test_side_records_must_live_on_the_side_leg():
    sc = gen_random_scenario(4)
    other = gen_random_scenario(6)
    assert sc.side_bundle != other.side_bundle
    for key, _, over, _ in SECTIONS:
        if over == "side":
            with pytest.raises(InconsistentScenarioError, match=f"^{key} lives on"):
                dataclasses.replace(sc, **{key: getattr(other, key)})


# --- seeded generation -----------------------------------------------------

def test_derive_seed_stable_and_tag_sensitive():
    assert derive_seed(5, "a") == derive_seed(5, "a")
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") != derive_seed(6, "a")


@pytest.mark.parametrize("seed", [0, 1, 13])
def test_generation_deterministic(seed):
    a = scenario_to_text(gen_random_scenario(seed))
    b = scenario_to_text(gen_random_scenario(seed))
    assert a == b


def test_section_returns_the_record_or_a_fixed_stand_in():
    full = gen_random_scenario(4)
    bare = Scenario(bundle=full.bundle, seed=9)
    for key, *_ in SECTIONS:
        assert full.section(key) is getattr(full, key)
        stand_in = bare.section(key)
        assert stand_in == bare.section(key)
        # a stand-in is a valid section of the scenario it stands in for
        assert dataclasses.replace(bare, **{key: stand_in}).section(key) is stand_in
    assert bare.section("metric") != bare.with_plan(seed=10).section("metric")


def test_generated_morphism_blocks_are_unimodular():
    for seed in range(6):
        sc = gen_random_scenario(seed)
        names = sc.chart.names
        one = MultiPoly.const(names, 1)
        for block in (sc.morphism.phi_l, sc.morphism.phi_c, sc.morphism.phi_r):
            assert block.det() == one


def test_random_unimodular_det_one():
    rng = random.Random(3)
    names = ("x1", "x2")
    for n in (1, 2, 3):
        m = random_unimodular_matrix(rng, names, n, 2)
        assert m.det() == MultiPoly.const(names, 1)


def test_symmetric_generation_squares_the_side_rank():
    sc = gen_random_scenario(8, symmetric=True)
    assert sc.bundle.n_E == sc.chart.dim
    assert is_symmetric_connection(sc.connection, samples=8, seed=1)


def test_generated_sections_cover_both_verdicts():
    """The twist branches must make positives and negatives both reachable."""
    chart = Chart.of_dim(2)
    from dvbcalc.core import VectorBundle

    vb = VectorBundle(chart, 2, "E")
    seen_field = set()
    seen_form = set()
    seen_biv = set()
    seen_two = set()
    for seed in range(24):
        rng = random.Random(seed)
        seen_field.add(is_degree_zero(random_vector_field(rng, vb, 2)))
        seen_form.add(is_linear_oneform(random_one_form(rng, vb, 2)))
        seen_biv.add(bivector_linear_shape(random_bivector(rng, vb, 2)))
        seen_two.add(is_closed(random_two_form(rng, vb, 2)))
    assert seen_field == {True, False}
    assert seen_form == {True, False}
    assert seen_biv == {True, False}
    assert seen_two == {True, False}


def test_symmetric_connection_generator_checks_rank():
    chart = Chart.of_dim(2)
    from dvbcalc.core import VectorBundle

    vb = VectorBundle(chart, 3, "E")
    with pytest.raises(ValueError):
        random_connection(random.Random(0), vb, 1, symmetric=True)


def test_generated_metric_is_symmetric_and_unimodular():
    chart = Chart.of_dim(2)
    from dvbcalc.core import VectorBundle

    vb = VectorBundle(chart, 2, "E")
    m = random_metric(random.Random(5), vb, 1)
    assert m.g == m.g.transpose()
    assert m.g.det() == MultiPoly.const(chart.names, 1)


def test_generation_bounds_validated():
    with pytest.raises(ValueError):
        gen_random_scenario(0, max_rank=0)
    with pytest.raises(ValueError):
        gen_random_scenario(0, max_degree=-1)


# --- term-level parse errors -----------------------------------------------

@pytest.mark.parametrize(
    "term, message",
    [
        ("1", "core_section.gamma[0], term 0 must be an object"),
        ({"coeff": "1"}, "core_section.gamma[0], term 0 is missing keys ['exps']"),
        (
            {"coeff": "1", "exps": [0], "sign": 1},
            "core_section.gamma[0], term 0 has unknown keys ['sign']",
        ),
        (
            {"coeff": True, "exps": [0]},
            "core_section.gamma[0], term 0: coefficient must be an integer or a 'p/q' string",
        ),
        (
            {"coeff": 1.5, "exps": [0]},
            "core_section.gamma[0], term 0: coefficient must be an integer or a 'p/q' string",
        ),
        (
            {"coeff": "1/0", "exps": [0]},
            "core_section.gamma[0], term 0: bad coefficient '1/0': Fraction(1, 0)",
        ),
        (
            {"coeff": "1", "exps": [0, 0]},
            "core_section.gamma[0], term 0: 2 exponents for 1 variables",
        ),
        (
            {"coeff": "1", "exps": [True]},
            "core_section.gamma[0], term 0, exponent must be an integer",
        ),
        (
            {"coeff": "1", "exps": ["2"]},
            "core_section.gamma[0], term 0, exponent must be an integer",
        ),
        ({"coeff": "1", "exps": [-1]}, "core_section.gamma[0], term 0: negative exponent"),
        (
            {"coeff": "1e10000000", "exps": [0]},
            "core_section.gamma[0], term 0: bad coefficient '1e10000000': "
            "not an integer n or a fraction n/d",
        ),
        (
            {"coeff": 10**32, "exps": [0]},
            f"core_section.gamma[0], term 0: bad coefficient {10**32}: "
            "more than 32 digits in the numerator or denominator",
        ),
        (
            {"coeff": "1e-32", "exps": [0]},
            "core_section.gamma[0], term 0: bad coefficient '1e-32': "
            "not an integer n or a fraction n/d",
        ),
        (
            {"coeff": "1/" + "0" * 33, "exps": [0]},
            f"core_section.gamma[0], term 0: bad coefficient '1/{'0' * 33}': "
            "more than 32 digits in the numerator or denominator",
        ),
    ],
)
def test_term_parse_error_texts(term, message):
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [[term]]}
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", [10**32 - 1, "-" + "9" * 32, "1/" + "9" * 32, "3/7"])
def test_coefficients_at_the_digit_cap_are_read(raw):
    assert parse_number(raw) == Fraction(raw)


# -- the coefficient reader against a `Fraction` reading of the grammar --------

NOT_A_NUMBER = "not an integer n or a fraction n/d"
TOO_LONG = "more than 32 digits in the numerator or denominator"


@pytest.mark.parametrize("raw", ["0.5e1", "1e31", "1e-31", "0.5", "+1", " 1", "1_0", "٣"])
def test_forms_outside_the_grammar_are_rejected(raw):
    # every one of them is a value `Fraction` reads
    Fraction(raw)
    with pytest.raises(ValueError, match=f"^{NOT_A_NUMBER}$"):
        parse_number(raw)


def reference_number(raw):
    """An int under the cap, or the ASCII text `-?D` or `-?D/D` with D 1-32 digits."""
    if type(raw) is int:
        if abs(raw) >= 10**32:
            raise ValueError(TOO_LONG)
        return Fraction(raw)
    if type(raw) is not str:
        raise ValueError(NOT_A_NUMBER)
    num, slash, den = raw.removeprefix("-").partition("/")
    runs = [num, den] if slash else [num]
    if not all(run and set(run) <= set("0123456789") for run in runs):
        raise ValueError(NOT_A_NUMBER)
    if max(map(len, runs)) > 32:
        raise ValueError(TOO_LONG)
    n = -int(num) if raw.startswith("-") else int(num)
    if slash and not int(den):
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return Fraction(n, int(den) if slash else 1)


def reference_poly(terms, where):
    """`parse_poly` of one-variable terms: each exponent named at most once."""
    acc = {}
    for pos, (raw, k) in enumerate(terms):
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ScenarioParseError(
                f"{where}, term {pos}: coefficient must be an integer or a 'p/q' string"
            )
        try:
            coeff = reference_number(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioParseError(f"{where}, term {pos}: bad coefficient {raw!r}: {exc}")
        if k in acc:
            raise ScenarioParseError(f"{where}, term {pos}: exponents [{k}] repeat an earlier term")
        acc[k] = coeff
    return poly_from_dict(("x1",), {(k,): c for k, c in acc.items()})


def outcome(f, *args):
    """The value of f(*args), or the type and text of what it raises."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_digit_runs = st.integers(0, 36).flatmap(
    lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n)
)
number_texts = st.one_of(
    st.text(alphabet="0123456789/-+ _.eE\u0663\uff17", max_size=12),
    st.tuples(
        st.sampled_from(["", "-", "+", " ", "-0", "00"]),
        _digit_runs,
        st.sampled_from(["", "/", "/0", "/00", " /", "/-", ".", "e", "_1", " "]),
        _digit_runs,
    ).map("".join),
)
cap_texts = [
    "-0", "3/0", "3/00", "0/0", "-0/7", "007/010", "1" * 32, "1" * 33, "1" * 34,
    "-" + "9" * 32, "-" + "9" * 33, "1/" + "9" * 32, "1/" + "9" * 33, "0" + "9" * 32,
    "2" + "0" * 32 + "/2", "2" + "0" * 31 + "/2", "4" * 33 + "/" + "4" * 33,
]
coefficient_values = st.one_of(
    number_texts,
    st.sampled_from(cap_texts),
    st.integers(-(10**33), 10**33),
    st.sampled_from([10**32 - 1, 10**32, -(10**32), 0, True, False, 1.0, None]),
)


def test_reader_matches_the_fraction_route_at_the_caps():
    for raw in cap_texts + [10**32 - 1, 10**32, -(10**32), True, Fraction(6, 4)]:
        got, want = outcome(parse_number, raw), outcome(reference_number, raw)
        assert got == want and type(got) is type(want), raw
        if isinstance(got, Fraction):
            assert type(got.numerator) is int, raw


@settings(max_examples=400, deadline=None)
@given(coefficient_values)
def test_reader_matches_the_fraction_route(raw):
    got, want = outcome(parse_number, raw), outcome(reference_number, raw)
    assert got == want and type(got) is type(want)
    if isinstance(got, Fraction):
        assert type(got.numerator) is int


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(coefficient_values, st.integers(0, 1)), max_size=4))
@example([(raw, 0) for raw in cap_texts + [10**32 - 1, 10**32, -(10**32), Fraction(6, 4)]])
@example([("1e31", 0), ("0.5", 1)])
@example([("9" * 32, 1), ("1", 0)])
@example([("2/3", 0), ("-4/6", 0)])
@example([(True, 0)])
def test_literal_reader_matches_the_fraction_route(terms):
    literal = [{"coeff": raw, "exps": [k]} for raw, k in terms]
    got = outcome(parse_poly, literal, ("x1",), "gamma")
    want = outcome(reference_poly, terms, "gamma")
    assert got == want
    if isinstance(got, MultiPoly):
        assert str(got) == str(want)


def test_huge_exponent_is_rejected_before_its_power_is_built():
    # Fraction("1e10000000") alone takes about 15 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{NOT_A_NUMBER}$"):
        parse_number("1e10000000")
    assert time.perf_counter() - start < 0.1


def test_like_terms_at_the_digit_cap_are_a_repeat():
    # each coefficient is within the cap, their sum would not be
    obj = minimal_obj()
    big = 10**31
    obj["core_section"] = {
        "gamma": [poly_lit(f"1/{big + 1}", [1]) + poly_lit(f"1/{big + 3}", [1])]
    }
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == (
        "core_section.gamma[0], term 1: exponents [1] repeat an earlier term"
    )


def test_term_parse_error_names_the_failing_term():
    obj = minimal_obj()
    obj["core_section"] = {"gamma": [poly_lit("1", [0]) + [{"coeff": "1", "exps": "0"}]]}
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "core_section.gamma[0], term 1, exps must be a list"


# --- the determinant certificate -------------------------------------------

def _count_minor_tables(monkeypatch):
    from dvbcalc import ring

    calls = []
    extend = ring._extend_minors

    def counted(*args):
        calls.append(1)
        return extend(*args)

    monkeypatch.setattr(ring, "_extend_minors", counted)
    return calls


def test_metric_singular_at_the_first_witness_is_certified_at_the_second(monkeypatch):
    from dvbcalc.scenario import _WITNESSES

    calls = _count_minor_tables(monkeypatch)
    obj = minimal_obj()
    witness = _WITNESSES[0][0]
    # x1 - x1(witness): zero at the first witness point only
    obj["metric"] = {
        "g": [[[{"coeff": "1", "exps": [1]}, {"coeff": str(-witness), "exps": [0]}]]]
    }
    g = scenario_from_obj(obj).metric.g
    assert not calls
    det = g.det()
    assert det.eval((witness,)) == 0 and det.eval(_WITNESSES[1][:1]) != 0


def test_metric_singular_at_every_witness_is_refused():
    obj = minimal_obj()
    obj["metric"] = {"g": [[witness_root_literal()]]}
    with pytest.raises(InconsistentScenarioError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "metric: determinant vanishes at all 4 witness points"


def _worst_case_files():
    path = Path(__file__).resolve().parent.parent / "tools" / "worst_case.py"
    spec = importlib.util.spec_from_file_location("worst_case", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


@pytest.mark.parametrize("name", ["vanish6", "vanish8", "vanish8all"])
def test_worst_case_certificates_build_no_symbolic_determinant(monkeypatch, name):
    # each Phi_r determinant is a nonzero polynomial that vanishes at the
    # first witness point, or at all of them (vanish8all); either way the
    # parse stays bounded
    from dvbcalc import ring

    def refuse(*args):
        raise AssertionError("symbolic determinant in a parse")

    text = json.dumps(_worst_case_files()[name])
    monkeypatch.setattr(PolyMatrix, "det", refuse)
    monkeypatch.setattr(ring, "_extend_minors", refuse)
    if name != "vanish8all":
        assert scenario_from_text(text).morphism.phi_r.rows == int(name[len("vanish"):])
        return
    with pytest.raises(InconsistentScenarioError) as info:
        scenario_from_text(text)
    assert str(info.value) == "morphism: Phi_r determinant vanishes at all 4 witness points"


def test_identically_singular_rank_2_metric_text():
    obj = {"bundle": {"n": 2, "n_F": 1, "n_C": 1, "n_E": 2}}
    x1 = poly_lit("1", [1, 0])
    obj["metric"] = {"g": [[x1, x1], [x1, x1]]}
    with pytest.raises(InconsistentScenarioError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "metric: determinant vanishes at all 4 witness points"


def test_high_degree_matrix_is_rejected():
    # an entry x1^(10^6) has million-bit values at every sample point
    obj = {"bundle": {"n": 2, "n_F": 1, "n_C": 1, "n_E": 2}}
    one, high = poly_lit("1", [0, 0]), poly_lit("1", [0, 10**6])
    obj["metric"] = {"g": [[one, one], [one, one + high]]}
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "metric.g[1][1], term 1: exponent 1000000 is above 16"


@pytest.mark.parametrize("max_rank, max_degree", [(3, 2), (8, 8)])
def test_generated_scenarios_parse_without_a_minor_table(monkeypatch, max_rank, max_degree):
    texts = [
        scenario_to_text(gen_random_scenario(seed, max_rank=max_rank, max_degree=max_degree))
        for seed in range(21)
    ]
    calls = _count_minor_tables(monkeypatch)
    for text in texts:
        scenario_from_text(text)
    assert not calls


def _unit_morphism_obj():
    # rank 1 blocks over one chart coordinate
    one, zero = poly_lit("1", [0]), poly_lit("0", [0])
    obj = minimal_obj()
    obj["morphism"] = {
        "Phi_l": [[one]], "Phi_c": [[one]], "Phi_r": [[one]], "Psi": [[[zero]]],
    }
    return obj


def test_high_degree_morphism_entry_is_rejected():
    obj = _unit_morphism_obj()
    obj["morphism"]["Phi_c"] = [[poly_lit("1", [10**5])]]
    with pytest.raises(ScenarioParseError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == "morphism.Phi_c[0][0], term 0: exponent 100000 is above 16"


@pytest.mark.parametrize("k, accepted", [(16, True), (17, False)])
def test_exponent_cap_is_the_highest_generated_degree(k, accepted):
    obj = _unit_morphism_obj()
    obj["morphism"]["Phi_c"] = [[poly_lit("1", [k])]]
    if not accepted:
        with pytest.raises(ScenarioParseError, match=f"term 0: exponent {k} is above 16$"):
            scenario_from_obj(obj)
        return
    phi = scenario_from_obj(obj).morphism
    x = (Fraction(-6, 7),)
    assert phi.at(x).c == ((x[0] ** k,),)


@pytest.mark.parametrize("count, accepted", [(256, True), (257, False)])
def test_term_count_cap(count, accepted):
    # 256 distinct exponent vectors need two variables: one allows only 17
    obj = {"bundle": {"n": 2, "n_F": 1, "n_C": 1, "n_E": 1}}
    terms = [{"coeff": "1", "exps": [i // 16, i % 16]} for i in range(count)]
    obj["core_section"] = {"gamma": [terms]}
    if accepted:
        assert len(scenario_from_obj(obj).core_section.gamma[0].terms) == count
    else:
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_obj(obj)
        assert str(info.value) == "core_section.gamma[0] has 257 terms, more than 256"


@pytest.mark.parametrize("block", ["Phi_l", "Phi_c", "Phi_r"])
def test_identically_singular_morphism_block_rejected(block):
    obj = _unit_morphism_obj()
    obj["morphism"][block] = [[poly_lit("0", [0])]]
    with pytest.raises(InconsistentScenarioError) as info:
        scenario_from_obj(obj)
    assert str(info.value) == f"morphism: {block} determinant vanishes at all 4 witness points"


def test_morphism_block_singular_only_at_some_points_parses():
    obj = _unit_morphism_obj()
    obj["morphism"]["Phi_r"] = [[poly_lit("1", [1])]]
    assert str(scenario_from_obj(obj).morphism.phi_r.det()) == "x1"


def test_rank_2_morphism_block_singular_everywhere_rejected():
    obj = {"bundle": {"n": 1, "n_F": 2, "n_C": 1, "n_E": 1}}
    one, zero, x1 = poly_lit("1", [0]), poly_lit("0", [0]), poly_lit("1", [1])
    obj["morphism"] = {
        "Phi_l": [[x1, one], [x1, one]],
        "Phi_c": [[one]],
        "Phi_r": [[one]],
        "Psi": [[[zero, zero]]],
    }
    with pytest.raises(InconsistentScenarioError, match="^morphism: Phi_l determinant"):
        scenario_from_obj(obj)


def reference_random_poly(rng, vars, max_degree):
    """`random_poly` summed in `Fraction`s, as the generator once did; also
    whether two like terms cancelled."""
    vt = tuple(vars)
    acc = {}
    for _ in range(_randint(rng, 1, 2)):
        exps = [0] * len(vt)
        if vt:
            degree = _randint(rng, 0, max_degree)
            for i in _draw(rng, (_span(0, len(vt) - 1),) * degree):
                exps[i] += 1
        key = tuple(exps)
        had = acc.get(key, Fraction(0))
        acc[key] = had + random_tuple(rng, 1)[0]
        cancelled = had != 0 and acc[key] == 0
    return poly_from_dict(vt, acc), cancelled


def test_random_poly_matches_the_fraction_sum_and_its_draws():
    cancelled = 0
    for seed in range(100):
        for nvars in range(4):
            vt = ("x", "y", "z")[:nvars]
            for max_degree in range(5):
                ours, theirs = random.Random(seed), random.Random(seed)
                want, gone = reference_random_poly(theirs, vt, max_degree)
                got = random_poly(ours, vt, max_degree)
                assert got == want and str(got) == str(want)
                assert ours.getstate() == theirs.getstate()
                cancelled += gone
    assert cancelled  # two like terms cancel in some case


# -- every construction route gives one polynomial ---------------------------

ROUTE_CHART = Chart.of_dim(2)
coefficient_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
    max_size=6,
)


def literal_route(p):
    """The polynomial read back from its literal in `scenario_to_text`."""
    sc = Scenario(DecomposedDVB(ROUTE_CHART, 0, 1, 0), core_section=CoreSection(ROUTE_CHART, (p,)))
    (literal,) = json.loads(scenario_to_text(sc))["core_section"]["gamma"]
    return parse_poly(literal, ROUTE_CHART.names, "gamma")


def term_sum_route(names, data):
    """The sum of c x1^i x2^j, each made from a constant and variable products."""
    total = MultiPoly.zero(names)
    for exps, c in data.items():
        term = MultiPoly.const(names, c)
        for name, k in zip(names, exps):
            for _ in range(k):
                term = term * MultiPoly.var(names, name)
        total = total + term
    return total


@given(coefficient_maps)
def test_every_construction_route_gives_one_polynomial(data):
    names = ROUTE_CHART.names
    p = poly_from_dict(names, data)
    routes = (
        p,
        literal_route(p),
        term_sum_route(names, data),
        p.compose([MultiPoly.var(names, name) for name in names]),
    )
    want = sorted(((e, c) for e, c in data.items() if c), key=_term_key, reverse=True)
    for q in routes:
        assert q == p and hash(q) == hash(p)
        assert list(q.terms) == want and str(q) == str(p)
        for _, c in q.terms:
            assert type(c) is Fraction and c.denominator > 0
            assert gcd(c.numerator, c.denominator) == 1


def test_core_section_over_another_chart_is_refused():
    section = CoreSection(Chart.of_dim(1), (MultiPoly.zero(("x1",)),))
    with pytest.raises(InconsistentScenarioError, match="^core section chart differs$"):
        Scenario(bundle=DecomposedDVB(Chart.of_dim(2), 1, 1, 1), core_section=section)


def test_stand_in_bivector_of_side_rank_1_over_a_point_chart_is_zero_on_both_draws():
    # with no mixed block and no fiber pair, the draw that would break one
    # block has nothing to break, so both outcomes give the zero bivector
    b = DecomposedDVB(Chart.of_dim(0), 1, 1, 1)
    zero = PolyMatrix.zero(("e1",), 1, 1)
    breaks = set()
    for seed in range(8):
        breaks.add(_randint(random.Random(derive_seed(seed, "gen.bivector")), 0, 1))
        biv = Scenario(bundle=b, seed=seed).section("bivector")
        assert (biv.l_ij.entries, biv.l_ia.entries, biv.l_ab) == ((), (), zero)
        assert bivector_linear_shape(biv)
    assert breaks == {0, 1}
