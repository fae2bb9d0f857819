"""Scenario files and seeded random scenario generation for the harness.

A scenario bundles everything one run of the property suites needs: a
decomposed double bundle over a chart, an optional block endomorphism of it,
optional geometry records living on its right side leg, and a sampling plan
(seed, sample count, coordinate bound).  The file format is JSON.  A
polynomial literal is a list of terms `{"coeff": "p/q", "exps": [k1, ...]}`
over the variable list its section declares; coefficients are strings or
integers, never floats.  Chart coordinates are always x1..xn and fiber
coordinates e1..ek, so a scenario only declares dimensions.  The optional
sections are the rows of one table, `SECTIONS`: each names its record
type, what the record is built over, and its fields with their shapes and
variables.  Parsing, serialization, the side-leg checks of `Scenario` and
the report header all read it.  A field shape is read by one recursive
reader and written by one recursive writer, keyed by how many lists deep
the shape nests its polynomial literals.

`scenario_to_text` writes the one shape a scenario has, the bytes that
`json.dumps(obj, indent=2, sort_keys=True)` gives for the scenario's JSON
object: the `bundle` block (labels through
`json.encoder.encode_basestring_ascii`, then the ranks), the `plan` block
and one block per section present, keys sorted, each field's literals
written by `_write_literals` straight from each polynomial's (n, d) pairs,
as `n`, or `n/d` when d is not 1 (the text `str` gives the `Fraction`),
with no `MultiPoly.terms` view.  `Scenario` holds
only what this writes: int, not bool, plan values; a chart x1..xn and ranks
in [0, _MAX_RANK]; three str labels.

A coefficient is read into a reduced pair by the library's one number
reader, `ring._read_pair`, in the writer's grammar only: an int below
10**32 in size, or the ASCII text `-?D` or `-?D/D`, D a run of 1 to 32
digits.  Any other text is rejected.  The command line's coordinates and
text given to `ring.rat` are read by the same reader.  A literal names each
exponent vector at most once.

Every number a file gives is capped: ranks, exponents, terms per literal,
the digits of each coefficient (the reader's cap, shared with the command
line's coordinates and the API's text) and the sampling plan (PLAN_RANGES,
shared with the command line's flags).
Records and morphisms built through the API keep any degree.

Two error channels: ScenarioParseError for structural problems (bad JSON,
malformed literals, ragged grids, values outside a cap), and
InconsistentScenarioError for well formed
data whose ranks or shape constraints do not fit together (for example a
bivector block that is not antisymmetric, or a metric or square morphism
block whose determinant vanishes at each of the few fixed
`ring._WITNESSES`; a nonzero value at one of them proves the determinant
nonzero without expanding it, so the certificate,
`ring._identically_singular`, costs at most four exact eliminations and
refuses a nonzero determinant that happens to vanish at all four points).
The reader certifies the morphism blocks; `geomech.Metric` certifies g
itself when it is built, and `_build` names the section in its message.

Random generation is deterministic for a fixed seed and flag set.  Blocks
that must be invertible are built as identity plus a strictly triangular
part, so their determinant is exactly one at every point.  One generator
per section draws both the sections of `gen_random_scenario` and the
stand-in that `Scenario.section` returns for a section a scenario leaves
out.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from .core import Chart, DecomposedDVB, DVBMorphism, VectorBundle
from .geomech import (
    Bivector,
    CoreSection,
    GeneralOneForm,
    GeneralVectorField,
    LinearConnection,
    LinearOneForm,
    LinearTwoForm,
    LinearVectorField,
    Metric,
    _fiber_linear,
    total_space_vars,
)
from .ring import (
    _WITNESSES,
    MultiPoly,
    PolyMatrix,
    _check_grid,
    _draw,
    _draw_sample,
    _identically_singular,
    _Pairs,
    _randint,
    _read_pair,
    _span,
    _term_key,
)


class ScenarioParseError(ValueError):
    """The scenario text or a literal inside it is structurally malformed."""


class InconsistentScenarioError(ValueError):
    """The scenario parses but its sections do not fit together."""


# Seeds are 32-bit: derive_seed uses only the low 32 bits of the master.
_SEED_BOUND = 2**32


# Chart dimensions and fiber ranks are at most 8: a polynomial determinant
# or inverse costs time exponential in the rank, and a dense rank-8 metric
# already takes about a second to invert.
_MAX_RANK = 8

# Random blocks reach degree 2 * max_degree in a metric, and the checks
# expand products of such blocks; 8 keeps a generated scenario small.
_MAX_DEGREE = 8

# A polynomial literal holds at most what `dvb gen` writes: exponents up to
# 2 * _MAX_DEGREE (a metric is A A^T) and, with room to spare, _MAX_TERMS
# terms (it writes at most 19).  Every sampled value of an entry x1^k has
# O(k) bits, so an unbounded exponent would stall the suites.
_MAX_EXPONENT = 2 * _MAX_DEGREE
_MAX_TERMS = 256

# The sampling plan: each key's (low, high) range, both ends included, and
# how a message spells it.  The sample count and the coordinate bound are
# capped at 1000, above every value in use; the defaults are 100 and 7.
PLAN_RANGES = {
    "seed": (0, _SEED_BOUND - 1, "[0, 2**32)"),
    "samples": (1, 1000, "[1, 1000]"),
    "bound": (1, 1000, "[1, 1000]"),
}


# Degree bound of the records drawn for sections a scenario does not carry.
GENERATED_DEGREE = 2


def derive_seed(master: int, tag: str) -> int:
    """Stable sub-seed for one named use of the master seed."""
    return zlib.crc32(tag.encode("utf-8"), master & (_SEED_BOUND - 1))


# ---------------------------------------------------------------------------
# The section table

# One row per optional section: (JSON key and Scenario field, record type,
# what the record is built over, fields).  "bundle" records are
# endomorphisms of the scenario bundle, "side" records live on its right
# side leg, "chart" records on the chart.  A field is (JSON key, record
# attribute, shape, variables); the shapes are "vector" (a list of
# polynomials), "rows" (a list of vectors), "matrix" (rows of one length,
# read as a PolyMatrix) and "grid3" (a list of rows); the variables are
# "base" (x1..xn) or "shell" (x1..xn, e1..ek of the side leg).  Fields are
# listed in constructor order and parsed in table order.
SECTIONS = (
    ("morphism", DVBMorphism, "bundle", (
        ("Phi_l", "phi_l", "matrix", "base"),
        ("Phi_c", "phi_c", "matrix", "base"),
        ("Phi_r", "phi_r", "matrix", "base"),
        ("Psi", "psi", "grid3", "base"),
    )),
    ("vector_field", GeneralVectorField, "side", (
        ("base", "base", "vector", "shell"),
        ("vert", "vert", "vector", "shell"),
    )),
    ("one_form", GeneralOneForm, "side", (
        ("dx", "dx_coeffs", "vector", "shell"),
        ("de", "de_coeffs", "vector", "shell"),
    )),
    ("bivector", Bivector, "side", (
        ("l_ij", "l_ij", "matrix", "shell"),
        ("l_ia", "l_ia", "matrix", "shell"),
        ("l_ab", "l_ab", "matrix", "shell"),
    )),
    ("two_form", LinearTwoForm, "side", (
        ("omega_ija", "omega_ija", "grid3", "base"),
        ("omega_ia", "omega_ia", "rows", "base"),
    )),
    ("metric", Metric, "side", (
        ("g", "g", "matrix", "base"),
    )),
    ("connection", LinearConnection, "side", (
        ("gamma", "gamma", "grid3", "base"),
    )),
    ("core_section", CoreSection, "chart", (
        ("gamma", "gamma", "vector", "base"),
    )),
)

# The square fields, by section, whose determinant must not vanish
# identically.  The suites invert the morphism blocks at sample points, and
# a block singular everywhere has no regular point to sample.  A metric is
# nondegenerate, so `Metric` certifies its own g, built from a file or not.
_NONSINGULAR = {"morphism": ("Phi_l", "Phi_c", "Phi_r")}

# ---------------------------------------------------------------------------
# The scenario record

@dataclass(frozen=True)
class Scenario:
    bundle: DecomposedDVB
    morphism: DVBMorphism | None = None
    vector_field: GeneralVectorField | None = None
    one_form: GeneralOneForm | None = None
    bivector: Bivector | None = None
    two_form: LinearTwoForm | None = None
    metric: Metric | None = None
    connection: LinearConnection | None = None
    core_section: CoreSection | None = None
    seed: int = 0
    samples: int = 100
    bound: int = 7

    @property
    def chart(self) -> Chart:
        return self.bundle.chart

    @property
    def side_bundle(self) -> VectorBundle:
        """The plain vector bundle carried by the right side leg."""
        return VectorBundle(self.chart, self.bundle.n_E, self.bundle.labels[2])

    def __post_init__(self) -> None:
        # the writer gives only the dimension of the chart; it is a len, and
        # DecomposedDVB refuses a rank that is not an int, so only the cap
        # is left to check
        if self.chart != Chart.of_dim(_capped_rank(self.chart.dim, "n")):
            raise ScenarioParseError("bundle chart must have the coordinates x1..xn")
        for key in ("n_F", "n_C", "n_E"):
            _capped_rank(getattr(self.bundle, key), key)
        _need_labels(self.bundle.labels)
        for key, (low, high, shown) in PLAN_RANGES.items():
            value = _need_int(getattr(self, key), f"plan.{key}")
            if not low <= value <= high:
                raise ScenarioParseError(f"plan.{key} {value} is outside {shown}")
        if self.morphism is not None and (
            self.morphism.source != self.bundle or self.morphism.target != self.bundle
        ):
            raise InconsistentScenarioError(
                "morphism must be an endomorphism of the scenario bundle"
            )
        side = self.side_bundle
        for key, _, over, _ in SECTIONS:
            record = getattr(self, key)
            if over == "side" and record is not None and record.bundle != side:
                raise InconsistentScenarioError(
                    f"{key} lives on {record.bundle}, expected the side leg {side}"
                )
        if self.core_section is not None:
            if self.core_section.chart != self.chart:
                raise InconsistentScenarioError("core section chart differs")
            _build(
                "core_section", _check_grid,
                "gamma", self.core_section.gamma, (self.bundle.n_C,), self.chart.names,
            )

    def section(self, key: str):
        """The record of section `key`, or a stand-in when the scenario has none.

        A stand-in is drawn as `dvb gen` draws that section, from a seed
        derived from the plan seed, at degree bound GENERATED_DEGREE; every
        call returns an equal record.
        """
        record = getattr(self, key)
        if record is not None:
            return record
        rng = random.Random(derive_seed(self.seed, f"gen.{key}"))
        return _GENERATORS[key](rng, self, GENERATED_DEGREE, False)

    def with_plan(self, seed=None, samples=None, bound=None) -> Scenario:
        return replace(
            self,
            seed=self.seed if seed is None else seed,
            samples=self.samples if samples is None else samples,
            bound=self.bound if bound is None else bound,
        )


# ---------------------------------------------------------------------------
# Parsing

def _need_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where} must be an object")
    return obj


def _need_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ScenarioParseError(f"{where} must be a list")
    return obj


def _need_int(obj, where: str) -> int:
    # bool is an int subclass and must not slip through
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ScenarioParseError(f"{where} must be an integer")
    return obj


def _need_rank(value, key: str) -> int:
    return _capped_rank(_need_int(value, f"bundle.{key}"), key)


def _capped_rank(value: int, key: str) -> int:
    if not 0 <= value <= _MAX_RANK:
        raise ScenarioParseError(f"bundle.{key} {value} is outside [0, {_MAX_RANK}]")
    return value


def _need_labels(labels) -> tuple[str, str, str]:
    strings = isinstance(labels, tuple) and all(isinstance(s, str) for s in labels)
    if not strings or len(labels) != 3:
        raise ScenarioParseError("bundle.labels must be three strings")
    return labels


def _check_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], where: str) -> None:
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise ScenarioParseError(f"{where} is missing keys {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ScenarioParseError(f"{where} has unknown keys {sorted(unknown)}")


def _term_error(where: str, pos: int, detail: str) -> ScenarioParseError:
    """The error of term `pos` of a literal; only a failing term builds its location."""
    return ScenarioParseError(f"{where}, term {pos}{detail}")


_TERM_KEYS = {"coeff", "exps"}


def parse_poly(obj, vars: tuple[str, ...], where: str) -> MultiPoly:
    """One polynomial literal against a declared variable list."""
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    terms = _need_list(obj, where)
    if len(terms) > _MAX_TERMS:
        raise ScenarioParseError(f"{where} has {len(terms)} terms, more than {_MAX_TERMS}")
    for pos, term in enumerate(terms):
        if not isinstance(term, dict):
            raise _term_error(where, pos, " must be an object")
        if term.keys() != _TERM_KEYS:
            # the keys differ, so this raises
            _check_keys(term, ("coeff", "exps"), (), f"{where}, term {pos}")
        raw, exps = term["coeff"], term["exps"]
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise _term_error(
                where, pos, ": coefficient must be an integer or a 'p/q' string"
            )
        try:
            coeff = _read_pair(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise _term_error(where, pos, f": bad coefficient {raw!r}: {exc}") from exc
        if not isinstance(exps, list):
            raise _term_error(where, pos, ", exps must be a list")
        if len(exps) != len(vars):
            raise _term_error(
                where, pos, f": {len(exps)} exponents for {len(vars)} variables"
            )
        for k in exps:
            # bool is an int subclass and must not slip through
            if not isinstance(k, int) or isinstance(k, bool):
                raise _term_error(where, pos, ", exponent must be an integer")
            if k < 0:
                raise _term_error(where, pos, ": negative exponent")
            if k > _MAX_EXPONENT:
                raise _term_error(where, pos, f": exponent {k} is above {_MAX_EXPONENT}")
        key = tuple(exps)
        if key in acc:
            raise _term_error(where, pos, f": exponents {exps} repeat an earlier term")
        acc[key] = coeff
    return MultiPoly(vars, _Pairs({e: c for e, c in acc.items() if c[0]}))


# How many lists deep each field shape nests its polynomial literals.
_DEPTH = {"vector": 1, "rows": 2, "matrix": 2, "grid3": 3}


def _parse_nested(obj, vars, where: str, depth: int):
    """Nested tuples of polynomial literals, `depth` lists deep."""
    if depth == 0:
        return parse_poly(obj, vars, where)
    return tuple(
        _parse_nested(item, vars, f"{where}[{i}]", depth - 1)
        for i, item in enumerate(_need_list(obj, where))
    )


def _parse_field(obj, vars, where: str, shape: str):
    value = _parse_nested(obj, vars, where, _DEPTH[shape])
    if shape != "matrix":
        return value
    if len({len(row) for row in value}) > 1:
        raise ScenarioParseError(f"{where} is ragged")
    return PolyMatrix(tuple(vars), value)


def _build(section: str, ctor, *args):
    """Constructor ValueErrors become scenario inconsistencies."""
    try:
        return ctor(*args)
    except ValueError as exc:
        raise InconsistentScenarioError(f"{section}: {exc}") from exc


def scenario_from_obj(obj) -> Scenario:
    top = _need_dict(obj, "scenario")
    optional = ("plan",) + tuple(row[0] for row in SECTIONS)
    _check_keys(top, ("bundle",), optional, "scenario")

    shape = _need_dict(top["bundle"], "bundle")
    _check_keys(shape, ("n", "n_F", "n_C", "n_E"), ("labels",), "bundle")
    dims = {key: _need_rank(shape[key], key) for key in ("n", "n_F", "n_C", "n_E")}
    labels = ("F", "C", "E")
    if "labels" in shape:
        labels = _need_labels(tuple(_need_list(shape["labels"], "bundle.labels")))
    chart = Chart.of_dim(dims["n"])
    bundle = _build(
        "bundle", DecomposedDVB, chart, dims["n_F"], dims["n_C"], dims["n_E"], labels
    )
    side = VectorBundle(chart, bundle.n_E, labels[2])

    plan = _need_dict(top.get("plan", {}), "plan")
    _check_keys(plan, (), tuple(PLAN_RANGES), "plan")
    plan = {key: _need_int(value, f"plan.{key}") for key, value in plan.items()}

    vars_of = {"base": chart.names, "shell": total_space_vars(side)}
    over_of = {"bundle": (bundle, bundle), "side": (side,), "chart": (chart,)}
    sections: dict = {}
    for key, record_type, over, fields in SECTIONS:
        if key not in top:
            continue
        sec = _need_dict(top[key], key)
        _check_keys(sec, tuple(field[0] for field in fields), (), key)
        values = [
            _parse_field(sec[name], vars_of[vars], f"{key}.{name}", shape)
            for name, _, shape, vars in fields
        ]
        record = _build(key, record_type, *over_of[over], *values)
        for name, attr, _, _ in fields:
            if name in _NONSINGULAR.get(key, ()) and _identically_singular(
                getattr(record, attr)
            ):
                raise InconsistentScenarioError(
                    f"{key}: {name} determinant vanishes at all "
                    f"{len(_WITNESSES)} witness points"
                )
        sections[key] = record

    return Scenario(bundle=bundle, **plan, **sections)


def scenario_from_text(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: an integer literal past the interpreter's
        # digit limit, or nesting deeper than the recursion limit
        raise ScenarioParseError(f"invalid JSON: {exc}") from exc
    return scenario_from_obj(obj)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    return scenario_from_text(text)


# ---------------------------------------------------------------------------
# Serialization

def _sections(sc: Scenario):
    """Each section `sc` holds: its key and, per field, the field's name, its
    polynomials as nested tuples and how many lists deep they nest."""
    for key, _, _, fields in SECTIONS:
        record = getattr(sc, key)
        if record is not None:
            values = [(name, getattr(record, attr), shape) for name, attr, shape, _ in fields]
            yield key, [(n, v.entries if s == "matrix" else v, _DEPTH[s]) for n, v, s in values]


def _write_literals(value, depth: int) -> list[str]:
    """The pieces of the text json.dumps(..., indent=2) gives at the field
    indentation for `value`'s literals, `depth` lists deep, each term
    {"coeff": str(c), "exps": e}, written from each polynomial's pairs in the
    order of `MultiPoly.terms`."""
    out: list[str] = []
    # nl[i]: a line break and the indentation i levels below the field's
    nl = ["\n    " + "  " * i for i in range(depth + 4)]

    def write(value, depth: int, i: int) -> None:
        inner = nl[i + 1]
        if not (value if depth else value._pairs):
            out.append("[]")
        elif not depth:
            coeff, exps = inner + "{" + nl[i + 2] + '"coeff": "', '",' + nl[i + 2] + '"exps": '
            close, sep = inner + "}", "," + nl[i + 3]
            terms = [
                f"{coeff}{n if d == 1 else f'{n}/{d}'}{exps}"
                f"{f'[{nl[i + 3]}{sep.join(map(str, e))}{nl[i + 2]}]' if e else '[]'}{close}"
                for e, (n, d) in sorted(value._pairs.items(), key=_term_key, reverse=True)
            ]
            out.append("[" + ",".join(terms) + nl[i] + "]")
        else:
            out.append("[")
            for k, item in enumerate(value):
                out.append("," + inner if k else inner)
                write(item, depth - 1, i + 1)
            out.append(nl[i] + "]")

    write(value, depth, 0)
    return out


def _block(items: dict[str, list[str]], pad: str = "  ") -> list[str]:
    """The pieces of a JSON object at the indentation `pad`, keys sorted, from
    the pieces of its values, so that one join copies the text once; every key
    is a plain identifier, which JSON writes as it is."""
    out, sep = [], "{"
    for key in sorted(items):
        out.append(f'{sep}\n{pad}  "{key}": ')
        out += items[key]
        sep = ","
    out.append(f"\n{pad}}}")
    return out


def scenario_to_text(sc: Scenario) -> str:
    """The scenario's JSON object as json.dumps(..., indent=2, sort_keys=True)
    writes it, and a line break."""
    b = sc.bundle
    labels = ",\n      ".join(map(encode_basestring_ascii, b.labels))
    blocks = {
        "bundle": [
            f'{{\n    "labels": [\n      {labels}\n    ],\n    "n": {b.chart.dim},\n'
            f'    "n_C": {b.n_C},\n    "n_E": {b.n_E},\n    "n_F": {b.n_F}\n  }}'
        ],
        "plan": [
            f'{{\n    "bound": {sc.bound},\n    "samples": {sc.samples},\n    "seed": {sc.seed}\n  }}'
        ],
    }
    for key, fields in _sections(sc):
        blocks[key] = _block({name: _write_literals(value, depth) for name, value, depth in fields})
    return "".join([*_block(blocks, ""), "\n"])


# ---------------------------------------------------------------------------
# Seeded random generation

def random_poly(rng: random.Random, vars, max_degree: int) -> MultiPoly:
    """A short random polynomial of total degree at most max_degree."""
    vt = tuple(vars)
    acc = _Pairs()
    for _ in range(_randint(rng, 1, 2)):
        exps = [0] * len(vt)
        if vt:
            degree = _randint(rng, 0, max_degree)
            for i in _draw(rng, (_span(0, len(vt) - 1),) * degree):
                exps[i] += 1
        # one rational p/q, p in [-7, 7] and then q in [1, 7], as a slot pair
        _, ((p,), q) = _draw_sample(rng, 7, 0, (1,))
        if p:
            acc += _Pairs({tuple(exps): (p, q)})
    return MultiPoly(vt, acc)


def random_poly_vector(rng, vars, n: int, max_degree: int) -> tuple[MultiPoly, ...]:
    return tuple(random_poly(rng, vars, max_degree) for _ in range(n))


def random_poly_matrix(rng, vars, rows: int, cols: int, max_degree: int) -> PolyMatrix:
    vt = tuple(vars)
    return PolyMatrix(
        vt,
        tuple(
            tuple(random_poly(rng, vt, max_degree) for _ in range(cols))
            for _ in range(rows)
        ),
    )


def random_unimodular_matrix(rng, vars, n: int, max_degree: int) -> PolyMatrix:
    """Identity plus a strictly triangular part; determinant one everywhere."""
    vt = tuple(vars)
    upper = _randint(rng, 0, 1) == 1
    one = MultiPoly.const(vt, 1)
    zero = MultiPoly.zero(vt)

    def entry(i: int, j: int) -> MultiPoly:
        if i == j:
            return one
        if (j > i) == upper:
            return random_poly(rng, vt, max_degree)
        return zero

    return PolyMatrix.build(vt, n, n, entry)


def random_morphism(rng, bundle: DecomposedDVB, max_degree: int) -> DVBMorphism:
    """Invertible block endomorphism with unit determinant blocks."""
    vars = bundle.chart.names
    psi = tuple(
        tuple(
            tuple(random_poly(rng, vars, max_degree) for _ in range(bundle.n_F))
            for _ in range(bundle.n_E)
        )
        for _ in range(bundle.n_C)
    )
    return DVBMorphism(
        bundle,
        bundle,
        random_unimodular_matrix(rng, vars, bundle.n_F, max_degree),
        random_unimodular_matrix(rng, vars, bundle.n_C, max_degree),
        random_unimodular_matrix(rng, vars, bundle.n_E, max_degree),
        psi,
    )


def random_vector_field(rng, vb: VectorBundle, max_degree: int) -> GeneralVectorField:
    """Half the draws are degree zero, half carry a nonlinear twist."""
    names = vb.chart.names
    linear = LinearVectorField(
        vb,
        random_poly_vector(rng, names, vb.chart.dim, max_degree),
        random_poly_matrix(rng, names, vb.rank, vb.rank, max_degree),
    ).as_general()
    if vb.rank == 0 or _randint(rng, 0, 1) == 0:
        return linear
    vars = total_space_vars(vb)
    e1sq = MultiPoly.var(vars, "e1") * MultiPoly.var(vars, "e1")
    vert = (linear.vert[0] + e1sq,) + linear.vert[1:]
    return GeneralVectorField(vb, linear.base, vert)


def random_one_form(rng, vb: VectorBundle, max_degree: int) -> GeneralOneForm:
    names = vb.chart.names
    linear = LinearOneForm(
        vb,
        random_poly_vector(rng, names, vb.rank, max_degree),
        tuple(
            random_poly_vector(rng, names, vb.rank, max_degree)
            for _ in range(vb.chart.dim)
        ),
    ).as_general()
    if vb.rank == 0 or _randint(rng, 0, 1) == 0:
        return linear
    vars = total_space_vars(vb)
    e1 = MultiPoly.var(vars, "e1")
    de = (linear.de_coeffs[0] + e1,) + linear.de_coeffs[1:]
    return GeneralOneForm(vb, linear.dx_coeffs, de)


def _antisym_from_upper(vars, n: int, upper) -> PolyMatrix:
    z = MultiPoly.zero(vars)
    # evaluate each upper entry once so random draws mirror exactly
    cache = {(i, j): upper(i, j) for i in range(n) for j in range(i + 1, n)}

    def entry(i: int, j: int) -> MultiPoly:
        if i < j:
            return cache[(i, j)]
        if i > j:
            return -cache[(j, i)]
        return z

    return PolyMatrix.build(vars, n, n, entry)


def random_bivector(rng, vb: VectorBundle, max_degree: int) -> Bivector:
    """Fiberwise-linear shape by default; half the draws break one block."""
    vars = total_space_vars(vb)
    n, k = vb.chart.dim, vb.rank
    names = vb.chart.names

    def mixed(i: int, a: int) -> MultiPoly:
        return random_poly(rng, names, max_degree).extend(vars)

    def fiber_linear(a: int, b: int) -> MultiPoly:
        coeffs = [random_poly(rng, names, max_degree) for _ in range(k)]
        return _fiber_linear(coeffs, vars)

    l_ij = PolyMatrix.zero(vars, n, n)
    l_ia = PolyMatrix.build(vars, n, k, mixed)
    l_ab = _antisym_from_upper(vars, k, fiber_linear)
    if k == 0 or _randint(rng, 0, 1) == 0:
        return Bivector(vb, l_ij, l_ia, l_ab)
    # break linearity with a constant term in the fiber block
    if k >= 2:
        one = MultiPoly.const(vars, 1)
        bumped = _antisym_from_upper(
            vars, k, lambda i, j: l_ab.entries[i][j] + one if (i, j) == (0, 1) else l_ab.entries[i][j]
        )
        return Bivector(vb, l_ij, l_ia, bumped)
    if n >= 1:
        e1 = MultiPoly.var(vars, "e1")
        bumped_mixed = PolyMatrix.build(
            vars, n, k, lambda i, a: l_ia.entries[i][a] + e1 if (i, a) == (0, 0) else l_ia.entries[i][a]
        )
        return Bivector(vb, l_ij, bumped_mixed, l_ab)
    return Bivector(vb, l_ij, l_ia, l_ab)


def random_two_form(rng, vb: VectorBundle, max_degree: int) -> LinearTwoForm:
    """Half the draws are closed by construction."""
    names = vb.chart.names
    n, k = vb.chart.dim, vb.rank
    omega_ia = tuple(
        random_poly_vector(rng, names, k, max_degree) for _ in range(n)
    )
    if _randint(rng, 0, 1) == 0:
        grid = tuple(
            tuple(
                tuple(
                    omega_ia[i][a].partial(names[j]) - omega_ia[j][a].partial(names[i])
                    for a in range(k)
                )
                for j in range(n)
            )
            for i in range(n)
        )
        return LinearTwoForm(vb, grid, omega_ia)
    upper = {
        (i, j): random_poly_vector(rng, names, k, max_degree)
        for i in range(n)
        for j in range(i + 1, n)
    }
    zero_row = (MultiPoly.zero(names),) * k

    def row(i: int, j: int):
        if i < j:
            return upper[(i, j)]
        if i > j:
            return tuple(-p for p in upper[(j, i)])
        return zero_row

    grid = tuple(tuple(row(i, j) for j in range(n)) for i in range(n))
    return LinearTwoForm(vb, grid, omega_ia)


def random_metric(rng, vb: VectorBundle, max_degree: int) -> Metric:
    """Unimodular congruence of the identity; nonsingular at every point."""
    a = random_unimodular_matrix(rng, vb.chart.names, vb.rank, max_degree)
    return Metric(vb, a * a.transpose())


def random_connection(
    rng, vb: VectorBundle, max_degree: int, symmetric: bool = False
) -> LinearConnection:
    names = vb.chart.names
    n, k = vb.chart.dim, vb.rank
    if symmetric and k != n:
        raise ValueError("a symmetric connection needs the rank to match the chart")
    grid = [
        [[random_poly(rng, names, max_degree) for _ in range(k)] for _ in range(n)]
        for _ in range(k)
    ]
    if symmetric:
        for a in range(k):
            for i in range(n):
                for b in range(i + 1, n):
                    grid[a][b][i] = grid[a][i][b]
    return LinearConnection(
        vb, tuple(tuple(tuple(row) for row in plane) for plane in grid)
    )


def random_core_section(rng, chart: Chart, n_c: int, max_degree: int) -> CoreSection:
    return CoreSection(chart, random_poly_vector(rng, chart.names, n_c, max_degree))


# One generator per SECTIONS key: (rng, scenario, degree bound, symmetric)
# -> a record over the scenario bundle.  `gen_random_scenario` and the
# stand-ins of `Scenario.section` both draw through this table.
_GENERATORS = {
    "morphism": lambda rng, sc, deg, sym: random_morphism(rng, sc.bundle, deg),
    "vector_field": lambda rng, sc, deg, sym: random_vector_field(rng, sc.side_bundle, deg),
    "one_form": lambda rng, sc, deg, sym: random_one_form(rng, sc.side_bundle, deg),
    "bivector": lambda rng, sc, deg, sym: random_bivector(rng, sc.side_bundle, deg),
    "two_form": lambda rng, sc, deg, sym: random_two_form(rng, sc.side_bundle, deg),
    "metric": lambda rng, sc, deg, sym: random_metric(rng, sc.side_bundle, deg),
    "connection": lambda rng, sc, deg, sym: random_connection(
        rng, sc.side_bundle, deg, symmetric=sym
    ),
    "core_section": lambda rng, sc, deg, sym: random_core_section(
        rng, sc.chart, sc.bundle.n_C, deg
    ),
}


def gen_random_scenario(
    seed: int,
    max_rank: int = 3,
    max_degree: int = 2,
    symmetric: bool = False,
) -> Scenario:
    """Deterministic full scenario: every section populated from the seed."""
    if max_rank < 1:
        raise ValueError("rank bound must be positive")
    if max_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    shape_rng = random.Random(derive_seed(seed, "shape"))
    n = _randint(shape_rng, 1, min(3, max_rank))
    n_f = _randint(shape_rng, 1, max_rank)
    n_c = _randint(shape_rng, 1, max_rank)
    n_e = n if symmetric else _randint(shape_rng, 1, max_rank)
    bare = Scenario(bundle=DecomposedDVB(Chart.of_dim(n), n_f, n_c, n_e), seed=seed)
    return replace(bare, **{
        key: _GENERATORS[key](
            random.Random(derive_seed(seed, key)), bare, max_degree, symmetric
        )
        for key, *_ in SECTIONS
    })
