"""Command line front end.

Subcommands:

* ``check <suite>``: run a property suite against a scenario file or a
  seeded random scenario and print its report.  Exit code 0 when every
  property passes, 1 when one fails, 2 on usage or scenario errors.
* ``gen``: print a seeded random scenario as JSON.
* ``dualize``: print the right dual of a scenario bundle, and with
  ``--point`` the dualized morphism blocks at a chart point.
* ``lift vertical`` / ``lift complete``: vertical lifts of the scenario
  core section and complete (tangent or cotangent) lifts of the scenario
  vector field.
* ``connection check {metric,symmetric,lagrangian}``: evaluate one
  connection predicate; failures carry a counterexample and replay seed.

Scenario problems are reported on stderr with a ``PARSE_ERROR:`` or
``INCONSISTENT_SCENARIO:`` prefix and exit code 2; a morphism that is
singular at a requested point is an inconsistent scenario, and so is a value
past the interpreter's int-to-text limit: a command formats every value it
prints before it prints any.  Every
``--seed`` must lie in [0, 2**32), the range ``derive_seed`` uses;
``--samples`` and ``--bound`` lie in [1, 1000], ``--max-rank`` in [1, 8]
and ``--max-degree`` in [0, 8].  The plan flags share their ranges with a
scenario file's ``plan``, from ``scenario.PLAN_RANGES``.  ``connection
check`` takes only ``--seed`` of them: its checks draw fixed counts at
bound 7.  A flag that would change nothing is a usage error (exit 2):
``--max-rank``, ``--max-degree`` or ``--symmetric`` with ``--scenario``,
since they shape only ``--random`` generation.  A ``--point`` or
``--outer`` coordinate is read by ``ring.parse_number``, the reader of a
scenario coefficient and of text given to ``ring.rat``, in its grammar and
under its digit cap; its first coordinate may be negative.
"""

from __future__ import annotations

import argparse
import json
import sys

from .duality import fiber_right_dual, right_dual, left_dual
from .geomech import (
    _restrict_to_chart,
    complete_cotangent_lift,
    complete_tangent_lift,
    vertical_lift,
)
from .ring import SingularMatrixError, parse_number
from .scenario import (
    _MAX_DEGREE,
    _MAX_RANK,
    PLAN_RANGES,
    InconsistentScenarioError,
    Scenario,
    ScenarioParseError,
    gen_random_scenario,
    load_scenario,
    scenario_to_text,
)
from .suites import _CONNECTION_CHECKS, SUITE_NAMES, _fmt, run_connection_check, run_suite


def _parse_point(text: str, dim: int, what: str = "point"):
    body = text.strip()
    if body.startswith("x="):
        body = body[2:].strip()
    parts = [p.strip() for p in body.split(",")] if body else []
    if len(parts) != dim:
        raise ScenarioParseError(
            f"{what} needs {dim} comma-separated coordinates, got {len(parts)}"
        )
    try:
        return tuple(parse_number(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioParseError(f"bad {what} coordinate: {exc}") from None


def _bounded_int(what: str, low: int, high: int, shown: str):
    """argparse type for an int in [low, high]; `shown` spells the range."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{what} {value} is outside {shown}")
        return value

    return parse


_seed, _samples, _bound = (
    _bounded_int(key, *PLAN_RANGES[key]) for key in ("seed", "samples", "bound")
)
_max_rank = _bounded_int("rank bound", 1, _MAX_RANK, f"[1, {_MAX_RANK}]")
_max_degree = _bounded_int("degree bound", 0, _MAX_DEGREE, f"[0, {_MAX_DEGREE}]")


def _text(value) -> str:
    """`value` as printed text, by the report formatter; a value past the
    interpreter's digit limit for int-to-text conversion is inconsistent."""
    try:
        return _fmt(value)
    except ValueError:
        raise InconsistentScenarioError("a value to print exceeds the int-to-text limit") from None


def _matrix_lines(name: str, rows) -> list[str]:
    if not rows:
        return [f"{name}:", "  (empty)"]
    return [f"{name}:"] + ["  [" + "  ".join(map(_text, row)) + "]" for row in rows]


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="FILE", help="scenario JSON file")
    group.add_argument(
        "--random", action="store_true", help="generate a scenario from --seed"
    )
    p.add_argument("--seed", type=_seed, default=None, help="sampling seed override")
    # the shape flags are left unset unless given, so that a file source can
    # reject them and generation keeps gen_random_scenario's defaults
    p.add_argument(
        "--max-rank",
        type=_max_rank,
        default=argparse.SUPPRESS,
        help="random generation rank bound, 1-8 (default 3)",
    )
    p.add_argument(
        "--max-degree",
        type=_max_degree,
        default=argparse.SUPPRESS,
        help="random generation degree bound, 0-8 (default 2)",
    )
    p.add_argument(
        "--symmetric",
        action="store_true",
        default=argparse.SUPPRESS,
        help="random generation: symmetric connection with side rank = chart dim",
    )


def _scenario_from_args(args, samples=None, bound=None) -> Scenario:
    shape = {k: v for k, v in vars(args).items() if k in ("max_rank", "max_degree", "symmetric")}
    if args.scenario is not None:
        if shape:
            given = ", ".join("--" + key.replace("_", "-") for key in shape)
            raise argparse.ArgumentError(None, f"only --random generation reads {given}")
        sc = load_scenario(args.scenario)
    else:
        sc = gen_random_scenario(0 if args.seed is None else args.seed, **shape)
    if args.seed is not None or samples is not None or bound is not None:
        sc = sc.with_plan(seed=args.seed, samples=samples, bound=bound)
    return sc


def _cmd_check(args) -> int:
    sc = _scenario_from_args(args, args.samples, args.bound)
    report = run_suite(args.suite, sc)
    if args.json:
        print(json.dumps(report.to_obj(), indent=2, sort_keys=True))
    else:
        print(report.render(), end="")
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    sc = gen_random_scenario(
        args.seed,
        max_rank=args.max_rank,
        max_degree=args.max_degree,
        symmetric=args.symmetric,
    )
    print(scenario_to_text(sc), end="")
    return 0


def _cmd_dualize(args) -> int:
    sc = load_scenario(args.scenario)
    b = sc.bundle
    x = None
    if args.point is not None:
        if sc.morphism is None:
            raise InconsistentScenarioError(
                "dualizing at a point needs a morphism section in the scenario"
            )
        x = _parse_point(args.point, b.chart.dim)
    dual = right_dual(b)
    ld = left_dual(b)
    lines = [
        f"bundle: ranks (n_F, n_C, n_E) = {b.ranks}; labels {', '.join(b.labels)}",
        f"right dual: ranks {dual.ranks}; labels {', '.join(dual.labels)}",
        f"left dual: ranks {ld.ranks}; labels {', '.join(ld.labels)}",
    ]
    if x is not None:
        try:
            fm = fiber_right_dual(sc.morphism.at(x))
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"morphism blocks are singular at x = {_text(x)}: {exc}"
            ) from None
        lines.append(f"dual morphism blocks at x = {_text(x)}:")
        lines += _matrix_lines("l", fm.l) + _matrix_lines("c", fm.c) + _matrix_lines("r", fm.r)
        if not fm.psi or not any(any(row) for plane in fm.psi for row in plane):
            lines.append("psi: 0")
        else:
            for g, plane in enumerate(fm.psi):
                lines += _matrix_lines(f"psi[{g + 1}]", plane)
    print(*lines, sep="\n")
    return 0


def _cmd_lift_vertical(args) -> int:
    sc = load_scenario(args.scenario)
    b = sc.bundle
    section = sc.section("core_section")
    x = _parse_point(args.point, b.chart.dim)
    outer_len = b.n_E if args.side == "right" else b.n_F
    outer = _parse_point(args.outer, outer_len, what="outer fiber value")
    lifted = vertical_lift(b, args.side, section, x, outer)
    slots = zip("fce", (lifted.f, lifted.c, lifted.e))
    lines = [f"  {name} = {_text(values)}" for name, values in slots]
    print(f"vertical lift ({args.side}) at x = {_text(x)}:", *lines, sep="\n")
    return 0


def _cmd_lift_complete(args) -> int:
    sc = load_scenario(args.scenario)
    field = sc.section("vector_field")
    chart = sc.chart
    try:
        base = tuple(_restrict_to_chart(p, chart.names, chart.dim) for p in field.base)
    except ValueError:
        raise InconsistentScenarioError(
            "complete lifts need a projectable field: base coefficients "
            "must not involve fiber variables"
        ) from None
    lift = (
        complete_tangent_lift(chart, base)
        if args.kind == "tangent"
        else complete_cotangent_lift(chart, base)
    )
    lines = ["base: " + _text(lift.base), *_matrix_lines("fiber", lift.fiber.entries)]
    print(f"complete {args.kind} lift on chart dim {chart.dim} "
          f"(bundle label {lift.bundle.label}):", *lines, sep="\n")
    return 0


def _cmd_connection_check(args) -> int:
    sc = _scenario_from_args(args)
    report = run_connection_check(args.kind, sc)
    print(report.render(), end="")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvb",
        description="Exact property checks for decomposed double vector bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    _add_source_flags(p_check)
    p_check.add_argument("--samples", type=_samples, default=None, help="tuples per property")
    p_check.add_argument("--bound", type=_bound, default=None, help="coordinate magnitude bound")
    p_check.add_argument("--json", action="store_true", help="machine output only")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="print a seeded random scenario")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--max-rank", type=_max_rank, default=3)
    p_gen.add_argument("--max-degree", type=_max_degree, default=2)
    p_gen.add_argument("--symmetric", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)

    p_dual = sub.add_parser("dualize", help="right dual of the scenario bundle")
    p_dual.add_argument("--scenario", metavar="FILE", required=True)
    p_dual.add_argument(
        "--point", metavar="X", help='chart point, e.g. "x=1/2,-3"', default=None
    )
    p_dual.set_defaults(func=_cmd_dualize)

    p_lift = sub.add_parser("lift", help="vertical and complete lifts")
    lift_sub = p_lift.add_subparsers(dest="lift_kind", required=True)
    p_vert = lift_sub.add_parser("vertical", help="vertical lift of the core section")
    p_vert.add_argument("--scenario", metavar="FILE", required=True)
    p_vert.add_argument("--side", choices=("right", "left"), required=True)
    p_vert.add_argument("--point", metavar="X", required=True)
    p_vert.add_argument(
        "--outer", metavar="V", required=True, help="outer fiber value the lift sits over"
    )
    p_vert.set_defaults(func=_cmd_lift_vertical)
    p_comp = lift_sub.add_parser("complete", help="complete lift of the vector field")
    p_comp.add_argument("--scenario", metavar="FILE", required=True)
    p_comp.add_argument("--kind", choices=("tangent", "cotangent"), required=True)
    p_comp.set_defaults(func=_cmd_lift_complete)

    p_conn = sub.add_parser("connection", help="connection predicates")
    conn_sub = p_conn.add_subparsers(dest="conn_cmd", required=True)
    p_cc = conn_sub.add_parser("check", help="evaluate one connection predicate")
    p_cc.add_argument("kind", choices=tuple(_CONNECTION_CHECKS))
    _add_source_flags(p_cc)
    p_cc.set_defaults(func=_cmd_connection_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a value with a leading minus after --point/--outer as an
    # option, so each is joined with its value first, as in --point=-1/2,1
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--point", "--outer"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"PARSE_ERROR: {exc}", file=sys.stderr)
        return 2
    except (InconsistentScenarioError, SingularMatrixError) as exc:
        print(f"INCONSISTENT_SCENARIO: {exc}", file=sys.stderr)
        return 2
    except argparse.ArgumentError as exc:
        print(f"dvb: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
