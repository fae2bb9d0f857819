"""Every metric the benchmark reports: name, unit, and how it is computed.

End-to-end metrics come from an untraced run.  Per-layer metrics come from
a traced run; for each, `moves` names the end-to-end metric and workload a
change to that layer should move, written down before any such change.

Times are in *ref* units: a task's wall time divided by the median time of
the reference kernel (refkernel.py) run just before and just after it.
`*_share` metrics divide a traced time by the traced tasks' total wall time:
`busy` is the time inside outermost calls, `self` the time inside calls
minus nested wrapped calls.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "run_ref": ("ref", "lower"),
    "task_p50_ref": ("ref", "lower"),
    "task_tail_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Printed with the end-to-end metrics but left out of the result object:
# both are 0 on a correct run, and the percentile is a label of the tail.
END_TO_END_EXTRA = {
    "fail_ratio": "ratio",
    "task_tail_pct": "pct",
    "task_count": "count",
}

A = "axioms-sweep"
C = "check-all"
S = "symbolic"

# name -> (unit, better, moves)
PER_LAYER = {
    "ring.MultiPoly.eval.calls": ("count", "lower", f"run_ref, task_p50_ref on {A} and {C}; flat on {S}"),
    "ring.MultiPoly.eval.self_share": ("ratio", "lower", f"run_ref, task_p50_ref on {A} and {C}; flat on {S}"),
    "ring.MultiPoly.mul.calls": ("count", "lower", f"run_ref on {S}"),
    "ring.MultiPoly.mul.self_share": ("ratio", "lower", f"run_ref on {S}"),
    "ring.MultiPoly.add.calls": ("count", "lower", f"run_ref on {S}"),
    "ring.MultiPoly.add.self_share": ("ratio", "lower", f"run_ref on {S}"),
    "ring.PolyMatrix.det.calls": ("count", "lower", f"run_ref, task_tail_ref on {S} (outermost calls)"),
    "ring.PolyMatrix.det.busy_share": ("ratio", "lower", f"run_ref, task_tail_ref on {S}"),
    "ring.PolyMatrix.unimodular_inverse.busy_share": ("ratio", "lower", f"run_ref, task_tail_ref on {S}"),
    "ring.frac_linalg.calls": ("count", "lower", f"run_ref on {C} (solve_fraction_free, mat_inverse_frac)"),
    "ring.frac_linalg.busy_share": ("ratio", "lower", f"run_ref on {C}"),
    "ring.self_share": ("ratio", "lower", "run_ref on every workload"),
    "core.DVBMorphism.at.calls": ("count", "lower", f"run_ref on {A}"),
    "core.DVBMorphism.at.self_share": ("ratio", "lower", f"run_ref on {A}"),
    "core.DVBMorphism.at.points_per_call": ("ratio", "higher", f"run_ref on {A} (distinct points / calls)"),
    "core.FiberMorphism.apply.calls": ("count", "lower", f"run_ref on {A} and {C}"),
    "core.FiberMorphism.apply.self_share": ("ratio", "lower", f"run_ref on {A} and {C}"),
    "core.FiberMorphism.inverse.calls": ("count", "lower", f"run_ref on {A} and {C}"),
    "core.FiberMorphism.after.calls": ("count", "lower", f"run_ref on {A} and {C}"),
    "core.structure_ops.calls": ("count", "lower", f"run_ref on {A} (fiber_add/scale/sub, kernel_split, core_difference)"),
    "core.structure_ops.self_share": ("ratio", "lower", f"run_ref on {A}"),
    "core.poly_algebra.busy_share": ("ratio", "lower", f"run_ref on {S} (compose_morphisms, invert_morphism_poly)"),
    "core.self_share": ("ratio", "lower", f"run_ref on {A}"),
    "duality.fiber_right_dual.calls": ("count", "lower", f"task_p50_ref on {C}"),
    "duality.fiber_right_dual.busy_share": ("ratio", "lower", f"task_p50_ref on {C}"),
    "duality.pair.calls": ("count", "lower", f"task_p50_ref on {C} (pair_r, pair_l)"),
    "duality.pair.self_share": ("ratio", "lower", f"task_p50_ref on {C}"),
    "duality.third_dual.busy_share": ("ratio", "lower", f"run_ref on {C} (transports, canonical_R, verify_R_relation)"),
    "duality.right_dual_morphism_poly.busy_share": ("ratio", "lower", f"run_ref on {S}"),
    "duality.self_share": ("ratio", "lower", f"task_p50_ref on {C}"),
    "forms.calls": ("count", "lower", f"task_p50_ref on {C}; near 0 elsewhere"),
    "forms.self_share": ("ratio", "lower", f"task_p50_ref on {C}; near 0 elsewhere"),
    "geomech.calls": ("count", "lower", f"task_p50_ref on {C}; near 0 elsewhere"),
    "geomech.busy_share": ("ratio", "lower", f"task_p50_ref on {C}; near 0 elsewhere"),
    "geomech.self_share": ("ratio", "lower", f"task_p50_ref on {C}; near 0 elsewhere"),
    "scenario.gen_random_scenario.calls": ("count", "lower", f"run_ref on {S}; setup_s everywhere"),
    "scenario.gen_random_scenario.busy_share": ("ratio", "lower", f"run_ref on {S}; setup_s everywhere"),
    "scenario.scenario_to_text.calls": ("count", "lower", f"run_ref on {S}; setup_s everywhere"),
    "scenario.scenario_to_text.busy_share": ("ratio", "lower", f"run_ref on {S}; setup_s everywhere"),
    "scenario.scenario_from_text.calls": ("count", "lower", f"run_ref on {S}; setup_s everywhere"),
    "scenario.scenario_from_text.busy_share": ("ratio", "lower", f"run_ref on {S}; setup_s everywhere"),
    "suites.run_suite.axioms.busy_share": ("ratio", "lower", f"run_ref on {C}"),
    "suites.run_suite.duality.busy_share": ("ratio", "lower", f"run_ref on {C}"),
    "suites.run_suite.third-dual.busy_share": ("ratio", "lower", f"run_ref on {C}"),
    "suites.run_suite.geometry.busy_share": ("ratio", "lower", f"run_ref on {C}"),
    "cli.main.self_share": ("ratio", "lower", f"task_p50_ref on {C} (argparse, rendering, JSON)"),
    "host.ref_ms": ("ms", "lower", "nothing: raw machine speed, the ref unit's size"),
    "host.run_s": ("s", "lower", "nothing: raw wall time of the untraced task list"),
    "trace.overhead_ratio": ("ratio", "lower", "nothing: traced run_ref / untraced run_ref"),
}


def per_layer_values(tracer, traced_seconds: float, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from a tracer's scopes.

    `extra` supplies the host and trace metrics, which the tracer cannot see.
    """
    out = {}
    for name in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
            continue
        key, stat = name.rsplit(".", 1)
        scope = tracer.scopes.get(key)
        if stat == "points_per_call":
            out[name] = tracer.at_points / scope.calls if scope and scope.calls else 0.0
        elif scope is None:
            out[name] = 0
        elif stat == "calls":
            # det recurses into its minors; only the outermost calls count
            out[name] = scope.outer if key == "ring.PolyMatrix.det" else scope.calls
        elif stat == "busy_share":
            out[name] = scope.busy / traced_seconds
        else:
            out[name] = scope.self_time / traced_seconds
    return out
