"""Per-module call counters and timers for dvbcalc, installed by patching.

`Tracer.install()` replaces every public function and method of the dvbcalc
modules with a timing wrapper, and rebinds every name that refers to the
original in any dvbcalc module (for example `suites.fiber_add`, bound by
`from .core import fiber_add`).  `Tracer.uninstall()` puts every original
back.  Nothing in dvbcalc is edited.

Counters are aggregated per scope, never kept per call, so memory stays
bounded however many `MultiPoly.eval` calls a run makes.  A scope is one
function, one module (a layer), or one named group of functions.  For each
scope the tracer keeps:

* `calls`: every call, recursive ones included;
* `outer`: calls made while no other call of the same scope was running;
* `busy`: wall time inside outermost calls of the scope;
* `self`: wall time inside the scope's calls minus the time spent in nested
  wrapped calls (of any scope).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

LAYERS = ("ring", "core", "duality", "forms", "geomech", "scenario", "suites", "cli")

# Arithmetic dunders are the ring's hot entry points; other dunders
# (__eq__, __hash__, __init__, ...) stay unwrapped.
WRAPPED_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__")

GROUPS = {
    "ring.frac_linalg": ("ring.solve_fraction_free", "ring.mat_inverse_frac"),
    "core.structure_ops": (
        "core.fiber_add",
        "core.fiber_scale",
        "core.fiber_sub",
        "core.kernel_split",
        "core.core_difference",
    ),
    "core.poly_algebra": ("core.compose_morphisms", "core.invert_morphism_poly"),
    "duality.pair": ("duality.pair_r", "duality.pair_l"),
    "duality.third_dual": (
        "duality.third_dual_transport",
        "duality.naive_third_dual_transport",
        "duality.canonical_R",
        "duality.canonical_R_morphism",
        "duality.verify_R_relation",
    ),
}

# These return a PointwiseMorphism whose per-point work runs later, inside
# its `blocks_at` closure; the closure is timed in the function's layer and
# group scopes.
DEFERRED = ("duality.third_dual_transport", "duality.naive_third_dual_transport")


@dataclass
class Scope:
    calls: int = 0
    outer: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    depth: int = 0


def _short(name: str) -> str:
    return name.strip("_") if name in WRAPPED_DUNDERS else name


class Tracer:
    def __init__(self) -> None:
        self.scopes: dict[str, Scope] = {}
        self._child = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._at_points: set = set()
        self._at_alive: dict[int, object] = {}
        self.at_points = 0
        self.originals: dict[str, object] = {}

    def scope(self, key: str) -> Scope:
        if key not in self.scopes:
            self.scopes[key] = Scope()
        return self.scopes[key]

    # -- the wrapper -------------------------------------------------------

    def _timed(self, fn, scopes: tuple[Scope, ...], by_first_arg: str | None = None):
        child = self._child
        clock = time.perf_counter
        tracer = self

        def run(args, kwargs):
            active = scopes
            if by_first_arg is not None and args:
                active = scopes + (tracer.scope(f"{by_first_arg}.{args[0]}"),)
            for s in active:
                s.calls += 1
                if s.depth == 0:
                    s.outer += 1
                s.depth += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - child.pop()
                child[-1] += elapsed
                for s in active:
                    s.self_time += own
                    s.depth -= 1
                    if s.depth == 0:
                        s.busy += elapsed

        return run

    def _wrap(self, key: str, fn):
        self.originals[key] = fn
        layer = key.split(".", 1)[0]
        scopes = (self.scope(key), self.scope(layer)) + tuple(
            self.scope(group) for group, members in GROUPS.items() if key in members
        )
        run = self._timed(fn, scopes, "suites.run_suite" if key == "suites.run_suite" else None)

        if key == "core.DVBMorphism.at":
            points, alive = self._at_points, self._at_alive

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                morphism, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
                # The morphism is kept alive until the task ends so that its
                # id cannot be reused for another morphism meanwhile.
                alive[id(morphism)] = morphism
                points.add((id(morphism), tuple(x)))
                return run(args, kwargs)

        elif key in DEFERRED:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                pointwise = run(args, kwargs)
                # The closure's time joins the layer and group scopes, not
                # the calls of the transport function itself.
                blocks = self._timed(pointwise.blocks_at, scopes[1:])
                return type(pointwise)(
                    pointwise.source, pointwise.target, lambda x: blocks((x,), {})
                )

        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return run(args, kwargs)

        return wrapper

    # -- installing and removing -------------------------------------------

    def install(self, package) -> None:
        """Wrap every public callable defined in the package's layer modules."""
        layers = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        # Keyed by id: the originals stay referenced by their modules, so
        # no other live object can share an id with one of them.
        wrappers: dict[int, object] = {}
        for layer, module in layers.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(layer, obj)
                elif callable(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in (package, *layers.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])

    def _install_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{_short(name)}"
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(key, attr.__func__)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(key, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(key, attr))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def end_task(self) -> None:
        """Fold the task's distinct `DVBMorphism.at` points into the count."""
        self.at_points += len(self._at_points)
        self._at_points.clear()
        self._at_alive.clear()
