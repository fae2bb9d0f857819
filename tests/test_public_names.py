"""Every public name of the library has a caller in the library.

The names checked are those `dvbcalc/__init__.py` exports, the public
module-level functions and classes of the submodules and the public methods
of their public classes.  Each must be reached by a reference in
`src/dvbcalc` outside `__init__.py`, outside its own definition and outside
every KEPT definition, or be in KEPT, which says what keeps it.  Code that
only the tests call belongs in the tests.

A reference reaches a definition only as Python binds it.  A module-level
name is read where no local binding shadows it, in its own module or through
a `from .module import name`.  A method is read as an attribute of an
expression whose class is known here (`self`, an annotated parameter, a
constructor call, an annotated return, property or field, or a local
assigned from one of these), and resolves through that class and its bases.
An attribute read whose receiver has no known class reaches a method only
when no other class member of the library has its spelling, so a
same-spelled method of another class, or a local variable, is never a caller.

The scan cannot type the operands of an operator, so the arithmetic dunders
that the benchmark's tracer wraps are checked by a run instead: on the
polynomial, matrix and form classes, each must be called by the library in a
few `run_suite("all")` rounds and in `dvb lift complete`.  None is kept for
perfbench alone: its per-layer metrics name only `__mul__` and `__add__` of
`MultiPoly`, which the library calls.
"""

import ast
import importlib
from pathlib import Path

from dvbcalc import cli
from dvbcalc.scenario import gen_random_scenario, scenario_to_text
from dvbcalc.suites import run_suite
from test_bench_names import function_scopes, tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "dvbcalc"

# "module.name" or "module.Class.method" -> what keeps it without a caller
KEPT = {
    "core.core_difference": "perfbench traces it (core.structure_ops)",
    "core.fiber_sub": "perfbench traces it (core.structure_ops)",
    "duality.pair_l": "perfbench traces it (duality.pair)",
    "duality.pair_r": "perfbench traces it (duality.pair)",
    "ring.MultiPoly.eval": "perfbench traces it (ring.MultiPoly.eval)",
    "ring.PolyMatrix.det": "perfbench traces it (ring.PolyMatrix.det)",
    "ring.mat_inverse_frac": "perfbench traces it (ring.frac_linalg)",
    "ring.solve_fraction_free": "perfbench traces it (ring.frac_linalg)",
}

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTION_DEFS, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (*DEFINITIONS, ast.Lambda, *COMPREHENSIONS)
PROPERTIES = {"property", "cached_property"}


def _body(node) -> list:
    return node.body if isinstance(node.body, list) else [node.body]


def _targets(node) -> list:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _decorators(node) -> set[str]:
    return {d.id for d in getattr(node, "decorator_list", ()) if isinstance(d, ast.Name)}


def _own_nodes(node):
    """The nodes of a scope's body, in source order, not entering the
    scopes inside it."""
    stack = list(reversed(_body(node)))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, SCOPES):
            stack += reversed(list(ast.iter_child_nodes(child)))


def _local_names(node) -> set[str]:
    """The names a scope binds."""
    if isinstance(node, COMPREHENSIONS):
        targets = [gen.target for gen in node.generators]
        return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    names, declared = set(), set()
    if isinstance(node, (*FUNCTION_DEFS, ast.Lambda)):
        a = node.args
        names |= {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if arg}
    for child in _own_nodes(node):
        if isinstance(child, DEFINITIONS):
            names.add(child.name)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            declared |= set(child.names)
        elif isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in child.names}
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
    return names - declared


class Scope:
    """A module, function, lambda, comprehension or class body: the names
    it binds, and the types known for its locals."""

    def __init__(self, module: str, node=None, parent=None):
        self.module, self.node, self.parent, self.env = module, node, parent, {}
        self.names = set() if node is None else _local_names(node)

    def lookup(self, name: str):
        """The scope that binds `name`, or None for a module-level name.  A
        class body's names are not seen from the functions inside it."""
        scope = self
        while scope.node is not None:
            if name in scope.names and (scope is self or not isinstance(scope.node, ast.ClassDef)):
                return scope
            scope = scope.parent
        return None


class Library:
    """The definitions, bindings and references of a package's modules.

    A type is ("inst", class key) for an instance, ("cls", class key) for a
    class, or ("def", key) for a function or method.
    """

    def __init__(self, modules: dict[str, ast.Module]):
        self.modules = modules
        # each module's top-level names -> the key of the definition each binds
        self.bindings = {module: {} for module in modules}
        self.defs = {}  # "module.name" / "module.Class.method" -> (module, node)
        self.fields = {}  # "module.Class.field" -> (module, annotation)
        for module, tree in modules.items():
            names = self.bindings[module]
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for target in _targets(node):
                        names.update(
                            (n.id, f"{module}.{n.id}") for n in ast.walk(target) if isinstance(n, ast.Name)
                        )
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    names.update(
                        (alias.asname or alias.name, f"{node.module}.{alias.name}")
                        for alias in node.names
                    )
                elif isinstance(node, DEFINITIONS):
                    cls = names[node.name] = f"{module}.{node.name}"
                    self.defs[cls] = module, node
                    for item in node.body if isinstance(node, ast.ClassDef) else ():
                        if isinstance(item, FUNCTION_DEFS):
                            self.defs[f"{cls}.{item.name}"] = module, item
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            self.fields[f"{cls}.{item.target.id}"] = module, item.annotation
        for names in self.bindings.values():
            for name, key in names.items():
                names[name] = self._origin(key)
        self.bases = {  # "module.Class" -> base class keys
            cls: [self.bindings[module].get(b.id) for b in node.bases if isinstance(b, ast.Name)]
            for cls, (module, node) in self.defs.items()
            if isinstance(node, ast.ClassDef)
        }
        # a class member's spelling -> the keys of the class members so spelled
        self.spellings = {}
        for key in [*(key for key in self.defs if key.count(".") == 2), *self.fields]:
            self.spellings.setdefault(key.rsplit(".", 1)[1], []).append(key)

    def _origin(self, key: str) -> str:
        """The key of the definition `key` binds, through re-exports."""
        module, _, name = key.partition(".")
        hop = self.bindings.get(module, {}).get(name)
        return key if hop in (None, key) else self._origin(hop)

    def public_names(self) -> set[str]:
        exported = {
            f"{node.module}.{alias.name}"
            for node in self.modules["__init__"].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        return exported | {
            key
            for key, (module, _) in self.defs.items()
            if module != "__init__" and all(part[0] != "_" for part in key.split(".")[1:])
        }

    def annotation_types(self, module: str, node) -> set:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation_types(module, ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.annotation_types(module, node.left) | self.annotation_types(module, node.right)
        if isinstance(node, ast.Name) and self.bindings[module].get(node.id) in self.bases:
            return {("inst", self.bindings[module][node.id])}
        return set()

    def returns(self, key: str) -> set:
        module, node = self.defs[key]
        return set() if isinstance(node, ast.ClassDef) else self.annotation_types(module, node.returns)

    def member(self, cls: str, attr: str):
        """The key of `cls`'s member `attr`, looked up through its bases."""
        if f"{cls}.{attr}" in self.defs or f"{cls}.{attr}" in self.fields:
            return f"{cls}.{attr}"
        found = (self.member(base, attr) for base in self.bases[cls] if base in self.bases)
        return next((key for key in found if key is not None), None)

    def infer(self, node, scope: Scope) -> set:
        """The types `node` may have; empty when none is known."""
        if isinstance(node, ast.Name):
            owner = scope.lookup(node.id)
            if owner is not None:
                return owner.env.get(node.id, set())
            key = self.bindings[scope.module].get(node.id)
            if key in self.bases:
                return {("cls", key)}
            return {("def", key)} if key in self.defs else set()
        out = set()
        if isinstance(node, ast.Attribute):
            for kind, cls in self.infer(node.value, scope):
                key = self.member(cls, node.attr) if kind != "def" else None
                if key in self.fields:
                    out |= self.annotation_types(*self.fields[key]) if kind == "inst" else set()
                elif key is not None and kind == "inst" and _decorators(self.defs[key][1]) & PROPERTIES:
                    out |= self.returns(key)
                elif key is not None:
                    out.add(("def", key))
        elif isinstance(node, ast.Call):
            for kind, key in self.infer(node.func, scope):
                out |= {("inst", key)} if kind == "cls" else self.returns(key) if kind == "def" else set()
        elif isinstance(node, ast.IfExp):
            out = self.infer(node.body, scope) | self.infer(node.orelse, scope)
        return out

    def _enter(self, node, parent: Scope, cls=None) -> Scope:
        """The scope of a function, lambda or comprehension, with its
        parameters and assigned locals typed."""
        scope = Scope(parent.module, node, parent)
        if isinstance(node, FUNCTION_DEFS):
            a = node.args
            method = cls is not None and "staticmethod" not in _decorators(node)
            for i, arg in enumerate([*a.posonlyargs, *a.args, *a.kwonlyargs]):
                scope.env[arg.arg] = (
                    {("inst", cls)} if method and i == 0
                    else self.annotation_types(scope.module, arg.annotation)
                )
        assignments = [
            child for child in _own_nodes(node)
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
        ] if not isinstance(node, COMPREHENSIONS) else []
        for _ in range(2):  # the second pass sees locals assigned from later ones
            for stmt in assignments:
                types = (
                    self.annotation_types(scope.module, stmt.annotation)
                    if isinstance(stmt, ast.AnnAssign)
                    else self.infer(stmt.value, scope)
                )
                for target in _targets(stmt):
                    if isinstance(target, ast.Name):
                        scope.env.setdefault(target.id, set()).update(types)
        return scope

    def references(self):
        """Each (key, keys of the enclosing definitions) that a read in a
        module other than `__init__` reaches."""
        found = []

        def visit(node, scope: Scope, within: tuple, cls=None):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if scope.lookup(node.id) is None and node.id in self.bindings[scope.module]:
                    found.append((self.bindings[scope.module][node.id], within))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = self.infer(node.value, scope)
                for kind, owner in receiver:
                    key = self.member(owner, node.attr) if kind != "def" else None
                    if key in self.defs:
                        found.append((key, within))
                if not receiver and len(self.spellings.get(node.attr, ())) == 1:
                    found.append((self.spellings[node.attr][0], within))
            if isinstance(node, (*DEFINITIONS, ast.Lambda)):
                # decorators, bases, defaults and annotations are read outside
                outside = [*getattr(node, "decorator_list", ()), *getattr(node, "bases", ())]
                outside += [*getattr(node, "keywords", ()), getattr(node, "returns", None)]
                outside += list(ast.iter_child_nodes(node.args)) if hasattr(node, "args") else []
                for child in filter(None, outside):
                    visit(child, scope, within)
                if not isinstance(node, ast.Lambda):
                    key = f"{within[-1]}.{node.name}" if within else f"{scope.module}.{node.name}"
                    within = within + (key,)
                if isinstance(node, ast.ClassDef):
                    inner = Scope(scope.module, node, scope)
                    for child in node.body:
                        visit(child, inner, within, cls=within[-1])
                    return
                inner = self._enter(node, scope, cls)
                for child in _body(node):
                    visit(child, inner, within)
                return
            if isinstance(node, COMPREHENSIONS):
                scope = self._enter(node, scope)
            for child in ast.iter_child_nodes(node):
                visit(child, scope, within)

        for module, tree in self.modules.items():
            if module != "__init__":
                for node in tree.body:
                    visit(node, Scope(module), ())
        return found

    def unreached(self, kept=()) -> set[str]:
        """The public names that no reference reaches from outside their
        own definition and the `kept` definitions."""
        reached = {
            key
            for key, within in self.references()
            if key not in within and not any(outer in kept for outer in within)
        }
        return self.public_names() - reached


LIBRARY = Library(
    {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
)


def test_every_public_name_has_a_caller_in_the_library():
    assert sorted(LIBRARY.unreached(KEPT) - set(KEPT)) == []


def test_every_kept_name_is_public_unused_and_traced():
    names, unused, traced = LIBRARY.public_names(), LIBRARY.unreached(KEPT), set(function_scopes())
    for key in KEPT:
        assert key in names and key in unused, key
        assert key in traced, key


ARITHMETIC = ("ring.MultiPoly", "ring.PolyMatrix", "forms.DifferentialForm")


def _counted(method, calls: dict, key: str):
    def counted(*args):
        calls[key] += 1
        return method(*args)

    return counted


def test_every_arithmetic_dunder_has_a_caller_in_the_library(monkeypatch, tmp_path, capsys):
    calls = {}
    for owner in ARITHMETIC:
        module, name = owner.split(".")
        cls = getattr(importlib.import_module(f"dvbcalc.{module}"), name)
        for dunder in set(tracer.WRAPPED_DUNDERS) & set(vars(cls)):
            key = f"{owner}.{dunder}"
            calls[key] = 0
            monkeypatch.setattr(cls, dunder, _counted(vars(cls)[dunder], calls, key))
    for seed in range(3):
        run_suite("all", gen_random_scenario(seed))
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_text(gen_random_scenario(0)), encoding="utf-8")
    for kind in ("tangent", "cotangent"):
        assert cli.main(["lift", "complete", "--scenario", str(path), "--kind", kind]) == 0
    assert "ring.MultiPoly.__mul__" in calls
    assert sorted(key for key, count in calls.items() if not count) == []


PACKAGE = {
    "__init__": "from .shapes import Square, area",
    "shapes": '''
class Square:
    side: int

    def area(self) -> int:
        return self.side * self.side

    def grow(self) -> "Square":
        return Square(self.side + 1)

    def label(self):
        return "square"


class Circle:
    def area(self):
        return 3

    def label(self):
        return "circle"

    def unique(self):
        return self.label()


def area(shape):
    return shape.area()


def report(unknown, square: Square):
    area = 1
    grown = square.grow()
    return area, grown.area(), unknown.label(), unknown.unique(), report
''',
}


def test_a_reference_reaches_only_its_own_definition():
    # the function `area` is shadowed by a local, `unknown` has no known
    # class, two classes spell `area` and `label`, and only Circle spells
    # `unique`; `report` reads itself, which is no caller
    library = Library({name: ast.parse(text) for name, text in PACKAGE.items()})
    unreached = {
        "shapes.Circle",
        "shapes.Circle.area",
        "shapes.Square.label",
        "shapes.area",
        "shapes.report",
    }
    assert library.unreached() == unreached
    # a kept definition's reads count for nothing
    assert library.unreached(kept={"shapes.report"}) == unreached | {
        "shapes.Circle.unique",
        "shapes.Square.area",
        "shapes.Square.grow",
    }
