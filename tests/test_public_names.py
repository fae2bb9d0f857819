"""Every public name of the library has a caller in the library.

The names checked are those `dvbcalc/__init__.py` exports, the public
module-level functions and classes of the submodules and the public methods
of their public classes.  Each must be read somewhere in `src/dvbcalc`
outside `__init__.py` and outside its own definition, or be in KEPT, which
says what keeps it.  Code that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

from test_bench_names import function_scopes

SRC = Path(__file__).resolve().parent.parent / "src" / "dvbcalc"

# "module.name" or "module.Class.method" -> what keeps it without a caller
KEPT = {
    "core.core_difference": "perfbench traces it (core.structure_ops)",
    "core.fiber_sub": "perfbench traces it (core.structure_ops)",
    "duality.pair_l": "perfbench traces it (duality.pair)",
    "duality.pair_r": "perfbench traces it (duality.pair)",
    "ring.MultiPoly.eval": "perfbench traces it (ring.MultiPoly.eval)",
    "ring.mat_inverse_frac": "perfbench traces it (ring.frac_linalg)",
    "ring.solve_fraction_free": "perfbench traces it (ring.frac_linalg)",
}

MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}


def public_names() -> dict[str, str]:
    """Each checked name, keyed "module.name" or "module.Class.method",
    mapped to the name a reference reads."""
    out = {
        f"{node.module.lstrip('.')}.{alias.asname or alias.name}": alias.asname or alias.name
        for node in MODULES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for module, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        out[f"{module}.{node.name}.{item.name}"] = item.name
    return out


def referenced(name: str) -> bool:
    """Whether a module other than `__init__` reads `name` as a name or an
    attribute outside a definition of that name."""

    def reads(node) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return False
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        return any(reads(child) for child in ast.iter_child_nodes(node))

    return any(reads(tree) for module, tree in MODULES.items() if module != "__init__")


def test_every_public_name_has_a_caller_in_the_library():
    unused = sorted(
        key for key, name in public_names().items() if key not in KEPT and not referenced(name)
    )
    assert not unused, unused


def test_every_kept_name_is_public_unused_and_traced():
    names, traced = public_names(), set(function_scopes())
    for key in KEPT:
        assert key in names and not referenced(names[key]), key
        assert key in traced, key
