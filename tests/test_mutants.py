"""The mutant list of `tools/mutants.py` is fixed and each mutant is one swap.

The runner itself starts processes and takes about half an hour, so it is
not part of the tests; these checks start none and read only the sources,
so a change to `src/` that the list builder cannot handle fails here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = mutants
spec.loader.exec_module(mutants)


def swap_back(node: ast.expr) -> ast.expr:
    """`node` with its own operator swapped through the runner's table."""
    if isinstance(node, ast.Compare):
        node.ops = [mutants.SWAPS[type(node.ops[0])]()]
    else:
        node.op = mutants.SWAPS[type(node.op)]()
    return node


def test_mutant_list_is_fixed():
    first = mutants.sites()
    mutants._tree.cache_clear()
    assert mutants.sites() == first
    order = [
        (mutants.MODULES.index(s.module), s.line, s.col, s.end_line, s.end_col) for s in first
    ]
    assert order == sorted(order) and len({str(s) for s in first}) == len(first)
    assert {s.module for s in first} == set(mutants.MODULES)


def test_each_mutant_differs_from_its_module_at_one_site_and_compiles():
    for site in mutants.sites():
        source = mutants._tree(site.module)[0].splitlines(keepends=True)
        lines = [line.encode() for line in source[site.line - 1 : site.end_line]]
        lines[-1] = lines[-1][: site.end_col]
        lines[0] = lines[0][site.col :]
        span = b"".join(lines).decode()
        node = mutants._tree(site.module)[1][site.line, site.col, site.end_line, site.end_col]
        # the span is exactly the site's expression
        original = ast.parse(f"({span})", mode="eval").body
        assert ast.dump(original) == ast.dump(node), site
        text = mutants.mutated_expression(site)
        compile(text, site.where, "eval")
        mutated = ast.parse(text, mode="eval").body
        assert text.count("\n") == site.end_line - site.line
        assert ast.dump(mutated) != ast.dump(original), site
        assert ast.dump(swap_back(mutated)) == ast.dump(original), site
    # the whole module, for the first site of each
    for module in mutants.MODULES:
        site = next(s for s in mutants.sites() if s.module == module)
        compile(mutants.mutant_source(site), site.where, "exec")
