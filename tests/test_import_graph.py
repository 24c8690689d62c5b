"""The package's modules import each other one way, at module level only:
lti, pwl -> dual -> {fenchel, extract} -> experiments -> cli."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from multilevel_control import dual, extract

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multilevel_control"


def _relative_imports(node, inside_function=False):
    """(imported module, inside a function) for each relative import under ``node``."""
    for child in ast.iter_child_nodes(node):
        nested = inside_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(child, ast.ImportFrom) and child.level:
            names = [child.module] if child.module else [alias.name for alias in child.names]
            yield from ((name.split(".")[0], inside_function) for name in names)
        yield from _relative_imports(child, nested)


def import_graph():
    """Module name -> the package modules it imports at module level, and
    the (module, imported module) pairs imported inside a function."""
    graph, in_functions = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        imports = list(_relative_imports(ast.parse(path.read_text(), filename=str(path))))
        graph[path.stem] = {name for name, nested in imports if not nested}
        in_functions += [(path.stem, name) for name, nested in imports if nested]
    return graph, in_functions


def test_no_package_import_inside_a_function():
    assert import_graph()[1] == []


def test_module_level_imports_have_no_cycle():
    graph = import_graph()[0]
    assert {"dual", "extract", "fenchel"} <= graph.keys()
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"the package imports form a cycle: {exc.args[1]}") from None
    assert order.index("dual") < min(order.index("fenchel"), order.index("extract"))


def test_dual_imports_neither_extraction_nor_the_primal_lp():
    assert import_graph()[0]["dual"] <= {"lti", "pwl"}
    # extraction re-exports the crossing search itself, not a wrapper: a
    # wrapper installed wherever the object is held (perfbench/tracing.py)
    # then counts the calls from ExactEvaluator.pieces
    assert extract.find_switchings is dual.find_switchings


def test_extraction_imports_only_the_dual():
    # the degenerate selection solves no LP: fenchel solves LPs only to
    # check results
    assert import_graph()[0]["extract"] == {"dual"}
