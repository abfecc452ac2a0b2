"""Layering lint: the SPARQL core imports as a DAG, at module top.

``repro.sparql`` runs a query through ``evaluator -> plan -> operators
-> expr``; operators that need a nested group or query (EXISTS,
sub-SELECT) call back through the ``Context`` they are given. A
function-local import between these modules is how a back-edge of the
chain would hide, so none is allowed there. Modules outside
``repro.sparql`` use its public names only: an underscore-prefixed
import is a private copy of engine behaviour waiting to drift.
"""

import ast
import pathlib

import pytest

pytestmark = pytest.mark.tier1

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
SPARQL = SRC / "repro" / "sparql"

#: The core modules whose imports of ``repro.sparql`` must sit at top.
CORE = ("evaluator.py", "plan.py", "operators.py", "expr.py", "prepared.py")


def _package_of(path: pathlib.Path) -> str:
    """Dotted package holding the module at *path* (under src/)."""
    return ".".join(path.relative_to(SRC).parent.parts)


def _targets(node, package: str):
    """``(module, names)`` pairs an import statement reaches, resolved
    to absolute module names."""
    if isinstance(node, ast.Import):
        return [(alias.name, []) for alias in node.names]
    parts = package.split(".")
    if node.level:
        parts = parts[:len(parts) - (node.level - 1)]
        base = ".".join(parts)
    else:
        base = ""
    if node.module is None:  # ``from . import x``: x may be a module
        return [(f"{base}.{alias.name}", []) for alias in node.names]
    module = f"{base}.{node.module}" if base else node.module
    return [(module, [alias.name for alias in node.names])]


def _is_sparql(module: str) -> bool:
    return module == "repro.sparql" or module.startswith("repro.sparql.")


def local_sparql_imports(source: str, package: str, name: str = "<src>"):
    """Function-local imports of a ``repro.sparql`` module."""
    offenders = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module, __ in _targets(node, package):
                if _is_sparql(module):
                    offenders.append(
                        f"{name}:{node.lineno}: {func.name}() imports "
                        f"{module}")
    return sorted(set(offenders))


def private_sparql_imports(source: str, package: str, name: str = "<src>"):
    """Underscore-prefixed names imported from ``repro.sparql.*``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module, names in _targets(node, package):
            if not _is_sparql(module):
                continue
            for imported in names:
                if imported.startswith("_"):
                    offenders.append(
                        f"{name}:{node.lineno}: {imported} from {module}")
    return offenders


def test_sparql_core_imports_sit_at_module_top():
    offenders = []
    for filename in CORE:
        path = SPARQL / filename
        offenders += local_sparql_imports(
            path.read_text(), _package_of(path),
            name=path.relative_to(REPO).as_posix())
    assert not offenders, (
        "function-local imports inside the SPARQL core (move them to "
        "module top; reach upper layers through the Context):\n"
        + "\n".join(offenders))


def test_no_private_sparql_names_outside_the_package():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if SPARQL in path.parents:
            continue
        offenders += private_sparql_imports(
            path.read_text(), _package_of(path),
            name=path.relative_to(REPO).as_posix())
    assert not offenders, (
        "private repro.sparql names imported from outside the package "
        "(make the name public or call the engine's entry point):\n"
        + "\n".join(offenders))


def test_lint_catches_what_it_forbids():
    local = (
        "from .results import Solution\n"
        "def f():\n"
        "    from .evaluator import eval_query\n"
        "    from . import plan\n"
        "    import repro.sparql.expr\n"
        "    from ..geometry import wkt_loads\n"
    )
    found = local_sparql_imports(local, "repro.sparql")
    assert [line.split(" imports ")[1] for line in found] == [
        "repro.sparql.evaluator", "repro.sparql.plan", "repro.sparql.expr"]

    private = (
        "from ..sparql.operators import _HashJoiner, SubPlan\n"
        "from repro.sparql.evaluator import _eval_select\n"
        "from ..sparql import query\n"
        "from ..madis import _private\n"
    )
    found = private_sparql_imports(private, "repro.ontop")
    assert [line.split(": ", 1)[1] for line in found] == [
        "_HashJoiner from repro.sparql.operators",
        "_eval_select from repro.sparql.evaluator",
    ]
