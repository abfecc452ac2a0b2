"""SPARQL 1.1 subset engine with GeoSPARQL and temporal extensions.

Entry point::

    from repro.sparql import query
    result = query(graph, "SELECT ?s WHERE { ?s a <...> }")
"""

from typing import Callable, Optional

from ..geometry import clear_geometry_cache
from ..rdf.graph import Graph
from .evaluator import Context, eval_group, eval_query, explain_query
from .expr import EvaluationError
from .plan import PlanNode
from .functions import (
    SparqlValueError,
    geometry_from_term,
    geometry_to_term,
    register_extension,
)
from .parser import parse_query
from .prepared import PreparedQuery, prepare
from .results import SPARQLResult
from .stats import StatsStore
from .tokenizer import SparqlSyntaxError
from .update import UpdateResult, update

__all__ = [
    "Context",
    "EvaluationError",
    "PlanNode",
    "PreparedQuery",
    "SPARQLResult",
    "StatsStore",
    "explain",
    "SparqlSyntaxError",
    "SparqlValueError",
    "clear_geometry_cache",
    "eval_group",
    "eval_query",
    "geometry_from_term",
    "geometry_to_term",
    "parse_query",
    "prepare",
    "query",
    "register_extension",
    "update",
    "UpdateResult",
]


def query(graph: Graph, text: str,
          service_resolver: Optional[Callable] = None,
          budget=None, tracer=None, stats=None,
          replan_ratio=None, spill_threshold=None,
          spill_dir=None) -> SPARQLResult:
    """Parse and evaluate a (Geo)SPARQL query against *graph*.

    ``service_resolver(endpoint_iri, group)`` is called for SERVICE
    patterns; see :mod:`repro.sparql.federation`.

    ``budget`` is an optional :class:`~repro.governance.QueryBudget`;
    when given, evaluation is cooperatively cancellable (deadline, row
    and scan limits) and the result carries ``budget_stats``.

    ``tracer`` is an optional :class:`~repro.observability.Tracer`;
    when given, execution builds a trace tree mirroring the plan
    (``result.trace``) and ``result.profile()`` reports per-operator
    timings keyed by the EXPLAIN node ids.

    ``stats`` is an optional :class:`StatsStore`: the planner consults
    its recorded per-operator feedback before index statistics, and the
    executed profile flows back into it afterwards. ``replan_ratio``
    (float > 1) additionally arms mid-query join re-ordering when a
    scan's actuals diverge from its estimate by that factor.

    ``spill_threshold`` (row count) bounds the in-memory build side of
    the VALUES / sub-select / SERVICE hash joins; larger build sides
    spill sorted partition files to ``spill_dir`` with output
    byte-identical to the in-memory join — see
    :class:`~repro.sparql.evaluator.Context`.
    """
    ast = parse_query(text, namespaces=graph.namespaces)
    ctx = Context(graph, service_resolver=service_resolver, budget=budget,
                  tracer=tracer, stats=stats, replan_ratio=replan_ratio,
                  spill_threshold=spill_threshold, spill_dir=spill_dir)
    result = eval_query(ast, ctx)
    if budget is not None:
        result.budget_stats = budget.snapshot()
    return result


def explain(graph: Graph, text: str,
            service_resolver: Optional[Callable] = None,
            budget=None, stats=None, spill_threshold=None,
            spill_dir=None) -> PlanNode:
    """Plan a query without executing it (the EXPLAIN entry point).

    Returns the root :class:`~repro.sparql.plan.PlanNode`; render it
    with ``.render()``. Estimated per-operator rows are filled in from
    the graph's index statistics — or from ``stats`` feedback when a
    store is given (``src=feedback`` in the rendering); actual rows
    show as ``-`` because nothing ran. To see estimates next to
    actuals, run :func:`query` and render ``result.plan`` instead.
    """
    ast = parse_query(text, namespaces=graph.namespaces)
    ctx = Context(graph, service_resolver=service_resolver, budget=budget,
                  stats=stats, spill_threshold=spill_threshold,
                  spill_dir=spill_dir)
    return explain_query(ast, ctx)
