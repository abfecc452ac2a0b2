"""Prepared queries: parse and plan once, execute many times.

A :class:`PreparedQuery` is the unit the service layer's plan cache
stores: the parsed AST plus the compiled physical plan
(:class:`~repro.sparql.operators.SubPlan`) for one query *template*.
Re-executing it skips the tokenizer, the parser and the planner — only
the streaming operators run, reseeded for each execution.

Two properties of the operator layer make this safe:

- operators keep per-execution state inside their ``rows()``
  generators (hash tables, DISTINCT sets, heaps), so a pipeline can be
  pulled again from scratch — OPTIONAL's left join already relies on
  re-running sub-plans per outer row;
- ``PlanNode.mark_executed()`` zeroes the actual-row counters at the
  start of every execution, so EXPLAIN actuals always describe the
  most recent run.

What is *not* safe is pulling the same prepared plan from two threads
at once (the seed row and the plan counters are shared); the service
executes requests for one dataset strictly serially, which is also
what keeps its traces deterministic.

Parameters are bound through the *seed row*: a template written with a
free variable (``SELECT ?name WHERE { ?s ?kindOf ?name }``) can be
executed with ``bindings={"kindOf": IRI(...)}``; every scan that
mentions the variable then treats it as a constant, exactly as if the
pipeline had been seeded by an outer join row. This is what lets many
parameterizations share one cache entry.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..rdf.graph import Graph
from ..rdf.terms import Term
from .ast import AskQuery, SelectQuery
from .evaluator import Context, eval_query
from .parser import parse_query
from .plan import plan_query
from .results import SPARQLResult

__all__ = ["PreparedQuery", "prepare"]

#: Query forms whose compiled plans are reused across executions.
_REUSABLE_FORMS = (SelectQuery, AskQuery)


class PreparedQuery:
    """One parsed + planned query template, bound to one graph."""

    __slots__ = ("graph", "text", "ast", "sub", "executions",
                 "stats", "stats_version")

    def __init__(self, graph: Graph, text: str, ast, sub,
                 stats=None, stats_version=None):
        self.graph = graph
        self.text = text
        self.ast = ast
        self.sub = sub  # None for non-reusable forms (CONSTRUCT...)
        self.executions = 0
        #: StatsStore the plan was compiled against (None = no feedback).
        self.stats = stats
        #: The store's version at planning time; a later version means
        #: feedback has materially changed and the plan may be stale.
        self.stats_version = stats_version

    @property
    def reusable(self) -> bool:
        """Whether executions reuse the compiled plan (SELECT/ASK)."""
        return self.sub is not None

    def run(self, bindings: Optional[Dict[str, Term]] = None,
            budget=None, tracer=None,
            service_resolver=None, replan_ratio=None,
            trace_id=None) -> SPARQLResult:
        """Execute the prepared plan; parsing and planning are skipped.

        ``bindings`` maps template variable names (no ``?``) to RDF
        terms; they seed the pipeline's initial solution.

        When the template was prepared with a :class:`StatsStore`, each
        execution's profile flows back into it; ``replan_ratio``
        additionally arms mid-query join re-ordering. ``trace_id`` is a
        caller-assigned correlation id stamped on the root span and the
        result (the service's query log joins on it).
        """
        ctx = Context(self.graph, service_resolver=service_resolver,
                      budget=budget, tracer=tracer, stats=self.stats,
                      replan_ratio=replan_ratio, trace_id=trace_id)
        seed = [dict(bindings)] if bindings else None
        result = eval_query(self.ast, ctx, sub=self.sub, seed_rows=seed)
        self.executions += 1
        if budget is not None:
            result.budget_stats = budget.snapshot()
        return result

    def explain(self) -> str:
        """Rendered plan of the compiled template (estimates only until
        the first execution fills in actuals)."""
        if self.sub is None:
            return "(non-reusable query form; planned per execution)"
        if self.sub.root.id is None:
            self.sub.root.assign_ids()
        return self.sub.root.render()

    def __repr__(self) -> str:
        head = self.text.strip().splitlines()[0][:60]
        return (f"<PreparedQuery {head!r} reusable={self.reusable} "
                f"executions={self.executions}>")


def prepare(graph: Graph, text: str,
            service_resolver=None, stats=None) -> PreparedQuery:
    """Parse and plan *text* against *graph* once, for many executions.

    SELECT and ASK compile to a reusable pipeline; other query forms
    still get their parse cached but re-plan per execution. When a
    :class:`StatsStore` is given the planner consults its feedback and
    the prepared query records the store's version, so caches can tell
    when accumulated feedback has made the plan stale.
    """
    ast = parse_query(text, namespaces=graph.namespaces)
    sub = None
    if isinstance(ast, _REUSABLE_FORMS):
        ctx = Context(graph, service_resolver=service_resolver, stats=stats)
        sub = plan_query(ast, ctx)
        sub.root.assign_ids()
    return PreparedQuery(
        graph, text, ast, sub, stats=stats,
        stats_version=stats.version if stats is not None else None)
