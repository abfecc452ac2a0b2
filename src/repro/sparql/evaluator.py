"""SPARQL query execution: the context, the query forms, EXPLAIN.

The top of the engine's import chain ``evaluator -> plan -> operators
-> expr``:

- :mod:`repro.sparql.expr` evaluates expressions and aggregates;
- :mod:`repro.sparql.operators` streams solutions on
  dictionary-encoded ids;
- :mod:`repro.sparql.plan` compiles the AST into a physical plan
  (join ordering, filter/spatial pushdown, top-k selection).

This module holds the per-query :class:`Context` and the executors of
the four query forms: each plans the query (or takes a prepared plan),
pulls it, charges the result-row budget at the single operator
boundary, and attaches the executed plan to the
:class:`~repro.sparql.results.SPARQLResult` for EXPLAIN. Operators
that run a nested group or query (EXISTS, sub-SELECT) call back in
through :meth:`Context.eval_group` and :meth:`Context.eval_query`, so
no lower layer imports this one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from ..rdf.graph import Graph
from ..rdf.terms import BNode, Literal, Triple
from .ast import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    GroupGraphPattern,
    Query,
    SelectQuery,
    TriplePattern,
    Var,
)
from .expr import EvaluationError
from .plan import plan_group, plan_query
from .results import Solution, SPARQLResult


class Context:
    """Per-query evaluation context.

    ``budget`` is an optional :class:`~repro.governance.QueryBudget`
    acting as a cooperative cancellation token: the scan operators
    charge every triple they enumerate (and the executor every result
    row it emits) against it, so a pathological query terminates with a
    typed :class:`~repro.governance.BudgetExceeded` carrying partial
    stats instead of running unbounded.

    ``tracer`` is an optional
    :class:`~repro.observability.Tracer`; when present each executed
    query builds a :class:`~repro.observability.PlanTrace` (one span
    per plan node, ids matching EXPLAIN) published on ``ctx.trace`` so
    the operators — and anything they call into, down to DAP fetches —
    charge time to the right span.

    ``stats`` is an optional
    :class:`~repro.sparql.stats.StatsStore`: the planner consults it
    for feedback-backed cardinality estimates, and after every query
    the executor flows the profile rows back into it.

    ``replan_ratio`` (a float > 1, or ``None`` to disable) arms
    mid-query adaptivity: when a BGP scan's actual per-probe rows
    diverge from its estimate by at least this factor, the remaining
    join suffix is re-ordered in flight (see
    :meth:`~repro.sparql.operators.BGPOp._match_ids_adaptive`).

    ``spill_threshold`` (row count, or ``None`` to disable) arms the
    deterministic partition-spill path on the VALUES / sub-select /
    SERVICE hash joins: build sides larger than the threshold spill
    sorted partition files to ``spill_dir`` (default ``out/spill``),
    budget-charged, with output byte-identical to the in-memory join.
    """

    def __init__(self, graph: Graph,
                 service_resolver: Optional[Callable] = None,
                 budget=None, tracer=None, stats=None,
                 replan_ratio: Optional[float] = None,
                 trace_id: Optional[str] = None,
                 spill_threshold: Optional[int] = None,
                 spill_dir=None):
        self.graph = graph
        self.service_resolver = service_resolver
        self.budget = budget
        self.tracer = tracer
        self.trace = None
        self.stats = stats
        self.replan_ratio = replan_ratio
        # caller-assigned correlation id: stamped on the root span and
        # the result so the query log can be joined against traces
        self.trace_id = trace_id
        self.spill_threshold = spill_threshold
        self.spill_dir = spill_dir

    def eval_group(self, group: GroupGraphPattern,
                   solutions: List[Solution]) -> List[Solution]:
        """:func:`eval_group` on this context (EXISTS calls this)."""
        return eval_group(group, solutions, self)

    def eval_query(self, query: Query) -> SPARQLResult:
        """:func:`eval_query` on this context (sub-SELECT calls this)."""
        return eval_query(query, self)


# ---------------------------------------------------------------------------
# Group evaluation facade (planner + executor underneath)
# ---------------------------------------------------------------------------

def eval_group(group: GroupGraphPattern, solutions: List[Solution],
               ctx: Context) -> List[Solution]:
    """Evaluate a group graph pattern, seeding from *solutions*.

    Facade over the physical-operator engine: compiles the group into a
    pipeline (join-ordered, filters pushed down) and drains it. Charges
    the scan budget through the operators but never the result-row
    budget — that belongs to the query-level executors.
    """
    bound = set(solutions[0].keys()) if solutions else set()
    sub = plan_group(group, ctx, bound)
    sub.root.mark_executed()
    return list(sub.run(ctx, solutions))


# ---------------------------------------------------------------------------
# Query forms: plan, execute, attach the plan for EXPLAIN
# ---------------------------------------------------------------------------

def _ingest_feedback(ctx: Context, result: SPARQLResult) -> None:
    """Flow the executed query's profile rows into the stats store.

    Every operator row that carries a signature and actually probed —
    including zero-row scans — updates the store's per-probe mean;
    material drifts bump ``stats_version`` (once per query), which is
    what invalidates version-carrying plan caches.
    """
    if ctx.stats is None or result.plan is None:
        return
    ctx.stats.observe_profile(result.profile())


@contextmanager
def _traced_execution(ctx: Context, sub):
    """Prepare one query execution: ids, zeroed counters, and — when the
    context carries a tracer — a plan-mirroring trace.

    The trace is published on ``ctx.trace`` for the duration (saved and
    restored, because sub-SELECTs re-enter :func:`eval_query` on the
    same context) and its root span is active around the whole pull, so
    summed operator self-times equal the root duration. On the way out
    span durations are copied onto the plan nodes for ``profile()``.
    """
    sub.root.assign_ids()
    sub.root.mark_executed()
    if ctx.tracer is None:
        yield None
        return
    from ..observability.trace import PlanTrace

    trace = PlanTrace(ctx.tracer, sub.root)
    if ctx.trace_id is not None:
        trace.root_span.attributes["trace_id"] = ctx.trace_id
    prev = ctx.trace
    ctx.trace = trace
    trace.root_span.enter()
    try:
        yield trace
    finally:
        trace.root_span.exit()
        ctx.trace = prev
        trace.finish()


def _eval_select(query: SelectQuery, ctx: Context, sub=None,
                 seed_rows: Optional[List[Solution]] = None) -> SPARQLResult:
    if sub is None:
        sub = plan_query(query, ctx)
    with _traced_execution(ctx, sub) as trace:
        rows = list(sub.run(ctx, seed_rows if seed_rows is not None
                            else [{}]))
    sub.root.actual_rows = len(rows)

    # Result-row budget applies to what the caller will actually
    # receive (after DISTINCT/OFFSET/LIMIT narrowed the rows) — the
    # executor is the single row-charging boundary.
    if ctx.budget is not None:
        ctx.budget.charge_rows(len(rows))

    variables = [p.var.name for p in query.projections]
    if not variables:
        seen_vars = []
        for row in rows:
            for v in row:
                # internal hop variables from property-path expansion
                # are not part of the solution
                if v not in seen_vars and not v.startswith("__path"):
                    seen_vars.append(v)
        variables = seen_vars
    result = SPARQLResult("SELECT", variables=variables, rows=rows)
    result.plan = sub.root
    result.trace = trace.root_span if trace is not None else None
    _ingest_feedback(ctx, result)
    return result


def _eval_ask(query: AskQuery, ctx: Context, sub=None,
              seed_rows: Optional[List[Solution]] = None) -> SPARQLResult:
    if sub is None:
        sub = plan_query(query, ctx)
    with _traced_execution(ctx, sub) as trace:
        # Short-circuit: the first solution proves the pattern.
        found = next(iter(sub.run(ctx, seed_rows if seed_rows is not None
                                  else [{}])), None)
    sub.root.actual_rows = 1 if found is not None else 0
    result = SPARQLResult("ASK", ask=found is not None)
    result.plan = sub.root
    result.trace = trace.root_span if trace is not None else None
    _ingest_feedback(ctx, result)
    return result


def _eval_construct(query: ConstructQuery, ctx: Context) -> SPARQLResult:
    sub = plan_query(query, ctx)
    graph = Graph()
    with _traced_execution(ctx, sub) as trace:
        done = False
        for row in sub.run(ctx, [{}]):
            bnode_map: Dict[str, BNode] = {}
            for pattern in query.template:
                triple = _instantiate(pattern, row, bnode_map)
                if triple is not None:
                    graph.add(triple)
                    sub.root.actual_rows += 1
                    if ctx.budget is not None:
                        ctx.budget.charge_rows()
            if query.limit is not None and len(graph) >= query.limit:
                done = True
            if done:
                break
    result = SPARQLResult("CONSTRUCT", graph=graph)
    result.plan = sub.root
    result.trace = trace.root_span if trace is not None else None
    _ingest_feedback(ctx, result)
    return result


def _instantiate(pattern: TriplePattern, row: Solution,
                 bnode_map: Dict[str, BNode]):
    def resolve(node):
        if isinstance(node, Var):
            return row.get(node.name)
        if isinstance(node, BNode):
            if node not in bnode_map:
                bnode_map[node] = BNode()
            return bnode_map[node]
        return node

    s, p, o = resolve(pattern.s), resolve(pattern.p), resolve(pattern.o)
    if s is None or p is None or o is None or isinstance(s, Literal):
        return None
    return Triple(s, p, o)


def _eval_describe(query: DescribeQuery, ctx: Context) -> SPARQLResult:
    sub = plan_query(query, ctx)
    graph = Graph()
    targets = []
    with _traced_execution(ctx, sub) as trace:
        if query.where is not None:
            rows = list(sub.run(ctx, [{}]))
            for term in query.terms:
                if isinstance(term, Var):
                    targets.extend(
                        row[term.name] for row in rows if term.name in row
                    )
                else:
                    targets.append(term)
        else:
            targets = [t for t in query.terms if not isinstance(t, Var)]
        for target in targets:
            for triple in ctx.graph.triples((target, None, None)):
                graph.add(triple)
    sub.root.actual_rows = len(graph)
    result = SPARQLResult("DESCRIBE", graph=graph)
    result.plan = sub.root
    result.trace = trace.root_span if trace is not None else None
    _ingest_feedback(ctx, result)
    return result


def eval_query(query: Query, ctx: Context, sub=None,
               seed_rows: Optional[List[Solution]] = None) -> SPARQLResult:
    """Execute *query*; ``sub``/``seed_rows`` support prepared queries.

    ``sub`` is an optional pre-compiled
    :class:`~repro.sparql.operators.SubPlan` for the same query —
    passing one skips planning entirely (the plan-cache hot path).
    ``seed_rows`` seeds the pipeline with initial solutions, which is
    how prepared-query parameters are bound without re-parsing: a
    template variable bound in the seed row behaves exactly like a
    constant in every scan that mentions it. Both are honoured for
    SELECT and ASK; CONSTRUCT/DESCRIBE always re-plan (their executors
    consume the plan destructively enough that caching buys nothing).
    """
    if isinstance(query, SelectQuery):
        result = _eval_select(query, ctx, sub=sub, seed_rows=seed_rows)
    elif isinstance(query, AskQuery):
        result = _eval_ask(query, ctx, sub=sub, seed_rows=seed_rows)
    elif isinstance(query, ConstructQuery):
        result = _eval_construct(query, ctx)
    elif isinstance(query, DescribeQuery):
        result = _eval_describe(query, ctx)
    else:
        raise EvaluationError(
            f"unsupported query type {type(query).__name__}")
    result.trace_id = ctx.trace_id
    return result


def explain_query(query: Query, ctx: Context):
    """Plan *query* without executing it; returns the plan root node.

    Planning is deterministic, so the pre-order node ids assigned here
    are the ids an actual execution of the same query (and its trace
    spans and profile rows) will carry.
    """
    root = plan_query(query, ctx).root
    root.assign_ids()
    return root
