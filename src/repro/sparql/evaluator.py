"""SPARQL evaluation driver: expressions, aggregates, planner glue.

The bottom-up interpreter this module used to be is gone; pattern
matching now lives in the plan/operator layers:

- :mod:`repro.sparql.plan` compiles the AST into a physical plan
  (join ordering, filter/spatial pushdown, top-k selection);
- :mod:`repro.sparql.operators` streams solutions through that plan on
  dictionary-encoded ids.

What remains here is the per-row machinery those operators call back
into — scalar expression evaluation (:func:`eval_expr`), aggregation
(:func:`_group_and_aggregate`), spatial-filter extraction — plus the
query-form executors that pull the plan, charge the result-row budget
at the single operator boundary, and attach the executed plan to the
:class:`~repro.sparql.results.SPARQLResult` for EXPLAIN.

The historical entry points (:func:`eval_group`, :func:`eval_query`,
:class:`Context`) keep their exact signatures and semantics; they are
facades over the new engine.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal, Term, literal_cmp_key
from . import functions as fns
from .ast import (
    Aggregate,
    AskQuery,
    BGP,
    BinaryExpr,
    Bind,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expr,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    InlineValues,
    MinusPattern,
    OptionalPattern,
    Projection,
    Query,
    SelectQuery,
    ServicePattern,
    SubSelect,
    TermExpr,
    TriplePattern,
    UnaryExpr,
    UnionPattern,
    Var,
    VarExpr,
)
from .functions import SparqlValueError, effective_boolean_value
from .results import Solution, SPARQLResult


class EvaluationError(RuntimeError):
    """Raised for unevaluable query constructs (not per-row errors)."""


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


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def eval_expr(expr: Expr, solution: Solution, ctx: Context):
    """Evaluate an expression to an RDF term; raises SparqlValueError."""
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, VarExpr):
        value = solution.get(expr.var.name)
        if value is None:
            raise SparqlValueError(f"unbound variable ?{expr.var.name}")
        return value
    if isinstance(expr, UnaryExpr):
        if expr.op == "!":
            return Literal(
                not effective_boolean_value(
                    eval_expr(expr.operand, solution, ctx)
                )
            )
        value = fns.numeric_value(eval_expr(expr.operand, solution, ctx))
        return Literal(-value)
    if isinstance(expr, BinaryExpr):
        return _eval_binary(expr, solution, ctx)
    if isinstance(expr, FunctionCall):
        return _eval_function(expr, solution, ctx)
    if isinstance(expr, InExpr):
        value = eval_expr(expr.value, solution, ctx)
        found = False
        for option in expr.options:
            try:
                if _terms_equal(value, eval_expr(option, solution, ctx)):
                    found = True
                    break
            except SparqlValueError:
                continue
        return Literal(found != expr.negated)
    if isinstance(expr, ExistsExpr):
        rows = eval_group(expr.group, [dict(solution)], ctx)
        exists = bool(rows)
        return Literal(exists != expr.negated)
    if isinstance(expr, Aggregate):
        raise SparqlValueError("aggregate outside aggregation context")
    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr: BinaryExpr, solution: Solution, ctx: Context):
    op = expr.op
    if op == "||":
        left_err = None
        try:
            if effective_boolean_value(eval_expr(expr.left, solution, ctx)):
                return Literal(True)
        except SparqlValueError as exc:
            left_err = exc
        right = effective_boolean_value(eval_expr(expr.right, solution, ctx))
        if right:
            return Literal(True)
        if left_err is not None:
            raise left_err
        return Literal(False)
    if op == "&&":
        left_err = None
        try:
            if not effective_boolean_value(
                eval_expr(expr.left, solution, ctx)
            ):
                return Literal(False)
        except SparqlValueError as exc:
            left_err = exc
        right = effective_boolean_value(eval_expr(expr.right, solution, ctx))
        if not right:
            return Literal(False)
        if left_err is not None:
            raise left_err
        return Literal(True)

    left = eval_expr(expr.left, solution, ctx)
    right = eval_expr(expr.right, solution, ctx)
    if op in ("+", "-", "*", "/"):
        a, b = fns.numeric_value(left), fns.numeric_value(right)
        if op == "+":
            value = a + b
        elif op == "-":
            value = a - b
        elif op == "*":
            value = a * b
        else:
            if b == 0:
                raise SparqlValueError("division by zero")
            value = a / b
        if isinstance(a, int) and isinstance(b, int) and op != "/":
            return Literal(int(value))
        return Literal(float(value))
    if op == "=":
        return Literal(_terms_equal(left, right))
    if op == "!=":
        return Literal(not _terms_equal(left, right))
    return Literal(_order_compare(op, left, right))


def _terms_equal(a, b) -> bool:
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a == b:
            return True
        if a.is_numeric and b.is_numeric:
            return a.value == b.value
        try:
            av, bv = a.value, b.value
        except ValueError:
            return False
        if type(av) is type(bv) and not isinstance(av, str):
            return av == bv
        return False
    return a == b and type(a) is type(b)


def _order_compare(op: str, a, b) -> bool:
    if not (isinstance(a, Literal) and isinstance(b, Literal)):
        raise SparqlValueError(f"cannot order {a!r} and {b!r}")
    ka, kb = literal_cmp_key(a), literal_cmp_key(b)
    if ka[0] != kb[0]:
        raise SparqlValueError(f"type mismatch comparing {a!r} and {b!r}")
    if op == "<":
        return ka[1] < kb[1]
    if op == ">":
        return ka[1] > kb[1]
    if op == "<=":
        return ka[1] <= kb[1]
    if op == ">=":
        return ka[1] >= kb[1]
    raise EvaluationError(f"unknown comparison {op}")


def _eval_function(call: FunctionCall, solution: Solution, ctx: Context):
    name = call.name
    if name == "BOUND":
        arg = call.args[0]
        if not isinstance(arg, VarExpr):
            raise SparqlValueError("BOUND requires a variable")
        return Literal(solution.get(arg.var.name) is not None)
    if name == "IF":
        cond = effective_boolean_value(
            eval_expr(call.args[0], solution, ctx)
        )
        return eval_expr(call.args[1] if cond else call.args[2],
                         solution, ctx)
    if name == "COALESCE":
        for arg in call.args:
            try:
                return eval_expr(arg, solution, ctx)
            except SparqlValueError:
                continue
        raise SparqlValueError("COALESCE: no bound argument")
    args = [eval_expr(a, solution, ctx) for a in call.args]
    fn = fns.BUILTIN_FUNCTIONS.get(name)
    if fn is None:
        fn = fns.EXTENSION_FUNCTIONS.get(name)
    if fn is None:
        raise EvaluationError(f"unknown function {name!r}")
    return fn(*args)


# ---------------------------------------------------------------------------
# Spatial filter pushdown (shared with the planner and Ontop)
# ---------------------------------------------------------------------------

class _SpatialRestriction:
    """A pushed-down spatial constraint on a variable."""

    __slots__ = ("relation", "geometry")
    #: The R-tree probe uses the constant geometry (no join partner).
    partner = None

    def __init__(self, relation: str, geometry):
        self.relation = relation
        self.geometry = geometry


class _SpatialJoin:
    """A variable–variable spatial FILTER, seen from one of its variables.

    ``relation`` reads "this variable *relation* ``?partner``"; the
    R-tree probe uses the partner's bound geometry.
    """

    __slots__ = ("relation", "partner")

    def __init__(self, relation: str, partner: str):
        self.relation = relation
        self.partner = partner


def _extract_spatial_restrictions(
    elements, ctx: Context
) -> Dict[str, _SpatialRestriction]:
    """Find FILTER(geof:sfX(?var, <const-geom>)) constraints in a group."""
    restrictions: Dict[str, _SpatialRestriction] = {}
    for el in elements:
        if not isinstance(el, Filter):
            continue
        expr = el.expr
        if not isinstance(expr, FunctionCall):
            continue
        relation = fns.SPATIAL_RELATIONS.get(expr.name)
        if relation is None or len(expr.args) != 2:
            continue
        a, b = expr.args
        var_arg, const_arg = None, None
        if isinstance(a, VarExpr) and isinstance(b, TermExpr):
            var_arg, const_arg = a, b
        elif isinstance(b, VarExpr) and isinstance(a, TermExpr):
            var_arg, const_arg = b, a
            relation = _invert_relation(relation)
        if var_arg is None:
            continue
        try:
            geom = fns.geometry_from_term(const_arg.term)
        except SparqlValueError:
            continue
        restrictions[var_arg.var.name] = _SpatialRestriction(relation, geom)
    return restrictions


def _extract_spatial_joins(elements) -> Dict[str, List[_SpatialJoin]]:
    """Find FILTER(geof:sfX(?a, ?b)) joins in a group.

    Each join is listed under both of its variables, in filter order,
    so whichever side is bound first can probe the other's R-tree
    (``?b`` of ``sfContains(?a, ?b)`` is ``within ?a``). All seven
    relations imply intersecting bounding boxes, which is what makes
    the index probe a safe pre-filter.
    """
    joins: Dict[str, List[_SpatialJoin]] = {}
    for el in elements:
        if not isinstance(el, Filter):
            continue
        expr = el.expr
        if not isinstance(expr, FunctionCall):
            continue
        relation = fns.SPATIAL_RELATIONS.get(expr.name)
        if relation is None or len(expr.args) != 2:
            continue
        a, b = expr.args
        if not (isinstance(a, VarExpr) and isinstance(b, VarExpr)):
            continue
        a, b = a.var.name, b.var.name
        if a == b:
            continue
        joins.setdefault(a, []).append(_SpatialJoin(relation, b))
        joins.setdefault(b, []).append(
            _SpatialJoin(_invert_relation(relation), a))
    return joins


def _invert_relation(relation: str) -> str:
    return {"contains": "within", "within": "contains"}.get(relation, relation)


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
    from .plan import plan_group

    bound = set(solutions[0].keys()) if solutions else set()
    sub = plan_group(group, ctx, bound)
    sub.root.mark_executed()
    return list(sub.run(ctx, solutions))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _projection_has_aggregate(query: SelectQuery) -> bool:
    return any(
        _expr_contains_aggregate(p.expr)
        for p in query.projections
        if p.expr is not None
    )


def _expr_contains_aggregate(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, Aggregate):
        return True
    if isinstance(expr, BinaryExpr):
        return _expr_contains_aggregate(expr.left) or _expr_contains_aggregate(
            expr.right
        )
    if isinstance(expr, UnaryExpr):
        return _expr_contains_aggregate(expr.operand)
    if isinstance(expr, FunctionCall):
        return any(_expr_contains_aggregate(a) for a in expr.args)
    return False


def _eval_aggregate(agg: Aggregate, rows: List[Solution], ctx: Context):
    values = []
    if agg.expr is None:  # COUNT(*)
        if agg.name != "COUNT":
            raise SparqlValueError(f"{agg.name}(*) is not valid")
        return Literal(len(rows))
    for row in rows:
        try:
            values.append(eval_expr(agg.expr, row, ctx))
        except SparqlValueError:
            continue
    if agg.distinct:
        seen, unique = set(), []
        for v in values:
            key = (type(v).__name__, v.n3() if hasattr(v, "n3") else str(v))
            if key not in seen:
                seen.add(key)
                unique.append(v)
        values = unique
    name = agg.name
    if name == "COUNT":
        return Literal(len(values))
    if not values:
        if name in ("SUM",):
            return Literal(0)
        raise SparqlValueError(f"{name} over empty group")
    if name == "SUM":
        total = sum(fns.numeric_value(v) for v in values)
        return Literal(total if isinstance(total, float) else int(total))
    if name == "AVG":
        return Literal(
            sum(fns.numeric_value(v) for v in values) / len(values)
        )
    if name == "MIN":
        return min(
            (v for v in values if isinstance(v, Literal)),
            key=literal_cmp_key,
        )
    if name == "MAX":
        return max(
            (v for v in values if isinstance(v, Literal)),
            key=literal_cmp_key,
        )
    if name == "SAMPLE":
        return values[0]
    if name == "GROUP_CONCAT":
        return Literal(agg.separator.join(fns.string_value(v) for v in values))
    raise EvaluationError(f"unknown aggregate {name}")


def _substitute_aggregates(expr: Expr, agg_values: Dict[int, Term]) -> Expr:
    """Replace Aggregate nodes by their computed constant values."""
    if isinstance(expr, Aggregate):
        return TermExpr(agg_values[id(expr)])
    if isinstance(expr, BinaryExpr):
        return BinaryExpr(
            expr.op,
            _substitute_aggregates(expr.left, agg_values),
            _substitute_aggregates(expr.right, agg_values),
        )
    if isinstance(expr, UnaryExpr):
        return UnaryExpr(
            expr.op, _substitute_aggregates(expr.operand, agg_values)
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(_substitute_aggregates(a, agg_values) for a in expr.args),
        )
    return expr


def _collect_aggregates(expr: Optional[Expr]) -> List[Aggregate]:
    if expr is None:
        return []
    if isinstance(expr, Aggregate):
        return [expr]
    if isinstance(expr, BinaryExpr):
        return _collect_aggregates(expr.left) + _collect_aggregates(expr.right)
    if isinstance(expr, UnaryExpr):
        return _collect_aggregates(expr.operand)
    if isinstance(expr, FunctionCall):
        return list(
            itertools.chain.from_iterable(
                _collect_aggregates(a) for a in expr.args
            )
        )
    return []


def _group_and_aggregate(query: SelectQuery, rows: List[Solution],
                         ctx: Context) -> List[Solution]:
    groups: Dict[tuple, List[Solution]] = {}
    if query.group_by:
        for row in rows:
            key_parts = []
            for expr in query.group_by:
                try:
                    term = eval_expr(expr, row, ctx)
                    key_parts.append(term.n3() if hasattr(term, "n3")
                                     else str(term))
                except SparqlValueError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(row)
    else:
        groups[()] = rows

    out_rows: List[Solution] = []
    for member_rows in groups.values():
        representative = member_rows[0] if member_rows else {}
        agg_values: Dict[int, Term] = {}
        all_aggs: List[Aggregate] = []
        for proj in query.projections:
            all_aggs.extend(_collect_aggregates(proj.expr))
        for having in query.having:
            all_aggs.extend(_collect_aggregates(having))
        ok = True
        for agg in all_aggs:
            try:
                agg_values[id(agg)] = _eval_aggregate(agg, member_rows, ctx)
            except SparqlValueError:
                agg_values[id(agg)] = None
        row_out: Solution = {}
        for proj in query.projections:
            if proj.expr is None:
                if proj.var.name in representative:
                    row_out[proj.var.name] = representative[proj.var.name]
                continue
            expr = _substitute_aggregates(proj.expr, agg_values)
            try:
                if any(
                    agg_values.get(id(a)) is None
                    for a in _collect_aggregates(proj.expr)
                ):
                    raise SparqlValueError("aggregate error")
                row_out[proj.var.name] = eval_expr(expr, representative, ctx)
            except SparqlValueError:
                pass
        for having in query.having:
            expr = _substitute_aggregates(having, agg_values)
            try:
                if not effective_boolean_value(
                    eval_expr(expr, representative, ctx)
                ):
                    ok = False
                    break
            except SparqlValueError:
                ok = False
                break
        if ok:
            out_rows.append(row_out)
    return out_rows


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
    stats = getattr(ctx, "stats", None)
    if stats is None or result.plan is None:
        return
    stats.observe_profile(result.profile())


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
    from .plan import plan_select

    if sub is None:
        sub = plan_select(query, ctx)
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
    from .plan import plan_query

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
    from .plan import plan_query

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
    from ..rdf.terms import Triple

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
    from .plan import plan_query

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
    from .plan import plan_query

    root = plan_query(query, ctx).root
    root.assign_ids()
    return root
