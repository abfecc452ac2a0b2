"""Query planning: AST -> tree of streaming physical operators.

The planner compiles a parsed query into the operators of
:mod:`repro.sparql.operators`, making the cost-based decisions up
front so execution is a pure pull of iterators:

- **join ordering** inside each BGP — greedy smallest-estimate-first,
  with exact cardinalities from the graph's id indexes
  (:meth:`~repro.rdf.graph.Graph.pattern_cardinality`) divided by
  distinct-term counts for already-bound variable positions;
- **filter pushdown** — each FILTER is placed directly after the last
  group element that can still bind one of its variables (EXISTS
  filters stay at the end of the group), so rows are dropped as early
  as the SPARQL semantics allow;
- **spatial pushdown** — ``FILTER(geof:sfX(?var, <const>))`` marks the
  scan of ``?var`` as a spatial-index leaf (Strabon's R-tree) and
  discounts its cost estimate; ``FILTER(geof:sfX(?a, ?b))`` does the
  same for the scan of one side once the other is bound (an index
  spatial join: R-tree probe with the bound geometry, then the FILTER
  verifies the exact relation);
- **top-k short-circuit** — ORDER BY + LIMIT (without DISTINCT)
  becomes a bounded-heap TopK instead of a full sort.

Every operator carries a :class:`PlanNode`; the tree doubles as the
EXPLAIN output, showing estimated next to actual per-operator rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .ast import (
    AskQuery,
    BGP,
    Bind,
    ConstructQuery,
    DescribeQuery,
    Filter,
    GroupGraphPattern,
    InlineValues,
    MinusPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    ServicePattern,
    SubSelect,
    TriplePattern,
    UnionPattern,
    Var,
)
from . import operators as ops
from . import stats as stats_mod
from .expr import (
    EvaluationError,
    element_binding_vars,
    expr_has_exists,
    expr_variables,
    group_binding_vars,
    projection_has_aggregate,
)


class PlanNode:
    """One operator in a physical plan, with estimate vs actual rows.

    ``actual_rows`` is ``None`` until the plan is executed (rendered as
    ``-``); the executor zeroes the whole tree when it starts pulling,
    and each operator increments its node as rows stream through.
    ``display_only`` subtrees (e.g. the sub-SELECT child shown for
    context under a HashJoin) are *never* zeroed — their actuals stay
    ``None`` and EXPLAIN prints ``rows=-`` explicitly, so profile rows
    can tell "executed, matched nothing" (0) from "never ran" (``-``).

    ``id`` is the node's position in a pre-order walk of its tree
    (assigned by :meth:`assign_ids`, 1-based). Because planning is
    deterministic, the same query always yields the same ids, and the
    executor mirrors them onto trace spans — so the ``#n`` EXPLAIN
    prints is the same ``#n`` a profile row or trace span carries.
    ``time_s`` is the operator's inclusive wall time, copied from its
    span when the query ran under a tracer (else 0).

    ``est_source`` records where ``est_rows`` came from (``index`` |
    ``feedback`` | ``default``; derived nodes combine their inputs) and
    ``signature`` is the stable feedback key the
    :class:`~repro.sparql.stats.StatsStore` stores this operator's
    actuals under. ``probes`` counts input bindings the operator was
    probed with (so ``actual_rows / probes`` is the per-probe mean the
    estimate predicts) and ``replans`` counts mid-query join re-orders
    the adaptive executor performed under this node.
    """

    __slots__ = ("label", "detail", "est_rows", "actual_rows", "children",
                 "id", "time_s", "est_source", "signature", "probes",
                 "replans", "replan_events", "display_only", "spill")

    def __init__(self, label: str, detail: str = "",
                 est_rows: Optional[float] = None,
                 children: Optional[List["PlanNode"]] = None):
        self.label = label
        self.detail = detail
        self.est_rows = est_rows
        self.actual_rows: Optional[int] = None
        self.children: List[PlanNode] = children or []
        self.id: Optional[int] = None
        self.time_s: float = 0.0
        self.est_source: Optional[str] = None
        self.signature: Optional[str] = None
        self.probes: int = 0
        self.replans: int = 0
        self.replan_events: List[Dict[str, object]] = []
        self.display_only: bool = False
        #: Spilled build rows for spill-armed hash joins: 0 when armed
        #: at plan time, the actual count after execution, ``None``
        #: (not printed) when spilling is off.
        self.spill: Optional[int] = None

    def assign_ids(self) -> None:
        """Number the tree pre-order, 1-based (stable across re-plans)."""
        for i, node in enumerate(self.walk(), 1):
            node.id = i

    def mark_executed(self) -> None:
        """Zero actual counters tree-wide (operators count from here).

        Display-only subtrees are skipped: they never execute, so their
        actuals must stay ``None`` (EXPLAIN's explicit ``rows=-``), not
        a misleading zero.
        """
        if self.display_only:
            return
        self.actual_rows = 0
        self.time_s = 0.0
        self.probes = 0
        self.replans = 0
        self.replan_events = []
        if self.spill is not None:
            self.spill = 0
        for child in self.children:
            child.mark_executed()

    def walk(self) -> Iterable["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def _fmt(self) -> str:
        est = "-" if self.est_rows is None else str(int(round(self.est_rows)))
        actual = "-" if self.actual_rows is None else str(self.actual_rows)
        head = self.label if not self.detail else f"{self.label}({self.detail})"
        node_id = "" if self.id is None else f"#{self.id} "
        src = "" if self.est_source is None else f" src={self.est_source}"
        replans = f" replans={self.replans}" if self.replans else ""
        spill = f" spill={self.spill}" if self.spill is not None else ""
        return (f"{node_id}{head}  "
                f"[est={est}{src} rows={actual}{replans}{spill}]")

    def render(self, indent: int = 0) -> str:
        if indent == 0 and self.id is None:
            self.assign_ids()
        lines = ["  " * indent + self._fmt()]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "label": self.label,
            "detail": self.detail,
            "est_rows": self.est_rows,
            "est_source": self.est_source,
            "signature": self.signature,
            "actual_rows": self.actual_rows,
            "probes": self.probes,
            "time_s": self.time_s,
            "replans": self.replans,
            "replan_events": list(self.replan_events),
            "display_only": self.display_only,
            "spill": self.spill,
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return f"<PlanNode {self._fmt()}>"


# ---------------------------------------------------------------------------
# Pattern text
# ---------------------------------------------------------------------------

def _node_text(node) -> str:
    if isinstance(node, Var):
        return f"?{node.name}"
    n3 = getattr(node, "n3", None)
    return n3() if n3 else str(node)


def pattern_text(pattern: TriplePattern) -> str:
    return " ".join(_node_text(t) for t in (pattern.s, pattern.p, pattern.o))


# ---------------------------------------------------------------------------
# Cardinality estimation + BGP join ordering
# ---------------------------------------------------------------------------

#: Selectivity guesses used where no exact statistic exists.
FILTER_SELECTIVITY = 0.5
SPATIAL_DISCOUNT = 0.1
TERM_MODE_BOUND_FACTOR = 10.0

#: Where an estimate came from (printed by EXPLAIN as ``src=``).
SOURCE_INDEX = "index"
SOURCE_FEEDBACK = "feedback"
SOURCE_DEFAULT = "default"


def _spatial_leaf(pattern: TriplePattern, bound: Set[str],
                  spatial: "ops.SpatialFilters"):
    """The spatial filter making *pattern* an R-tree leaf, or ``None``."""
    filters = spatial.for_pattern(pattern)
    if not filters:
        return None
    return ops.spatial_leaf(filters, pattern, bound.__contains__)


def estimate_pattern_detail(
    pattern: TriplePattern, bound: Set[str], graph,
    spatial: "ops.SpatialFilters", stats=None,
) -> Tuple[float, str, str]:
    """Estimated matches for one probe of *pattern*, with provenance.

    Returns ``(est, source, signature)``. Recorded feedback for the
    pattern's signature wins over everything (it is the measured
    per-probe mean for exactly this shape + bound mask); with an
    id-indexed graph the constants-only cardinality is otherwise exact
    (``index``), each bound-variable position dividing it by the
    distinct-term count for that position; graphs without the id
    protocol fall back to size-based guessing (``default``), unless
    they expose their own ``feedback_estimate`` (the federation view's
    harvest-fed source-selection estimates). R-tree leaves (constant
    restrictions, and joins whose partner is bound) get the spatial
    discount — except under feedback, whose recorded actuals already
    include it.
    """
    positions = (pattern.s, pattern.p, pattern.o)
    leaf = _spatial_leaf(pattern, bound, spatial) is not None
    signature = stats_mod.pattern_signature(pattern, bound, spatial=leaf)
    if stats is not None:
        feedback = stats.estimate(signature)
        if feedback is not None:
            return feedback, SOURCE_FEEDBACK, signature

    dictionary = getattr(graph, "dictionary", None)
    if dictionary is not None and hasattr(graph, "pattern_cardinality"):
        consts = []
        est = None
        for node in positions:
            if isinstance(node, Var):
                consts.append(None)
            else:
                term_id = dictionary.lookup(node)
                if term_id is None:
                    est = 0.0  # constant absent: exact index knowledge
                    break
                consts.append(term_id)
        if est is None:
            est = float(graph.pattern_cardinality(tuple(consts)))
            distinct = graph.distinct_counts
            for i, node in enumerate(positions):
                if isinstance(node, Var) and node.name in bound:
                    est /= max(1, distinct[i])
        source = SOURCE_INDEX
    else:
        feedback_fn = getattr(graph, "feedback_estimate", None)
        est = feedback_fn(pattern, bound) if feedback_fn is not None else None
        if est is not None:
            return est, SOURCE_FEEDBACK, signature
        try:
            est = float(len(graph))
        except TypeError:
            est = 1000.0
        for node in positions:
            if not isinstance(node, Var) or node.name in bound:
                est /= TERM_MODE_BOUND_FACTOR
        source = SOURCE_DEFAULT
    if leaf:
        est *= SPATIAL_DISCOUNT
    return est, source, signature


def estimate_pattern(pattern: TriplePattern, bound: Set[str], graph,
                     spatial: "ops.SpatialFilters", stats=None) -> float:
    """Estimated matches for one probe of *pattern* (see
    :func:`estimate_pattern_detail` for the provenance-carrying form)."""
    est, __, __ = estimate_pattern_detail(pattern, bound, graph,
                                          spatial, stats=stats)
    return est


def order_patterns(patterns: Sequence[TriplePattern], bound: Set[str],
                   graph, spatial: "ops.SpatialFilters", stats=None
                   ) -> List[Tuple[TriplePattern, float, str, str]]:
    """Greedy cardinality-based join order.

    Repeatedly picks the pattern with the smallest estimated match
    count given the variables bound so far; ties break on original
    pattern order, keeping plans deterministic. A spatial join leaf
    becomes cheap (discounted) only once its partner is bound, so it
    follows the partner's scan. Each entry is
    ``(pattern, est, source, signature)``.
    """
    bound = set(bound)
    remaining = list(enumerate(patterns))
    ordered: List[Tuple[TriplePattern, float, str, str]] = []
    while remaining:
        best_i, best = 0, None
        for i, (orig, pat) in enumerate(remaining):
            detail = estimate_pattern_detail(pat, bound, graph,
                                             spatial, stats=stats)
            if best is None or detail[0] < best[0]:
                best_i, best = i, detail
        __, pattern = remaining.pop(best_i)
        ordered.append((pattern,) + best)
        for var in pattern.variables():
            bound.add(var.name)
    return ordered


def _combine_sources(sources: Iterable[Optional[str]]) -> str:
    """Provenance of a derived estimate: feedback-touched wins;
    otherwise any guessed input taints the combination to default."""
    seen = {s for s in sources if s is not None}
    if SOURCE_FEEDBACK in seen:
        return SOURCE_FEEDBACK
    if SOURCE_DEFAULT in seen or not seen:
        return SOURCE_DEFAULT
    return SOURCE_INDEX


def _fill_sources(node: PlanNode) -> None:
    """Bottom-up ``est_source`` for nodes the compiler left unset."""
    for child in node.children:
        _fill_sources(child)
    if node.est_source is None:
        node.est_source = _combine_sources(
            c.est_source for c in node.children)


# ---------------------------------------------------------------------------
# Group compilation
# ---------------------------------------------------------------------------

def _place_filters(elements) -> List:
    """Reorder group elements so filters run as early as allowed.

    A filter moves directly after the last element that can bind one of
    its variables; filters containing (NOT) EXISTS keep SPARQL's
    end-of-group evaluation point. Relative order of non-filter
    elements is untouched.
    """
    non_filters = [e for e in elements if not isinstance(e, Filter)]
    placed: Dict[int, List[Filter]] = {}
    tail: List[Filter] = []
    for el in elements:
        if not isinstance(el, Filter):
            continue
        if expr_has_exists(el.expr):
            tail.append(el)
            continue
        mentioned = expr_variables(el.expr)
        position = 0
        for i, other in enumerate(non_filters):
            if element_binding_vars(other) & mentioned:
                position = i + 1
        placed.setdefault(position, []).append(el)
    out: List = []
    out.extend(placed.get(0, []))
    for i, el in enumerate(non_filters):
        out.append(el)
        out.extend(placed.get(i + 1, []))
    out.extend(tail)
    return out


def compile_group(group: GroupGraphPattern, ctx, source: "ops.Operator",
                  bound: Set[str]) -> "ops.Operator":
    """Compile a group graph pattern on top of *source*.

    Returns the top operator of the chain; *bound* is the set of
    variable names known to be bound in incoming rows (used for join
    ordering) and is updated in place as elements bind more.
    """
    spatial = ops.SpatialFilters(
        *ops.extract_spatial_filters(group.elements), ctx.graph)
    top = source
    for element in _place_filters(group.elements):
        in_est = top.node.est_rows or 1.0
        if isinstance(element, Filter):
            node = PlanNode("Filter", _filter_detail(element, spatial),
                            est_rows=in_est * FILTER_SELECTIVITY)
            node.children.append(top.node)
            top = ops.FilterOp(node, top, element.expr)
        elif isinstance(element, BGP):
            top = _compile_bgp(element, ctx, top, bound, spatial)
        elif isinstance(element, OptionalPattern):
            sub = compile_subplan(element.group, ctx, set(bound))
            node = PlanNode("LeftJoin", "optional",
                            est_rows=max(in_est,
                                         in_est * (sub.top.node.est_rows
                                                   or 1.0)))
            node.children.extend([top.node, sub.top.node])
            top = ops.LeftJoinOp(node, top, sub)
            bound |= group_binding_vars(element.group)
        elif isinstance(element, UnionPattern):
            subs = [compile_subplan(alt, ctx, set(bound))
                    for alt in element.alternatives]
            node = PlanNode(
                "Union", f"{len(subs)} alternatives",
                est_rows=sum(s.top.node.est_rows or 1.0 for s in subs),
            )
            node.children.append(top.node)
            node.children.extend(s.top.node for s in subs)
            top = ops.UnionOp(node, top, subs)
            bound |= element_binding_vars(element)
        elif isinstance(element, MinusPattern):
            sub = compile_subplan(element.group, ctx, set())
            node = PlanNode("Minus", est_rows=in_est)
            node.children.extend([top.node, sub.top.node])
            top = ops.MinusOp(node, top, sub)
        elif isinstance(element, Bind):
            node = PlanNode("Bind", f"?{element.var.name}", est_rows=in_est)
            node.children.append(top.node)
            top = ops.BindOp(node, top, element)
            bound.add(element.var.name)
        elif isinstance(element, InlineValues):
            node = PlanNode(
                "HashJoin",
                f"VALUES {len(element.rows)} rows",
                est_rows=in_est * max(1, len(element.rows)),
            )
            node.children.append(top.node)
            join_key = _static_join_key(bound, element)
            _arm_spill(node, ctx)
            top = ops.ValuesOp(node, top, element, join_key=join_key)
            bound |= element_binding_vars(element)
        elif isinstance(element, SubSelect):
            node = PlanNode("HashJoin", "subselect", est_rows=in_est)
            node.children.append(top.node)
            # Display-only: the sub-query is re-planned at execution,
            # so this child shows estimates with an explicit
            # ``rows=-`` (mark_executed never zeroes the subtree).
            display = plan_select(element.query, ctx).root
            display.display_only = True
            node.children.append(display)
            join_key = _static_join_key(bound, element)
            _arm_spill(node, ctx)
            top = ops.SubSelectOp(node, top, element.query,
                                  join_key=join_key)
            bound |= element_binding_vars(element)
        elif isinstance(element, ServicePattern):
            node = PlanNode(
                "ServiceExchange", str(element.endpoint), est_rows=in_est
            )
            node.signature = stats_mod.service_signature(element.endpoint)
            remote_mean = (ctx.stats.estimate(node.signature)
                           if ctx.stats is not None else None)
            if remote_mean is not None:
                node.est_rows = in_est * remote_mean
                node.est_source = SOURCE_FEEDBACK
            node.children.append(top.node)
            join_key = _static_join_key(bound, element)
            _arm_spill(node, ctx)
            top = ops.ServiceOp(node, top, element, join_key=join_key)
            bound |= element_binding_vars(element)
        else:  # pragma: no cover - parser prevents this
            raise EvaluationError(
                f"unknown element {type(element).__name__}"
            )
    return top


def _static_join_key(bound: Set[str], element) -> Tuple[str, ...]:
    """Plan-time join key for a hash join against *element*.

    The variables already bound upstream that the build side may also
    bind — the equality columns every probing row is guaranteed to
    share with key-complete build rows. The spill path partitions its
    build side by a stable hash of exactly these columns.
    """
    return tuple(sorted(bound & element_binding_vars(element)))


def _arm_spill(node: PlanNode, ctx) -> None:
    """Show ``spill=0`` on join nodes when a spill threshold is set."""
    if ctx.spill_threshold is not None:
        node.spill = 0


def _filter_detail(element: Filter, spatial: "ops.SpatialFilters") -> str:
    mentioned = expr_variables(element.expr)
    pushed = sorted(v for v in mentioned
                    if v in spatial.restrictions or v in spatial.joins)
    if pushed:
        return "spatial on ?" + " ?".join(pushed)
    if expr_has_exists(element.expr):
        return "exists"
    return "expr"


def compile_subplan(group: GroupGraphPattern, ctx,
                    bound: Set[str]) -> "ops.SubPlan":
    """A reseedable pipeline for OPTIONAL/UNION/MINUS sub-groups."""
    seed = ops.SeedOp(PlanNode("Seed", est_rows=1.0))
    top = compile_group(group, ctx, seed, bound)
    return ops.SubPlan(seed, top)


def _compile_bgp(bgp: BGP, ctx, source: "ops.Operator", bound: Set[str],
                 spatial: "ops.SpatialFilters") -> "ops.Operator":
    graph = ctx.graph
    stats = ctx.stats
    ordered = order_patterns(bgp.patterns, bound, graph, spatial,
                             stats=stats)
    in_est = source.node.est_rows or 1.0
    scan_nodes: List[PlanNode] = []
    signatures: List[str] = []
    out_est = in_est
    for pattern, est, est_source, signature in ordered:
        leaf = _spatial_leaf(pattern, bound, spatial)
        label = "IndexScan" if leaf is None else "SpatialIndexScan"
        detail = pattern_text(pattern)
        if leaf is not None and leaf.partner is None:
            detail += f" [rtree:{leaf.relation}]"
        elif leaf is not None:
            detail += f" [rtree-join:{leaf.relation} ?{leaf.partner}]"
        scan_node = PlanNode(label, detail, est_rows=est)
        scan_node.est_source = est_source
        scan_node.signature = signature
        scan_nodes.append(scan_node)
        signatures.append(signature)
        out_est *= max(est, 0.0)
        bound.update(v.name for v in pattern.variables())
    node = PlanNode(
        "IndexNestedLoopJoin",
        f"{len(ordered)} patterns",
        est_rows=out_est,
    )
    node.signature = stats_mod.bgp_signature(signatures)
    # Measured output-per-input for the whole pattern set (any join
    # order) trumps the product of per-scan estimates.
    bgp_feedback = stats.estimate(node.signature) if stats is not None \
        else None
    if bgp_feedback is not None:
        node.est_rows = in_est * bgp_feedback
        node.est_source = SOURCE_FEEDBACK
    else:
        node.est_source = _combine_sources(
            [source.node.est_source]
            + [s.est_source for s in scan_nodes])
    node.children.append(source.node)
    node.children.extend(scan_nodes)
    return ops.BGPOp(node, source, [entry[0] for entry in ordered],
                     spatial, scan_nodes, signatures=signatures)


# ---------------------------------------------------------------------------
# Query-level planning
# ---------------------------------------------------------------------------

def plan_group(group: GroupGraphPattern, ctx,
               bound: Optional[Set[str]] = None) -> "ops.SubPlan":
    """Compile a bare group (the eval_group facade's entry point)."""
    seed = ops.SeedOp(PlanNode("Seed", est_rows=1.0))
    top = compile_group(group, ctx, seed, set(bound or ()))
    _fill_sources(top.node)
    return ops.SubPlan(seed, top)


def plan_select(query: SelectQuery, ctx) -> "ops.SubPlan":
    seed = ops.SeedOp(PlanNode("Seed", est_rows=1.0))
    top = compile_group(query.where, ctx, seed, set())

    needs_grouping = bool(query.group_by) or projection_has_aggregate(query)
    in_est = top.node.est_rows or 1.0
    if needs_grouping:
        est = max(1.0, in_est / 4.0) if query.group_by else 1.0
        detail = (f"group by {len(query.group_by)} keys"
                  if query.group_by else "implicit group")
        node = PlanNode("Aggregate", detail, est_rows=est)
        node.children.append(top.node)
        top = ops.AggregateOp(node, top, query)

    if query.order_by:
        sort_est = top.node.est_rows or 1.0
        use_topk = query.limit is not None and not query.distinct
        if use_topk:
            k = query.limit + query.offset
            node = PlanNode("TopK", f"k={k}", est_rows=min(float(k), sort_est))
            node.children.append(top.node)
            top = ops.TopKOp(node, top, query.order_by, k)
        else:
            node = PlanNode(
                "OrderBy", f"{len(query.order_by)} keys", est_rows=sort_est
            )
            node.children.append(top.node)
            top = ops.OrderByOp(node, top, query.order_by)

    if not needs_grouping and query.projections:
        names = " ".join(f"?{p.var.name}" for p in query.projections)
        node = PlanNode("Project", names, est_rows=top.node.est_rows)
        node.children.append(top.node)
        top = ops.ProjectOp(node, top, query)

    if query.distinct:
        node = PlanNode("Distinct", est_rows=top.node.est_rows)
        node.children.append(top.node)
        top = ops.DistinctOp(node, top)

    if query.offset or query.limit is not None:
        detail = []
        if query.limit is not None:
            detail.append(f"limit={query.limit}")
        if query.offset:
            detail.append(f"offset={query.offset}")
        prev_est = top.node.est_rows or 1.0
        est = prev_est - query.offset
        if query.limit is not None:
            est = min(float(query.limit), est)
        node = PlanNode("Slice", " ".join(detail), est_rows=max(0.0, est))
        node.children.append(top.node)
        top = ops.SliceOp(node, top, query.limit, query.offset)

    root = PlanNode("Select",
                    "distinct" if query.distinct else "",
                    est_rows=top.node.est_rows)
    root.children.append(top.node)
    _fill_sources(root)
    return ops.SubPlan(seed, top, root=root)


def plan_query(query: Query, ctx) -> "ops.SubPlan":
    """Plan any query form (the EXPLAIN entry point)."""
    if isinstance(query, SelectQuery):
        return plan_select(query, ctx)
    if isinstance(query, AskQuery):
        sub = plan_group(query.where, ctx)
        root = PlanNode("Ask", est_rows=1.0)
        root.children.append(sub.top.node)
        _fill_sources(root)
        return ops.SubPlan(sub.seed, sub.top, root=root)
    if isinstance(query, ConstructQuery):
        sub = plan_group(query.where, ctx)
        detail = f"{len(query.template)} template triples"
        if query.limit is not None:
            detail += f" limit={query.limit}"
        root = PlanNode("Construct", detail,
                        est_rows=(sub.top.node.est_rows or 1.0)
                        * max(1, len(query.template)))
        root.children.append(sub.top.node)
        _fill_sources(root)
        return ops.SubPlan(sub.seed, sub.top, root=root)
    if isinstance(query, DescribeQuery):
        root = PlanNode("Describe", f"{len(query.terms)} targets")
        if query.where is not None:
            sub = plan_group(query.where, ctx)
            root.children.append(sub.top.node)
            _fill_sources(root)
            return ops.SubPlan(sub.seed, sub.top, root=root)
        seed = ops.SeedOp(PlanNode("Seed", est_rows=1.0))
        _fill_sources(root)
        return ops.SubPlan(seed, seed, root=root)
    raise EvaluationError(f"unsupported query type {type(query).__name__}")
