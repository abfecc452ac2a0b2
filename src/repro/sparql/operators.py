"""Streaming physical operators for the SPARQL engine.

Each operator pulls solution rows from its source operator, transforms
them lazily, and counts every emitted row on its
:class:`~repro.sparql.plan.PlanNode` (the EXPLAIN "actual rows").
Because the pipeline is pull-based, a downstream ``Slice`` that stops
pulling terminates the scans underneath it — LIMIT-k queries never
enumerate the whole graph.

The BGP operator is an index-nested-loop join working at the
dictionary-id level: incoming bindings and pattern constants are
encoded once, the per-pattern probes and the join equality checks all
compare ints against the graph's id indexes, and terms are decoded
only when a fully-joined row is emitted. Graphs that do not expose the
id protocol (e.g. the federation view) fall back to an equivalent
term-level matcher.

Budget charging happens at exactly two operator boundaries:
:func:`charge_scan` (per triple a scan enumerates) here, and the
result-row charge in the executor. Nothing else touches the budget,
apart from the deadline tick every operator applies per input row.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .ast import (
    Bind,
    Filter,
    FunctionCall,
    InlineValues,
    OrderCondition,
    SelectQuery,
    ServicePattern,
    TermExpr,
    TriplePattern,
    Var,
    VarExpr,
)
from .expr import (
    EvaluationError,
    eval_expr,
    group_and_aggregate,
    order_key,
)
from .functions import (
    SPATIAL_RELATIONS,
    SparqlValueError,
    effective_boolean_value,
    geometry_from_term,
)
from .results import Solution
from .spill import DEFAULT_SPILL_DIR, SpillHashJoin


def charge_scan(ctx) -> None:
    """The single operator-boundary budget hook for index scans."""
    if ctx.budget is not None:
        ctx.budget.charge_triples()


def _tick(ctx) -> None:
    if ctx.budget is not None:
        ctx.budget.check_deadline()


class Operator:
    """Base streaming operator: pull rows, count emissions on the plan."""

    def __init__(self, node, source: Optional["Operator"] = None):
        self.node = node
        self.source = source

    def rows(self, ctx) -> Iterator[Solution]:
        raise NotImplementedError

    def stream(self, ctx) -> Iterator[Solution]:
        """``rows()``, timed when the context carries a trace.

        Operators pull from each other through this method; without a
        trace it is exactly ``rows()`` (zero overhead on the untraced
        hot path). With one, each ``next()`` activates the operator's
        plan-mirrored span, so inclusive time nests the way the
        pipeline does and lower layers (federation dispatches, DAP
        fetches, retry attempts) parent under the operator that pulled
        them.
        """
        trace = ctx.trace
        if trace is None:
            return self.rows(ctx)
        return self._traced_rows(ctx, trace)

    def _traced_rows(self, ctx, trace) -> Iterator[Solution]:
        span = trace.span_for(self.node)
        iterator = self.rows(ctx)
        while True:
            span.enter()
            try:
                row = next(iterator)
            except StopIteration:
                span.exit()
                return
            except BaseException:
                span.exit()
                raise
            span.exit()
            yield row

    def _emit(self, row: Solution) -> Solution:
        node = self.node
        node.actual_rows = (node.actual_rows or 0) + 1
        return row


class SubPlan:
    """A compiled pipeline that can be reseeded and re-run.

    ``seed`` is the pipeline's leaf; correlated operators (OPTIONAL's
    left join) reset ``seed.seed`` per outer row and pull ``top``
    again. ``root`` is the plan node to show for the whole pipeline
    (defaults to the top operator's node).
    """

    __slots__ = ("seed", "top", "root")

    def __init__(self, seed: "SeedOp", top: Operator, root=None):
        self.seed = seed
        self.top = top
        self.root = root if root is not None else top.node

    def run(self, ctx, seed_rows: List[Solution]) -> Iterator[Solution]:
        self.seed.seed = seed_rows
        return self.top.stream(ctx)


class SeedOp(Operator):
    """Pipeline leaf: emits the seed solutions (usually ``[{}]``)."""

    def __init__(self, node):
        super().__init__(node)
        self.seed: List[Solution] = [{}]

    def rows(self, ctx) -> Iterator[Solution]:
        for row in self.seed:
            yield self._emit(row)


# ---------------------------------------------------------------------------
# BGP: index-nested-loop join over dictionary ids
# ---------------------------------------------------------------------------

def _substitute(pattern: TriplePattern, solution: Solution):
    def resolve(node):
        if isinstance(node, Var):
            return solution.get(node.name)
        return node

    return resolve(pattern.s), resolve(pattern.p), resolve(pattern.o)


def _extend_terms(pattern: TriplePattern, triple,
                  solution: Solution) -> Optional[Solution]:
    out = dict(solution)
    for node, value in ((pattern.s, triple.s), (pattern.p, triple.p),
                        (pattern.o, triple.o)):
        if isinstance(node, Var):
            existing = out.get(node.name)
            if existing is None:
                out[node.name] = value
            elif existing != value:
                return None
    return out


# ---------------------------------------------------------------------------
# Spatial leaves: an R-tree probe in place of a scan
# ---------------------------------------------------------------------------

class SpatialRestriction:
    """``FILTER(geof:sfX(?v, <const>))`` seen from its variable.

    ``filter`` is the FILTER element it came from, so a consumer that
    answers the restriction elsewhere (Ontop's SQL pushdown) drops
    exactly that element and keeps every other one.
    """

    __slots__ = ("relation", "geometry", "filter")
    #: The R-tree probe uses the constant geometry (no join partner).
    partner = None

    def __init__(self, relation: str, geometry, filter_element: Filter):
        self.relation = relation
        self.geometry = geometry
        self.filter = filter_element


class SpatialJoin:
    """A variable–variable spatial FILTER, seen from one of its variables.

    ``relation`` reads "this variable *relation* ``?partner``"; the
    R-tree probe uses the partner's bound geometry.
    """

    __slots__ = ("relation", "partner")

    def __init__(self, relation: str, partner: str):
        self.relation = relation
        self.partner = partner


def extract_spatial_filters(elements) -> Tuple[
        Dict[str, SpatialRestriction], Dict[str, List[SpatialJoin]]]:
    """The spatial FILTERs of a group: ``(restrictions, joins)``.

    ``FILTER(geof:sfX(?v, <const>))`` becomes a restriction on ``?v``
    (the last one wins when a variable has several; constants that do
    not parse as geometries are skipped). ``FILTER(geof:sfX(?a, ?b))``
    is listed under both of its variables, in filter order, so
    whichever side is bound first can probe the other's R-tree (``?b``
    of ``sfContains(?a, ?b)`` is ``within ?a``). All seven relations
    imply intersecting bounding boxes, which is what makes the index
    probe a safe pre-filter.
    """
    restrictions: Dict[str, SpatialRestriction] = {}
    joins: Dict[str, List[SpatialJoin]] = {}
    for el in elements:
        if not isinstance(el, Filter):
            continue
        expr = el.expr
        if not isinstance(expr, FunctionCall):
            continue
        relation = SPATIAL_RELATIONS.get(expr.name)
        if relation is None or len(expr.args) != 2:
            continue
        a, b = expr.args
        if isinstance(a, VarExpr) and isinstance(b, VarExpr):
            a, b = a.var.name, b.var.name
            if a != b:
                joins.setdefault(a, []).append(SpatialJoin(relation, b))
                joins.setdefault(b, []).append(
                    SpatialJoin(_invert_relation(relation), a))
            continue
        if isinstance(a, VarExpr) and isinstance(b, TermExpr):
            var_arg, const_arg = a, b
        elif isinstance(b, VarExpr) and isinstance(a, TermExpr):
            var_arg, const_arg = b, a
            relation = _invert_relation(relation)
        else:
            continue
        try:
            geom = geometry_from_term(const_arg.term)
        except SparqlValueError:
            continue
        restrictions[var_arg.var.name] = SpatialRestriction(relation, geom,
                                                            el)
    return restrictions, joins


def _invert_relation(relation: str) -> str:
    return {"contains": "within", "within": "contains"}.get(relation, relation)


class SpatialFilters:
    """A group's pushable spatial FILTERs, as one store can serve them.

    *restrictions* (``FILTER(geof:sfX(?v, <const>))``) and *joins*
    (``FILTER(geof:sfX(?a, ?b))``) map a variable to its filters; both
    stay in the plan and verify the exact relation, the leaf only
    narrows the scan. :meth:`for_pattern` keeps what the store can
    index: constants need ``spatial_candidates``, joins
    ``spatial_join_candidates``.
    """

    __slots__ = ("restrictions", "joins", "_by_var")

    def __init__(self, restrictions, joins, graph):
        self.restrictions = restrictions
        self.joins = joins
        by_var: Dict[str, tuple] = {}
        if hasattr(graph, "spatial_candidates"):
            for name, restriction in restrictions.items():
                by_var[name] = (restriction,)
        if hasattr(graph, "spatial_join_candidates"):
            for name, entries in joins.items():
                by_var[name] = by_var.get(name, ()) + tuple(entries)
        self._by_var = by_var

    def for_pattern(self, pattern: TriplePattern) -> tuple:
        """Filters that may turn *pattern*'s scan into an R-tree leaf."""
        o = pattern.o
        if isinstance(o, Var):
            return self._by_var.get(o.name, ())
        return ()


def spatial_leaf(filters, pattern: TriplePattern, is_bound):
    """The filter whose R-tree probe replaces a scan of *pattern*.

    The one rule for spatial leaves, shared by the planner (estimates
    and EXPLAIN, *is_bound* over plan-time bound variables) and the BGP
    operator (per probe, over the live bindings). The subject and the
    object must both be unbound — a bound one is already a narrower
    probe. A constant restriction then always engages; a join engages
    once its partner is bound, because the probe needs the partner's
    geometry. ``None`` means a plain index scan.
    """
    if not filters:
        return None
    s = pattern.s
    if not isinstance(s, Var) or is_bound(s.name) or is_bound(pattern.o.name):
        return None
    for spatial in filters:
        if spatial.partner is None or is_bound(spatial.partner):
            return spatial
    return None


def _leaf_candidates(leaf, partner, ctx) -> list:
    """R-tree candidates for *leaf*: literals whose bbox meets the
    constant's, or the *partner* term's geometry. An unparseable
    partner yields none; the exact FILTER would drop the row anyway.
    Budget-aware stores charge each candidate to the scan budget."""
    graph = ctx.graph
    kwargs = ({"budget": ctx.budget}
              if ctx.budget is not None
              and getattr(graph, "budget_aware", False) else {})
    if leaf.partner is None:
        return graph.spatial_candidates(leaf.geometry.bounds, **kwargs)
    try:
        geom = geometry_from_term(partner)
    except SparqlValueError:
        return []
    return graph.spatial_join_candidates(geom, **kwargs)


#: Block rows sampled per remaining pattern when re-estimating a
#: suffix mid-query (each sample is an O(1) index-cardinality probe).
REPLAN_SAMPLE = 8


class BGPOp(Operator):
    """Index-nested-loop join of a basic graph pattern.

    *patterns* arrive in the planner's join order; *scan_nodes* are the
    per-pattern plan leaves whose "actual rows" count enumerated
    triples (what the scan budget is charged for) and whose ``probes``
    count input bindings, so ``actual_rows / probes`` is directly
    comparable with the planner's per-probe estimate.

    When the context carries a ``replan_ratio`` and the graph speaks
    the id protocol, execution switches to a staged (block) strategy
    that can *re-order the remaining pattern suffix mid-query* — see
    :meth:`_match_ids_adaptive`. With no re-plan triggered the staged
    strategy enumerates exactly the triples backtracking would, in the
    same emission order.
    """

    def __init__(self, node, source, patterns: List[TriplePattern],
                 spatial: SpatialFilters, scan_nodes,
                 signatures: Optional[List[str]] = None):
        super().__init__(node, source)
        self.patterns = patterns
        #: per pattern, the spatial filters that may make it a leaf
        self.spatial = [spatial.for_pattern(p) for p in patterns]
        self.scan_nodes = scan_nodes
        self.signatures = signatures or [None] * len(patterns)

    def rows(self, ctx) -> Iterator[Solution]:
        graph = ctx.graph
        id_mode = (hasattr(graph, "triples_ids")
                   and hasattr(graph, "dictionary"))
        specs = self._resolve_specs(graph) if id_mode else None
        adaptive = (id_mode
                    and len(self.patterns) >= 2
                    and ctx.replan_ratio is not None)
        for row in self.source.stream(ctx):
            _tick(ctx)
            self.node.probes += 1
            if id_mode:
                if specs is None:
                    continue  # a constant term is absent from the graph
                if adaptive:
                    matches = self._match_ids_adaptive(specs, row, ctx)
                else:
                    matches = self._match_ids(specs, row, ctx)
            else:
                matches = self._solve_terms(0, row, ctx)
            for out in matches:
                yield self._emit(out)

    # -- id-level matching -------------------------------------------------
    def _resolve_specs(self, graph):
        """Encode pattern constants: str = var name, int = term id."""
        lookup = graph.dictionary.lookup
        specs = []
        for pattern in self.patterns:
            spec = []
            for node in (pattern.s, pattern.p, pattern.o):
                if isinstance(node, Var):
                    spec.append(node.name)
                else:
                    term_id = lookup(node)
                    if term_id is None:
                        return None
                    spec.append(term_id)
            specs.append(tuple(spec))
        return specs

    def _match_ids(self, specs, row: Solution, ctx) -> Iterator[Solution]:
        graph = ctx.graph
        lookup = graph.dictionary.lookup
        env: Dict[str, int] = {}
        for pattern in self.patterns:
            for var in pattern.variables():
                name = var.name
                if name in row and name not in env:
                    term_id = lookup(row[name])
                    if term_id is None:
                        return  # bound term unknown to this graph
                    env[name] = term_id
        # Backtracking over one mutable env with undo (no dict copies
        # on the hot path); hoisted locals are deliberate — this loop
        # runs once per enumerated triple.
        decode = graph.dictionary.decode
        budget = ctx.budget
        spatial = self.spatial
        n = len(specs)

        def emit() -> Solution:
            out = dict(row)
            for name, term_id in env.items():
                if name not in out:
                    out[name] = decode(term_id)
            return out

        def solve(i: int) -> Iterator[Solution]:
            if i == n:
                yield emit()
                return
            last = i + 1 == n
            spec = specs[i]
            scan_node = self.scan_nodes[i]
            scan_node.probes += 1
            s = spec[0] if isinstance(spec[0], int) else env.get(spec[0])
            p = spec[1] if isinstance(spec[1], int) else env.get(spec[1])
            o = spec[2] if isinstance(spec[2], int) else env.get(spec[2])
            leaf = self._leaf(i, env, row) if spatial[i] else None
            if leaf is None:
                probes = graph.triples_ids((s, p, o))
            else:
                probes = self._leaf_ids(leaf, i, s, p, env, row, ctx)
            for triple in probes:
                if leaf is None:  # leaf triples arrive charged
                    if budget is not None:
                        budget.charge_triples()
                    scan_node.actual_rows = (scan_node.actual_rows or 0) + 1
                added = None
                conflict = False
                for pos_spec, term_id in zip(spec, triple):
                    if isinstance(pos_spec, str):
                        current = env.get(pos_spec)
                        if current is None:
                            env[pos_spec] = term_id
                            if added is None:
                                added = [pos_spec]
                            else:
                                added.append(pos_spec)
                        elif current != term_id:
                            conflict = True
                            break
                if not conflict:
                    if last:  # no generator frame per output row
                        yield emit()
                    else:
                        yield from solve(i + 1)
                if added:
                    for name in added:
                        del env[name]

        yield from solve(0)

    def _leaf(self, i: int, env: Dict[str, int], row: Solution):
        """The spatial filter probing pattern *i*'s R-tree, or ``None``
        for a plain index scan. Callers skip the call for patterns
        without spatial filters (the common, hot case).

        A join partner may be bound in the BGP (*env*) or come in with
        the input *row* (e.g. from outside an OPTIONAL group).
        """
        return spatial_leaf(self.spatial[i], self.patterns[i],
                            lambda name: name in env or name in row)

    def _leaf_ids(self, leaf, i: int, s, p, env: Dict[str, int],
                  row: Solution, ctx):
        """Id triples of pattern *i* whose object is an R-tree candidate,
        each charged to the budget and counted on the scan node."""
        graph = ctx.graph
        partner = leaf.partner
        if partner is not None:
            partner = (graph.dictionary.decode(env[partner])
                       if partner in env else row[partner])
        scan_node = self.scan_nodes[i]
        lookup = graph.dictionary.lookup
        for candidate in _leaf_candidates(leaf, partner, ctx):
            cand_id = lookup(candidate)
            if cand_id is None:
                continue
            for triple in graph.triples_ids((s, p, cand_id)):
                charge_scan(ctx)
                scan_node.actual_rows = (scan_node.actual_rows or 0) + 1
                yield triple

    # -- adaptive (staged) id-level matching --------------------------------
    def _match_ids_adaptive(self, specs, row: Solution,
                            ctx) -> Iterator[Solution]:
        """Staged block evaluation with mid-query suffix re-planning.

        Instead of backtracking, the BGP runs pattern-by-pattern over a
        materialized block of partial envs. With the planner's order
        unchanged this enumerates the same triples in the same emission
        order as :meth:`_match_ids`; what the staging buys is a safe
        checkpoint between (and inside) stages where actual per-probe
        rows can be compared against the planner's estimate. When they
        diverge past ``ctx.replan_ratio``, the *remaining* pattern
        suffix is re-ordered from deterministic sampled re-estimates —
        ``pattern_cardinality`` probed with the actual bound ids of the
        first :data:`REPLAN_SAMPLE` block rows — and, if a stage blows
        up mid-flight while a cheaper remaining pattern exists, the
        stage is abandoned (its input block is intact) and re-entered
        under the new order. Every re-plan is counted on the plan node,
        kept as a ``replan_events`` entry, and traced as a
        ``bgp.replan`` span.

        Decisions depend only on plan estimates and live index
        counters, so same-seed runs with a frozen stats snapshot make
        identical choices; results are the same solution bag as the
        static strategy in every case.
        """
        graph = ctx.graph
        lookup = graph.dictionary.lookup
        env0: Dict[str, int] = {}
        for pattern in self.patterns:
            for var in pattern.variables():
                name = var.name
                if name in row and name not in env0:
                    term_id = lookup(row[name])
                    if term_id is None:
                        return  # bound term unknown to this graph
                    env0[name] = term_id
        remaining = list(range(len(specs)))
        aborted: set = set()
        block: List[Dict[str, int]] = [env0]
        ratio = ctx.replan_ratio
        while remaining and block:
            idx = remaining[0]
            out, new_order = self._run_stage(idx, block, specs, remaining,
                                             aborted, row, ctx, ratio)
            if new_order is not None:  # stage aborted mid-flight
                aborted.add(idx)
                self._note_replan(ctx, idx, new_order)
                remaining = new_order
                continue
            remaining.pop(0)
            block = out
            if (block and len(remaining) >= 2
                    and self._stage_diverged(idx, ratio)):
                reordered = self._sampled_order(remaining, block, specs,
                                                graph)
                if reordered != remaining:
                    self._note_replan(ctx, idx, reordered)
                    remaining = reordered
        decode = graph.dictionary.decode
        for env in block:
            out_row = dict(row)
            for name, term_id in env.items():
                if name not in out_row:
                    out_row[name] = decode(term_id)
            yield out_row

    def _run_stage(self, idx: int, block, specs, remaining, aborted,
                   row: Solution, ctx, ratio):
        """One pattern over one block; returns ``(out_block, None)`` or
        ``(None, new_order)`` when the stage aborted for a re-plan."""
        graph = ctx.graph
        budget = ctx.budget
        spec = specs[idx]
        scan_node = self.scan_nodes[idx]
        est = scan_node.est_rows if scan_node.est_rows else 1.0
        # A pattern may abort at most once (else a stubborn sample
        # could ping-pong), and only while an alternative exists.
        can_abort = idx not in aborted and len(remaining) >= 2
        out: List[Dict[str, int]] = []
        produced = 0
        for probe_i, env in enumerate(block):
            scan_node.probes += 1
            s = spec[0] if isinstance(spec[0], int) else env.get(spec[0])
            p = spec[1] if isinstance(spec[1], int) else env.get(spec[1])
            o = spec[2] if isinstance(spec[2], int) else env.get(spec[2])
            leaf = self._leaf(idx, env, row) if self.spatial[idx] else None
            if leaf is None:
                probes = graph.triples_ids((s, p, o))
            else:
                probes = self._leaf_ids(leaf, idx, s, p, env, row, ctx)
            for triple in probes:
                if leaf is None:  # leaf triples arrive charged
                    if budget is not None:
                        budget.charge_triples()
                    scan_node.actual_rows = (scan_node.actual_rows or 0) + 1
                produced += 1
                merged = self._merge_env(spec, triple, env)
                if merged is not None:
                    out.append(merged)
            if can_abort and \
                    (produced + 1.0) / ((probe_i + 1) * est + 1.0) >= ratio:
                reordered = self._sampled_order(remaining, block, specs,
                                                graph)
                if reordered[0] != idx:
                    return None, reordered
                can_abort = False  # cheapest anyway: run to completion
        return out, None

    @staticmethod
    def _merge_env(spec, triple, env: Dict[str, int]
                   ) -> Optional[Dict[str, int]]:
        out = dict(env)
        for pos_spec, term_id in zip(spec, triple):
            if isinstance(pos_spec, str):
                current = out.get(pos_spec)
                if current is None:
                    out[pos_spec] = term_id
                elif current != term_id:
                    return None
        return out

    def _stage_diverged(self, idx: int, ratio: float) -> bool:
        scan_node = self.scan_nodes[idx]
        probes = scan_node.probes
        if not probes:
            return False
        mean = (scan_node.actual_rows or 0) / probes
        est = scan_node.est_rows if scan_node.est_rows else 1.0
        hi, lo = (mean, est) if mean >= est else (est, mean)
        return (hi + 1.0) / (lo + 1.0) >= ratio

    @staticmethod
    def _sampled_order(remaining, block, specs, graph) -> List[int]:
        """Remaining patterns ordered by sampled per-probe cardinality.

        Each sample resolves the pattern's positions against an actual
        block env (unresolved variables stay wildcards) and reads the
        exact index cardinality — O(1) per probe. Ties keep the current
        order; the whole computation is a pure function of the block,
        hence deterministic.
        """
        sampled = []
        for pos, idx in enumerate(remaining):
            spec = specs[idx]
            total = 0.0
            n = 0
            for env in block[:REPLAN_SAMPLE]:
                ids = tuple(part if isinstance(part, int) else env.get(part)
                            for part in spec)
                total += graph.pattern_cardinality(ids)
                n += 1
            sampled.append((total / n if n else 0.0, pos, idx))
        sampled.sort(key=lambda item: (item[0], item[1]))
        return [idx for __, __, idx in sampled]

    def _note_replan(self, ctx, stage_idx: int, new_order) -> None:
        node = self.node
        node.replans += 1
        if len(node.replan_events) < 16:
            node.replan_events.append({
                "diverged": self.scan_nodes[stage_idx].detail,
                "order": [self.scan_nodes[i].detail for i in new_order],
            })
        trace = ctx.trace
        if trace is not None:
            with trace.tracer.span(
                "bgp.replan",
                node_id=node.id,
                diverged=self.scan_nodes[stage_idx].detail,
            ) as span:
                span.record("replans")

    # -- term-level fallback (graphs without the id protocol) ----------------
    def _solve_terms(self, i: int, solution: Solution,
                     ctx) -> Iterator[Solution]:
        if i == len(self.patterns):
            yield solution
            return
        pattern = self.patterns[i]
        scan_node = self.scan_nodes[i]
        scan_node.probes += 1
        graph = ctx.graph
        s, p, o = _substitute(pattern, solution)

        leaf = spatial_leaf(self.spatial[i], pattern, solution.__contains__)
        if leaf is not None:
            partner = (solution[leaf.partner]
                       if leaf.partner is not None else None)
            for candidate in _leaf_candidates(leaf, partner, ctx):
                for triple in graph.triples((s, p, candidate)):
                    charge_scan(ctx)
                    scan_node.actual_rows = (scan_node.actual_rows or 0) + 1
                    extended = _extend_terms(pattern, triple, solution)
                    if extended is not None:
                        yield from self._solve_terms(i + 1, extended, ctx)
            return

        for triple in graph.triples((s, p, o)):
            charge_scan(ctx)
            scan_node.actual_rows = (scan_node.actual_rows or 0) + 1
            extended = _extend_terms(pattern, triple, solution)
            if extended is not None:
                yield from self._solve_terms(i + 1, extended, ctx)


# ---------------------------------------------------------------------------
# Row-at-a-time operators
# ---------------------------------------------------------------------------

class FilterOp(Operator):
    def __init__(self, node, source, expr):
        super().__init__(node, source)
        self.expr = expr

    def rows(self, ctx) -> Iterator[Solution]:
        for row in self.source.stream(ctx):
            try:
                if effective_boolean_value(eval_expr(self.expr, row, ctx)):
                    yield self._emit(row)
            except SparqlValueError:
                continue  # evaluation error drops the row


class BindOp(Operator):
    def __init__(self, node, source, bind: Bind):
        super().__init__(node, source)
        self.bind = bind

    def rows(self, ctx) -> Iterator[Solution]:
        for row in self.source.stream(ctx):
            row = dict(row)
            try:
                row[self.bind.var.name] = eval_expr(self.bind.expr, row, ctx)
            except SparqlValueError:
                pass  # BIND error leaves the variable unbound
            yield self._emit(row)


class LeftJoinOp(Operator):
    """OPTIONAL: per-row correlated evaluation of the sub-pipeline."""

    def __init__(self, node, source, sub: SubPlan):
        super().__init__(node, source)
        self.sub = sub

    def rows(self, ctx) -> Iterator[Solution]:
        for row in self.source.stream(ctx):
            _tick(ctx)
            matched = False
            for out in self.sub.run(ctx, [dict(row)]):
                matched = True
                yield self._emit(out)
            if not matched:
                yield self._emit(row)


class UnionOp(Operator):
    def __init__(self, node, source, subs: List[SubPlan]):
        super().__init__(node, source)
        self.subs = subs

    def rows(self, ctx) -> Iterator[Solution]:
        _tick(ctx)
        input_rows = list(self.source.stream(ctx))
        for sub in self.subs:
            seeded = [dict(r) for r in input_rows]
            for out in sub.run(ctx, seeded):
                yield self._emit(out)


class MinusOp(Operator):
    def __init__(self, node, source, sub: SubPlan):
        super().__init__(node, source)
        self.sub = sub

    def rows(self, ctx) -> Iterator[Solution]:
        exclusions = None
        for row in self.source.stream(ctx):
            _tick(ctx)
            if exclusions is None:
                exclusions = list(self.sub.run(ctx, [{}]))
            excluded = False
            for exc in exclusions:
                shared = set(row) & set(exc)
                if shared and all(row[v] == exc[v] for v in shared):
                    excluded = True
                    break
            if not excluded:
                yield self._emit(row)


class _HashJoiner:
    """Hash join against a materialized right side.

    Right rows are grouped by their variable-set signature (bindings
    from VALUES/SERVICE/sub-SELECT need not be uniform); per signature
    a hash index keyed on the shared variables of the probing row is
    built lazily. Matches are replayed in original right-side order so
    the join is order-deterministic.
    """

    def __init__(self, right_rows: List[Solution]):
        self._by_sig: Dict[frozenset, List[Tuple[int, Solution]]] = {}
        for idx, row in enumerate(right_rows):
            self._by_sig.setdefault(frozenset(row), []).append((idx, row))
        self._indexes: Dict[Tuple, Dict] = {}

    def matches(self, left: Solution) -> Iterator[Solution]:
        left_keys = set(left)
        hits: List[Tuple[int, Solution]] = []
        for sig, entries in self._by_sig.items():
            shared = tuple(sorted(left_keys & sig))
            index = self._indexes.get((sig, shared))
            if index is None:
                index = {}
                for idx, row in entries:
                    key = tuple(row[v] for v in shared)
                    index.setdefault(key, []).append((idx, row))
                self._indexes[(sig, shared)] = index
            key = tuple(left[v] for v in shared)
            hits.extend(index.get(key, ()))
        hits.sort(key=lambda entry: entry[0])
        for __, row in hits:
            merged = dict(left)
            merged.update(row)
            yield merged


def _build_joiner(ctx, node, join_key, right_rows):
    """The hash joiner for a materialized build side.

    Returns ``(joiner, spill_joiner)``: the in-memory
    :class:`_HashJoiner` when no spill threshold is armed on the
    context, else a :class:`~repro.sparql.spill.SpillHashJoin` keyed on
    the plan-time *join_key* whose in-memory build side is bounded at
    ``ctx.spill_threshold`` rows (``spill_joiner`` must be closed by
    the caller — operators do so in a ``finally``). Both joiners
    produce byte-identical output for the same inputs.
    """
    threshold = ctx.spill_threshold
    if threshold is None:
        return _HashJoiner(right_rows), None
    spill_dir = ctx.spill_dir or DEFAULT_SPILL_DIR
    tag = f"{(node.label or 'join').lower()}-n{node.id or 0}"
    joiner = SpillHashJoin(join_key or (), max_build_rows=threshold,
                           spill_dir=spill_dir, tag=tag, budget=ctx.budget)
    try:
        joiner.build(right_rows)
    except BaseException:
        # a budget trip mid-build has already written partitions, and
        # the caller never sees this joiner to close it
        joiner.close()
        raise
    return joiner, joiner


def _finish_spill(node, spill_joiner) -> None:
    if spill_joiner is not None:
        stats = spill_joiner.close()
        node.spill = stats["spilled_rows"]


class ValuesOp(Operator):
    def __init__(self, node, source, values: InlineValues, join_key=()):
        super().__init__(node, source)
        self.join_key = tuple(join_key)
        self._rows = []
        for row in values.rows:
            self._rows.append({
                var.name: term
                for var, term in zip(values.variables, row)
                if term is not None
            })
        self._mem_joiner = None

    def rows(self, ctx) -> Iterator[Solution]:
        joiner, spill = _build_joiner(ctx, self.node, self.join_key,
                                      self._rows)
        if spill is None:
            # cache the in-memory joiner: VALUES rows never change, so
            # re-runs (e.g. under OPTIONAL) reuse the lazy indexes
            if self._mem_joiner is None:
                self._mem_joiner = joiner
            joiner = self._mem_joiner
        try:
            for row in self.source.stream(ctx):
                _tick(ctx)
                for out in joiner.matches(row):
                    yield self._emit(out)
        finally:
            _finish_spill(self.node, spill)


class SubSelectOp(Operator):
    def __init__(self, node, source, query: SelectQuery, join_key=()):
        super().__init__(node, source)
        self.query = query
        self.join_key = tuple(join_key)

    def rows(self, ctx) -> Iterator[Solution]:
        joiner = None
        spill = None
        try:
            for row in self.source.stream(ctx):
                _tick(ctx)
                if joiner is None:
                    sub_result = ctx.eval_query(self.query)
                    joiner, spill = _build_joiner(ctx, self.node,
                                                  self.join_key,
                                                  sub_result.rows)
                for out in joiner.matches(row):
                    yield self._emit(out)
        finally:
            _finish_spill(self.node, spill)


class ServiceOp(Operator):
    """Exchange operator: ships the group to a remote endpoint once and
    hash-joins the returned bindings into the local stream."""

    def __init__(self, node, source, element: ServicePattern, join_key=()):
        super().__init__(node, source)
        self.element = element
        self.join_key = tuple(join_key)

    def rows(self, ctx) -> Iterator[Solution]:
        joiner = None
        spill = None
        try:
            for row in self.source.stream(ctx):
                _tick(ctx)
                self.node.probes += 1
                if joiner is None:
                    if ctx.service_resolver is None:
                        raise EvaluationError(
                            "SERVICE pattern requires a service resolver"
                            " (federation)"
                        )
                    remote_rows = ctx.service_resolver(
                        str(self.element.endpoint), self.element.group
                    )
                    joiner, spill = _build_joiner(ctx, self.node,
                                                  self.join_key,
                                                  remote_rows)
                for out in joiner.matches(row):
                    yield self._emit(out)
        finally:
            _finish_spill(self.node, spill)


# ---------------------------------------------------------------------------
# Solution modifiers
# ---------------------------------------------------------------------------

class AggregateOp(Operator):
    """GROUP BY + aggregate projection (blocking)."""

    def __init__(self, node, source, query: SelectQuery):
        super().__init__(node, source)
        self.query = query

    def rows(self, ctx) -> Iterator[Solution]:
        input_rows = list(self.source.stream(ctx))
        for row in group_and_aggregate(self.query, input_rows, ctx):
            yield self._emit(row)


class OrderByOp(Operator):
    """Full blocking sort (ORDER BY without a LIMIT to bound it)."""

    def __init__(self, node, source, conditions: List[OrderCondition]):
        super().__init__(node, source)
        self.conditions = conditions

    def rows(self, ctx) -> Iterator[Solution]:
        input_rows = list(self.source.stream(ctx))
        # Stable multi-key sort: right-to-left so the leftmost ORDER BY
        # condition dominates.
        for cond in reversed(self.conditions):
            input_rows.sort(
                key=lambda row, cond=cond: order_key(cond, row, ctx),
                reverse=cond.descending,
            )
        for row in input_rows:
            yield self._emit(row)


class _TopKEntry:
    """Comparator wrapper giving heapq the ORDER BY total order.

    The input index tiebreak makes the order identical to the stable
    full sort, so TopK(k) emits exactly the first k rows OrderBy would.
    """

    __slots__ = ("row", "keys", "index")

    def __init__(self, row, keys, index):
        self.row = row
        self.keys = keys
        self.index = index

    def __lt__(self, other: "_TopKEntry") -> bool:
        for (key, descending), (other_key, __) in zip(self.keys, other.keys):
            if key == other_key:
                continue
            if descending:
                return key > other_key
            return key < other_key
        return self.index < other.index


class TopKOp(Operator):
    """ORDER BY + LIMIT as a bounded heap: O(n log k), never sorts n."""

    def __init__(self, node, source, conditions: List[OrderCondition],
                 k: int):
        super().__init__(node, source)
        self.conditions = conditions
        self.k = k

    def rows(self, ctx) -> Iterator[Solution]:
        conds = self.conditions
        directions = {cond.descending for cond in conds}
        if len(directions) == 1:
            # Uniform direction: heapq can compare plain key tuples in
            # C. nsmallest/nlargest are documented as equivalent to the
            # stable sorted(...)[:k], so ties keep input order exactly
            # like the full sort (and like the mixed-direction path).
            keyed = (
                (tuple(order_key(cond, row, ctx) for cond in conds), row)
                for row in self.source.stream(ctx)
            )
            pick = (heapq.nlargest if directions == {True}
                    else heapq.nsmallest)
            for __, row in pick(self.k, keyed, key=lambda kr: kr[0]):
                yield self._emit(row)
            return
        entries = (
            _TopKEntry(
                row,
                [(order_key(cond, row, ctx), cond.descending)
                 for cond in conds],
                index,
            )
            for index, row in enumerate(self.source.stream(ctx))
        )
        for entry in heapq.nsmallest(self.k, entries):
            yield self._emit(entry.row)


class ProjectOp(Operator):
    def __init__(self, node, source, query: SelectQuery):
        super().__init__(node, source)
        self.query = query

    def rows(self, ctx) -> Iterator[Solution]:
        for row in self.source.stream(ctx):
            out: Solution = {}
            for proj in self.query.projections:
                if proj.expr is None:
                    if proj.var.name in row:
                        out[proj.var.name] = row[proj.var.name]
                else:
                    try:
                        out[proj.var.name] = eval_expr(proj.expr, row, ctx)
                    except SparqlValueError:
                        pass
            yield self._emit(out)


class DistinctOp(Operator):
    def __init__(self, node, source):
        super().__init__(node, source)

    def rows(self, ctx) -> Iterator[Solution]:
        seen: Set[Tuple] = set()
        for row in self.source.stream(ctx):
            key = tuple(
                (v, row[v].n3() if hasattr(row[v], "n3") else str(row[v]))
                for v in sorted(row)
            )
            if key not in seen:
                seen.add(key)
                yield self._emit(row)


class SliceOp(Operator):
    """OFFSET/LIMIT; stops pulling its source once the limit is hit."""

    def __init__(self, node, source, limit: Optional[int], offset: int):
        super().__init__(node, source)
        self.limit = limit
        self.offset = offset

    def rows(self, ctx) -> Iterator[Solution]:
        emitted = 0
        skipped = 0
        for row in self.source.stream(ctx):
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and emitted >= self.limit:
                return
            emitted += 1
            yield self._emit(row)
            if self.limit is not None and emitted >= self.limit:
                return
