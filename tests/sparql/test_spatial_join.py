"""Differential suite for the index spatial join.

``FILTER(geof:sfX(?a, ?b))`` turns the scan of one side into an R-tree
leaf once the other side is bound: the store hands back only literals
whose bounding box meets the bound geometry, and the FILTER still
verifies the exact relation. The contract is that this changes work,
never answers: on a :class:`~repro.strabon.StrabonStore` every query
must return the same bag as the same engine on a plain
:class:`~repro.rdf.graph.Graph` copy (no R-tree) and as the seed
reference evaluator — for all seven relations in both argument orders,
with the partner bound before the leaf, after it, from an input row
(VALUES, OPTIONAL), with malformed or non-literal partner geometries,
on every cell of the re-plan x feedback x spill matrix, and through
the term-level path of graphs without the id protocol.
"""

from collections import Counter

import pytest

import reference_evaluator
from repro.governance import BudgetExceeded, QueryBudget
from repro.rdf import GEO, GEO_WKT_LITERAL, GEOF, Graph, IRI, Literal
from repro.sparql import StatsStore, explain, parse_query, query
from repro.sparql.functions import SPATIAL_RELATIONS
from repro.strabon import StrabonStore

pytestmark = pytest.mark.tier1

EX = "http://example.org/"

PREFIX = f"""
PREFIX ex: <{EX}>
PREFIX geo: <http://www.opengis.net/ont/geosparql#>
PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
"""

#: (name, kind, asWKT object). Every relation has at least one A/B pair
#: that satisfies it; plain-literal, malformed and non-literal objects
#: exercise what the FILTER accepts or drops.
FEATURES = [
    ("a0", "A", "POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))"),
    ("a1", "A", "POLYGON((10 10, 12 10, 12 12, 10 12, 10 10))"),
    ("a2", "A", "LINESTRING(0 6, 6 6)"),
    ("a3", "A", "POINT(2 2)"),
    ("a4", "A", "POLYGON((0 0, 1"),                       # malformed
    ("a5", "A", IRI(EX + "not-a-literal")),
    ("a6", "A", Literal("POLYGON((20 20, 22 20, 22 22, 20 22, 20 20))")),
    ("b0", "B", "POLYGON((1 1, 3 1, 3 3, 1 3, 1 1))"),     # within a0
    ("b1", "B", "POLYGON((4 0, 6 0, 6 4, 4 4, 4 0))"),     # touches a0
    ("b2", "B", "POLYGON((3 3, 5 3, 5 5, 3 5, 3 3))"),     # overlaps a0
    ("b3", "B", "LINESTRING(-1 2, 5 2)"),                  # crosses a0
    ("b4", "B", "POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))"),     # equals a0
    ("b5", "B", "POINT(2 2)"),                             # equals a3
    ("b6", "B", "POLYGON((11 11, 13 11, 13 13, 11 13, 11 11))"),
    ("b7", "B", Literal("POINT(21 21)")),                  # plain WKT
    ("b8", "B", "POLYGON((50 50, 51 50, 51 51, 50 51, 50 50))"),
    ("b9", "B", "LINESTRING(3 6, 3 8)"),                   # touches a2
    ("b10", "B", "POINT(oops)"),                           # malformed
]

RELATIONS = sorted(SPATIAL_RELATIONS)


def _object(value):
    if isinstance(value, str):
        return Literal(value, datatype=GEO_WKT_LITERAL)
    return value


def build(graph):
    for name, kind, wkt in FEATURES:
        feature, geom = IRI(EX + name), IRI(EX + name + "/geom")
        graph.add(feature, IRI(EX + "kind"), Literal(kind))
        graph.add(feature, GEO.hasGeometry, geom)
        graph.add(geom, GEO.asWKT, _object(wkt))
    graph.bind("ex", EX)
    return graph


A_SIDE = ('?fa ex:kind "A" ; geo:hasGeometry ?ga . '
          '?ga geo:asWKT ?wa .')
B_SIDE = ('?fb ex:kind "B" ; geo:hasGeometry ?gb . '
          '?gb geo:asWKT ?wb .')
A_VALUES = "VALUES ?wa {{ " + " ".join(
    f'"{wkt}"^^geo:wktLiteral' for __, kind, wkt in FEATURES
    if kind == "A" and isinstance(wkt, str)) + " }}"

#: shape -> (query template, whether a join leaf must engage)
SHAPES = {
    # partner bound earlier in the same BGP
    "bgp": ("SELECT ?fa ?fb WHERE {{ " + A_SIDE + " " + B_SIDE
            + " FILTER({fn}({x}, {y})) }}", True),
    # partner bound by an input row (VALUES runs first)
    "values_first": ("SELECT ?wa ?fb WHERE {{ " + A_VALUES + " " + B_SIDE
                     + " FILTER({fn}({x}, {y})) }}", True),
    # partner bound only after the BGP: no pushdown possible
    "values_after": ("SELECT ?wa ?fb WHERE {{ " + B_SIDE + " " + A_VALUES
                     + " FILTER({fn}({x}, {y})) }}", False),
    # join inside OPTIONAL, partner from the outer row
    "optional": ("SELECT ?fa ?fb WHERE {{ " + A_SIDE + " OPTIONAL {{ "
                 + B_SIDE + " FILTER({fn}({x}, {y})) }} }}", True),
    # the leaf's pattern listed first: the term-level path's size-based
    # estimates tie it with ?fb's scan, and ties go to the earlier one
    "leaf_first": ("SELECT ?fa ?fb WHERE {{ ?gb geo:asWKT ?wb . " + A_SIDE
                   + ' ?fb geo:hasGeometry ?gb ; ex:kind "B" .'
                   + " FILTER({fn}({x}, {y})) }}", True),
}

ORDERS = [("?wa", "?wb"), ("?wb", "?wa")]


def text_for(shape, relation, order):
    template = SHAPES[shape][0]
    return PREFIX + template.format(fn=f"<{relation}>", x=order[0],
                                    y=order[1])


def bag(rows):
    return Counter(
        tuple(sorted((k, v.n3()) for k, v in row.items() if v is not None))
        for row in rows)


@pytest.fixture(scope="module")
def plain():
    return build(Graph())


@pytest.fixture(scope="module")
def store():
    return build(StrabonStore())


@pytest.fixture(scope="module")
def expected(plain):
    """Reference bags from the seed evaluator over the plain graph."""
    out = {}
    for shape in SHAPES:
        for relation in RELATIONS:
            for order in ORDERS:
                text = text_for(shape, relation, order)
                ref = reference_evaluator.eval_query(
                    parse_query(text, namespaces=plain.namespaces),
                    reference_evaluator.Context(plain))
                out[shape, relation, order] = bag(ref.rows)
    return out


def test_every_relation_has_a_matching_pair(expected):
    for relation in RELATIONS:
        for order in ORDERS:
            assert expected["bgp", relation, order], relation


@pytest.mark.parametrize("shape", list(SHAPES))
def test_plain_graph_agrees_with_reference(plain, expected, shape):
    for relation in RELATIONS:
        for order in ORDERS:
            result = query(plain, text_for(shape, relation, order))
            assert bag(result.rows) == expected[shape, relation, order]


@pytest.mark.parametrize("spill_threshold", [None, 1, 4])
@pytest.mark.parametrize("warm_runs", [None, 7])
@pytest.mark.parametrize("replan_ratio", [None, 1.5])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_store_agrees_on_every_cell(store, expected, tmp_path, shape,
                                    replan_ratio, warm_runs,
                                    spill_threshold):
    """``warm_runs``: ``None`` plans from index statistics alone; a
    number first records that many executions' feedback in a
    :class:`StatsStore` the checked run then plans from. Both spill
    thresholds sit below the size of the VALUES build side."""
    spill_dir = tmp_path / "spill"
    for relation in RELATIONS:
        for order in ORDERS:
            text = text_for(shape, relation, order)
            stats = None if warm_runs is None else StatsStore()
            for __ in range(warm_runs or 0):
                query(store, text, stats=stats)
            result = query(store, text, stats=stats,
                           replan_ratio=replan_ratio,
                           spill_threshold=spill_threshold,
                           spill_dir=spill_dir)
            assert bag(result.rows) == expected[shape, relation, order], \
                (relation, order)
    assert not spill_dir.exists() or not list(spill_dir.iterdir())


@pytest.mark.parametrize("shape", list(SHAPES))
def test_leaf_engages_only_when_the_partner_is_bound(store, plain, shape):
    must_engage = SHAPES[shape][1]
    for relation in RELATIONS:
        for order in ORDERS:
            text = text_for(shape, relation, order)
            rendered = explain(store, text).render()
            assert ("[rtree-join:" in rendered) == must_engage, rendered
            # a graph without an R-tree never shows a spatial leaf
            assert "SpatialIndexScan" not in explain(plain, text).render()


def test_leaf_relation_reads_from_the_leaf_side(store):
    text = text_for("bgp", str(GEOF.sfContains), ("?wa", "?wb"))
    rendered = explain(store, text).render()
    # sfContains(?wa, ?wb) seen from ?wb: "?wb within ?wa"
    assert "[rtree-join:within ?wa]" in rendered


def scanned(graph, text):
    """Triples the query's scans enumerated."""
    return sum(n.actual_rows for n in query(graph, text).plan.walk()
               if n.label in ("IndexScan", "SpatialIndexScan"))


@pytest.mark.parametrize("shape", [s for s in SHAPES if SHAPES[s][1]])
def test_leaf_cuts_enumerated_triples(store, plain, shape):
    text = text_for(shape, RELATIONS[0], ORDERS[0])
    assert scanned(store, text) < scanned(plain, text)


class TermView:
    """A store seen without the id protocol (the term-level path)."""

    def __init__(self, store):
        self._store = store
        self.namespaces = store.namespaces
        self.budget_aware = store.budget_aware

    def __len__(self):
        return len(self._store)

    def triples(self, pattern):
        return self._store.triples(pattern)

    def spatial_candidates(self, bounds, budget=None):
        return self._store.spatial_candidates(bounds, budget=budget)

    def spatial_join_candidates(self, geom, budget=None):
        return self._store.spatial_join_candidates(geom, budget=budget)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_term_level_path_agrees(store, expected, shape):
    view = TermView(store)
    for relation in RELATIONS:
        for order in ORDERS:
            result = query(view, text_for(shape, relation, order))
            assert bag(result.rows) == expected[shape, relation, order]


def test_term_level_leaf_cuts_enumerated_triples(store, plain):
    view = TermView(store)
    text = text_for("leaf_first", RELATIONS[0], ORDERS[0])
    assert "[rtree-join:" in explain(view, text).render()
    assert scanned(view, text) < scanned(plain, text)


class CountingStore(StrabonStore):
    """Counts the R-tree candidates the join leaf is handed."""

    candidates = 0

    def spatial_join_candidates(self, geom, budget=None):
        found = super().spatial_join_candidates(geom, budget=budget)
        self.candidates += len(found)
        return found


def test_join_budget_is_charged_per_rtree_candidate():
    store = build(CountingStore())
    text = text_for("bgp", RELATIONS[0], ORDERS[0])
    budget = QueryBudget(max_triples=100_000)
    result = query(store, text, budget=budget)
    assert "[rtree-join:" in result.plan.render()
    scanned = sum(n.actual_rows for n in result.plan.walk()
                  if n.label in ("IndexScan", "SpatialIndexScan"))
    assert store.candidates > 0
    assert budget.triples_scanned == scanned + store.candidates


def test_join_budget_runs_out_with_a_typed_error():
    store = build(StrabonStore())
    text = text_for("bgp", RELATIONS[0], ORDERS[0])
    full = QueryBudget(max_triples=100_000)
    query(store, text, budget=full)
    for limit in range(full.triples_scanned):
        budget = QueryBudget(max_triples=limit)
        with pytest.raises(BudgetExceeded):
            query(store, text, budget=budget)
        assert budget.triples_scanned == limit + 1
