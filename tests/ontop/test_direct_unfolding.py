"""Tests for Ontop's direct SQL unfolding path.

The direct path must (a) fire for simple single-mapping queries,
(b) bail to the generic path whenever correctness would be at risk,
and (c) always produce the same answers as the generic path.
"""

from collections import Counter

import pytest

from repro.madis import MadisConnection
from repro.ontop import OntopSpatial
from repro.rdf import Graph, IRI, RDF

EX = "http://example.org/"

DOCUMENT = """\
[PrefixDeclaration]
ex:\thttp://example.org/
geo:\thttp://www.opengis.net/ont/geosparql#
xsd:\thttp://www.w3.org/2001/XMLSchema#
rdf:\thttp://www.w3.org/1999/02/22-rdf-syntax-ns#

[MappingDeclaration] @collection [[
mappingId\tparks
target\tex:park/{id} rdf:type ex:Park .
\tex:park/{id} ex:hasName {name} ;
\t     ex:hasArea {area}^^xsd:double .
\tex:park/{id} geo:hasGeometry ex:park/{id}/geom .
\tex:park/{id}/geom geo:asWKT {wkt}^^geo:wktLiteral .
source\tSELECT id, name, area, wkt FROM parks

mappingId\tfactories
target\tex:factory/{id} rdf:type ex:Factory .
\tex:factory/{id} ex:hasName {name} .
\tex:factory/{id} geo:hasGeometry ex:factory/{id}/geom .
\tex:factory/{id}/geom geo:asWKT {wkt}^^geo:wktLiteral .
source\tSELECT id, name, wkt FROM factories
]]
"""

PREFIX = """
PREFIX ex: <http://example.org/>
PREFIX geo: <http://www.opengis.net/ont/geosparql#>
PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
"""


@pytest.fixture
def engine():
    conn = MadisConnection()
    conn.executescript(
        "CREATE TABLE parks (id INTEGER, name TEXT, area REAL, wkt TEXT);"
        "CREATE TABLE factories (id INTEGER, name TEXT, wkt TEXT);"
    )
    for i in range(10):
        conn.execute(
            "INSERT INTO parks VALUES (?, ?, ?, ?)",
            (i, f"park{i}", float(i),
             f"POLYGON (({i} 0, {i}.8 0, {i}.8 0.8, {i} 0.8, {i} 0))"),
        )
    # NULL columns: a row drops out of every pattern over that column
    for i, name, area in ((10, "park10", None), (11, None, None),
                          (12, None, 12.0)):
        conn.execute(
            "INSERT INTO parks VALUES (?, ?, ?, ?)",
            (i, name, area,
             f"POLYGON (({i} 0, {i}.8 0, {i}.8 0.8, {i} 0.8, {i} 0))"),
        )
    conn.execute(
        "INSERT INTO factories VALUES (0, 'factory0', 'POINT (0.5 0.5)')"
    )
    return OntopSpatial.from_document(conn, DOCUMENT)


def generic_answer(engine, query):
    """Force the generic path by evaluating over the materialization."""
    return engine.materialize().query(query)


def _row_key(row):
    return tuple(sorted((k, str(v)) for k, v in row.items()))


def rows_as_bag(result):
    return Counter(_row_key(row) for row in result)


def rows_in_order(result):
    return [_row_key(row) for row in result]


QUERIES_DIRECT = [
    # simple class + value selection
    PREFIX + "SELECT ?p ?n WHERE { ?p a ex:Park ; ex:hasName ?n }",
    # spatial constant filter (pushdown)
    PREFIX + """
    SELECT ?p WHERE {
      ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
      FILTER(geof:sfIntersects(?w,
        "POLYGON ((2.1 0.1, 3.9 0.1, 3.9 0.5, 2.1 0.5, 2.1 0.1))"^^geo:wktLiteral))
    }
    """,
    # numeric residual filter
    PREFIX + "SELECT ?p WHERE { ?p ex:hasArea ?a . ?p a ex:Park "
             "FILTER(?a >= 7) }",
    # expression projection
    PREFIX + "SELECT ?p (geof:area(?w) AS ?sz) WHERE "
             "{ ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w }",
    # aggregate without grouping
    PREFIX + "SELECT (COUNT(?p) AS ?n) (AVG(?a) AS ?mean) WHERE "
             "{ ?p a ex:Park ; ex:hasArea ?a }",
    # group by
    PREFIX + "SELECT ?n (COUNT(?p) AS ?c) WHERE "
             "{ ?p a ex:Park ; ex:hasName ?n } GROUP BY ?n",
    # order by + limit
    PREFIX + "SELECT ?p ?a WHERE { ?p a ex:Park ; ex:hasArea ?a } "
             "ORDER BY DESC(?a) LIMIT 3",
    # bind
    PREFIX + "SELECT ?p ?double WHERE { ?p a ex:Park ; ex:hasArea ?a "
             "BIND(?a * 2 AS ?double) }",
    # distinct
    PREFIX + "SELECT DISTINCT ?n WHERE { ?p a ex:Park ; ex:hasName ?n }",
    # filter first: the filtered column is NULL in some rows
    PREFIX + "SELECT ?p ?a WHERE { ?p a ex:Park ; ex:hasArea ?a "
             "FILTER(?a < 5 || ?a > 9) }",
    # filter first: a projected column is NULL in rows that pass
    PREFIX + "SELECT ?p ?n WHERE { ?p a ex:Park ; ex:hasArea ?a ; "
             "ex:hasName ?n FILTER(?a >= 2) }",
    # a BIND feeding a FILTER keeps the all-terms-first loop
    PREFIX + "SELECT ?p ?d WHERE { ?p a ex:Park ; ex:hasArea ?a "
             "BIND(?a * 2 AS ?d) FILTER(?d > 10) }",
    # filter first, then ORDER BY a late-built variable
    PREFIX + "SELECT ?n ?a WHERE { ?p ex:hasName ?n ; ex:hasArea ?a ; "
             "a ex:Park FILTER(?a > 1) } ORDER BY DESC(?n)",
    # two constant filters on the pushed variable: SQL answers one,
    # the other stays a residual filter
    PREFIX + """
    SELECT ?p WHERE {
      ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
      FILTER(geof:sfIntersects(?w,
        "POLYGON ((2.1 0.1, 3.9 0.1, 3.9 0.5, 2.1 0.5, 2.1 0.1))"^^geo:wktLiteral))
      FILTER(geof:sfIntersects(?w,
        "POLYGON ((3.1 0.1, 7.9 0.1, 7.9 0.5, 3.1 0.5, 3.1 0.1))"^^geo:wktLiteral))
    }
    """,
    # a spatial filter whose constant does not parse is not pushed and
    # still drops every row
    PREFIX + """
    SELECT ?p WHERE {
      ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
      FILTER(geof:sfIntersects(?w,
        "POLYGON ((2.1 0.1, 3.9 0.1, 3.9 0.5, 2.1 0.5, 2.1 0.1))"^^geo:wktLiteral))
      FILTER(geof:sfWithin(?w, "POLYGON ((oops))"^^geo:wktLiteral))
    }
    """,
]


@pytest.mark.parametrize("query", QUERIES_DIRECT,
                         ids=[f"q{i}" for i in range(len(QUERIES_DIRECT))])
def test_direct_matches_generic(engine, query):
    assert engine._direct_sql_plan(_parse(engine, query)) is not None
    direct = engine.query(query)
    generic = generic_answer(engine, query)
    if "ORDER BY" in query:
        # every ORDER BY key above is unique, so the order is total
        assert rows_in_order(direct) == rows_in_order(generic)
    else:
        assert rows_as_bag(direct) == rows_as_bag(generic)


def test_direct_path_fires_for_simple_query(engine):
    assert engine._try_direct_sql(
        _parse(engine, PREFIX + "SELECT ?p WHERE { ?p a ex:Park }")
    ) is not None


def test_direct_bails_on_cross_mapping_pattern(engine):
    """(?s ex:hasName ?n) matches both mappings → multiple anchors."""
    ast = _parse(engine, PREFIX + "SELECT ?n WHERE { ?s ex:hasName ?n }")
    assert engine._try_direct_sql(ast) is None
    # generic path still answers and includes both sources
    result = engine.query(PREFIX + "SELECT ?n WHERE { ?s ex:hasName ?n }")
    names = {r["n"].lexical for r in result}
    assert "factory0" in names and "park3" in names


def test_direct_bails_on_optional(engine):
    ast = _parse(
        engine,
        PREFIX + "SELECT ?p WHERE { ?p a ex:Park "
        "OPTIONAL { ?p ex:hasName ?n } }",
    )
    assert engine._try_direct_sql(ast) is None


def test_direct_bails_on_exists_filter(engine):
    ast = _parse(
        engine,
        PREFIX + "SELECT ?p WHERE { ?p a ex:Park "
        "FILTER(EXISTS { ?p ex:hasName ?n }) }",
    )
    assert engine._try_direct_sql(ast) is None


def test_cross_mapping_spatial_join_correct(engine):
    """Factory point sits in park0: the var-var join uses the generic
    path and must find it."""
    result = engine.query(
        PREFIX + """
        SELECT ?p ?f WHERE {
          ?p a ex:Park ; geo:hasGeometry ?gp . ?gp geo:asWKT ?wp .
          ?f a ex:Factory ; geo:hasGeometry ?gf . ?gf geo:asWKT ?wf .
          FILTER(geof:sfContains(?wp, ?wf))
        }
        """
    )
    assert len(result) == 1
    assert str(result.rows[0]["p"]) == EX + "park/0"


def _labels(node):
    return [n.label for n in node.walk()]


def test_explain_direct_shows_sql_filters_and_engine_tail(engine):
    query = PREFIX + """
    SELECT ?p WHERE {
      ?p a ex:Park ; ex:hasArea ?a ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
      FILTER(geof:sfIntersects(?w,
        "POLYGON ((2.1 0.1, 7.9 0.1, 7.9 0.5, 2.1 0.5, 2.1 0.1))"^^geo:wktLiteral))
      FILTER(?a >= 4)
    } ORDER BY DESC(?a) LIMIT 2
    """
    plan = engine.explain(query)
    assert plan.label == "OntopDirectSQL"
    sql, residual, tail = plan.children
    assert sql.label == "SQL"
    assert [c.label for c in sql.children] == ["SpatialPushdown"]
    assert sql.children[0].detail == "?w"
    assert (residual.label, residual.detail) == ("ResidualFilter",
                                                 "1 filters")
    assert _labels(tail) == ["Select", "Slice", "Project", "TopK", "Seed"]

    result = engine.query(query)
    assert _labels(result.plan) == _labels(plan)
    assert [str(r["p"]) for r in result] == [EX + "park/7", EX + "park/6"]
    assert result.plan.actual_rows == 2
    assert result.plan.children[-1].actual_rows == 2


def test_explain_generic_shows_instantiation_and_engine_plan(engine):
    plan = engine.explain(PREFIX + "SELECT ?n WHERE { ?s ex:hasName ?n }")
    assert (plan.label, plan.detail) == ("OntopVirtual", "2 mappings")
    *instantiate, engine_plan = plan.children
    assert [(c.label, c.detail) for c in instantiate] == [
        ("Instantiate", "parks"), ("Instantiate", "factories")]
    assert engine_plan.label == "Select"
    assert "IndexScan" in _labels(engine_plan)


def test_disjointness_guard_subject_templates(engine):
    """Templates ex:park/{id} and ex:factory/{id} are provably
    disjoint — the guard lets Park-anchored queries through."""
    from repro.ontop.obda import _templates_disjoint
    from repro.ontop.mapping import NodeTemplate

    a = NodeTemplate("iri", EX + "park/{id}")
    b = NodeTemplate("iri", EX + "factory/{id}")
    assert _templates_disjoint(a, b)
    assert not _templates_disjoint(a, NodeTemplate("iri", EX + "park/{x}"))


def _parse(engine, text):
    from repro.sparql.parser import parse_query

    return parse_query(text, namespaces=engine.namespaces)
