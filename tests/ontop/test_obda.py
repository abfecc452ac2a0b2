"""OBDA engine tests: unfolding, virtual queries, SQL spatial pushdown."""

import pytest

from repro.madis import MadisConnection
from repro.ontop import OntopSpatial
from repro.rdf import GEO, IRI, Literal, RDF

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
\tex:park/{id} ex:hasName {name} .
\tex:park/{id} geo:hasGeometry ex:park/{id}/geom .
\tex:park/{id}/geom geo:asWKT {wkt}^^geo:wktLiteral .
source\tSELECT id, name, wkt FROM parks

mappingId\tfactories
target\tex:factory/{id} rdf:type ex:Factory .
\tex:factory/{id} geo:hasGeometry ex:factory/{id}/geom .
\tex:factory/{id}/geom geo:asWKT {wkt}^^geo:wktLiteral .
source\tSELECT id, wkt FROM factories
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
        """
        CREATE TABLE parks (id INTEGER, name TEXT, wkt TEXT);
        CREATE TABLE factories (id INTEGER, wkt TEXT);
        """
    )
    for i in range(30):
        x = float(i)
        conn.execute(
            "INSERT INTO parks VALUES (?, ?, ?)",
            (i, f"park{i}",
             f"POLYGON (({x} 0, {x + 0.8} 0, {x + 0.8} 0.8, {x} 0.8, {x} 0))"),
        )
    conn.execute("INSERT INTO factories VALUES (1, 'POINT (5.4 0.4)')")
    return OntopSpatial.from_document(conn, DOCUMENT)


def test_materialize(engine):
    g = engine.materialize()
    parks = list(g.subjects(RDF.type, IRI(EX + "Park")))
    assert len(parks) == 30
    assert len(list(g.subjects(RDF.type, IRI(EX + "Factory")))) == 1


def test_unfolding_selects_relevant_mappings(engine):
    from repro.sparql.parser import parse_query

    ast = parse_query(
        PREFIX + "SELECT ?p WHERE { ?p a ex:Park }",
        namespaces=engine.namespaces,
    )
    relevant = engine.relevant_mappings(ast.where)
    assert [m.mapping_id for m in relevant] == ["parks"]


def test_query_basic(engine):
    res = engine.query(
        PREFIX + "SELECT ?n WHERE { ?p a ex:Park ; ex:hasName ?n } "
        "ORDER BY ?n LIMIT 2"
    )
    assert [r["n"].lexical for r in res] == ["park0", "park1"]
    # only the parks mapping SQL ran
    assert len(engine.last_sql) == 1
    assert "FROM parks" in engine.last_sql[0]


def test_query_no_materialization_side_effect(engine):
    engine.query(PREFIX + "SELECT ?p WHERE { ?p a ex:Factory }")
    assert len(engine.last_sql) == 1
    assert "factories" in engine.last_sql[0]


def test_spatial_filter_pushdown_wraps_sql(engine):
    res = engine.query(
        PREFIX
        + """
        SELECT ?p WHERE {
          ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
          FILTER(geof:sfWithin(?w,
            "POLYGON ((4.5 -1, 7 -1, 7 2, 4.5 2, 4.5 -1))"^^geo:wktLiteral))
        }
        """
    )
    assert {str(r["p"]) for r in res} == {EX + "park/5", EX + "park/6"}
    pushed = [sql for sql in engine.last_sql if "ST_WITHIN" in sql]
    assert pushed, f"no pushdown in {engine.last_sql}"


def test_rtree_index_pushdown(engine):
    engine.register_spatial_index("parks", "wkt")
    res = engine.query(
        PREFIX
        + """
        SELECT ?p WHERE {
          ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
          FILTER(geof:sfIntersects(?w,
            "POLYGON ((10.1 0.1, 11.9 0.1, 11.9 0.5, 10.1 0.5, 10.1 0.1))"^^geo:wktLiteral))
        }
        """
    )
    assert {str(r["p"]) for r in res} == {
        EX + "park/10", EX + "park/11",
    }
    indexed_sql = [s for s in engine.last_sql if "idx_parks_wkt" in s]
    assert indexed_sql, f"rtree not used in {engine.last_sql}"


def test_pushdown_agrees_with_materialized(engine):
    query = (
        PREFIX
        + """
        SELECT ?p WHERE {
          ?p geo:hasGeometry ?g . ?g geo:asWKT ?w .
          FILTER(geof:sfIntersects(?w,
            "POLYGON ((3.5 -1, 8 -1, 8 2, 3.5 2, 3.5 -1))"^^geo:wktLiteral))
        }
        """
    )
    virtual = {str(r["p"]) for r in engine.query(query)}
    materialized_graph = engine.materialize()
    materialized = {str(r["p"]) for r in materialized_graph.query(query)}
    assert virtual == materialized
    assert len(virtual) == 7  # parks 3..8 plus factory 1


def test_ontology_included():
    from repro.rdf import Graph, RDFS

    conn = MadisConnection()
    conn.executescript(
        "CREATE TABLE parks (id INTEGER, name TEXT, wkt TEXT);"
        "INSERT INTO parks VALUES (1, 'p', 'POINT (0 0)');"
    )
    ontology = Graph()
    ontology.add(IRI(EX + "Park"), RDFS.subClassOf, IRI(EX + "GreenSpace"))
    engine = OntopSpatial.from_document(conn, DOCUMENT, ontology=ontology)
    res = engine.query(
        PREFIX
        + "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
        "SELECT ?super WHERE { ex:Park rdfs:subClassOf ?super }"
    )
    assert [str(r["super"]) for r in res] == [EX + "GreenSpace"]


def test_ask_query(engine):
    assert engine.query(PREFIX + "ASK { ?p a ex:Park }").ask
    assert not engine.query(PREFIX + "ASK { ?p a ex:Volcano }").ask


@pytest.mark.parametrize("relation", ["sfIntersects", "sfWithin"])
def test_malformed_wkt_row_dropped_in_both_workflows(relation):
    """One bad and one good WKT row: Strabon drops the bad row because
    the FILTER errors on it; Ontop-spatial must give the same answer
    (its pushed-down ST_* UDF returns NULL) instead of raising."""
    from repro.strabon import StrabonStore

    conn = MadisConnection()
    conn.executescript("CREATE TABLE parks (id INTEGER, name TEXT, wkt TEXT);"
                       "CREATE TABLE factories (id INTEGER, wkt TEXT);")
    conn.execute("INSERT INTO parks VALUES (1, 'bad', 'POINT (0 0')")
    conn.execute("INSERT INTO parks VALUES (2, 'good', 'POINT (0 0)')")
    engine = OntopSpatial.from_document(conn, DOCUMENT)
    window = "POLYGON ((-1 -1, 1 -1, 1 1, -1 1, -1 -1))"
    query = PREFIX + f"""
        SELECT ?p WHERE {{
          ?p a ex:Park ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
          FILTER(geof:{relation}(?w, "{window}"^^geo:wktLiteral))
        }}
    """
    store = StrabonStore()
    engine.materialize(store)

    virtual = [str(r["p"]) for r in engine.query(query)]
    materialized = [str(r["p"]) for r in store.query(query)]
    assert virtual == materialized == [EX + "park/2"]
    assert any("ST_" in sql for sql in engine.last_sql)  # pushed down
