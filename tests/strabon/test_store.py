"""Strabon store tests: spatial index, valid time, persistence."""

from datetime import datetime, timezone

import pytest

from repro.geometry import Point, Polygon, to_wkt_literal
from repro.rdf import (GEO, GEO_WKT_LITERAL, Graph, IRI, Literal, RDF, Triple,
                       XSD)
from repro.strabon import StrabonStore

EX = "http://example.org/"

PREFIX = """
PREFIX ex: <http://example.org/>
PREFIX geo: <http://www.opengis.net/ont/geosparql#>
PREFIX geof: <http://www.opengis.net/def/function/geosparql/>
"""


def ex(name):
    return IRI(EX + name)


def wkt_lit(geom):
    return Literal(to_wkt_literal(geom), datatype=GEO_WKT_LITERAL)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


@pytest.fixture
def store():
    store = StrabonStore("test")
    store.bind("ex", EX)
    for i in range(20):
        feature = ex(f"f{i}")
        geom = ex(f"f{i}_geom")
        store.add(feature, RDF.type, ex("Feature"))
        store.add(feature, GEO.hasGeometry, geom)
        store.add(geom, GEO.asWKT, wkt_lit(Point(float(i), float(i))))
    return store


class TestSpatialIndex:
    def test_geometries_indexed(self, store):
        assert store.indexed_geometry_count == 20

    def test_spatial_candidates(self, store):
        candidates = store.spatial_candidates((4.5, 4.5, 7.5, 7.5))
        assert len(candidates) == 3  # points 5, 6, 7

    def test_index_invalidated_on_add(self, store):
        store.spatial_candidates((0, 0, 100, 100))  # force build
        store.add(ex("new_geom"), GEO.asWKT, wkt_lit(Point(50, 50)))
        candidates = store.spatial_candidates((49, 49, 51, 51))
        assert len(candidates) == 1

    def test_index_invalidated_on_remove(self, store):
        lit = wkt_lit(Point(5.0, 5.0))
        store.remove(None, GEO.asWKT, lit)
        assert store.indexed_geometry_count == 19
        assert not store.spatial_candidates((4.9, 4.9, 5.1, 5.1))

    def test_malformed_wkt_not_indexed(self, store):
        store.add(
            ex("bad"), GEO.asWKT,
            Literal("POINT OF NO RETURN", datatype=GEO_WKT_LITERAL),
        )
        assert store.indexed_geometry_count == 20

    def test_spatial_query_uses_index(self, store):
        """Spatial selection returns correct results through the pushdown."""
        window = Polygon.box(4.5, 4.5, 7.5, 7.5)
        res = store.query(
            PREFIX
            + f"""
            SELECT ?f WHERE {{
              ?f geo:hasGeometry ?g . ?g geo:asWKT ?w .
              FILTER(geof:sfWithin(?w,
                "{to_wkt_literal(window)}"^^geo:wktLiteral))
            }}
            """
        )
        assert {str(r["f"]) for r in res} == {EX + "f5", EX + "f6", EX + "f7"}

    def test_results_match_plain_graph(self, store):
        """Index pushdown must not change query semantics."""
        plain = Graph()
        plain.update(store)
        query = (
            PREFIX
            + """
            SELECT ?f WHERE {
              ?f geo:hasGeometry ?g . ?g geo:asWKT ?w .
              FILTER(geof:sfIntersects(?w,
                "POLYGON ((2.5 2.5, 9.5 2.5, 9.5 9.5, 2.5 9.5, 2.5 2.5))"^^geo:wktLiteral))
            }
            """
        )
        fast = {str(r["f"]) for r in store.query(query)}
        slow = {str(r["f"]) for r in plain.query(query)}
        assert fast == slow
        assert len(fast) == 7

    def test_numeric_literals_not_indexed(self, store):
        store.add(ex("f0"), ex("lai"), Literal("2.5", datatype=XSD.double))
        assert store.indexed_geometry_count == 20


class TestPlainLiteralWkt:
    """The FILTER functions accept plain-literal WKT, so the R-tree must
    index it too, or both spatial leaves silently drop those rows."""

    @staticmethod
    def _graphs():
        graphs = StrabonStore(), Graph()
        for graph in graphs:
            graph.add(ex("a"), GEO.asWKT, Literal("POINT(1 1)"))
            graph.add(ex("b"), GEO.asWKT,
                      Literal("POLYGON((0 0, 2 0, 2 2, 0 2, 0 0))"))
        return graphs

    def test_plain_literal_is_indexed(self):
        store, __ = self._graphs()
        assert store.indexed_geometry_count == 2

    def test_constant_leaf(self):
        text = PREFIX + """
            SELECT ?x WHERE {
              ?x geo:asWKT ?w .
              FILTER(geof:sfIntersects(?w,
                "POLYGON((0.5 0.5, 1.5 0.5, 1.5 1.5, 0.5 1.5, 0.5 0.5))"^^geo:wktLiteral))
            }"""
        store, plain = self._graphs()
        assert "[rtree:" in store.explain(text)
        fast = sorted(str(r["x"]) for r in store.query(text))
        assert fast == sorted(str(r["x"]) for r in plain.query(text))
        assert fast == [EX + "a", EX + "b"]

    def test_join_leaf(self):
        text = PREFIX + """
            SELECT ?x ?y WHERE {
              ?x geo:asWKT ?wx . ?y geo:asWKT ?wy .
              FILTER(geof:sfWithin(?wx, ?wy))
              FILTER(?x != ?y)
            }"""
        store, plain = self._graphs()
        assert "[rtree-join:" in store.explain(text)
        fast = sorted((str(r["x"]), str(r["y"])) for r in store.query(text))
        slow = sorted((str(r["x"]), str(r["y"])) for r in plain.query(text))
        assert fast == slow == [(EX + "a", EX + "b")]


class TestValidTime:
    def test_add_with_time_and_lookup(self, store):
        t = Triple(ex("f0"), ex("landCover"), ex("Forest"))
        store.add_with_time(t, start=utc(2000, 1, 1), end=utc(2012, 1, 1))
        assert store.valid_time(t) == (utc(2000, 1, 1), utc(2012, 1, 1))
        assert store.temporal_triple_count == 1

    def test_invalid_interval_rejected(self, store):
        with pytest.raises(ValueError):
            store.add_with_time(
                ex("f0"), ex("p"), ex("o"),
                start=utc(2012, 1, 1), end=utc(2000, 1, 1),
            )

    def test_snapshot(self, store):
        store.add_with_time(
            ex("f0"), ex("landCover"), ex("Forest"),
            start=utc(2000, 1, 1), end=utc(2012, 1, 1),
        )
        store.add_with_time(
            ex("f0"), ex("landCover"), ex("Urban"),
            start=utc(2012, 1, 1), end=utc(2100, 1, 1),
        )
        g2005 = store.snapshot(utc(2005, 6, 1))
        g2015 = store.snapshot(utc(2015, 6, 1))
        assert g2005.value(ex("f0"), ex("landCover")) == ex("Forest")
        assert g2015.value(ex("f0"), ex("landCover")) == ex("Urban")
        # timeless triples present in both snapshots
        assert (ex("f0"), RDF.type, ex("Feature")) in g2005
        assert (ex("f0"), RDF.type, ex("Feature")) in g2015

    def test_interval_is_half_open(self, store):
        store.add_with_time(
            ex("f0"), ex("state"), ex("A"),
            start=utc(2000, 1, 1), end=utc(2010, 1, 1),
        )
        assert (ex("f0"), ex("state"), ex("A")) in store.snapshot(
            utc(2000, 1, 1)
        )
        assert (ex("f0"), ex("state"), ex("A")) not in store.snapshot(
            utc(2010, 1, 1)
        )

    def test_triples_during_overlap(self, store):
        store.add_with_time(
            ex("f1"), ex("state"), ex("B"),
            start=utc(2005, 1, 1), end=utc(2015, 1, 1),
        )
        hits = list(store.triples_during(utc(2014, 1, 1), utc(2020, 1, 1)))
        assert len(hits) == 1
        none = list(store.triples_during(utc(2015, 1, 1), utc(2020, 1, 1)))
        assert none == []

    def test_remove_clears_valid_time(self, store):
        t = Triple(ex("f0"), ex("state"), ex("A"))
        store.add_with_time(t, start=utc(2000, 1, 1), end=utc(2010, 1, 1))
        store.remove(t)
        assert store.valid_time(t) is None


class TestStSparqlSurface:
    def test_expose_valid_time_queryable(self, store):
        store.add_with_time(
            ex("f0"), ex("landCover"), ex("Forest"),
            start=utc(2000, 1, 1), end=utc(2012, 1, 1),
        )
        store.add_with_time(
            ex("f0"), ex("landCover"), ex("Urban"),
            start=utc(2012, 1, 1), end=utc(2100, 1, 1),
        )
        assert store.expose_valid_time() == 2
        res = store.query(
            PREFIX + """
            PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
            PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            SELECT ?value WHERE {
              ?t a strdf:TemporalTriple ;
                 rdf:subject ex:f0 ; rdf:object ?value ;
                 strdf:hasValidFrom ?from ; strdf:hasValidUntil ?until .
              FILTER(strdf:during("2005-06-01T00:00:00Z"^^xsd:dateTime,
                                  ?from, ?until))
            }
            """
        )
        assert [str(r["value"]) for r in res] == [EX + "Forest"]

    def test_expose_is_idempotent(self, store):
        store.add_with_time(
            ex("f1"), ex("state"), ex("A"),
            start=utc(2000, 1, 1), end=utc(2010, 1, 1),
        )
        first = store.expose_valid_time()
        second = store.expose_valid_time()
        assert first == 1
        assert second == 0


class TestPersistence:
    def test_roundtrip(self, store, tmp_path):
        store.add_with_time(
            ex("f0"), ex("landCover"), ex("Forest"),
            start=utc(2000, 1, 1), end=utc(2012, 1, 1),
        )
        path = str(tmp_path / "strabon.db")
        store.save(path)
        loaded = StrabonStore.load(path, identifier="copy")
        assert len(loaded) == len(store)
        assert loaded.indexed_geometry_count == 20
        assert loaded.valid_time(
            Triple(ex("f0"), ex("landCover"), ex("Forest"))
        ) == (utc(2000, 1, 1), utc(2012, 1, 1))

    def test_loaded_store_answers_queries(self, store, tmp_path):
        path = str(tmp_path / "strabon.db")
        store.save(path)
        loaded = StrabonStore.load(path)
        loaded.bind("ex", EX)
        res = loaded.query(
            PREFIX + "SELECT (COUNT(*) AS ?n) WHERE { ?f a ex:Feature }"
        )
        assert res.rows[0]["n"].value == 20
