"""Experiments E2/E3/E9: the greenness-of-Paris case study."""

import math

import pytest

from repro.core import GreennessCaseStudy, PREFIXES
from repro.rdf import CLC, GADM, LAI, OSM, RDF, UA


@pytest.fixture(scope="module")
def study():
    return GreennessCaseStudy(n_dekads=2, cloud_fraction=0.0)


@pytest.fixture(scope="module")
def store(study):
    return study.materialized_store()


class TestMaterializedWorkflow:
    def test_store_contents(self, store):
        assert len(list(store.subjects(RDF.type, OSM.POI))) == 17
        assert len(list(store.subjects(RDF.type, CLC.CorineArea))) == 13
        assert len(list(store.subjects(RDF.type, UA.UrbanAtlasArea))) == 13
        assert len(list(store.subjects(RDF.type,
                                       GADM.AdministrativeUnit))) == 23
        observations = list(store.subjects(RDF.type, LAI.Observation))
        assert len(observations) == 2 * 24 * 12  # 2 dekads, full grid

    def test_listing1_returns_park_lai(self, study, store):
        result = study.run_listing1(store)
        assert len(result) == 8  # 4 grid points x 2 dekads
        values = [row["lai"].value for row in result]
        assert all(v > 0 for v in values)

    def test_listing1_park_values_high(self, study, store):
        """Bois de Boulogne LAI beats the citywide mean (greenness)."""
        result = study.run_listing1(store)
        park_mean = sum(r["lai"].value for r in result) / len(result)
        overall = store.query(
            PREFIXES + "SELECT (AVG(?v) AS ?mean) WHERE { ?o lai:lai ?v }"
        )
        assert park_mean > overall.rows[0]["mean"].value

    def test_store_saved_with_a_shards_row_still_loads(self, study, store,
                                                       tmp_path):
        """Older builds recorded a shard count in a ``meta`` table;
        such files must load and answer Listing 1 unchanged."""
        import shutil
        import sqlite3
        from collections import Counter

        from repro.strabon import StrabonStore

        plain_path = tmp_path / "plain.db"
        sharded_path = tmp_path / "sharded.db"
        store.save(str(plain_path))
        shutil.copy(plain_path, sharded_path)
        conn = sqlite3.connect(sharded_path)
        with conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY,"
                         " value TEXT NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('shards', '4')")
        conn.close()

        old = study.run_listing1(StrabonStore.load(str(sharded_path)))
        new = study.run_listing1(StrabonStore.load(str(plain_path)))
        assert old.to_json() == new.to_json()

        def bag(result):
            return Counter(tuple(sorted((k, v.n3()) for k, v in row.items()))
                           for row in result.rows)

        assert len(old) == 8
        assert bag(old) == bag(study.run_listing1(store))

    def test_park_vs_industrial(self, study, store):
        green, industrial = study.park_vs_industrial_lai(store)
        assert green > industrial * 1.5

    def test_gadm_queryable(self, store):
        result = store.query(
            PREFIXES + """
            SELECT ?name WHERE {
              ?u a gadm:AdministrativeUnit ; gadm:hasName ?name ;
                 gadm:hasLevel 2 .
            }
            """
        )
        assert [r["name"].lexical for r in result] == ["Paris"]


class TestVirtualWorkflow:
    def test_listing3(self, study):
        result = study.run_listing3()
        assert len(result) == 2 * 24 * 12
        row = result.rows[0]
        assert row["lai"].value > 0
        assert "POINT" in row["wkt"].lexical

    def test_virtual_matches_materialized_counts(self, study, store):
        virtual = study.run_listing3()
        materialized = store.query(
            PREFIXES + "SELECT ?o WHERE { ?o lai:lai ?v }"
        )
        assert len(virtual) == len(materialized)

    def test_window_cache(self, study):
        clock = {"now": 0.0}
        engine, operator = study.virtual_endpoint(
            window_minutes=10, clock=lambda: clock["now"]
        )
        study.run_listing3(engine)
        study.run_listing3(engine)
        assert operator.server_calls == 1
        clock["now"] = 11 * 60
        study.run_listing3(engine)
        assert operator.server_calls == 2


class TestFigure4:
    def test_map_layers(self, study, store):
        tm = study.build_map(store)
        names = [layer.name for layer in tm.layers]
        assert names == [
            "CORINE land cover", "Urban Atlas", "OSM parks",
            "Administrative areas", "LAI observations",
        ]

    def test_timeline_has_dekads(self, study, store):
        tm = study.build_map(store)
        assert len(tm.timeline()) == 2

    def test_svg_renders(self, study, store):
        tm = study.build_map(store)
        svg = tm.to_svg(width=600, height=400)
        assert svg.startswith("<svg")
        assert 'id="layer-OSM-parks"' in svg

    def test_html_has_slider(self, study, store):
        tm = study.build_map(store)
        html = tm.to_html(width=400, height=300)
        assert "timeslider" in html

    def test_map_ontology_roundtrip(self, study, store):
        from repro.sextant import map_descriptor_from_rdf, map_to_rdf

        tm = study.build_map(store)
        g = map_to_rdf(tm, "http://app-lab.eu/maps/greenness")
        descriptor = map_descriptor_from_rdf(
            g, "http://app-lab.eu/maps/greenness"
        )
        assert len(descriptor["layers"]) == 5
        assert descriptor["layers"][4]["source"]["type"] == "sparql"


class TestSpatialJoinWork:
    """Work-counter guard for the Section-4 spatial joins.

    Counters are noise-free, so a planner regression back to the
    cross product (13 400+ enumerated rows for the green-urban join at
    6 dekads) fails here rather than only in a timed benchmark.
    """

    CORINE_141 = PREFIXES + """
        SELECT (AVG(?lai) AS ?mean) WHERE {
          ?area clc:hasCode "141" ;
                geo:hasGeometry ?ga .
          ?ga geo:asWKT ?wa .
          ?obs lai:lai ?lai ; geo:hasGeometry ?gb .
          ?gb geo:asWKT ?wb .
          FILTER(geof:sfIntersects(?wa, ?wb))
        }
        """

    @pytest.fixture(scope="class")
    def paris(self):
        return GreennessCaseStudy(n_dekads=6, seed=7).materialized_store()

    def test_corine_join_probes_the_rtree(self, paris):
        result = paris.query(self.CORINE_141)
        plan = result.plan.render()
        assert "SpatialIndexScan" in plan
        assert "[rtree-join:intersects ?wa]" in plan
        join = next(n for n in result.plan.walk()
                    if n.label == "IndexNestedLoopJoin")
        assert join.actual_rows <= 500, plan
        assert result.rows[0]["mean"].value > 0

    def test_listing1_probes_the_rtree(self, paris):
        from repro.core.casestudy import LISTING1

        result = paris.query(LISTING1)
        assert "[rtree-join:intersects ?geoA]" in result.plan.render()
        assert len(result.rows) > 0

    def test_joins_return_the_plain_graph_bags(self, paris):
        """The R-tree changes work, never answers."""
        from collections import Counter

        from repro.core.casestudy import LISTING1
        from repro.rdf import Graph

        plain = Graph()
        plain.namespaces = paris.namespaces
        plain.update(paris)
        rows_141 = self.CORINE_141.replace(
            "(AVG(?lai) AS ?mean)", "?area ?obs ?lai")

        def bag(graph, text):
            return Counter(
                tuple(sorted((k, v.n3()) for k, v in row.items()))
                for row in graph.query(text).rows)

        for text in (LISTING1, rows_141):
            fast = bag(paris, text)
            assert fast and fast == bag(plain, text)
