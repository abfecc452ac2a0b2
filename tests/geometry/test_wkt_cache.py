"""The one WKT parse cache both workflows share.

GeoSPARQL literals (the materialized workflow) and WKT columns seen by
the MadIS spatial UDFs (the virtual workflow) parse through the same
cache, and ``repro.sparql.clear_geometry_cache`` empties it.
"""

import pytest

import repro.geometry.wkt as wkt_module
from repro.geometry import WktParseError, wkt_loads_cached
from repro.madis import MadisConnection
from repro.rdf.terms import GEO_WKT_LITERAL, Literal
from repro.sparql import SparqlValueError, clear_geometry_cache, \
    geometry_from_term

SQUARE = "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"


@pytest.fixture
def parses(monkeypatch):
    """Count real WKT parses behind the cache."""
    calls = []
    real = wkt_module.loads

    def counting(text):
        calls.append(text)
        return real(text)

    clear_geometry_cache()
    monkeypatch.setattr(wkt_module, "loads", counting)
    yield calls
    clear_geometry_cache()


def _st_intersects(conn, a, b):
    return conn.execute("SELECT ST_INTERSECTS(?, ?) AS hit",
                        (a, b))[0]["hit"]


def test_sparql_and_madis_share_one_entry(parses):
    geom = geometry_from_term(Literal(SQUARE, datatype=GEO_WKT_LITERAL))
    assert parses == [SQUARE]
    conn = MadisConnection()
    assert _st_intersects(conn, SQUARE, SQUARE) == 1
    assert parses == [SQUARE]  # the UDF hit the SPARQL side's entry
    assert wkt_loads_cached(SQUARE) is geom

    point = "POINT (1 1)"
    assert _st_intersects(conn, SQUARE, point) == 1
    geometry_from_term(Literal(point, datatype=GEO_WKT_LITERAL))
    assert parses == [SQUARE, point]  # and the other way round


def test_clear_geometry_cache_empties_it(parses):
    wkt_loads_cached(SQUARE)
    assert wkt_module._CACHE
    clear_geometry_cache()
    assert not wkt_module._CACHE
    wkt_loads_cached(SQUARE)
    assert parses == [SQUARE, SQUARE]


def test_bad_wkt_is_never_cached(parses):
    bad = "POINT (0 0"
    for __ in range(2):
        with pytest.raises(WktParseError):
            wkt_loads_cached(bad)
    with pytest.raises(SparqlValueError):
        geometry_from_term(Literal(bad, datatype=GEO_WKT_LITERAL))
    assert _st_intersects(MadisConnection(), bad, SQUARE) is None
    assert bad not in wkt_module._CACHE
    assert parses.count(bad) == 4
