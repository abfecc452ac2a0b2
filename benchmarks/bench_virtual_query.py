"""Experiment E3 — Listings 2+3: GeoSPARQL over OPeNDAP, end to end.

Times the complete virtual path (parse mapping → unfold → MadIS
opendap virtual table → DAP fetch → instantiate → evaluate) for the
paper's Listing 3 query, plus a spatially filtered variant that
exercises the SQL pushdown.

Emits ``out/BENCH_virtual.json``. The regression gate tracks only its
deterministic work counters, exactly: the result rows of each query,
and the WKT parses of the warm spatial query — 0, because the constant
window and every pixel point already sit in the WKT parse cache both
workflows share. The wall times are recorded for trend reading only.
"""

import time

import pytest

import repro.geometry.wkt as wkt_module
from repro.core.casestudy import LISTING3, PREFIXES

pytestmark = pytest.mark.benchmark

SPATIAL_QUERY = PREFIXES + """
SELECT DISTINCT ?s ?lai WHERE {
  ?s lai:lai ?lai ; geo:hasGeometry ?g .
  ?g geo:asWKT ?w .
  FILTER(geof:sfWithin(?w,
    "POLYGON ((2.2 48.84, 2.3 48.84, 2.3 48.9, 2.2 48.9, 2.2 48.84))"^^geo:wktLiteral))
}
"""


@pytest.fixture(scope="module")
def rounds(smoke):
    return 1 if smoke else 3


@pytest.fixture(scope="module")
def warm_engine(case_study):
    engine, operator = case_study.virtual_endpoint(window_minutes=60)
    engine.query(LISTING3)
    return engine


def _best_of(fn, n):
    result, times = None, []
    for __ in range(n):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def test_listing3_cold(case_study, rounds, emit_bench, record_summary):
    def run():
        engine, __ = case_study.virtual_endpoint(window_minutes=0)
        return engine.query(LISTING3)

    seconds, result = _best_of(run, rounds)
    assert len(result) > 500
    emit_bench("virtual", listing3_cold={"rows": len(result),
                                         "seconds": seconds})
    record_summary("Virtual path: Listing 3, cold (fetch every query)", [
        f"result rows:       {len(result):>10,}",
        f"best of {rounds}:         {seconds * 1e3:>10.2f} ms",
    ])


def test_listing3_warm(warm_engine, rounds, emit_bench, record_summary):
    seconds, result = _best_of(lambda: warm_engine.query(LISTING3), rounds)
    assert len(result) > 500
    emit_bench("virtual", listing3_warm={"rows": len(result),
                                         "seconds": seconds})
    record_summary("Virtual path: Listing 3, warm (w=60 cache)", [
        f"result rows:       {len(result):>10,}",
        f"best of {rounds}:         {seconds * 1e3:>10.2f} ms",
    ])


def test_spatial_filter_pushdown(warm_engine, rounds, emit_bench,
                                 record_summary, monkeypatch):
    warm_engine.query(SPATIAL_QUERY)  # fills the WKT parse cache
    parses = []
    real_loads = wkt_module.loads

    def counting_loads(text):
        parses.append(text)
        return real_loads(text)

    monkeypatch.setattr(wkt_module, "loads", counting_loads)
    seconds, result = _best_of(lambda: warm_engine.query(SPATIAL_QUERY),
                               rounds)
    assert 0 < len(result) < 500
    assert any("ST_WITHIN" in sql for sql in warm_engine.last_sql)
    assert parses == []
    emit_bench("virtual", spatial_warm={"rows": len(result),
                                        "wkt_parses": len(parses),
                                        "seconds": seconds})
    record_summary("Virtual path: spatial pushdown, warm", [
        f"result rows:       {len(result):>10,}",
        f"WKT parses:        {len(parses):>10,}",
        f"best of {rounds}:         {seconds * 1e3:>10.2f} ms",
    ])
