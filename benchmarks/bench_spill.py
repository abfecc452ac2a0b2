"""Spill join benchmark: the hash join under a hard memory ceiling.

Drives the deterministic partition-spill hash join (a sub-select join
armed with ``spill_threshold``) and reports the observed
``peak_build_rows`` — the regression gate pins it at the ceiling with
tolerance 1.0, so the memory bound is a tested invariant, not
documentation — plus whether the spilled answer is byte-identical to
the in-memory one.

Emits ``out/BENCH_spill.json``; regenerate the committed baseline in
``--smoke`` mode (what the spill-smoke CI job runs)::

    python -m pytest benchmarks/bench_spill.py \
        --run-benchmarks --smoke -q
    cp out/BENCH_spill.json benchmarks/baselines/
"""

import pytest

import repro.sparql.spill as spill_mod
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql import query

pytestmark = pytest.mark.benchmark

EX = "http://example.org/"

SPILL_QUERY = (
    f"SELECT ?s ?v WHERE {{ "
    f"?s <{EX}type> <{EX}A> . "
    f"{{ SELECT ?s ?v WHERE {{ ?s <{EX}val> ?v }} }} }}"
)


def build_graph(subjects: int) -> Graph:
    g = Graph()
    for i in range(subjects):
        s = IRI(f"{EX}s/{i}")
        g.add(s, IRI(EX + "type"), IRI(EX + ("A" if i % 2 else "B")))
        g.add(s, IRI(EX + "val"), Literal(str(i)))
    return g


def test_spill_join_stays_under_its_ceiling(smoke, emit_bench,
                                            record_summary):
    subjects = 300 if smoke else 1200
    threshold = 32
    observed = []
    spill_mod.SPILL_OBSERVER = observed.append
    try:
        g = build_graph(subjects)
        baseline = query(g, SPILL_QUERY)
        spilled = query(g, SPILL_QUERY, spill_threshold=threshold)
    finally:
        spill_mod.SPILL_OBSERVER = None
    assert observed, "spill join never materialized"
    stats = observed[0]
    identical = float(baseline.to_json() == spilled.to_json())
    assert identical == 1.0
    assert stats["peak_build_rows"] <= threshold, stats

    emit_bench(
        "spill",
        spill={
            "threshold": threshold,
            "build_rows": stats["build_rows"],
            "peak_build_rows": stats["peak_build_rows"],
            "spilled_rows": stats["spilled_rows"],
            "identical_results": identical,
        },
    )
    record_summary("spill join: bounded build side", [
        f"spill join: build={stats['build_rows']} rows, ceiling "
        f"{threshold}, observed peak {stats['peak_build_rows']}, "
        f"spilled {stats['spilled_rows']}",
    ])
