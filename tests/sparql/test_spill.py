"""Spill-join edge cases: exactness, bounded memory, clean teardown.

:class:`~repro.sparql.spill.SpillHashJoin` must be a drop-in for the
in-memory ``_HashJoiner`` — byte-identical output including row order,
at any spill threshold — with three extra invariants: the in-memory
build side never exceeds the configured bound, a ``BudgetExceeded``
raised mid-build or mid-probe leaves no orphan spill files behind, and
the spill files themselves hash identically across runs.
"""

import random

import pytest

import repro.sparql.spill as spill_mod
from repro.governance import BudgetExceeded, QueryBudget
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql import query
from repro.sparql.operators import _HashJoiner
from repro.sparql.spill import SpillHashJoin

pytestmark = pytest.mark.tier1

EX = "http://example.org/"


def make_rows(n, seed=3):
    rnd = random.Random(seed)
    rows = []
    for i in range(n):
        row = {"k": Literal(str(rnd.randrange(6))),
               "v": IRI(f"{EX}v/{i}")}
        if rnd.random() < 0.2:
            del row["k"]  # irregular: does not bind the full key
        rows.append(row)
    return rows


def probe_rows():
    return [{"k": Literal(str(i))} for i in range(8)] + [{}]


def join_output(joiner, probes):
    out = []
    for left in probes:
        out.extend(tuple(sorted(m.items())) for m in joiner.matches(left))
    return out


@pytest.mark.parametrize("threshold", [0, 5, 10_000])
def test_spill_join_matches_in_memory_join_exactly(tmp_path, threshold):
    build = make_rows(60)
    probes = probe_rows()
    expected = join_output(_HashJoiner(build), probes)
    joiner = SpillHashJoin(("k",), max_build_rows=threshold,
                           spill_dir=tmp_path / "spill", tag="t")
    try:
        joiner.build(build)
        assert join_output(joiner, probes) == expected
        assert joiner.stats["peak_build_rows"] <= max(threshold, 0)
    finally:
        stats = joiner.close()
    assert stats["build_rows"] == 60
    assert not (tmp_path / "spill").exists() or \
        not list((tmp_path / "spill").iterdir())


def test_empty_build_side_spills_nothing(tmp_path):
    joiner = SpillHashJoin(("k",), max_build_rows=0,
                           spill_dir=tmp_path / "spill", tag="t")
    joiner.build([])
    assert list(joiner.matches({"k": Literal("1")})) == []
    stats = joiner.close()
    assert stats["build_rows"] == stats["spilled_rows"] == 0
    assert not (tmp_path / "spill").exists()


def test_zero_bound_spills_every_keyed_row(tmp_path):
    build = make_rows(40)
    keyed = sum(1 for row in build if "k" in row)
    joiner = SpillHashJoin(("k",), max_build_rows=0,
                           spill_dir=tmp_path / "spill", tag="t")
    try:
        joiner.build(build)
        assert joiner.stats["peak_build_rows"] == 0
        assert joiner.stats["spilled_rows"] == keyed
        assert joiner.stats["irregular_rows"] == 40 - keyed
    finally:
        joiner.close()


def test_empty_key_cross_join_stays_bounded(tmp_path):
    build = [{"v": IRI(f"{EX}v/{i}")} for i in range(50)]
    expected = join_output(_HashJoiner(build), [{}])
    joiner = SpillHashJoin((), max_build_rows=4,
                           spill_dir=tmp_path / "spill", tag="t")
    try:
        joiner.build(build)
        assert joiner.stats["peak_build_rows"] <= 4
        assert join_output(joiner, [{}]) == expected
    finally:
        joiner.close()


def test_budget_exceeded_mid_spill_leaves_no_orphans(tmp_path):
    spill_dir = tmp_path / "spill"
    budget = QueryBudget(max_triples=10)
    joiner = SpillHashJoin(("k",), max_build_rows=0,
                           spill_dir=spill_dir, tag="t", budget=budget)
    with pytest.raises(BudgetExceeded):
        joiner.build(make_rows(60))
    assert list(spill_dir.glob("*.spill")), \
        "the bound must have produced spill files before the trip"
    joiner.close()
    assert not spill_dir.exists() or not list(spill_dir.iterdir())


def test_query_level_budget_trip_cleans_spill_dir(tmp_path):
    g = Graph()
    for i in range(40):
        s = IRI(f"{EX}s/{i}")
        g.add(s, IRI(EX + "type"), IRI(EX + "A"))
        g.add(s, IRI(EX + "val"), Literal(str(i)))
    q = (f"SELECT ?s ?v WHERE {{ ?s <{EX}type> <{EX}A> . "
         f"{{ SELECT ?s ?v WHERE {{ ?s <{EX}val> ?v }} }} }}")
    spill_dir = tmp_path / "spill"
    with pytest.raises(BudgetExceeded):
        query(g, q, budget=QueryBudget(max_triples=50),
              spill_threshold=0, spill_dir=spill_dir)
    assert not spill_dir.exists() or not list(spill_dir.iterdir())


def test_spill_file_digests_identical_across_runs(tmp_path):
    g = Graph()
    for i in range(60):
        s = IRI(f"{EX}s/{i}")
        g.add(s, IRI(EX + "type"), IRI(EX + "A"))
        g.add(s, IRI(EX + "val"), Literal(str(i)))
    q = (f"SELECT ?s ?v WHERE {{ ?s <{EX}type> <{EX}A> . "
         f"{{ SELECT ?s ?v WHERE {{ ?s <{EX}val> ?v }} }} }}")

    payloads, digest_sets = [], []
    for run in range(2):
        observed = []
        spill_mod.SPILL_OBSERVER = observed.append
        try:
            result = query(g, q, spill_threshold=3,
                           spill_dir=tmp_path / f"run{run}")
        finally:
            spill_mod.SPILL_OBSERVER = None
        payloads.append(result.to_json())
        assert observed and observed[0]["spilled_rows"] > 0
        digest_sets.append(observed[0]["file_digests"])
        assert not (tmp_path / f"run{run}").exists() or \
            not list((tmp_path / f"run{run}").iterdir())

    assert payloads[0] == payloads[1]
    assert digest_sets[0] == digest_sets[1]
    assert digest_sets[0], "expected at least one spilled partition"

