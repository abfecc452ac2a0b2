"""Spill-threshold invariance over the five fixed query shapes.

The module keeps the name of the suite that once compared a sharded
index against the plain one; that index no longer exists. What it
still pins: arming the spill join changes a query's answer (rows, row
order, JSON payload) not at all, and leaves no spill files behind.
"""

import pytest

import fixed_queries
from repro.sparql import query

pytestmark = pytest.mark.tier1


@pytest.mark.parametrize("query_text", fixed_queries.QUERIES)
def test_spill_threshold_changes_nothing_but_the_spill_counter(
        query_text, tmp_path):
    g = fixed_queries.build_graph()
    baseline = query(g, query_text).to_json()
    result = query(g, query_text, spill_threshold=2,
                   spill_dir=tmp_path / "spill")
    assert result.to_json() == baseline
    assert not (tmp_path / "spill").exists() or \
        not list((tmp_path / "spill").iterdir())
