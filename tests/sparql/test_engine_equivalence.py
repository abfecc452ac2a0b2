"""Seeded randomized equivalence: plan engine vs the seed evaluator.

The plan-based engine (``repro.sparql.plan`` + ``operators``) must
compute the same solution *bags* as the bottom-up evaluator it
replaced, which is preserved verbatim in
:mod:`reference_evaluator`. Queries are generated from a seeded RNG
over BGP / OPTIONAL / UNION / FILTER / ORDER BY / LIMIT / DISTINCT
fragments, so every run exercises the same query population.

Order-sensitive clauses get sharper checks:

- ORDER BY: the *sequence of sort-key values* must match (row order
  within equal keys may differ — the engines join in different orders
  and SPARQL leaves ties unspecified);
- LIMIT without ORDER BY: any k rows of the full bag are acceptable,
  so we assert the count and multiset containment in the reference's
  unlimited answer.
"""

import random
from collections import Counter

import pytest

import fixed_queries
import reference_evaluator
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal
from repro.sparql.evaluator import Context, eval_query
from repro.sparql.parser import parse_query

pytestmark = pytest.mark.tier1

EX = "http://example.org/"

N_SEEDS = 25


def build_graph(seed: int) -> Graph:
    rnd = random.Random(seed)
    g = Graph()
    cities = [IRI(f"{EX}city/{c}")
              for c in ("paris", "athens", "heraklion", "delft")]
    for i in range(30):
        s = IRI(f"{EX}person/{i}")
        g.add(s, IRI(EX + "type"), IRI(EX + "Person"))
        if rnd.random() < 0.8:
            g.add(s, IRI(EX + "name"), Literal(f"name{rnd.randrange(20)}"))
        if rnd.random() < 0.7:
            g.add(s, IRI(EX + "age"), Literal(rnd.randrange(15, 90)))
        if rnd.random() < 0.6:
            g.add(s, IRI(EX + "city"), rnd.choice(cities))
        for __ in range(rnd.randrange(0, 4)):
            g.add(s, IRI(EX + "knows"),
                  IRI(f"{EX}person/{rnd.randrange(30)}"))
    return g


PATTERNS = [
    ("?p <{0}type> <{0}Person> .", set()),
    ("?p <{0}knows> ?q .", {"q"}),
    ("?p <{0}age> ?a .", {"a"}),
    ("?q <{0}age> ?b .", {"q", "b"}),
    ("?p <{0}city> ?c .", {"c"}),
    ("?p <{0}name> ?n .", {"n"}),
]


def random_bgp(rnd):
    """A random 1-3 pattern BGP; returns (text, bound variable names)."""
    chosen = rnd.sample(PATTERNS, rnd.randrange(1, 4))
    text = "\n".join(p.format(EX) for p, __ in chosen)
    bound = {"p"} | set().union(*(extra for __, extra in chosen))
    return text, bound


def random_filter(rnd, bound):
    numeric = [v for v in ("a", "b") if v in bound]
    if not numeric or rnd.random() < 0.4:
        return ""
    var = rnd.choice(numeric)
    op = rnd.choice([">", "<", ">=", "!="])
    return f"FILTER(?{var} {op} {rnd.randrange(20, 80)})"


def random_query(rnd):
    bgp, bound = random_bgp(rnd)
    parts = [bgp, random_filter(rnd, bound)]
    if rnd.random() < 0.5:
        parts.append("OPTIONAL { ?p <%sname> ?optn . }" % EX)
    if rnd.random() < 0.4:
        parts.append(
            "{ ?p <%scity> ?where . } UNION { ?p <%sknows> ?where . }" % (
                EX, EX))
    return "SELECT * WHERE { %s }" % "\n".join(p for p in parts if p)


def run_new(g, text):
    return eval_query(parse_query(text), Context(g))


def run_ref(g, text):
    return reference_evaluator.eval_query(
        parse_query(text), reference_evaluator.Context(g))


def row_key(row):
    return tuple(sorted(
        (var, term.n3()) for var, term in row.items() if term is not None))


def bag(result):
    return Counter(row_key(r) for r in result.rows)


def test_random_queries_bag_equal():
    for seed in range(N_SEEDS):
        rnd = random.Random(1000 + seed)
        g = build_graph(seed % 5)
        text = random_query(rnd)
        assert bag(run_new(g, text)) == bag(run_ref(g, text)), text


@pytest.mark.parametrize("text", fixed_queries.QUERIES)
def test_fixed_queries_bag_equal(text):
    """VALUES, OPTIONAL+FILTER, UNION+ORDER, DISTINCT, 3-pattern join."""
    g = fixed_queries.build_graph()
    assert bag(run_new(g, text)) == bag(run_ref(g, text)), text


def test_distinct_bag_equal():
    for seed in range(N_SEEDS):
        rnd = random.Random(2000 + seed)
        g = build_graph(seed % 5)
        bgp, __ = random_bgp(rnd)
        text = "SELECT DISTINCT ?p WHERE { %s }" % bgp
        assert bag(run_new(g, text)) == bag(run_ref(g, text)), text


def test_order_by_key_sequences_match():
    for seed in range(N_SEEDS):
        rnd = random.Random(3000 + seed)
        g = build_graph(seed % 5)
        desc = rnd.random() < 0.5
        text = (
            "SELECT ?p ?a WHERE { ?p <%sage> ?a . %s } ORDER BY %s" % (
                EX, random_filter(rnd, {"a"}),
                "DESC(?a)" if desc else "?a")
        )
        new, ref = run_new(g, text), run_ref(g, text)
        assert bag(new) == bag(ref), text
        assert [r["a"] for r in new.rows] == [r["a"] for r in ref.rows], text


def test_limit_is_subset_of_full_answer():
    for seed in range(N_SEEDS):
        rnd = random.Random(4000 + seed)
        g = build_graph(seed % 5)
        bgp, __ = random_bgp(rnd)
        limit = rnd.randrange(1, 8)
        limited = run_new(g, "SELECT * WHERE { %s } LIMIT %d" % (bgp, limit))
        full = bag(run_ref(g, "SELECT * WHERE { %s }" % bgp))
        assert len(limited.rows) == min(limit, sum(full.values()))
        assert not (bag(limited) - full), "LIMIT invented rows"


def test_order_limit_offset_rows_equal():
    """ORDER BY + LIMIT/OFFSET goes through TopK — keys must agree."""
    for seed in range(N_SEEDS):
        rnd = random.Random(5000 + seed)
        g = build_graph(seed % 5)
        limit, offset = rnd.randrange(1, 6), rnd.randrange(0, 4)
        text = (
            "SELECT ?p ?a WHERE { ?p <%sage> ?a . }"
            " ORDER BY DESC(?a) LIMIT %d OFFSET %d" % (EX, limit, offset)
        )
        new, ref = run_new(g, text), run_ref(g, text)
        assert [r["a"] for r in new.rows] == [r["a"] for r in ref.rows], text


def test_minus_and_nested_optional_filter():
    """Deterministic composite shapes the generator doesn't emit."""
    g = build_graph(1)
    queries = [
        "SELECT * WHERE { ?p <%stype> <%sPerson> . "
        "MINUS { ?p <%scity> <%scity/paris> . } }" % (EX, EX, EX, EX),
        "SELECT * WHERE { ?p <%sage> ?a . "
        "OPTIONAL { ?p <%sname> ?n FILTER(?a > 40) } }" % (EX, EX),
        "SELECT * WHERE { { ?p <%sage> ?a . FILTER(?a > 50) } UNION "
        "{ ?p <%scity> <%scity/delft> . } }" % (EX, EX, EX),
    ]
    for text in queries:
        assert bag(run_new(g, text)) == bag(run_ref(g, text)), text
