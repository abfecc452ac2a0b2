"""Graph indexing and pattern-matching tests."""

import itertools
import random

import pytest

from repro.rdf import Graph, IRI, Literal, RDF, Triple

EX = "http://example.org/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    g.add(ex("paris"), RDF.type, ex("City"))
    g.add(ex("paris"), ex("name"), Literal("Paris"))
    g.add(ex("paris"), ex("inCountry"), ex("france"))
    g.add(ex("athens"), RDF.type, ex("City"))
    g.add(ex("athens"), ex("inCountry"), ex("greece"))
    return g


def test_len_and_contains(graph):
    assert len(graph) == 5
    assert Triple(ex("paris"), RDF.type, ex("City")) in graph
    assert (ex("paris"), RDF.type, ex("City")) in graph
    assert (ex("paris"), None, None) in graph
    assert (ex("london"), None, None) not in graph


def test_add_is_idempotent(graph):
    graph.add(ex("paris"), RDF.type, ex("City"))
    assert len(graph) == 5


def test_pattern_queries(graph):
    cities = set(graph.subjects(RDF.type, ex("City")))
    assert cities == {ex("paris"), ex("athens")}
    assert set(graph.objects(ex("paris"), ex("inCountry"))) == {ex("france")}
    assert set(graph.predicates(ex("athens"))) == {RDF.type, ex("inCountry")}


def test_triples_wildcards(graph):
    assert len(list(graph.triples((None, None, None)))) == 5
    assert len(list(graph.triples((ex("paris"), None, None)))) == 3
    assert len(list(graph.triples((None, RDF.type, None)))) == 2
    assert len(list(graph.triples((None, None, ex("City"))))) == 2
    assert len(list(graph.triples((ex("paris"), RDF.type, None)))) == 1
    assert len(list(graph.triples((None, RDF.type, ex("City"))))) == 2


def test_value(graph):
    assert graph.value(ex("paris"), ex("name")) == Literal("Paris")
    assert graph.value(ex("paris"), ex("missing"), "dflt") == "dflt"


def test_remove_exact(graph):
    graph.remove(Triple(ex("paris"), ex("name"), Literal("Paris")))
    assert len(graph) == 4
    assert graph.value(ex("paris"), ex("name")) is None


def test_remove_pattern(graph):
    graph.remove(None, RDF.type, None)
    assert len(graph) == 3
    assert not list(graph.subjects(RDF.type))


def test_removed_triples_not_matched(graph):
    graph.remove(ex("paris"), None, None)
    assert not list(graph.triples((ex("paris"), None, None)))
    assert not list(graph.triples((None, None, ex("france"))))


def test_union_operator(graph):
    other = Graph()
    other.add(ex("rome"), RDF.type, ex("City"))
    combined = graph + other
    assert len(combined) == 6
    graph += other
    assert len(graph) == 6


def test_graph_equality():
    a = Graph().add(ex("s"), ex("p"), ex("o"))
    b = Graph().add(ex("s"), ex("p"), ex("o"))
    assert a == b
    b.add(ex("s"), ex("p"), Literal("x"))
    assert a != b


def test_add_coercions():
    g = Graph()
    g.add((ex("s"), ex("p"), ex("o")))
    assert len(g) == 1
    with pytest.raises(TypeError):
        g.add(ex("s"), ex("p"))


def test_bind_and_qname():
    g = Graph()
    g.bind("ex", EX)
    assert g.namespaces.qname(str(ex("Park"))) == "ex:Park"
    assert g.namespaces.expand("ex:Park") == ex("Park")


def test_cardinalities_match_scans_after_churn():
    rnd = random.Random(7)
    g = Graph()
    preds = [ex(p) for p in ("type", "val", "link", "tag")]
    triples = []
    for i in range(40):
        s = ex(f"s/{i}")
        triples.append(Triple(s, preds[0], ex(f"C{i % 3}")))
        triples.append(Triple(s, preds[1], Literal(str(rnd.randrange(9)))))
        if rnd.random() < 0.5:
            triples.append(Triple(s, preds[2], ex(f"s/{rnd.randrange(40)}")))
        if rnd.random() < 0.3:
            triples.append(Triple(s, preds[3], Literal("x")))
    for t in triples:
        g.add(t)
    for t in rnd.sample(triples, len(triples) // 2):
        g.remove(t)
    for t in triples[::3]:
        g.add(t)

    current = set(g)
    assert g.distinct_counts == (len({t.s for t in current}),
                                 len({t.p for t in current}),
                                 len({t.o for t in current}))
    # every bound shape, probed with the ids of live and removed triples
    for key in map(g._encode_triple, triples):
        for mask in itertools.product((True, False), repeat=3):
            ids = tuple(term if bound else None
                        for term, bound in zip(key, mask))
            assert g.pattern_cardinality(ids) \
                == len(list(g.triples_ids(ids))), (ids, mask)
