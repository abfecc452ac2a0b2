"""SPARQL evaluator tests over an in-memory graph."""

import pytest

from repro.rdf import Graph, IRI, Literal, RDF, XSD
from repro.sparql import query

EX = "http://example.org/"


def ex(name):
    return IRI(EX + name)


@pytest.fixture
def g():
    g = Graph()
    g.bind("ex", EX)
    data = [
        ("alice", "age", Literal(30)),
        ("alice", "name", Literal("Alice")),
        ("alice", "knows", ex("bob")),
        ("bob", "age", Literal(25)),
        ("bob", "name", Literal("Bob")),
        ("bob", "knows", ex("carol")),
        ("carol", "age", Literal(35)),
        ("carol", "name", Literal("Carol")),
    ]
    for s, p, o in data:
        g.add(ex(s), ex(p), o)
    for person in ("alice", "bob", "carol"):
        g.add(ex(person), RDF.type, ex("Person"))
    return g


def test_select_all(g):
    res = g.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    assert len(res) == len(g)
    assert res.vars == ["s", "p", "o"]


def test_bgp_join(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?n WHERE { ?a ex:knows ?b . ?b ex:name ?n }"
    )
    names = {row["n"].lexical for row in res}
    assert names == {"Bob", "Carol"}


def test_filter_numeric(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a > 28) }"
    )
    assert {str(r["p"]) for r in res} == {EX + "alice", EX + "carol"}


def test_filter_arithmetic(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a * 2 = 50) }"
    )
    assert [str(r["p"]) for r in res] == [EX + "bob"]


def test_filter_string_functions(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        'SELECT ?p WHERE { ?p ex:name ?n FILTER(STRSTARTS(?n, "A")) }'
    )
    assert [str(r["p"]) for r in res] == [EX + "alice"]


def test_filter_regex(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        'SELECT ?n WHERE { ?p ex:name ?n FILTER(REGEX(?n, "^[AB]", "i")) }'
    )
    assert {r["n"].lexical for r in res} == {"Alice", "Bob"}


def test_optional(g):
    g.add(ex("dave"), RDF.type, ex("Person"))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?a WHERE { ?p a ex:Person OPTIONAL { ?p ex:age ?a } }"
    )
    by_person = {str(r["p"]): r.get("a") for r in res}
    assert by_person[EX + "dave"] is None
    assert by_person[EX + "alice"] == Literal(30)


def test_optional_with_filter_inside(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?a WHERE { ?p a ex:Person "
        "OPTIONAL { ?p ex:age ?a FILTER(?a > 28) } }"
    )
    by_person = {str(r["p"]): r.get("a") for r in res}
    assert by_person[EX + "bob"] is None
    assert by_person[EX + "carol"] == Literal(35)


def test_union(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?x WHERE { { ?x ex:age 30 } UNION { ?x ex:age 25 } }"
    )
    assert {str(r["x"]) for r in res} == {EX + "alice", EX + "bob"}


def test_minus(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p a ex:Person MINUS { ?p ex:age 25 } }"
    )
    assert {str(r["p"]) for r in res} == {EX + "alice", EX + "carol"}


def test_bind(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?double WHERE { ?p ex:age ?a BIND(?a * 2 AS ?double) }"
    )
    doubles = {str(r["p"]): r["double"].value for r in res}
    assert doubles[EX + "alice"] == 60


def test_values_join(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?a WHERE { ?p ex:age ?a VALUES ?p { ex:alice ex:bob } }"
    )
    assert len(res) == 2


def test_not_exists(g):
    g.add(ex("dave"), RDF.type, ex("Person"))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p a ex:Person "
        "FILTER(NOT EXISTS { ?p ex:age ?a }) }"
    )
    assert [str(r["p"]) for r in res] == [EX + "dave"]


def test_exists(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p a ex:Person "
        "FILTER(EXISTS { ?p ex:knows ?q }) }"
    )
    assert {str(r["p"]) for r in res} == {EX + "alice", EX + "bob"}


def test_order_by_limit_offset(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2"
    )
    assert [str(r["p"]) for r in res] == [EX + "carol", EX + "alice"]
    res2 = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a OFFSET 1 LIMIT 1"
    )
    assert [str(r["p"]) for r in res2] == [EX + "alice"]


def test_distinct(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT DISTINCT ?t WHERE { ?p a ?t }"
    )
    assert len(res) == 1


def test_count_star(g):
    res = g.query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
    assert res.rows[0]["n"].value == len(g)


def test_group_by_aggregates(g):
    g.add(ex("alice"), ex("city"), Literal("Paris"))
    g.add(ex("bob"), ex("city"), Literal("Paris"))
    g.add(ex("carol"), ex("city"), Literal("Athens"))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?c (COUNT(?p) AS ?n) (AVG(?a) AS ?avg) "
        "WHERE { ?p ex:city ?c ; ex:age ?a } GROUP BY ?c"
    )
    stats = {r["c"].lexical: (r["n"].value, r["avg"].value) for r in res}
    assert stats["Paris"] == (2, 27.5)
    assert stats["Athens"] == (1, 35.0)


def test_having(g):
    g.add(ex("alice"), ex("city"), Literal("Paris"))
    g.add(ex("bob"), ex("city"), Literal("Paris"))
    g.add(ex("carol"), ex("city"), Literal("Athens"))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?c WHERE { ?p ex:city ?c } GROUP BY ?c "
        "HAVING (COUNT(?p) > 1)"
    )
    assert [r["c"].lexical for r in res] == ["Paris"]


def test_min_max_sum(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?total) "
        "WHERE { ?p ex:age ?a }"
    )
    row = res.rows[0]
    assert row["lo"].value == 25
    assert row["hi"].value == 35
    assert row["total"].value == 90


def test_min_max_over_group_without_literals_leave_unbound():
    """MIN/MAX over IRIs only is an aggregate error, as over an empty
    group: one row, the variable unbound."""
    g = Graph()
    g.add(ex("a"), ex("knows"), ex("b"))
    g.add(ex("b"), ex("knows"), ex("c"))
    for agg in ("MIN", "MAX"):
        res = g.query(f"SELECT ({agg}(?o) AS ?m) WHERE {{ ?s ?p ?o }}")
        assert res.vars == ["m"]
        assert res.rows == [{}]


def test_group_concat(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        'SELECT (GROUP_CONCAT(?n; SEPARATOR="|") AS ?all) '
        "WHERE { ?p ex:name ?n } "
    )
    parts = set(res.rows[0]["all"].lexical.split("|"))
    assert parts == {"Alice", "Bob", "Carol"}


def test_ask(g):
    assert g.query(
        "PREFIX ex: <http://example.org/> ASK { ex:alice ex:age 30 }"
    ).ask
    assert not g.query(
        "PREFIX ex: <http://example.org/> ASK { ex:alice ex:age 99 }"
    ).ask


def test_construct(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "CONSTRUCT { ?p ex:label ?n } WHERE { ?p ex:name ?n }"
    )
    assert len(res.graph) == 3
    assert res.graph.value(ex("alice"), ex("label")) == Literal("Alice")


def test_describe(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> DESCRIBE ex:alice"
    )
    assert len(res.graph) == 4  # age, name, knows, type


def test_subselect(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?n WHERE { ?p ex:name ?n "
        "{ SELECT ?p WHERE { ?p ex:age ?a FILTER(?a >= 30) } } }"
    )
    assert {r["n"].lexical for r in res} == {"Alice", "Carol"}


def test_bind_if_coalesce(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        'SELECT ?p ?cat WHERE { ?p ex:age ?a '
        'BIND(IF(?a >= 30, "senior", "junior") AS ?cat) }'
    )
    cats = {str(r["p"]): r["cat"].lexical for r in res}
    assert cats[EX + "bob"] == "junior"
    assert cats[EX + "carol"] == "senior"


def test_in_operator(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:age ?a FILTER(?a IN (25, 35)) }"
    )
    assert {str(r["p"]) for r in res} == {EX + "bob", EX + "carol"}


def test_select_json_csv(g):
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?n WHERE { ex:alice ex:name ?n }"
    )
    assert "Alice" in res.to_csv()
    assert '"value": "Alice"' in res.to_json()


def test_result_roundtrip_json(g):
    from repro.sparql.results import SPARQLResult

    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p ?a WHERE { ?p ex:age ?a }"
    )
    back = SPARQLResult.from_json(res.to_json())
    assert len(back) == 3
    assert back.vars == ["p", "a"]
    assert {r["a"].value for r in back} == {25, 30, 35}


def test_datetime_comparison():
    g = Graph()
    g.bind("ex", EX)
    g.add(ex("obs1"), ex("time"),
          Literal("2018-06-01T00:00:00Z", datatype=XSD.dateTime))
    g.add(ex("obs2"), ex("time"),
          Literal("2018-07-01T00:00:00Z", datatype=XSD.dateTime))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        "SELECT ?o WHERE { ?o ex:time ?t "
        'FILTER(?t > "2018-06-15T00:00:00Z"^^xsd:dateTime) }'
    )
    assert [str(r["o"]) for r in res] == [EX + "obs2"]


def test_error_in_filter_drops_row(g):
    # STRLEN of an IRI errors for that row; others survive.
    g.add(ex("alice"), ex("thing"), ex("iri-object"))
    g.add(ex("bob"), ex("thing"), Literal("text"))
    res = g.query(
        "PREFIX ex: <http://example.org/> "
        "SELECT ?p WHERE { ?p ex:thing ?v FILTER(STRLEN(?v) > 1) }"
    )
    assert [str(r["p"]) for r in res] == [EX + "bob"]
