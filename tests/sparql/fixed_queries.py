"""Five fixed query shapes over one seeded graph.

Shared by the reference-evaluator bag check
(``test_engine_equivalence.py``) and the spill-threshold invariance
check (``test_sharded_equivalence.py``): a 3-pattern join, OPTIONAL +
FILTER, UNION with ORDER BY, a DISTINCT projection and a VALUES hash
join.
"""

import random

from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal

EX = "http://example.org/"

QUERIES = [
    # 3-pattern join, unbound subject on every pattern
    f"""SELECT ?s ?v WHERE {{
        ?s <{EX}type> <{EX}A> .
        ?s <{EX}val> ?v .
        ?s <{EX}link> ?o . }}""",
    # OPTIONAL + FILTER
    f"""SELECT ?s ?v ?n WHERE {{
        ?s <{EX}val> ?v .
        OPTIONAL {{ ?s <{EX}name> ?n }}
        FILTER(?v != "3") }}""",
    # UNION with ORDER BY
    f"""SELECT ?s ?x WHERE {{
        {{ ?s <{EX}link> ?x . }} UNION {{ ?s <{EX}type> ?x . }}
    }} ORDER BY ?s ?x""",
    # DISTINCT projection
    f"SELECT DISTINCT ?o WHERE {{ ?s <{EX}type> ?o . }}",
    # VALUES join (hash-join path; spills when a threshold is armed)
    f"""SELECT ?s ?v WHERE {{
        VALUES ?v {{ "0" "1" "2" "5" }}
        ?s <{EX}val> ?v . }}""",
]


def build_graph(subjects=48):
    rnd = random.Random(1234)
    g = Graph()
    for i in range(subjects):
        s = IRI(f"{EX}s/{i}")
        g.add(s, IRI(EX + "type"), IRI(EX + ("A" if i % 2 else "B")))
        g.add(s, IRI(EX + "val"), Literal(str(i % 7)))
        if rnd.random() < 0.5:
            g.add(s, IRI(EX + "link"),
                  IRI(f"{EX}s/{rnd.randrange(subjects)}"))
        if rnd.random() < 0.3:
            g.add(s, IRI(EX + "name"), Literal(f"n{i}"))
    return g
