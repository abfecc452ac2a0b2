"""An indexed, dictionary-encoded, in-memory RDF graph.

Every term is interned through a :class:`~repro.rdf.dictionary.TermDictionary`
and the graph stores only integer id-triples: the SPO/POS/OSP hash
indexes are keyed by id, so pattern matching, joins and set membership
all run on ints and terms are decoded back only when triples (or query
results) leave the graph. This is the same architecture Strabon builds
on a DBMS (dictionary-encoded storage + indexes) and is what the
SPARQL physical operators in :mod:`repro.sparql.operators` join over.

The id level is exposed deliberately:

- :meth:`Graph.triples_ids` / :attr:`Graph.dictionary` let the query
  engine scan and join without decoding;
- :meth:`Graph.pattern_cardinality` answers "how many triples match
  this constant pattern" from index bookkeeping in O(1), which the
  planner uses for cardinality-based join ordering.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple, Union

from .dictionary import TermDictionary
from .namespace import NamespaceManager
from .terms import BNode, IRI, Literal, Term, Triple

Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]
IdTriple = Tuple[int, int, int]


class Graph:
    """A set of triples with id-keyed pattern indexes and I/O helpers."""

    def __init__(self, identifier: Optional[str] = None):
        self.identifier = identifier
        self.dictionary = TermDictionary()
        self._ids: Set[IdTriple] = set()
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._osp: Dict[int, Dict[int, Set[int]]] = {}
        # per-term triple counts, kept incrementally for O(1) cardinality
        self._s_count: Dict[int, int] = {}
        self._p_count: Dict[int, int] = {}
        self._o_count: Dict[int, int] = {}
        self.namespaces = NamespaceManager()

    # -- mutation ---------------------------------------------------------
    def add(self, triple_or_s, p: Optional[Term] = None,
            o: Optional[Term] = None) -> "Graph":
        """Add a triple; accepts ``add(Triple(...))`` or ``add(s, p, o)``."""
        triple = self._coerce(triple_or_s, p, o)
        encode = self.dictionary.encode
        key = (encode(triple.s), encode(triple.p), encode(triple.o))
        if key in self._ids:
            return self
        self._ids.add(key)
        s, pp, oo = key
        self._spo.setdefault(s, {}).setdefault(pp, set()).add(oo)
        self._pos.setdefault(pp, {}).setdefault(oo, set()).add(s)
        self._osp.setdefault(oo, {}).setdefault(s, set()).add(pp)
        self._s_count[s] = self._s_count.get(s, 0) + 1
        self._p_count[pp] = self._p_count.get(pp, 0) + 1
        self._o_count[oo] = self._o_count.get(oo, 0) + 1
        return self

    def remove(self, triple_or_s, p: Optional[Term] = None,
               o: Optional[Term] = None) -> "Graph":
        """Remove all triples matching the (possibly wildcard) pattern.

        Emptied index entries are pruned so the SPO/POS/OSP dicts shrink
        back with the data instead of accumulating empty shells under
        add/remove churn.
        """
        if isinstance(triple_or_s, Triple) and p is None and o is None:
            matches = [self._encode_triple(triple_or_s)]
        else:
            matches = list(self._ids_matching(self._encode_pattern(
                (triple_or_s, p, o))))
        for key in matches:
            if key is None or key not in self._ids:
                continue
            self._ids.discard(key)
            s, pp, oo = key
            self._index_discard(self._spo, s, pp, oo)
            self._index_discard(self._pos, pp, oo, s)
            self._index_discard(self._osp, oo, s, pp)
            self._count_decrement(self._s_count, s)
            self._count_decrement(self._p_count, pp)
            self._count_decrement(self._o_count, oo)
        return self

    @staticmethod
    def _index_discard(index, a: int, b: int, c: int) -> None:
        by_b = index.get(a)
        if by_b is None:
            return
        leaf = by_b.get(b)
        if leaf is None:
            return
        leaf.discard(c)
        if not leaf:
            del by_b[b]
            if not by_b:
                del index[a]

    @staticmethod
    def _count_decrement(counts: Dict[int, int], key: int) -> None:
        n = counts.get(key, 0) - 1
        if n <= 0:
            counts.pop(key, None)
        else:
            counts[key] = n

    def update(self, triples: Iterable[Triple]) -> "Graph":
        for t in triples:
            self.add(t)
        return self

    @staticmethod
    def _coerce(triple_or_s, p, o) -> Triple:
        if isinstance(triple_or_s, Triple):
            return triple_or_s
        if isinstance(triple_or_s, tuple) and p is None and o is None:
            return Triple(*triple_or_s)
        if p is None or o is None:
            raise TypeError("add() requires a Triple or three terms")
        return Triple(triple_or_s, p, o)

    # -- encoding helpers ---------------------------------------------------
    def _encode_triple(self, triple: Triple) -> Optional[IdTriple]:
        """Id-triple for *triple*, or ``None`` if any term is unknown."""
        lookup = self.dictionary.lookup
        s = lookup(triple.s)
        if s is None:
            return None
        p = lookup(triple.p)
        if p is None:
            return None
        o = lookup(triple.o)
        if o is None:
            return None
        return (s, p, o)

    def _encode_pattern(self, pattern: Pattern) -> Optional[IdPattern]:
        """Id pattern (``None`` = wildcard), or ``None``: no match possible."""
        out = []
        lookup = self.dictionary.lookup
        for term in pattern:
            if term is None:
                out.append(None)
            else:
                term_id = lookup(term)
                if term_id is None:
                    return None
                out.append(term_id)
        return tuple(out)

    def _decode_triple(self, key: IdTriple) -> Triple:
        decode = self.dictionary.decode
        return Triple(decode(key[0]), decode(key[1]), decode(key[2]))

    # -- access -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Triple]:
        decode = self.dictionary.decode
        for s, p, o in self._ids:
            yield Triple(decode(s), decode(p), decode(o))

    def __contains__(self, item) -> bool:
        if isinstance(item, Triple):
            key = self._encode_triple(item)
            return key is not None and key in self._ids
        if isinstance(item, tuple) and len(item) == 3:
            if all(term is not None for term in item):
                key = self._encode_triple(Triple(*item))
                return key is not None and key in self._ids
            return next(self.triples(item), None) is not None
        return False

    def triples(self, pattern: Pattern) -> Iterator[Triple]:
        """All triples matching a pattern; ``None`` is a wildcard."""
        ids = self._encode_pattern(pattern)
        if ids is None:
            return
        for key in self._ids_matching(ids):
            yield self._decode_triple(key)

    def triples_ids(self, ids: Optional[IdPattern]) -> Iterator[IdTriple]:
        """Id-level pattern matching (the query engine's scan hook).

        *ids* positions are term ids or ``None`` wildcards; passing
        ``None`` for the whole pattern (an unencodable pattern) yields
        nothing.
        """
        if ids is None:
            return iter(())
        return self._ids_matching(ids)

    def _ids_matching(self, ids: Optional[IdPattern]) -> Iterator[IdTriple]:
        if ids is None:
            return
        s, p, o = ids
        if s is not None and p is not None and o is not None:
            if ids in self._ids:
                yield ids
            return
        if s is not None:
            by_p = self._spo.get(s)
            if not by_p:
                return
            if p is not None:
                for oo in by_p.get(p, ()):
                    if o is None or oo == o:
                        yield (s, p, oo)
            else:
                for pp, objs in by_p.items():
                    for oo in objs:
                        if o is None or oo == o:
                            yield (s, pp, oo)
            return
        if p is not None:
            by_o = self._pos.get(p)
            if not by_o:
                return
            if o is not None:
                for ss in by_o.get(o, ()):
                    yield (ss, p, o)
            else:
                for oo, subs in by_o.items():
                    for ss in subs:
                        yield (ss, p, oo)
            return
        if o is not None:
            by_s = self._osp.get(o)
            if not by_s:
                return
            for ss, preds in by_s.items():
                for pp in preds:
                    yield (ss, pp, o)
            return
        yield from self._ids

    # -- statistics (planner hooks) ----------------------------------------
    def pattern_cardinality(self, ids: Optional[IdPattern]) -> int:
        """Exact number of triples matching a constant id pattern.

        O(1) from index bookkeeping — the planner's cardinality oracle
        for join ordering. ``None`` positions are wildcards; an
        unencodable pattern (``ids is None``) has cardinality 0.
        """
        if ids is None:
            return 0
        s, p, o = ids
        bound = (s is not None, p is not None, o is not None)
        if bound == (False, False, False):
            return len(self._ids)
        if bound == (True, False, False):
            return self._s_count.get(s, 0)
        if bound == (False, True, False):
            return self._p_count.get(p, 0)
        if bound == (False, False, True):
            return self._o_count.get(o, 0)
        if bound == (True, True, True):
            return 1 if ids in self._ids else 0
        if bound == (True, True, False):
            return len(self._spo.get(s, {}).get(p, ()))
        if bound == (False, True, True):
            return len(self._pos.get(p, {}).get(o, ()))
        return len(self._osp.get(o, {}).get(s, ()))

    @property
    def distinct_counts(self) -> Tuple[int, int, int]:
        """(distinct subjects, predicates, objects) currently indexed."""
        # the count dicts hold exactly one key per distinct term in the
        # corresponding position
        return len(self._s_count), len(self._p_count), len(self._o_count)

    def index_shell_sizes(self) -> Dict[str, int]:
        """Top-level index entry counts (regression hook for pruning)."""
        return {
            "spo": len(self._spo),
            "pos": len(self._pos),
            "osp": len(self._osp),
            "s_count": len(self._s_count),
            "p_count": len(self._p_count),
            "o_count": len(self._o_count),
        }

    def subjects(self, predicate: Optional[Term] = None,
                 obj: Optional[Term] = None) -> Iterator[Term]:
        seen = set()
        for t in self.triples((None, predicate, obj)):
            if t.s not in seen:
                seen.add(t.s)
                yield t.s

    def objects(self, subject: Optional[Term] = None,
                predicate: Optional[Term] = None) -> Iterator[Term]:
        seen = set()
        for t in self.triples((subject, predicate, None)):
            if t.o not in seen:
                seen.add(t.o)
                yield t.o

    def predicates(self, subject: Optional[Term] = None,
                   obj: Optional[Term] = None) -> Iterator[Term]:
        seen = set()
        for t in self.triples((subject, None, obj)):
            if t.p not in seen:
                seen.add(t.p)
                yield t.p

    def value(self, subject: Term, predicate: Term,
              default=None) -> Optional[Term]:
        """The single object of (subject, predicate, ?) or *default*."""
        for t in self.triples((subject, predicate, None)):
            return t.o
        return default

    # -- set operations -----------------------------------------------------
    def __iadd__(self, other: Union["Graph", Iterable[Triple]]) -> "Graph":
        self.update(other)
        return self

    def __add__(self, other: "Graph") -> "Graph":
        out = Graph()
        out.update(self)
        out.update(other)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # ids are dictionary-local, so equality compares decoded triples
        return len(self) == len(other) and set(self) == set(other)

    def __hash__(self):  # graphs are mutable; identity hash
        return id(self)

    # -- namespace / IO -------------------------------------------------------
    def bind(self, prefix: str, namespace: str) -> "Graph":
        self.namespaces.bind(prefix, str(namespace))
        return self

    def serialize(self, format: str = "turtle") -> str:
        """Serialize to ``turtle``, ``ntriples`` or ``xml``."""
        if format in ("turtle", "ttl"):
            from .turtle import serialize_turtle

            return serialize_turtle(self)
        if format in ("ntriples", "nt"):
            from .ntriples import serialize_ntriples

            return serialize_ntriples(self)
        if format in ("xml", "rdfxml", "rdf/xml"):
            from .rdfxml import serialize_rdfxml

            return serialize_rdfxml(self)
        raise ValueError(f"unknown serialization format {format!r}")

    def parse(self, text: str, format: str = "turtle") -> "Graph":
        """Parse triples from *text* into this graph."""
        if format in ("turtle", "ttl"):
            from .turtle import parse_turtle

            parse_turtle(text, self)
        elif format in ("ntriples", "nt"):
            from .ntriples import parse_ntriples

            parse_ntriples(text, self)
        else:
            raise ValueError(f"unknown parse format {format!r}")
        return self

    def query(self, sparql: str, **kwargs):
        """Evaluate a (Geo)SPARQL query against this graph."""
        from ..sparql import query as sparql_query

        return sparql_query(self, sparql, **kwargs)

    def explain(self, sparql: str, **kwargs) -> str:
        """The physical plan ``query()`` would run, without executing.

        Returns the rendered operator tree with estimated row counts
        (actuals show as ``-``); run :meth:`query` and render
        ``result.plan`` to see estimates next to actuals.
        """
        from ..sparql import explain as sparql_explain

        return sparql_explain(self, sparql, **kwargs).render()

    def sparql_update(self, text: str):
        """Execute a SPARQL Update request against this graph."""
        from ..sparql.update import update as sparql_update

        return sparql_update(self, text)

    def __repr__(self) -> str:
        name = self.identifier or "anonymous"
        return f"<Graph {name} ({len(self)} triples)>"
