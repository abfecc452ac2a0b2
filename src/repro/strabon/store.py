"""Strabon: a spatiotemporal RDF store.

Reproduces the query-relevant behaviour of Strabon [Kyzirakos et al.,
ISWC 2012; Bereta et al., ESWC 2013]:

- **materialized storage** of RDF with GeoSPARQL geometry literals;
- a **spatial index** (STR-packed R-tree) over every object literal
  that parses as WKT — ``geo:wktLiteral`` or plain, exactly what the
  GeoSPARQL functions accept — exposed to the SPARQL evaluator through
  the ``spatial_candidates`` / ``spatial_join_candidates`` hooks,
  turning spatial selections and spatial joins into index lookups
  (Strabon's PostGIS GiST role);
- **valid time of triples** (stRDF): each triple may carry a
  ``[start, end)`` interval; snapshots, interval queries and temporal
  joins are supported (the ESWC 2013 contribution);
- **dictionary-encoded persistence** to SQLite, mirroring Strabon's
  DBMS-backed storage layer.
"""

from __future__ import annotations

import hashlib
import sqlite3
from datetime import datetime
from typing import Dict, Iterable, List, Optional, Tuple

from ..geometry import Geometry, STRtree
from ..geometry import wkt_loads
from ..rdf.graph import Graph
from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    Triple,
    to_utc,
)

Interval = Tuple[datetime, datetime]


class StrabonStore(Graph):
    """An indexed, optionally temporal, persistent RDF store."""

    #: The SPARQL evaluator passes its QueryBudget into
    #: ``spatial_candidates`` when this is set, so index scans are
    #: charged against the query's scan budget.
    budget_aware = True

    def __init__(self, identifier: Optional[str] = None):
        super().__init__(identifier)
        self._geometry_literals: Dict[Literal, Geometry] = {}
        self._rtree: Optional[STRtree] = None
        self._valid_time: Dict[Triple, Interval] = {}

    # -- mutation (keeps the spatial index in sync) -------------------------
    def add(self, triple_or_s, p=None, o=None) -> "StrabonStore":
        triple = self._coerce(triple_or_s, p, o)
        before = len(self)
        super().add(triple)
        if len(self) != before:
            obj = triple.o
            # Every parseable literal is indexed, typed or plain, since
            # the FILTER functions accept both; all WKT has a "(", so
            # the cheap pre-check skips numeric and name literals.
            if (isinstance(obj, Literal) and "(" in obj.lexical
                    and obj not in self._geometry_literals):
                try:
                    self._geometry_literals[obj] = wkt_loads(obj.lexical)
                    self._rtree = None
                except Exception:
                    pass  # malformed WKT stays queryable, not indexed
        return self

    def remove(self, triple_or_s, p=None, o=None) -> "StrabonStore":
        if isinstance(triple_or_s, Triple) and p is None and o is None:
            removed = [triple_or_s] if triple_or_s in self else []
        else:
            removed = list(self.triples((triple_or_s, p, o)))
        super().remove(triple_or_s, p, o)
        for t in removed:
            self._valid_time.pop(t, None)
            if isinstance(t.o, Literal) and t.o in self._geometry_literals:
                if not list(self.triples((None, None, t.o))):
                    del self._geometry_literals[t.o]
                    self._rtree = None
        return self

    # -- spatial index --------------------------------------------------------
    def _ensure_rtree(self) -> Optional[STRtree]:
        if self._rtree is None and self._geometry_literals:
            items = list(self._geometry_literals.items())
            self._rtree = STRtree(
                items, bbox_of=lambda kv: kv[1].bounds
            )
        return self._rtree

    def spatial_candidates(self, bounds, budget=None) -> List[Literal]:
        """Geometry literals whose bbox intersects *bounds*.

        This is the evaluator's pushdown hook: spatial FILTERs against a
        constant geometry enumerate only these candidates. With a
        *budget* (a :class:`~repro.governance.QueryBudget`) each
        candidate the R-tree hands back is charged against the query's
        scan budget, so a huge selection terminates with a typed
        budget error instead of enumerating the index unbounded.
        """
        tree = self._ensure_rtree()
        if tree is None:
            return []
        candidates = []
        for lit, __ in tree.query(bounds):
            if budget is not None:
                budget.charge_triples()
            candidates.append(lit)
        return candidates

    def spatial_join_candidates(self, geom: Geometry,
                                budget=None) -> List[Literal]:
        """Geometry literals whose bbox intersects *geom*'s.

        The filter step of the evaluator's index spatial join: the
        scan of ``?b`` under ``FILTER(geof:sfX(?a, ?b))`` enumerates
        only these, probed with the bound ``?a``'s geometry; the FILTER
        then verifies the exact relation. Charged like
        :meth:`spatial_candidates`.
        """
        return self.spatial_candidates(geom.bounds, budget=budget)

    @property
    def indexed_geometry_count(self) -> int:
        return len(self._geometry_literals)

    # -- valid time (stRDF) -----------------------------------------------------
    def add_with_time(self, triple_or_s, p=None, o=None, *,
                      start: datetime, end: datetime) -> "StrabonStore":
        """Assert a triple with a valid-time interval ``[start, end)``."""
        triple = self._coerce(triple_or_s, p, o)
        if to_utc(start) >= to_utc(end):
            raise ValueError("valid-time interval must have start < end")
        self.add(triple)
        self._valid_time[triple] = (to_utc(start), to_utc(end))
        return self

    def valid_time(self, triple: Triple) -> Optional[Interval]:
        return self._valid_time.get(triple)

    def triples_at(self, moment: datetime) -> Iterable[Triple]:
        """Triples valid at *moment* (timeless triples always qualify)."""
        moment = to_utc(moment)
        for t in self:
            interval = self._valid_time.get(t)
            if interval is None or interval[0] <= moment < interval[1]:
                yield t

    def snapshot(self, moment: datetime) -> Graph:
        """A plain graph of the state at *moment*."""
        g = Graph(identifier=f"{self.identifier or 'strabon'}@{moment}")
        g.namespaces = self.namespaces
        g.update(self.triples_at(moment))
        return g

    def triples_during(self, start: datetime, end: datetime
                       ) -> Iterable[Tuple[Triple, Interval]]:
        """Temporal triples whose interval overlaps ``[start, end)``."""
        start, end = to_utc(start), to_utc(end)
        for t, (s, e) in self._valid_time.items():
            if s < end and start < e:
                yield t, (s, e)

    @property
    def temporal_triple_count(self) -> int:
        return len(self._valid_time)

    def expose_valid_time(self) -> int:
        """Make valid times queryable through SPARQL (stSPARQL surface).

        Reifies each temporal triple as a ``strdf:TemporalTriple`` node
        carrying subject/predicate/object plus
        ``strdf:hasValidFrom`` / ``strdf:hasValidUntil`` instants, so
        plain (Geo)SPARQL with the ``strdf:`` comparison functions can
        query the history. Returns the number of reified statements.
        """
        from ..rdf.namespace import RDF, STRDF, XSD

        count = 0
        for triple, (start, end) in list(self._valid_time.items()):
            node = IRI(
                "http://strdf.di.uoa.gr/temporal/"
                + hashlib.sha1(triple.n3().encode()).hexdigest()[:16]
            )
            if (node, RDF.type, STRDF.TemporalTriple) in self:
                continue
            self.add(node, RDF.type, STRDF.TemporalTriple)
            self.add(node, RDF.subject, triple.s)
            self.add(node, RDF.predicate, triple.p)
            self.add(node, RDF.object, triple.o)
            self.add(node, STRDF.hasValidFrom,
                     Literal(start.isoformat(), datatype=XSD.dateTime))
            self.add(node, STRDF.hasValidUntil,
                     Literal(end.isoformat(), datatype=XSD.dateTime))
            count += 1
        return count

    # -- persistence -------------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist dictionary-encoded triples + valid times to SQLite."""
        conn = sqlite3.connect(path)
        try:
            conn.executescript(
                """
                DROP TABLE IF EXISTS terms;
                DROP TABLE IF EXISTS triples;
                CREATE TABLE terms (
                    id INTEGER PRIMARY KEY,
                    kind TEXT NOT NULL,
                    lexical TEXT NOT NULL,
                    datatype TEXT,
                    lang TEXT
                );
                CREATE TABLE triples (
                    s INTEGER NOT NULL,
                    p INTEGER NOT NULL,
                    o INTEGER NOT NULL,
                    valid_start TEXT,
                    valid_end TEXT
                );
                """
            )
            # Reuse the graph's interning dictionary verbatim: the ids
            # on disk are exactly the in-memory ids, so save is a plain
            # dump of (dictionary, id-triples) with no re-hashing.
            conn.executemany(
                "INSERT INTO terms VALUES (?, ?, ?, ?, ?)",
                ((term_id,) + _term_key(term)
                 for term_id, term in self.dictionary.items()),
            )
            encode = self.dictionary.lookup
            for t in self:
                interval = self._valid_time.get(t)
                conn.execute(
                    "INSERT INTO triples VALUES (?, ?, ?, ?, ?)",
                    (
                        encode(t.s), encode(t.p), encode(t.o),
                        interval[0].isoformat() if interval else None,
                        interval[1].isoformat() if interval else None,
                    ),
                )
            conn.commit()
        finally:
            conn.close()

    @classmethod
    def load(cls, path: str,
             identifier: Optional[str] = None) -> "StrabonStore":
        """Load a store saved by :meth:`save`.

        Files written by older builds may carry a ``meta`` table (a
        shard-count row); it described an index layout that no longer
        exists and is ignored.
        """
        conn = sqlite3.connect(path)
        try:
            store = cls(identifier)
            # Re-intern in id order so the loaded store's dictionary
            # assigns exactly the on-disk ids (ids are dense from 1 in
            # intern order).
            terms: Dict[int, Term] = {}
            for term_id, kind, lexical, datatype, lang in conn.execute(
                "SELECT id, kind, lexical, datatype, lang FROM terms"
                " ORDER BY id"
            ):
                term = _term_from_key((kind, lexical, datatype, lang))
                terms[term_id] = term
                store.dictionary.encode(term)
            for s, p, o, start, end in conn.execute(
                "SELECT s, p, o, valid_start, valid_end FROM triples"
            ):
                triple = Triple(terms[s], terms[p], terms[o])
                if start is not None:
                    store.add_with_time(
                        triple,
                        start=datetime.fromisoformat(start),
                        end=datetime.fromisoformat(end),
                    )
                else:
                    store.add(triple)
        finally:
            conn.close()
        return store


def _term_key(term: Term) -> Tuple:
    if isinstance(term, Literal):
        return ("literal", term.lexical,
                str(term.datatype) if term.datatype else None, term.lang)
    if isinstance(term, BNode):
        return ("bnode", str(term), None, None)
    return ("iri", str(term), None, None)


def _term_from_key(key: Tuple) -> Term:
    kind, lexical, datatype, lang = key
    if kind == "literal":
        return Literal(lexical, datatype=IRI(datatype) if datatype else None,
                       lang=lang)
    if kind == "bnode":
        return BNode(lexical)
    return IRI(lexical)
