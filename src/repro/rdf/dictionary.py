"""Term dictionary: interning RDF terms as dense integer ids.

Strabon's storage layer (Kyzirakos et al., ISWC 2012) dictionary-encodes
every RDF term so that joins, indexes and persistence all operate on
integers; terms are decoded back only when results leave the engine.
:class:`TermDictionary` is that component for the in-memory stack: the
:class:`~repro.rdf.graph.Graph` keys its SPO/POS/OSP indexes by id, the
SPARQL physical operators join on ids, and ``StrabonStore`` persists the
dictionary verbatim instead of re-hashing terms.

Ids are dense, start at 1 (0 is reserved as "no term") and are assigned
in first-intern order, which keeps every downstream structure
deterministic for a given insertion sequence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .terms import Term

#: Reserved id meaning "no term" (wildcards, absent optional columns).
NO_TERM = 0


class TermDictionary:
    """A bidirectional term <-> int-id mapping (interning dictionary)."""

    __slots__ = ("_terms", "_ids")

    def __init__(self):
        # index 0 is the NO_TERM sentinel so ids index _terms directly
        self._terms: List[Optional[Term]] = [None]
        self._ids: Dict[Term, int] = {}

    def encode(self, term: Term) -> int:
        """Intern *term*, returning its (possibly fresh) id."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._terms.append(term)
            self._ids[term] = term_id
        return term_id

    def lookup(self, term: Term) -> Optional[int]:
        """The id of *term* if already interned, else ``None``."""
        return self._ids.get(term)

    def decode(self, term_id: int) -> Term:
        """The term for an id; raises ``KeyError`` for unknown ids.

        Negative ids are unknown by definition — they must not alias
        into the term list through Python's negative indexing.
        """
        if 0 < term_id < len(self._terms):
            return self._terms[term_id]
        raise KeyError(f"unknown term id {term_id}")

    def __len__(self) -> int:
        return len(self._terms) - 1

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def items(self) -> Iterator[Tuple[int, Term]]:
        """All ``(id, term)`` pairs in id order (persistence dumps)."""
        for term_id in range(1, len(self._terms)):
            yield term_id, self._terms[term_id]

    def __repr__(self) -> str:
        return f"<TermDictionary ({len(self)} terms)>"
