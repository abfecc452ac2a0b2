"""RDF term model: IRIs, blank nodes, literals and triples.

This is the foundation shared by the whole linked-data stack (Strabon,
Ontop-spatial, GeoTriples, the SPARQL engine). Terms are immutable and
hashable; :class:`Literal` knows how to convert its lexical form to a
Python value based on its XSD datatype, which the SPARQL evaluator uses
for filters, ordering and arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from datetime import date, datetime, timezone
from typing import NamedTuple, Optional, Union


class IRI(str):
    """An IRI reference. Subclasses ``str`` so IRIs compare as strings."""

    __slots__ = ()

    def __new__(cls, value: str):
        if not value:
            raise ValueError("empty IRI")
        return super().__new__(cls, value)

    def n3(self) -> str:
        return f"<{self}>"

    def __repr__(self) -> str:
        return f"IRI({str.__repr__(self)})"

    @property
    def local_name(self) -> str:
        """The part after the last '#' or '/'."""
        for sep in ("#", "/"):
            if sep in self:
                return self.rsplit(sep, 1)[1]
        return str(self)


_bnode_counter = itertools.count()


class BNode(str):
    """A blank node with a (possibly auto-generated) label."""

    __slots__ = ()

    def __new__(cls, label: Optional[str] = None):
        if label is None:
            label = f"b{next(_bnode_counter)}"
        if not re.match(r"^[A-Za-z0-9_.-]+$", label):
            raise ValueError(f"invalid blank node label {label!r}")
        return super().__new__(cls, label)

    def n3(self) -> str:
        return f"_:{self}"

    def __repr__(self) -> str:
        return f"BNode({str.__repr__(self)})"


# Core XSD datatype IRIs (kept here to avoid a circular import with
# namespace.py, which re-exports them in the XSD namespace object).
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = IRI(XSD_NS + "string")
XSD_INTEGER = IRI(XSD_NS + "integer")
XSD_INT = IRI(XSD_NS + "int")
XSD_LONG = IRI(XSD_NS + "long")
XSD_DECIMAL = IRI(XSD_NS + "decimal")
XSD_DOUBLE = IRI(XSD_NS + "double")
XSD_FLOAT = IRI(XSD_NS + "float")
XSD_BOOLEAN = IRI(XSD_NS + "boolean")
XSD_DATE = IRI(XSD_NS + "date")
XSD_DATETIME = IRI(XSD_NS + "dateTime")
XSD_ANYURI = IRI(XSD_NS + "anyURI")

GEO_NS = "http://www.opengis.net/ont/geosparql#"
GEO_WKT_LITERAL = IRI(GEO_NS + "wktLiteral")
GEO_GML_LITERAL = IRI(GEO_NS + "gmlLiteral")

RDF_LANGSTRING = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")

_NUMERIC_TYPES = {
    XSD_INTEGER, XSD_INT, XSD_LONG, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT,
}


class Literal:
    """An RDF literal: lexical form + optional datatype or language tag."""

    __slots__ = ("lexical", "datatype", "lang")

    def __init__(self, value, datatype: Optional[IRI] = None,
                 lang: Optional[str] = None):
        if lang is not None and datatype is not None:
            raise ValueError("a literal cannot have both lang and datatype")
        if type(value) is str:  # the common case: a lexical form
            lexical = value
        elif isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, datetime):
            lexical = value.isoformat()
            datatype = datatype or XSD_DATETIME
        elif isinstance(value, date):
            lexical = value.isoformat()
            datatype = datatype or XSD_DATE
        else:
            lexical = str(value)
        if type(datatype) is not IRI:
            datatype = IRI(datatype) if datatype else None
        self.lexical = lexical
        self.datatype = datatype
        self.lang = lang.lower() if lang else None

    # -- value space ----------------------------------------------------
    @property
    def value(self):
        """Python value for known XSD datatypes; lexical form otherwise."""
        dt = self.datatype
        if dt in (XSD_INTEGER, XSD_INT, XSD_LONG):
            return int(self.lexical)
        if dt in (XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT):
            return float(self.lexical)
        if dt == XSD_BOOLEAN:
            return self.lexical.strip() in ("true", "1")
        if dt == XSD_DATETIME:
            return parse_datetime(self.lexical)
        if dt == XSD_DATE:
            return date.fromisoformat(self.lexical.strip())
        return self.lexical

    @property
    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_TYPES

    @property
    def is_geometry(self) -> bool:
        return self.datatype in (GEO_WKT_LITERAL, GEO_GML_LITERAL)

    # -- identity --------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.lang == other.lang
        )

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype, self.lang))

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.lang:
            return f'"{escaped}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def __repr__(self) -> str:
        return f"Literal({self.n3()})"

    def __str__(self) -> str:
        return self.lexical


Term = Union[IRI, BNode, Literal]


class Triple(NamedTuple):
    """A subject/predicate/object statement."""

    s: Term
    p: IRI
    o: Term

    def n3(self) -> str:
        return f"{_term_n3(self.s)} {_term_n3(self.p)} {_term_n3(self.o)} ."


def _term_n3(term: Term) -> str:
    if isinstance(term, (IRI, BNode, Literal)):
        return term.n3()
    raise TypeError(f"not an RDF term: {term!r}")


_DT_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(\.\d+)?"
    r"(Z|[+-]\d{2}:\d{2})?$"
)


def parse_datetime(text: str) -> datetime:
    """Parse an ``xsd:dateTime`` lexical form (Z suffix normalized to UTC)."""
    text = text.strip()
    m = _DT_RE.match(text)
    if not m:
        raise ValueError(f"invalid xsd:dateTime {text!r}")
    iso = text.replace(" ", "T").replace("Z", "+00:00")
    return datetime.fromisoformat(iso)


def to_utc(dt: datetime) -> datetime:
    """Normalize a datetime to UTC (naive datetimes are assumed UTC)."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def literal_cmp_key(lit: Literal):
    """Total-order sort key usable across mixed literal datatypes."""
    v = lit.value
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, (int, float)):
        if isinstance(v, float) and math.isnan(v):
            return (1, -math.inf)
        return (1, float(v))
    if isinstance(v, datetime):
        return (2, to_utc(v).timestamp())
    if isinstance(v, date):
        return (2, datetime(v.year, v.month, v.day,
                            tzinfo=timezone.utc).timestamp())
    return (3, str(v))
