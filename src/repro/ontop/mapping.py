"""Ontop's native mapping language (the format of the paper's Listing 2).

A mapping document looks like::

    [PrefixDeclaration]
    lai:    http://www.app-lab.eu/lai/
    geo:    http://www.opengis.net/ont/geosparql#

    [MappingDeclaration] @collection [[
    mappingId   opendap_mapping
    target      lai:{id} rdf:type lai:Observation .
                lai:{id} lai:lai {LAI}^^xsd:float ;
                         time:hasTime {ts}^^xsd:dateTime .
                lai:{id} geo:hasGeometry _:g .
                _:g geo:asWKT {loc}^^geo:wktLiteral .
    source      SELECT id, LAI, ts, loc
                FROM (ordered opendap url:dap://vito/LAI, 10)
                WHERE LAI > 0
    ]]

The *target* is a Turtle-like template whose ``{column}`` placeholders
are filled from each source row; the *source* is SQL over the MadIS
layer (including its virtual-table operators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rdf.namespace import NamespaceManager, RDF
from ..rdf.terms import BNode, IRI, Literal, Term, Triple


class OntopMappingError(ValueError):
    """Raised on malformed mapping documents or templates."""


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class NodeTemplate:
    """A subject/predicate/object slot of a target template triple.

    kinds: ``iri`` (text with optional placeholders), ``bnode`` (label is
    per-row), ``literal`` (text with placeholders + optional datatype or
    lang), ``constant`` (a fixed term).

    ``text`` is compiled once, when the template is built, into the text
    before the first placeholder and one ``(column, following text)``
    pair per placeholder, so instantiating a row only concatenates.
    """

    kind: str
    text: str = ""
    datatype: Optional[IRI] = None
    lang: Optional[str] = None
    constant: Optional[Term] = None
    _head: str = field(init=False, repr=False, compare=False)
    _parts: Tuple[Tuple[str, str], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = _PLACEHOLDER_RE.split(self.text)
        object.__setattr__(self, "_head", pieces[0])
        object.__setattr__(self, "_parts",
                           tuple(zip(pieces[1::2], pieces[2::2])))
        if self.datatype is not None:
            object.__setattr__(self, "datatype", IRI(self.datatype))

    @property
    def columns(self) -> List[str]:
        return [column for column, __ in self._parts]

    def instantiate(self, row: Dict[str, object],
                    bnodes: Dict[str, BNode]) -> Optional[Term]:
        """The term for one source row; ``None`` when a column is NULL."""
        kind = self.kind
        if kind == "constant":
            return self.constant
        if kind == "bnode":
            if self.text not in bnodes:
                bnodes[self.text] = BNode()
            return bnodes[self.text]
        text = self._head
        for column, tail in self._parts:
            value = row.get(column)
            if value is None:
                return None
            text = text + str(value) + tail
        if kind == "iri":
            return IRI(text.replace(" ", "_"))
        return Literal(text, datatype=self.datatype, lang=self.lang)


@dataclass(frozen=True)
class TemplateTriple:
    s: NodeTemplate
    p: NodeTemplate
    o: NodeTemplate

    def instantiate(self, row: Dict[str, object],
                    bnodes: Dict[str, BNode]) -> Optional[Triple]:
        s = self.s.instantiate(row, bnodes)
        p = self.p.instantiate(row, bnodes)
        o = self.o.instantiate(row, bnodes)
        if s is None or p is None or o is None:
            return None
        return Triple(s, p, o)


@dataclass
class OntopMapping:
    mapping_id: str
    source_sql: str
    target: List[TemplateTriple] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Target template parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<punct>[.;,])
  | (?P<bnode>_:\w+)
  | (?P<iriref><[^<>\s]+>)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<braced>\{\w+\})
  | (?P<pname>[A-Za-z_][\w.-]*:[\w.{}%/-]*)
  | (?P<a>\ba\b)
  | (?P<caret>\^\^)
  | (?P<lang>@[A-Za-z-]+)
    """,
    re.VERBOSE,
)


def parse_target(text: str, ns: NamespaceManager) -> List[TemplateTriple]:
    """Parse a target template into template triples."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise OntopMappingError(
                f"cannot tokenize target at {text[pos:pos+30]!r}"
            )
        tokens.append((m.lastgroup, m.group(0)))
        pos = m.end()

    triples: List[TemplateTriple] = []
    i = 0

    def node(allow_literal: bool) -> Tuple[NodeTemplate, int]:
        nonlocal i
        kind, value = tokens[i]
        if kind == "bnode":
            i += 1
            return NodeTemplate("bnode", value[2:]), i
        if kind == "iriref":
            i += 1
            return NodeTemplate("iri", value[1:-1]), i
        if kind == "a":
            i += 1
            return NodeTemplate("constant", constant=RDF.type), i
        if kind == "pname":
            i += 1
            prefix, __, local = value.partition(":")
            try:
                base = ns.expand(prefix + ":")
            except ValueError as exc:
                raise OntopMappingError(str(exc)) from None
            return NodeTemplate("iri", str(base) + local), i
        if kind in ("braced", "quoted") and allow_literal:
            i += 1
            text_value = value[1:-1] if kind == "quoted" else value
            datatype = None
            lang = None
            if i < len(tokens) and tokens[i][0] == "caret":
                i += 1
                dt_kind, dt_value = tokens[i]
                i += 1
                if dt_kind == "iriref":
                    datatype = IRI(dt_value[1:-1])
                elif dt_kind == "pname":
                    datatype = ns.expand(dt_value)
                else:
                    raise OntopMappingError("bad datatype after ^^")
            elif i < len(tokens) and tokens[i][0] == "lang":
                lang = tokens[i][1][1:]
                i += 1
            return NodeTemplate("literal", text_value,
                                datatype=datatype, lang=lang), i
        if kind == "braced":
            # placeholder in subject position → IRI template
            i += 1
            return NodeTemplate("iri", value), i
        raise OntopMappingError(
            f"unexpected token {value!r} in target template"
        )

    while i < len(tokens):
        subject, i = node(allow_literal=False)
        while True:
            predicate, i = node(allow_literal=False)
            while True:
                obj, i = node(allow_literal=True)
                triples.append(TemplateTriple(subject, predicate, obj))
                if i < len(tokens) and tokens[i] == ("punct", ","):
                    i += 1
                    continue
                break
            if i < len(tokens) and tokens[i] == ("punct", ";"):
                i += 1
                if i < len(tokens) and tokens[i] == ("punct", "."):
                    i += 1
                    break
                continue
            if i < len(tokens) and tokens[i] == ("punct", "."):
                i += 1
                break
            if i >= len(tokens):
                break
            raise OntopMappingError(
                f"expected '.', ';' or ',' after object, got {tokens[i][1]!r}"
            )
    if not triples:
        raise OntopMappingError("empty target template")
    return triples


# ---------------------------------------------------------------------------
# Mapping document parsing
# ---------------------------------------------------------------------------

def parse_mapping_document(text: str,
                           namespaces: Optional[NamespaceManager] = None
                           ) -> Tuple[List[OntopMapping], NamespaceManager]:
    """Parse a native Ontop mapping document."""
    ns = namespaces or NamespaceManager()
    lines = text.splitlines()
    i = 0
    # prefix declaration section (optional)
    while i < len(lines):
        line = lines[i].strip()
        if line == "[PrefixDeclaration]":
            i += 1
            while i < len(lines):
                decl = lines[i].strip()
                if not decl:
                    break
                if decl.startswith("["):
                    break
                m = re.match(r"^([\w-]*):\s+(\S+)$", decl)
                if not m:
                    raise OntopMappingError(f"bad prefix line {decl!r}")
                ns.bind(m.group(1), m.group(2))
                i += 1
            continue
        if line.startswith("[MappingDeclaration]"):
            i += 1
            continue
        i += 1

    # mapping blocks
    body = re.sub(r"\[\[|\]\]", "", text)
    blocks = re.split(r"(?m)^\s*mappingId\b", body)[1:]
    mappings: List[OntopMapping] = []
    for block in blocks:
        mapping_id, rest = _take_line(block)
        target_text, source_text = _split_target_source(rest)
        target = parse_target(target_text, ns)
        mappings.append(
            OntopMapping(
                mapping_id=mapping_id.strip(),
                source_sql=" ".join(source_text.split()),
                target=target,
            )
        )
    if not mappings:
        raise OntopMappingError("no mappings found in document")
    return mappings, ns


def _take_line(text: str) -> Tuple[str, str]:
    line, __, rest = text.partition("\n")
    return line.strip(), rest


def _split_target_source(text: str) -> Tuple[str, str]:
    m_target = re.search(r"(?m)^\s*target\b", text)
    m_source = re.search(r"(?m)^\s*source\b", text)
    if not m_target or not m_source:
        raise OntopMappingError("mapping block needs target and source")
    if m_target.start() > m_source.start():
        source_text = text[m_source.end(): m_target.start()]
        target_text = text[m_target.end():]
    else:
        target_text = text[m_target.end(): m_source.start()]
        source_text = text[m_source.end():]
    # a following mappingId (same block split artifact) cannot appear here
    return target_text.strip(), source_text.strip()
