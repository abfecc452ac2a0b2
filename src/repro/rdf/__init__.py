"""RDF substrate: terms, graphs, namespaces and serializations."""

from .dictionary import NO_TERM, TermDictionary
from .graph import Graph
from .namespace import (
    CLC,
    DCTERMS,
    GADM,
    GEO,
    GEOF,
    INSPIRE,
    LAI,
    MAP,
    Namespace,
    NamespaceManager,
    OSM,
    OWL,
    PREFIXES,
    QB,
    RDF,
    RDFS,
    SDO,
    SDOEO,
    SF,
    SKOS,
    STRDF,
    TIME,
    UA,
    UOM,
    XSD,
)
from .crawler import CrawlReport, DocumentStore, RdfCrawler, sniff_format
from .ntriples import ParseError, parse_ntriples, serialize_ntriples
from .reasoner import materialize_inferences, rdfs_closure
from .rdfxml import parse_rdfxml, serialize_rdfxml
from .terms import (
    BNode,
    GEO_WKT_LITERAL,
    IRI,
    Literal,
    Term,
    Triple,
    literal_cmp_key,
    parse_datetime,
    to_utc,
)
from .turtle import parse_turtle, serialize_turtle

__all__ = [
    "BNode",
    "CrawlReport",
    "DocumentStore",
    "Graph",
    "NO_TERM",
    "RdfCrawler",
    "TermDictionary",
    "materialize_inferences",
    "rdfs_closure",
    "sniff_format",
    "GEO_WKT_LITERAL",
    "IRI",
    "Literal",
    "Namespace",
    "NamespaceManager",
    "ParseError",
    "Term",
    "Triple",
    "literal_cmp_key",
    "parse_datetime",
    "parse_ntriples",
    "parse_rdfxml",
    "parse_turtle",
    "serialize_ntriples",
    "serialize_rdfxml",
    "serialize_turtle",
    "to_utc",
    # namespaces
    "CLC", "DCTERMS", "GADM", "GEO", "GEOF", "INSPIRE", "LAI", "MAP",
    "OSM", "OWL", "PREFIXES", "QB", "RDF", "RDFS", "SDO", "SDOEO", "SF",
    "SKOS", "STRDF", "TIME", "UA", "UOM", "XSD",
]
