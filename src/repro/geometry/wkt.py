"""Well-Known Text (WKT) reader and writer.

GeoSPARQL represents geometries as ``geo:wktLiteral`` strings, optionally
prefixed with a CRS IRI, e.g.::

    <http://www.opengis.net/def/crs/OGC/1.3/CRS84> POINT(2.35 48.85)

:func:`loads` accepts that form and plain WKT; :func:`dumps` emits plain
WKT (use :func:`to_wkt_literal` for the prefixed literal form).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..errors import ParseError
from .base import (
    Geometry,
    GeometryCollection,
    GeometryError,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)

class WktParseError(GeometryError, ParseError):
    """Malformed WKT text (a GeometryError and a common ParseError).

    Callers that historically caught :class:`GeometryError` keep
    working; new "parse untrusted text" paths can catch
    :class:`repro.errors.ParseError` across every front end.
    """


CRS84 = "http://www.opengis.net/def/crs/OGC/1.3/CRS84"
EPSG4326 = "http://www.opengis.net/def/crs/EPSG/0/4326"

_CRS_RE = re.compile(r"^\s*<([^>]+)>\s*(.*)$", re.DOTALL)
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def split_crs(text: str) -> Tuple[str, str]:
    """Split an optional leading ``<crs-iri>`` from WKT text."""
    m = _CRS_RE.match(text)
    if m:
        return m.group(1), m.group(2)
    return CRS84, text


def to_wkt_literal(geom: Geometry, crs: str = CRS84) -> str:
    """Render the ``geo:wktLiteral`` lexical form with a CRS prefix."""
    return f"<{crs}> {dumps(geom)}"


class _Scanner:
    """Minimal recursive-descent scanner over a WKT string."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise WktParseError(
                f"expected {ch!r} in WKT {self.text!r}", position=self.pos
            )
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z]+", self.text[self.pos:])
        if not m:
            raise WktParseError("expected WKT keyword",
                                position=self.pos)
        self.pos += m.end()
        return m.group(0).upper()

    def number(self) -> float:
        self.skip_ws()
        m = re.match(_NUM, self.text[self.pos:])
        if not m:
            raise WktParseError("expected number", position=self.pos)
        self.pos += m.end()
        return float(m.group(0))

    def coord(self) -> Tuple[float, float]:
        x = self.number()
        y = self.number()
        # Swallow optional Z/M ordinates.
        while re.match(_NUM, self.text[self.pos:].lstrip()):
            save = self.pos
            try:
                self.number()
            except GeometryError:  # pragma: no cover - defensive
                self.pos = save
                break
        return (x, y)

    def coord_list(self) -> List[Tuple[float, float]]:
        self.expect("(")
        coords = [self.coord()]
        while self.peek() == ",":
            self.expect(",")
            coords.append(self.coord())
        self.expect(")")
        return coords

    def ring_list(self) -> List[List[Tuple[float, float]]]:
        self.expect("(")
        rings = [self.coord_list()]
        while self.peek() == ",":
            self.expect(",")
            rings.append(self.coord_list())
        self.expect(")")
        return rings

    def maybe_empty(self) -> bool:
        save = self.pos
        try:
            if self.word() == "EMPTY":
                return True
        except GeometryError:
            pass
        self.pos = save
        return False


def loads(text: str) -> Geometry:
    """Parse WKT (optionally with a GeoSPARQL CRS prefix) into a Geometry.

    Malformed text raises :class:`WktParseError` — also reachable as
    :class:`GeometryError` or :class:`repro.errors.ParseError` — never a
    bare ``ValueError``/``IndexError`` from the scanner or the geometry
    constructors.
    """
    __, wkt_body = split_crs(text)
    scanner = _Scanner(wkt_body)
    try:
        geom = _parse_geometry(scanner)
    except WktParseError:
        raise
    except (GeometryError, ValueError, IndexError) as exc:
        raise WktParseError(str(exc), position=scanner.pos) from None
    scanner.skip_ws()
    if scanner.pos != len(scanner.text):
        trailing = scanner.text[scanner.pos:].strip()
        if trailing:
            raise WktParseError(f"trailing WKT content: {trailing!r}",
                                position=scanner.pos)
    return geom


# One parse cache for the whole process: the materialized workflow reads
# GeoSPARQL literals and the virtual one reads WKT columns in MadIS UDFs,
# and both see the same texts (constant query windows, pixel points)
# over and over. Cleared when full, so its size stays bounded.
_CACHE: Dict[str, Geometry] = {}
_CACHE_MAX = 100_000


def loads_cached(text: str) -> Geometry:
    """:func:`loads` through the shared parse cache.

    Callers must not mutate the returned geometry. A parse failure
    raises as :func:`loads` does and is never cached.
    """
    geom = _CACHE.get(text)
    if geom is None:
        geom = loads(text)
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.clear()
        _CACHE[text] = geom
    return geom


def clear_cache() -> None:
    """Empty the shared parse cache."""
    _CACHE.clear()


def _parse_geometry(s: _Scanner) -> Geometry:
    kind = s.word()
    if kind == "POINT":
        if s.maybe_empty():
            raise WktParseError("empty POINT is not supported", position=s.pos)
        s.expect("(")
        c = s.coord()
        s.expect(")")
        return Point(*c)
    if kind == "LINESTRING":
        return LineString(s.coord_list())
    if kind == "POLYGON":
        rings = s.ring_list()
        return Polygon(rings[0], rings[1:])
    if kind == "MULTIPOINT":
        s.expect("(")
        pts = []
        while True:
            if s.peek() == "(":
                s.expect("(")
                pts.append(Point(*s.coord()))
                s.expect(")")
            else:
                pts.append(Point(*s.coord()))
            if s.peek() != ",":
                break
            s.expect(",")
        s.expect(")")
        return MultiPoint(pts)
    if kind == "MULTILINESTRING":
        return MultiLineString([LineString(c) for c in s.ring_list()])
    if kind == "MULTIPOLYGON":
        s.expect("(")
        polys = [Polygon(r[0], r[1:]) for r in [s.ring_list()]]
        while s.peek() == ",":
            s.expect(",")
            r = s.ring_list()
            polys.append(Polygon(r[0], r[1:]))
        s.expect(")")
        return MultiPolygon(polys)
    if kind == "GEOMETRYCOLLECTION":
        s.expect("(")
        geoms = [_parse_geometry(s)]
        while s.peek() == ",":
            s.expect(",")
            geoms.append(_parse_geometry(s))
        s.expect(")")
        return GeometryCollection(geoms)
    raise WktParseError(f"unsupported WKT geometry type {kind!r}",
                        position=s.pos)


def _fmt(value: float) -> str:
    text = f"{value:.10f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _coords_text(coords) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords)


def dumps(geom: Geometry) -> str:
    """Serialize a Geometry to WKT."""
    if isinstance(geom, Point):
        return f"POINT ({_fmt(geom.x)} {_fmt(geom.y)})"
    if isinstance(geom, Polygon):
        rings = ", ".join(
            f"({_coords_text(r.vertices)})" for r in geom.rings()
        )
        return f"POLYGON ({rings})"
    if isinstance(geom, LineString):
        return f"LINESTRING ({_coords_text(geom.vertices)})"
    if isinstance(geom, MultiPoint):
        inner = ", ".join(f"({_fmt(p.x)} {_fmt(p.y)})" for p in geom)
        return f"MULTIPOINT ({inner})"
    if isinstance(geom, MultiLineString):
        inner = ", ".join(f"({_coords_text(l.vertices)})" for l in geom)
        return f"MULTILINESTRING ({inner})"
    if isinstance(geom, MultiPolygon):
        inner = ", ".join(
            "("
            + ", ".join(f"({_coords_text(r.vertices)})" for r in p.rings())
            + ")"
            for p in geom
        )
        return f"MULTIPOLYGON ({inner})"
    if isinstance(geom, GeometryCollection):
        inner = ", ".join(dumps(g) for g in geom)
        return f"GEOMETRYCOLLECTION ({inner})"
    raise GeometryError(f"cannot serialize {type(geom).__name__}")
