"""SPARQL builtin and extension functions.

Includes the GeoSPARQL ``geof:`` function family evaluated with the
:mod:`repro.geometry` engine, and the Strabon ``strdf:`` temporal
extension (period relations over ``xsd:dateTime`` valid times).
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timezone
from typing import Callable, Dict, Optional

from ..geometry import Geometry, wkt_dumps, wkt_loads_cached
from ..geometry import ops as geo_ops
from ..geometry.wkt import split_crs, to_wkt_literal
from ..rdf.namespace import GEOF, STRDF, XSD
from ..rdf.terms import (
    BNode,
    GEO_WKT_LITERAL,
    IRI,
    Literal,
    Term,
    parse_datetime,
    to_utc,
)


class SparqlValueError(ValueError):
    """Raised when an expression cannot be evaluated (SPARQL 'error')."""


# ---------------------------------------------------------------------------
# Geometry literal handling (through the shared WKT parse cache — WKT
# parsing dominates spatial query time otherwise)
# ---------------------------------------------------------------------------

def geometry_from_term(term: Term) -> Geometry:
    """Parse a geo:wktLiteral (or plain WKT literal) into a Geometry."""
    if not isinstance(term, Literal):
        raise SparqlValueError(f"not a geometry literal: {term!r}")
    try:
        return wkt_loads_cached(term.lexical)
    except Exception as exc:
        raise SparqlValueError(f"bad WKT literal: {exc}") from None


def geometry_to_term(geom: Geometry) -> Literal:
    return Literal(to_wkt_literal(geom), datatype=GEO_WKT_LITERAL)


# ---------------------------------------------------------------------------
# Effective boolean value / numeric helpers
# ---------------------------------------------------------------------------

def effective_boolean_value(term) -> bool:
    """SPARQL EBV: errors raise, which FILTER treats as false."""
    if isinstance(term, bool):
        return term
    if isinstance(term, Literal):
        v = term.value
        if isinstance(v, bool):
            return v
        if isinstance(v, (int, float)):
            return bool(v) and not (isinstance(v, float) and math.isnan(v))
        if term.datatype in (None, XSD.string) or term.lang:
            return len(term.lexical) > 0
        raise SparqlValueError(f"no EBV for {term!r}")
    raise SparqlValueError(f"no EBV for {term!r}")


def numeric_value(term) -> float:
    if isinstance(term, Literal):
        v = term.value
        if isinstance(v, bool):
            raise SparqlValueError("boolean is not numeric")
        if isinstance(v, (int, float)):
            return v
        try:
            return float(term.lexical)
        except ValueError:
            pass
    raise SparqlValueError(f"not numeric: {term!r}")


def string_value(term) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, (IRI, BNode)):
        return str(term)
    raise SparqlValueError(f"no string value for {term!r}")


def string_literal_value(term) -> str:
    """Strict form: SPARQL string functions require a string literal."""
    if isinstance(term, Literal) and (
        term.datatype in (None, XSD.string) or term.lang
    ):
        return term.lexical
    raise SparqlValueError(f"not a string literal: {term!r}")


def datetime_value(term) -> datetime:
    if isinstance(term, Literal):
        v = term.value
        if isinstance(v, datetime):
            return to_utc(v)
        try:
            return to_utc(parse_datetime(term.lexical))
        except ValueError:
            pass
    raise SparqlValueError(f"not a dateTime: {term!r}")


# ---------------------------------------------------------------------------
# GeoSPARQL geof: functions
# ---------------------------------------------------------------------------

def _spatial_predicate(fn: Callable[[Geometry, Geometry], bool]):
    def impl(a, b):
        ga = geometry_from_term(a)
        gb = geometry_from_term(b)
        return Literal(fn(ga, gb))

    return impl


def _geof_distance(a, b, *unit):
    ga = geometry_from_term(a)
    gb = geometry_from_term(b)
    return Literal(float(geo_ops.distance(ga, gb)))


def _geof_buffer(a, radius, *unit):
    geom = geometry_from_term(a)
    return geometry_to_term(geo_ops.buffer(geom, numeric_value(radius)))


def _geof_envelope(a):
    return geometry_to_term(geo_ops.envelope(geometry_from_term(a)))


def _geof_convex_hull(a):
    return geometry_to_term(geo_ops.convex_hull(geometry_from_term(a)))


def _geof_boundary(a):
    geom = geometry_from_term(a)
    from ..geometry import LineString, MultiLineString, Polygon

    if isinstance(geom, Polygon):
        rings = [LineString(r.vertices) for r in geom.rings()]
        if len(rings) == 1:
            return geometry_to_term(rings[0])
        return geometry_to_term(MultiLineString(rings))
    raise SparqlValueError("boundary only implemented for polygons")


def _geof_area(a):
    """Extension (not in GeoSPARQL 1.0, used by Geographica): planar area."""
    return Literal(float(geo_ops.area(geometry_from_term(a))))


GEOF_FUNCTIONS: Dict[str, Callable] = {
    str(GEOF.sfIntersects): _spatial_predicate(geo_ops.intersects),
    str(GEOF.sfContains): _spatial_predicate(geo_ops.contains),
    str(GEOF.sfWithin): _spatial_predicate(geo_ops.within),
    str(GEOF.sfTouches): _spatial_predicate(geo_ops.touches),
    str(GEOF.sfDisjoint): _spatial_predicate(geo_ops.disjoint),
    str(GEOF.sfCrosses): _spatial_predicate(geo_ops.crosses),
    str(GEOF.sfOverlaps): _spatial_predicate(geo_ops.overlaps),
    str(GEOF.sfEquals): _spatial_predicate(geo_ops.equals),
    str(GEOF.distance): _geof_distance,
    str(GEOF.buffer): _geof_buffer,
    str(GEOF.envelope): _geof_envelope,
    str(GEOF.convexHull): _geof_convex_hull,
    str(GEOF.boundary): _geof_boundary,
    str(GEOF.area): _geof_area,
}

# The names of geof functions that are binary spatial relations; the
# evaluator uses this set for index pushdown in spatial selections.
SPATIAL_RELATIONS = {
    str(GEOF.sfIntersects): "intersects",
    str(GEOF.sfContains): "contains",
    str(GEOF.sfWithin): "within",
    str(GEOF.sfTouches): "touches",
    str(GEOF.sfCrosses): "crosses",
    str(GEOF.sfOverlaps): "overlaps",
    str(GEOF.sfEquals): "equals",
}


# ---------------------------------------------------------------------------
# Strabon strdf: temporal functions (valid time as xsd:dateTime pairs)
# ---------------------------------------------------------------------------

def _temporal(fn):
    def impl(*args):
        times = [datetime_value(a) for a in args]
        return Literal(fn(*times))

    return impl


STRDF_FUNCTIONS: Dict[str, Callable] = {
    str(STRDF.before): _temporal(lambda a, b: a < b),
    str(STRDF.after): _temporal(lambda a, b: a > b),
    str(STRDF.during): _temporal(lambda t, s, e: s <= t <= e),
    str(STRDF.periodOverlaps): _temporal(
        lambda s1, e1, s2, e2: s1 <= e2 and s2 <= e1
    ),
}


# ---------------------------------------------------------------------------
# Builtin (keyword) functions
# ---------------------------------------------------------------------------

def _fn_str(term):
    return Literal(string_value(term))


def _fn_lang(term):
    if isinstance(term, Literal):
        return Literal(term.lang or "")
    raise SparqlValueError("LANG on non-literal")


def _fn_datatype(term):
    if isinstance(term, Literal):
        if term.lang:
            return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")
        return term.datatype or XSD.string
    raise SparqlValueError("DATATYPE on non-literal")


def _fn_regex(text, pattern, *flags):
    re_flags = 0
    if flags and "i" in string_value(flags[0]):
        re_flags |= re.IGNORECASE
    return Literal(
        re.search(string_value(pattern), string_value(text), re_flags)
        is not None
    )


def _fn_replace(text, pattern, repl, *flags):
    re_flags = 0
    if flags and "i" in string_value(flags[0]):
        re_flags |= re.IGNORECASE
    return Literal(
        re.sub(string_value(pattern), string_value(repl),
               string_value(text), flags=re_flags)
    )


def _fn_substr(text, start, *length):
    s = string_value(text)
    begin = int(numeric_value(start)) - 1  # SPARQL is 1-based
    if length:
        return Literal(s[begin: begin + int(numeric_value(length[0]))])
    return Literal(s[begin:])


def _fn_concat(*args):
    return Literal("".join(string_value(a) for a in args))


def _fn_if(cond, then, els):
    # Evaluated eagerly by the evaluator; args already terms.
    return then if effective_boolean_value(cond) else els


def _fn_coalesce(*args):
    for a in args:
        if a is not None:
            return a
    raise SparqlValueError("COALESCE: all arguments unbound")


def _fn_now():
    return Literal(datetime.now(timezone.utc))


def _dt_part(part):
    def impl(term):
        return Literal(getattr(datetime_value(term), part))

    return impl


def _round_fn(fn):
    def impl(term):
        v = numeric_value(term)
        result = fn(v)
        return Literal(int(result)) if float(result).is_integer() else Literal(
            float(result)
        )

    return impl


def _fn_langmatches(tag, rng):
    tag_s = string_value(tag).lower()
    rng_s = string_value(rng).lower()
    if rng_s == "*":
        return Literal(bool(tag_s))
    return Literal(tag_s == rng_s or tag_s.startswith(rng_s + "-"))


BUILTIN_FUNCTIONS: Dict[str, Callable] = {
    "STR": _fn_str,
    "LANG": _fn_lang,
    "DATATYPE": _fn_datatype,
    "REGEX": _fn_regex,
    "REPLACE": _fn_replace,
    "CONTAINS": lambda a, b: Literal(string_value(b) in string_value(a)),
    "STRSTARTS": lambda a, b: Literal(
        string_value(a).startswith(string_value(b))
    ),
    "STRENDS": lambda a, b: Literal(
        string_value(a).endswith(string_value(b))
    ),
    "STRLEN": lambda a: Literal(len(string_literal_value(a))),
    "SUBSTR": _fn_substr,
    "UCASE": lambda a: Literal(string_literal_value(a).upper()),
    "LCASE": lambda a: Literal(string_literal_value(a).lower()),
    "CONCAT": _fn_concat,
    "ABS": _round_fn(abs),
    "CEIL": _round_fn(math.ceil),
    "FLOOR": _round_fn(math.floor),
    "ROUND": _round_fn(round),
    "YEAR": _dt_part("year"),
    "MONTH": _dt_part("month"),
    "DAY": _dt_part("day"),
    "HOURS": _dt_part("hour"),
    "MINUTES": _dt_part("minute"),
    "SECONDS": _dt_part("second"),
    "NOW": _fn_now,
    "IF": _fn_if,
    "COALESCE": _fn_coalesce,
    "ISIRI": lambda a: Literal(isinstance(a, IRI)),
    "ISURI": lambda a: Literal(isinstance(a, IRI)),
    "ISBLANK": lambda a: Literal(isinstance(a, BNode)),
    "ISLITERAL": lambda a: Literal(isinstance(a, Literal)),
    "ISNUMERIC": lambda a: Literal(
        isinstance(a, Literal) and a.is_numeric
    ),
    "LANGMATCHES": _fn_langmatches,
    "IRI": lambda a: IRI(string_value(a)),
    "URI": lambda a: IRI(string_value(a)),
    "BNODE": lambda *a: BNode(),
    "STRDT": lambda a, dt: Literal(string_value(a), datatype=IRI(str(dt))),
    "STRLANG": lambda a, lang: Literal(
        string_value(a), lang=string_value(lang)
    ),
}


EXTENSION_FUNCTIONS: Dict[str, Callable] = {}
EXTENSION_FUNCTIONS.update(GEOF_FUNCTIONS)
EXTENSION_FUNCTIONS.update(STRDF_FUNCTIONS)


def register_extension(iri: str, fn: Callable) -> None:
    """Register a custom IRI-named SPARQL function."""
    EXTENSION_FUNCTIONS[str(iri)] = fn
