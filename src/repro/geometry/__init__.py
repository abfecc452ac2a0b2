"""Planar geometry engine used by every spatial layer of the stack.

Public surface:

- types: :class:`Point`, :class:`LineString`, :class:`LinearRing`,
  :class:`Polygon`, the ``Multi*`` variants and
  :class:`GeometryCollection`.
- I/O: :func:`wkt.loads` / :func:`wkt.dumps` (plus GeoSPARQL wktLiteral
  helpers) and GeoJSON (:mod:`repro.geometry.geojson`);
  :func:`wkt_loads_cached` is the one WKT parse cache both workflows
  share (:func:`clear_geometry_cache` empties it).
- predicates & measures: :mod:`repro.geometry.ops`.
- indexing: :class:`STRtree`.
- CRS helpers: :mod:`repro.geometry.crs`.
"""

from .base import (
    Geometry,
    GeometryCollection,
    GeometryError,
    LineString,
    LinearRing,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    bbox_contains,
    bbox_intersects,
    flatten,
)
from .geojson import Feature, FeatureCollection, from_geojson, to_geojson
from .index import STRtree
from .wkt import dumps as wkt_dumps
from .wkt import WktParseError
from .wkt import clear_cache as clear_geometry_cache
from .wkt import loads as wkt_loads
from .wkt import loads_cached as wkt_loads_cached
from .wkt import to_wkt_literal

__all__ = [
    "Geometry",
    "GeometryCollection",
    "GeometryError",
    "WktParseError",
    "LineString",
    "LinearRing",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "Polygon",
    "Feature",
    "FeatureCollection",
    "STRtree",
    "bbox_contains",
    "bbox_intersects",
    "clear_geometry_cache",
    "flatten",
    "from_geojson",
    "to_geojson",
    "to_wkt_literal",
    "wkt_dumps",
    "wkt_loads",
    "wkt_loads_cached",
]
