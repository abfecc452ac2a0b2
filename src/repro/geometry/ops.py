"""Spatial predicates and measures over :mod:`repro.geometry.base` types.

The predicates implement the OGC Simple Features semantics used by
GeoSPARQL (``geof:sfIntersects``, ``geof:sfContains``, ...). They are a
planar, epsilon-tolerant implementation: correct for the well-formed
polygons/lines/points produced by the synthetic Copernicus datasets, but
not a full robust-arithmetic DE-9IM engine.
"""

from __future__ import annotations

import math
from typing import Tuple

from .base import (
    Coord,
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
    bbox_intersects,
    flatten,
)

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Low-level primitives
# ---------------------------------------------------------------------------

def _orient(p: Coord, q: Coord, r: Coord) -> float:
    """Cross product orientation of the triple (p, q, r)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def on_segment(p: Coord, a: Coord, b: Coord, eps: float = _EPS) -> bool:
    """True when point *p* lies on the closed segment ``a-b``."""
    if abs(_orient(a, b, p)) > eps * (1.0 + _seg_len(a, b)):
        return False
    return (
        min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps
    )


def _seg_len(a: Coord, b: Coord) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def segments_intersect(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> bool:
    """True when closed segments ``a1-a2`` and ``b1-b2`` share any point."""
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return (
        on_segment(a1, b1, b2)
        or on_segment(a2, b1, b2)
        or on_segment(b1, a1, a2)
        or on_segment(b2, a1, a2)
    )


def segment_intersection_point(a1: Coord, a2: Coord, b1: Coord, b2: Coord):
    """Proper intersection point of two segments, or ``None``.

    Collinear overlaps return ``None``; callers that need overlap handling
    test with :func:`segments_intersect` first.
    """
    dax, day = a2[0] - a1[0], a2[1] - a1[1]
    dbx, dby = b2[0] - b1[0], b2[1] - b1[1]
    denom = dax * dby - day * dbx
    if abs(denom) < _EPS:
        return None
    t = ((b1[0] - a1[0]) * dby - (b1[1] - a1[1]) * dbx) / denom
    u = ((b1[0] - a1[0]) * day - (b1[1] - a1[1]) * dax) / denom
    if -_EPS <= t <= 1 + _EPS and -_EPS <= u <= 1 + _EPS:
        return (a1[0] + t * dax, a1[1] + t * day)
    return None


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Euclidean distance from point *p* to the closed segment ``a-b``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    seg2 = dx * dx + dy * dy
    if seg2 < _EPS * _EPS:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / seg2
    t = max(0.0, min(1.0, t))
    cx, cy = a[0] + t * dx, a[1] + t * dy
    return math.hypot(p[0] - cx, p[1] - cy)


def point_in_ring(p: Coord, ring: LinearRing) -> int:
    """Locate *p* relative to a ring: 1 inside, 0 on boundary, -1 outside.

    Ray casting with explicit boundary detection.
    """
    for a, b in ring.segments():
        if on_segment(p, a, b):
            return 0
    inside = False
    x, y = p
    verts = ring.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return 1 if inside else -1


def point_in_polygon(p: Coord, poly: Polygon) -> int:
    """Locate *p* relative to a polygon: 1 interior, 0 boundary, -1 exterior."""
    loc = point_in_ring(p, poly.shell)
    if loc <= 0:
        return loc
    for hole in poly.holes:
        hloc = point_in_ring(p, hole)
        if hloc == 0:
            return 0
        if hloc == 1:
            return -1
    return 1


# ---------------------------------------------------------------------------
# Pairwise predicate helpers over primitive types
# ---------------------------------------------------------------------------

def _line_line_intersects(l1: LineString, l2: LineString) -> bool:
    for a1, a2 in l1.segments():
        for b1, b2 in l2.segments():
            if segments_intersect(a1, a2, b1, b2):
                return True
    return False


def _line_polygon_intersects(line: LineString, poly: Polygon) -> bool:
    for v in line.vertices:
        if point_in_polygon(v, poly) >= 0:
            return True
    for ring in poly.rings():
        if _line_line_intersects(line, ring):
            return True
    return False


def _polygon_polygon_intersects(p1: Polygon, p2: Polygon) -> bool:
    if not bbox_intersects(p1.bounds, p2.bounds):
        return False
    for v in p1.shell.vertices:
        if point_in_polygon(v, p2) >= 0:
            return True
    for v in p2.shell.vertices:
        if point_in_polygon(v, p1) >= 0:
            return True
    for r1 in p1.rings():
        for r2 in p2.rings():
            if _line_line_intersects(r1, r2):
                return True
    return False


def _primitive_intersects(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point) and isinstance(b, Point):
        return math.hypot(a.x - b.x, a.y - b.y) <= _EPS
    if isinstance(a, Point) and isinstance(b, LineString):
        return any(on_segment((a.x, a.y), s, e) for s, e in b.segments())
    if isinstance(a, Point) and isinstance(b, Polygon):
        return point_in_polygon((a.x, a.y), b) >= 0
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _line_line_intersects(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _line_polygon_intersects(a, b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_polygon_intersects(a, b)
    # symmetric fallbacks
    return _primitive_intersects(b, a)


def _primitive_contains(a: Geometry, b: Geometry) -> bool:
    """Interior-and-boundary containment of primitive *b* inside *a*."""
    if isinstance(a, Point):
        # coordinates, not a.equals(b): equals is mutual containment,
        # which would recurse back here
        return isinstance(b, Point) and _primitive_intersects(a, b)
    if isinstance(a, LineString):
        if isinstance(b, Point):
            return any(on_segment((b.x, b.y), s, e) for s, e in a.segments())
        if isinstance(b, LineString):
            return all(
                any(on_segment(v, s, e) for s, e in a.segments())
                for v in b.vertices
            ) and all(
                any(
                    on_segment(_midpoint(s2, e2), s, e)
                    for s, e in a.segments()
                )
                for s2, e2 in b.segments()
            )
        return False
    if isinstance(a, Polygon):
        if isinstance(b, Point):
            return point_in_polygon((b.x, b.y), a) >= 0
        if isinstance(b, LineString):
            if not all(point_in_polygon(v, a) >= 0 for v in b.vertices):
                return False
            return not _line_properly_crosses_rings(b, a)
        if isinstance(b, Polygon):
            if not all(point_in_polygon(v, a) >= 0 for v in b.shell.vertices):
                return False
            return not _line_properly_crosses_rings(b.shell, a)
    return False


def _midpoint(a: Coord, b: Coord) -> Coord:
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def _line_properly_crosses_rings(line: LineString, poly: Polygon) -> bool:
    """True when *line* has a proper (non-touching) crossing of *poly* rings."""
    for s, e in line.segments():
        for ring in poly.rings():
            for rs, re_ in ring.segments():
                pt = segment_intersection_point(s, e, rs, re_)
                if pt is None:
                    continue
                mid_candidates = [_midpoint(s, pt), _midpoint(pt, e)]
                for mid in mid_candidates:
                    if point_in_polygon(mid, poly) == -1 and not _near(mid, s) \
                            and not _near(mid, e):
                        return True
    return False


def _near(a: Coord, b: Coord) -> bool:
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= _EPS


# ---------------------------------------------------------------------------
# Public predicates (handle collections via flatten())
# ---------------------------------------------------------------------------

def intersects(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfIntersects``: the geometries share at least one point."""
    if a.is_empty or b.is_empty:
        return False
    if not bbox_intersects(a.bounds, b.bounds):
        return False
    return any(
        _primitive_intersects(pa, pb)
        for pa in flatten(a)
        for pb in flatten(b)
        if bbox_intersects(pa.bounds, pb.bounds)
    )


def disjoint(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfDisjoint``: no shared point."""
    return not intersects(a, b)


def contains(a: Geometry, b: Geometry) -> bool:
    """OGC-style ``sfContains``: every point of *b* lies in *a*.

    Simplification relative to strict OGC semantics: we do not require an
    interior-interior intersection, so boundary-only containment counts.
    """
    if a.is_empty or b.is_empty:
        return False
    parts_a = list(flatten(a))
    return all(
        any(_primitive_contains(pa, pb) for pa in parts_a) for pb in flatten(b)
    )


def within(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfWithin``: inverse of :func:`contains`."""
    return contains(b, a)


def touches(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfTouches``: boundaries meet but interiors do not."""
    if not intersects(a, b):
        return False
    return not _interiors_intersect(a, b)


def crosses(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfCrosses`` for line/line and line/polygon pairs."""
    if not intersects(a, b):
        return False
    dim_a, dim_b = dimension(a), dimension(b)
    if dim_a == dim_b == 1:
        return _interiors_intersect(a, b) and not contains(a, b) \
            and not contains(b, a)
    if {dim_a, dim_b} == {1, 2}:
        line, poly = (a, b) if dim_a == 1 else (b, a)
        has_inside = False
        has_outside = False
        for part in flatten(line):
            for pt in _dense_line_samples(part):
                loc = max(
                    (point_in_polygon(pt, pp) for pp in flatten(poly)
                     if isinstance(pp, Polygon)),
                    default=-1,
                )
                if loc == 1:
                    has_inside = True
                elif loc == -1:
                    has_outside = True
        return has_inside and has_outside
    return False


def overlaps(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfOverlaps``: same dimension, interiors intersect, neither contains."""
    if dimension(a) != dimension(b):
        return False
    if not intersects(a, b):
        return False
    return (
        _interiors_intersect(a, b)
        and not contains(a, b)
        and not contains(b, a)
    )


def equals(a: Geometry, b: Geometry) -> bool:
    """OGC ``sfEquals`` approximated as mutual containment."""
    if a.is_empty or b.is_empty:
        return False
    return contains(a, b) and contains(b, a)


def dimension(geom: Geometry) -> int:
    """Topological dimension: 0 points, 1 lines, 2 polygons (max over parts)."""
    dims = []
    for g in flatten(geom):
        if isinstance(g, Point):
            dims.append(0)
        elif isinstance(g, LineString):
            dims.append(1)
        elif isinstance(g, Polygon):
            dims.append(2)
    if not dims:
        raise GeometryError("empty geometry has no dimension")
    return max(dims)


def _dense_line_samples(line: Geometry):
    """Vertices plus quarter points of each segment (for crosses tests)."""
    if not isinstance(line, LineString):
        return
    for v in line.vertices:
        yield v
    for s, e in line.segments():
        for t in (0.25, 0.5, 0.75):
            yield (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def _sample_points(geom: Geometry):
    """Representative points used for interior tests."""
    if isinstance(geom, Point):
        yield (geom.x, geom.y)
    elif isinstance(geom, LineString):
        for s, e in geom.segments():
            yield _midpoint(s, e)
    elif isinstance(geom, Polygon):
        yield _interior_point(geom)


def _interior_point(poly: Polygon) -> Coord:
    """A point strictly inside the polygon (centroid, else scanline probe)."""
    c = centroid(poly)
    if point_in_polygon((c.x, c.y), poly) == 1:
        return (c.x, c.y)
    minx, miny, maxx, maxy = poly.bounds
    steps = 37
    for i in range(1, steps):
        y = miny + (maxy - miny) * i / steps
        for j in range(1, steps):
            x = minx + (maxx - minx) * j / steps
            if point_in_polygon((x, y), poly) == 1:
                return (x, y)
    return (c.x, c.y)


def _interiors_intersect(a: Geometry, b: Geometry) -> bool:
    """Heuristic interior-interior intersection test."""
    dim_a, dim_b = dimension(a), dimension(b)
    if dim_a > dim_b:
        a, b = b, a
        dim_a, dim_b = dim_b, dim_a
    if dim_b == 2:
        polys = [g for g in flatten(b) if isinstance(g, Polygon)]
        if dim_a == 0:
            return any(
                point_in_polygon((p.x, p.y), poly) == 1
                for p in flatten(a)
                if isinstance(p, Point)
                for poly in polys
            )
        if dim_a == 1:
            for part in flatten(a):
                if isinstance(part, Polygon):
                    part = part.shell
                for pt in _sample_points(part):
                    if any(point_in_polygon(pt, poly) == 1 for poly in polys):
                        return True
            return False
        # polygon/polygon: interiors intersect if an interior sample of the
        # (clipped) intersection exists.
        for pa in flatten(a):
            for pb in polys:
                if not isinstance(pa, Polygon):
                    continue
                clipped = clip_polygon(pa, pb.bounds)
                if clipped is None:
                    continue
                for pt in _grid_samples(clipped, 12):
                    if (
                        point_in_polygon(pt, pa) == 1
                        and point_in_polygon(pt, pb) == 1
                    ):
                        return True
        return False
    if dim_b == 1:
        if dim_a == 0:
            # a point interior to a line: on the line but not an endpoint
            for p in flatten(a):
                if not isinstance(p, Point):
                    continue
                for line in flatten(b):
                    if not isinstance(line, LineString):
                        continue
                    pt = (p.x, p.y)
                    on_line = any(
                        on_segment(pt, s, e) for s, e in line.segments()
                    )
                    at_end = _near(pt, line.vertices[0]) or _near(
                        pt, line.vertices[-1]
                    )
                    if on_line and not at_end:
                        return True
            return False
        # line/line: proper crossing or shared collinear stretch
        for la in flatten(a):
            for lb in flatten(b):
                if not (isinstance(la, LineString) and isinstance(lb, LineString)):
                    continue
                for s1, e1 in la.segments():
                    for s2, e2 in lb.segments():
                        if not segments_intersect(s1, e1, s2, e2):
                            continue
                        pt = segment_intersection_point(s1, e1, s2, e2)
                        if pt is not None:
                            ends = [la.vertices[0], la.vertices[-1],
                                    lb.vertices[0], lb.vertices[-1]]
                            if not any(_near(pt, v) for v in ends):
                                return True
                        else:
                            # collinear overlap
                            mid = _midpoint(
                                _clamp_to_seg(s2, s1, e1),
                                _clamp_to_seg(e2, s1, e1),
                            )
                            if on_segment(mid, s1, e1) and on_segment(
                                mid, s2, e2
                            ):
                                if not _near(
                                    _clamp_to_seg(s2, s1, e1),
                                    _clamp_to_seg(e2, s1, e1),
                                ):
                                    return True
        return False
    # point/point
    return intersects(a, b)


def _clamp_to_seg(p: Coord, a: Coord, b: Coord) -> Coord:
    dx, dy = b[0] - a[0], b[1] - a[1]
    seg2 = dx * dx + dy * dy
    if seg2 < _EPS * _EPS:
        return a
    t = max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / seg2))
    return (a[0] + t * dx, a[1] + t * dy)


def _grid_samples(poly: Polygon, n: int):
    minx, miny, maxx, maxy = poly.bounds
    for i in range(1, n):
        for j in range(1, n):
            yield (
                minx + (maxx - minx) * i / n,
                miny + (maxy - miny) * j / n,
            )


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def area(geom: Geometry) -> float:
    """Planar area (holes subtracted; zero for points and lines)."""
    total = 0.0
    for g in flatten(geom):
        if isinstance(g, Polygon):
            total += abs(g.shell.signed_area)
            total -= sum(abs(h.signed_area) for h in g.holes)
    return total


def length(geom: Geometry) -> float:
    """Total length of linear components and polygon boundaries."""
    total = 0.0
    for g in flatten(geom):
        if isinstance(g, LineString):
            total += sum(_seg_len(a, b) for a, b in g.segments())
        elif isinstance(g, Polygon):
            for ring in g.rings():
                total += sum(_seg_len(a, b) for a, b in ring.segments())
    return total


def centroid(geom: Geometry) -> Point:
    """Centroid of the highest-dimension components."""
    dim = dimension(geom)
    sx = sy = weight = 0.0
    for g in flatten(geom):
        if dim == 2 and isinstance(g, Polygon):
            cx, cy, a = _polygon_centroid(g)
            sx += cx * a
            sy += cy * a
            weight += a
        elif dim == 1 and isinstance(g, LineString):
            for s, e in g.segments():
                w = _seg_len(s, e)
                sx += (s[0] + e[0]) / 2 * w
                sy += (s[1] + e[1]) / 2 * w
                weight += w
        elif dim == 0 and isinstance(g, Point):
            sx += g.x
            sy += g.y
            weight += 1.0
    if weight <= _EPS:
        # degenerate: average all vertices
        pts = list(geom.coords())
        return Point(
            sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts)
        )
    return Point(sx / weight, sy / weight)


def _polygon_centroid(poly: Polygon) -> Tuple[float, float, float]:
    # Shift to a local origin first: the shoelace formula suffers
    # catastrophic cancellation for small polygons far from (0, 0).
    ox, oy = poly.shell.vertices[0]

    def ring_terms(ring: LinearRing):
        a = cx = cy = 0.0
        for (px1, py1), (px2, py2) in ring.segments():
            x1, y1 = px1 - ox, py1 - oy
            x2, y2 = px2 - ox, py2 - oy
            cross = x1 * y2 - x2 * y1
            a += cross
            cx += (x1 + x2) * cross
            cy += (y1 + y2) * cross
        return a / 2.0, cx / 6.0, cy / 6.0

    a, cx, cy = ring_terms(poly.shell)
    sign = 1.0 if a >= 0 else -1.0
    a, cx, cy = abs(a), cx * sign, cy * sign
    for hole in poly.holes:
        ha, hcx, hcy = ring_terms(hole)
        hsign = 1.0 if ha >= 0 else -1.0
        a -= abs(ha)
        cx -= hcx * hsign
        cy -= hcy * hsign
    if abs(a) < _EPS:
        verts = poly.shell.vertices
        return (
            sum(v[0] for v in verts) / len(verts),
            sum(v[1] for v in verts) / len(verts),
            0.0,
        )
    return ox + cx / a, oy + cy / a, a


def distance(a: Geometry, b: Geometry) -> float:
    """Minimum planar distance between two geometries (0 when intersecting)."""
    if intersects(a, b):
        return 0.0
    best = math.inf
    for pa in flatten(a):
        for pb in flatten(b):
            best = min(best, _primitive_distance(pa, pb))
    return best


def _primitive_distance(a: Geometry, b: Geometry) -> float:
    if isinstance(a, Point) and isinstance(b, Point):
        return math.hypot(a.x - b.x, a.y - b.y)
    if isinstance(a, Point):
        return _point_geom_distance((a.x, a.y), b)
    if isinstance(b, Point):
        return _point_geom_distance((b.x, b.y), a)
    segs_a = list(_boundary_segments(a))
    segs_b = list(_boundary_segments(b))
    best = math.inf
    for s1, e1 in segs_a:
        for s2, e2 in segs_b:
            best = min(
                best,
                point_segment_distance(s1, s2, e2),
                point_segment_distance(e1, s2, e2),
                point_segment_distance(s2, s1, e1),
                point_segment_distance(e2, s1, e1),
            )
    return best


def _point_geom_distance(p: Coord, g: Geometry) -> float:
    if isinstance(g, Polygon) and point_in_polygon(p, g) >= 0:
        return 0.0
    return min(
        point_segment_distance(p, s, e) for s, e in _boundary_segments(g)
    )


def _boundary_segments(g: Geometry):
    if isinstance(g, LineString):
        yield from g.segments()
    elif isinstance(g, Polygon):
        for ring in g.rings():
            yield from ring.segments()
    elif isinstance(g, Point):
        yield ((g.x, g.y), (g.x, g.y))


def envelope(geom: Geometry) -> Polygon:
    """Bounding-box polygon (degenerate boxes are inflated by epsilon)."""
    minx, miny, maxx, maxy = geom.bounds
    if maxx - minx < _EPS:
        maxx = minx + _EPS * 10
    if maxy - miny < _EPS:
        maxy = miny + _EPS * 10
    return Polygon.box(minx, miny, maxx, maxy)


def convex_hull(geom: Geometry) -> Geometry:
    """Convex hull via Andrew's monotone chain."""
    pts = sorted(set(geom.coords()))
    if len(pts) == 1:
        return Point(*pts[0])
    if len(pts) == 2:
        return LineString(pts)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return LineString(pts)
    return Polygon(hull + [hull[0]])


def buffer(geom: Geometry, radius: float, segments: int = 16) -> Geometry:
    """Positive buffer approximation.

    Points get a true circle approximation; other geometries get the convex
    hull of per-vertex circles, which is exact for convex inputs and a
    conservative approximation otherwise.
    """
    if radius < 0:
        raise GeometryError("negative buffer radius is not supported")
    if radius == 0:
        return geom
    circle_pts = []
    for x, y in geom.coords():
        for k in range(segments):
            ang = 2 * math.pi * k / segments
            circle_pts.append(
                (x + radius * math.cos(ang), y + radius * math.sin(ang))
            )
    hull = convex_hull(MultiPoint([Point(*p) for p in circle_pts]))
    if isinstance(hull, Polygon):
        return hull
    raise GeometryError("degenerate buffer result")


def clip_polygon(poly: Polygon, bounds: Tuple[float, float, float, float]):
    """Sutherland–Hodgman clip of *poly*'s shell to an axis-aligned box.

    Holes are dropped (callers use this for bbox subsetting and rendering).
    Returns ``None`` when the clipped region is empty.
    """
    minx, miny, maxx, maxy = bounds

    def clip_edge(points, inside, intersect):
        out = []
        n = len(points)
        for i in range(n):
            cur, prev = points[i], points[i - 1]
            cur_in, prev_in = inside(cur), inside(prev)
            if cur_in:
                if not prev_in:
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect(prev, cur))
        return out

    def x_intersect(x):
        def fn(p, q):
            t = (x - p[0]) / (q[0] - p[0])
            return (x, p[1] + t * (q[1] - p[1]))

        return fn

    def y_intersect(y):
        def fn(p, q):
            t = (y - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), y)

        return fn

    pts = list(poly.shell.vertices[:-1])
    pts = clip_edge(pts, lambda p: p[0] >= minx - _EPS, x_intersect(minx))
    if pts:
        pts = clip_edge(pts, lambda p: p[0] <= maxx + _EPS, x_intersect(maxx))
    if pts:
        pts = clip_edge(pts, lambda p: p[1] >= miny - _EPS, y_intersect(miny))
    if pts:
        pts = clip_edge(pts, lambda p: p[1] <= maxy + _EPS, y_intersect(maxy))
    if len(pts) < 3 or len(set(pts)) < 3:
        return None
    try:
        return Polygon(pts + [pts[0]])
    except GeometryError:
        return None


def simplify(line_or_ring: LineString, tolerance: float) -> LineString:
    """Douglas–Peucker simplification preserving endpoints."""
    pts = list(line_or_ring.vertices)

    def dp(points):
        if len(points) < 3:
            return points
        a, b = points[0], points[-1]
        idx, dmax = 0, -1.0
        for i in range(1, len(points) - 1):
            d = point_segment_distance(points[i], a, b)
            if d > dmax:
                idx, dmax = i, d
        if dmax <= tolerance:
            return [a, b]
        left = dp(points[: idx + 1])
        right = dp(points[idx:])
        return left[:-1] + right

    simplified = dp(pts)
    if isinstance(line_or_ring, LinearRing):
        if len(set(simplified)) < 3:
            return line_or_ring
        return LinearRing(simplified)
    return LineString(simplified)
