"""Unit tests for spatial predicates and measures."""

import math

import pytest

from repro.geometry import (
    LineString,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry import ops


UNIT = Polygon.box(0, 0, 1, 1)
BIG = Polygon.box(-1, -1, 2, 2)


class TestIntersects:
    def test_point_in_polygon(self):
        assert ops.intersects(Point(0.5, 0.5), UNIT)
        assert not ops.intersects(Point(5, 5), UNIT)

    def test_point_on_boundary(self):
        assert ops.intersects(Point(0, 0.5), UNIT)
        assert ops.intersects(Point(1, 1), UNIT)

    def test_polygon_polygon_overlap(self):
        other = Polygon.box(0.5, 0.5, 1.5, 1.5)
        assert ops.intersects(UNIT, other)
        assert ops.intersects(other, UNIT)

    def test_polygon_polygon_disjoint(self):
        assert not ops.intersects(UNIT, Polygon.box(3, 3, 4, 4))

    def test_polygon_inside_polygon(self):
        assert ops.intersects(UNIT, BIG)

    def test_polygon_shares_edge(self):
        neighbour = Polygon.box(1, 0, 2, 1)
        assert ops.intersects(UNIT, neighbour)

    def test_line_crossing_polygon(self):
        line = LineString([(-1, 0.5), (2, 0.5)])
        assert ops.intersects(line, UNIT)

    def test_line_line_cross(self):
        a = LineString([(0, 0), (1, 1)])
        b = LineString([(0, 1), (1, 0)])
        assert ops.intersects(a, b)

    def test_line_line_parallel(self):
        a = LineString([(0, 0), (1, 0)])
        b = LineString([(0, 1), (1, 1)])
        assert not ops.intersects(a, b)

    def test_multipolygon(self):
        mp = MultiPolygon([Polygon.box(5, 5, 6, 6), Polygon.box(0, 0, 1, 1)])
        assert ops.intersects(mp, Point(5.5, 5.5))

    def test_hole_excludes_point(self):
        donut = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert not ops.intersects(Point(5, 5), donut)
        assert ops.intersects(Point(2, 2), donut)


class TestContainsWithin:
    def test_polygon_contains_point(self):
        assert ops.contains(UNIT, Point(0.5, 0.5))
        assert ops.within(Point(0.5, 0.5), UNIT)

    def test_polygon_contains_polygon(self):
        assert ops.contains(BIG, UNIT)
        assert not ops.contains(UNIT, BIG)

    def test_overlapping_not_contained(self):
        other = Polygon.box(0.5, 0.5, 1.5, 1.5)
        assert not ops.contains(UNIT, other)

    def test_line_contains_point(self):
        line = LineString([(0, 0), (2, 2)])
        assert ops.contains(line, Point(1, 1))
        assert not ops.contains(line, Point(1, 0))

    def test_polygon_contains_line(self):
        assert ops.contains(UNIT, LineString([(0.2, 0.2), (0.8, 0.8)]))
        assert not ops.contains(UNIT, LineString([(0.5, 0.5), (5, 5)]))

    def test_line_contains_subline(self):
        line = LineString([(0, 0), (4, 0)])
        sub = LineString([(1, 0), (3, 0)])
        assert ops.contains(line, sub)
        assert not ops.contains(sub, line)


class TestTouchesCrossesOverlaps:
    def test_touching_boxes(self):
        neighbour = Polygon.box(1, 0, 2, 1)
        assert ops.touches(UNIT, neighbour)
        assert not ops.overlaps(UNIT, neighbour)

    def test_corner_touch(self):
        corner = Polygon.box(1, 1, 2, 2)
        assert ops.touches(UNIT, corner)

    def test_overlapping_boxes(self):
        other = Polygon.box(0.5, 0.5, 1.5, 1.5)
        assert ops.overlaps(UNIT, other)
        assert not ops.touches(UNIT, other)

    def test_line_crosses_polygon(self):
        line = LineString([(-1, 0.5), (2, 0.5)])
        assert ops.crosses(line, UNIT)

    def test_line_inside_does_not_cross(self):
        line = LineString([(0.2, 0.5), (0.8, 0.5)])
        assert not ops.crosses(line, UNIT)

    def test_lines_cross(self):
        a = LineString([(0, 0), (2, 2)])
        b = LineString([(0, 2), (2, 0)])
        assert ops.crosses(a, b)

    def test_lines_touch_at_endpoint(self):
        a = LineString([(0, 0), (1, 1)])
        b = LineString([(1, 1), (2, 0)])
        assert ops.touches(a, b)
        assert not ops.crosses(a, b)

    def test_point_touches_polygon_boundary(self):
        assert ops.touches(Point(0, 0.5), UNIT)
        assert not ops.touches(Point(0.5, 0.5), UNIT)


class TestEqualsDisjoint:
    def test_equals_same_box(self):
        assert ops.equals(UNIT, Polygon.box(0, 0, 1, 1))

    def test_equals_different_start_vertex(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(1, 0), (1, 1), (0, 1), (0, 0)])
        assert ops.equals(a, b)

    def test_point_point_equals_and_contains(self):
        # used to recurse: equals -> contains -> Point.equals -> equals
        assert ops.equals(Point(2, 2), Point(2, 2))
        assert ops.contains(Point(2, 2), Point(2, 2))
        assert not ops.equals(Point(2, 2), Point(2, 3))
        assert not ops.contains(Point(2, 2), Point(2, 3))

    def test_disjoint(self):
        assert ops.disjoint(UNIT, Polygon.box(5, 5, 6, 6))
        assert not ops.disjoint(UNIT, BIG)


class TestMeasures:
    def test_area_box(self):
        assert math.isclose(ops.area(Polygon.box(0, 0, 2, 3)), 6.0)

    def test_area_with_hole(self):
        donut = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert math.isclose(ops.area(donut), 96.0)

    def test_length(self):
        assert math.isclose(
            ops.length(LineString([(0, 0), (3, 4)])), 5.0
        )
        assert math.isclose(ops.length(UNIT), 4.0)

    def test_centroid_box(self):
        c = ops.centroid(Polygon.box(0, 0, 2, 2))
        assert math.isclose(c.x, 1.0) and math.isclose(c.y, 1.0)

    def test_centroid_line(self):
        c = ops.centroid(LineString([(0, 0), (2, 0)]))
        assert math.isclose(c.x, 1.0) and math.isclose(c.y, 0.0)

    def test_distance_disjoint_boxes(self):
        assert math.isclose(
            ops.distance(UNIT, Polygon.box(4, 0, 5, 1)), 3.0
        )

    def test_distance_intersecting_is_zero(self):
        assert ops.distance(UNIT, BIG) == 0.0

    def test_distance_point_to_polygon(self):
        assert math.isclose(ops.distance(Point(0.5, 3), UNIT), 2.0)

    def test_envelope(self):
        env = ops.envelope(LineString([(0, 0), (2, 1)]))
        assert env.bounds == (0, 0, 2, 1)

    def test_dimension(self):
        assert ops.dimension(Point(0, 0)) == 0
        assert ops.dimension(LineString([(0, 0), (1, 1)])) == 1
        assert ops.dimension(UNIT) == 2


class TestConstructions:
    def test_convex_hull_square(self):
        from repro.geometry import MultiPoint

        pts = MultiPoint(
            [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1),
             Point(0.5, 0.5)]
        )
        hull = ops.convex_hull(pts)
        assert isinstance(hull, Polygon)
        assert math.isclose(ops.area(hull), 1.0)

    def test_convex_hull_collinear(self):
        from repro.geometry import MultiPoint

        pts = MultiPoint([Point(0, 0), Point(1, 1), Point(2, 2)])
        hull = ops.convex_hull(pts)
        assert isinstance(hull, LineString)

    def test_buffer_point_is_circleish(self):
        buf = ops.buffer(Point(0, 0), 1.0, segments=64)
        assert isinstance(buf, Polygon)
        assert math.isclose(ops.area(buf), math.pi, rel_tol=0.01)
        assert ops.contains(buf, Point(0.9, 0))

    def test_buffer_zero_is_identity(self):
        assert ops.buffer(UNIT, 0.0) is UNIT

    def test_buffer_negative_raises(self):
        from repro.geometry import GeometryError

        with pytest.raises(GeometryError):
            ops.buffer(UNIT, -1.0)

    def test_clip_polygon_partial(self):
        clipped = ops.clip_polygon(Polygon.box(0, 0, 4, 4), (2, 2, 6, 6))
        assert clipped is not None
        assert math.isclose(ops.area(clipped), 4.0)

    def test_clip_polygon_outside_returns_none(self):
        assert ops.clip_polygon(UNIT, (5, 5, 6, 6)) is None

    def test_simplify_keeps_shape(self):
        line = LineString([(0, 0), (1, 0.001), (2, 0), (3, 0.001), (4, 0)])
        simple = ops.simplify(line, tolerance=0.01)
        assert simple.vertices[0] == (0, 0)
        assert simple.vertices[-1] == (4, 0)
        assert len(simple.vertices) == 2
