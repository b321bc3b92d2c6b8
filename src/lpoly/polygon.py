"""Newton polygons with exact rational vertices.

A polygon here is the lower convex hull of a set of points (n, v) with
integer abscissae and rational (or infinite) ordinates, anchored at (0, 0).
Vertices are stored only where the slope actually changes, so two polygons
are equal iff their vertex tuples are equal.  Ordinates are Fractions
throughout; nothing is ever compared through floats.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import InternalError, ParameterError

_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]+)")


def fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    """The Fraction of a "num/den" string with den >= 1."""
    m = _FRACTION.fullmatch(s) if isinstance(s, str) else None
    if m is None or int(m[2]) == 0:
        raise ParameterError(f"not a fraction num/den with den >= 1: {s!r}")
    return Fraction(int(m[1]), int(m[2]))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class NewtonPolygon:
    """Immutable lower-hull polygon; construct via from_points or from_slopes."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        verts = tuple((int(x), Fraction(y)) for x, y in vertices)
        if not verts:
            raise ParameterError("a polygon needs at least one vertex")
        if verts[0] != (0, Fraction(0)):
            raise ParameterError("polygon must start at (0, 0)")
        for (x1, _), (x2, _) in zip(verts, verts[1:]):
            if x2 <= x1:
                raise ParameterError("vertex abscissae must strictly increase")
        slopes = [
            Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(verts, verts[1:])
        ]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 <= s1:
                raise InternalError("slopes must strictly increase between vertices")
        self.vertices = verts

    @staticmethod
    def from_points(points) -> "NewtonPolygon":
        """Lower convex hull of (x, y) points; y = None means +infinity."""
        finite = {}
        for x, y in points:
            if y is None:
                continue
            x = int(x)
            y = Fraction(y)
            if x not in finite or y < finite[x]:
                finite[x] = y
        if not finite:
            raise ParameterError("no finite points to take a hull of")
        pts = sorted(finite.items())
        hull = []
        for pt in pts:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
                hull.pop()
            hull.append(pt)
        return NewtonPolygon(hull)

    @staticmethod
    def from_slopes(pairs) -> "NewtonPolygon":
        """Build from (slope, length) pairs in any order."""
        pts = [(0, Fraction(0))]
        for s, n in sorted((Fraction(s), int(n)) for s, n in pairs):
            x, y = pts[-1]
            pts.append((x + n, y + s * n))
        return NewtonPolygon.from_points(pts)

    @property
    def length(self) -> int:
        return self.vertices[-1][0]

    def ordinate_at(self, x) -> Fraction:
        x = Fraction(x)
        if x < 0 or x > self.length:
            raise ParameterError(f"abscissa {x} outside [0, {self.length}]")
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x1 <= x <= x2:
                return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
        return self.vertices[-1][1]

    def slope_multiset(self) -> tuple:
        """Increasing (slope, length) pairs covering [0, length]."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return tuple(out)

    def lies_above(self, other: "NewtonPolygon") -> bool:
        """Pointwise >= comparison on [0, length]; lengths must agree.

        Deciding it at the vertices of self is exact: other is convex, so
        between two vertices of self on or above it, it lies below the chord.
        One merge walk finds the edge of other under each vertex of self.
        """
        if self.length != other.length:
            raise ParameterError(
                f"polygon lengths differ: {self.length} vs {other.length}"
            )
        theirs = other.vertices
        j = 0
        for x, y in self.vertices:
            while theirs[j][0] < x:
                j += 1
            x2, y2 = theirs[j]
            if x2 == x:
                if y < y2:
                    return False
            else:
                # other's ordinate at x, on its edge from (x1, y1) to (x2, y2),
                # times x2 - x1 > 0
                x1, y1 = theirs[j - 1]
                if y * (x2 - x1) < y1 * (x2 - x) + y2 * (x - x1):
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self.vertices)
        return f"NewtonPolygon[{pts}]"

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[x, fraction_str(y)] for x, y in self.vertices],
            "slopes": [[fraction_str(s), n] for s, n in self.slope_multiset()],
        }

    def to_csv_rows(self) -> list:
        """One row per integer abscissa: [n, ordinate as num/den]."""
        return [[n, fraction_str(self.ordinate_at(n))] for n in range(self.length + 1)]


def polygon_from_json(data: dict) -> NewtonPolygon:
    """The polygon of a to_json_dict form; each vertex must be an
    [int, "num/den"] pair."""
    verts = data.get("vertices") if isinstance(data, dict) else None
    if type(verts) is not list or any(
        type(v) is not list or len(v) != 2 or type(v[0]) is not int for v in verts
    ):
        raise ParameterError("vertices must be a list of [int, \"num/den\"] pairs")
    return NewtonPolygon([(x, parse_fraction(y)) for x, y in verts])
