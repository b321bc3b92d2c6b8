import random
from fractions import Fraction

import pytest

from lpoly.errors import InternalError, ParameterError
from lpoly.polygon import NewtonPolygon, fraction_str, parse_fraction, polygon_from_json

F = Fraction


def test_fraction_strings():
    assert fraction_str(F(3, 6)) == "1/2"
    assert fraction_str(2) == "2/1"
    assert parse_fraction("7/4") == F(7, 4)
    assert parse_fraction("-3/1") == -3


def test_from_points_basic():
    poly = NewtonPolygon.from_points([(0, 0), (1, F(1, 2)), (2, 2)])
    assert poly.vertices == ((0, F(0)), (1, F(1, 2)), (2, F(2)))
    assert poly.length == 2


def test_from_points_collinear_merge():
    poly = NewtonPolygon.from_points([(0, 0), (1, 1), (2, 2)])
    assert poly.vertices == ((0, F(0)), (2, F(2)))


def test_from_points_skips_upper_points():
    # the middle point sits above the chord and drops out
    poly = NewtonPolygon.from_points([(0, 0), (1, 5), (2, 1)])
    assert poly.vertices == ((0, F(0)), (2, F(1)))


def test_from_points_infinite_and_duplicates():
    poly = NewtonPolygon.from_points([(0, 0), (1, None), (2, 1), (2, 3)])
    assert poly.vertices == ((0, F(0)), (2, F(1)))
    with pytest.raises(ParameterError, match="no finite points"):
        NewtonPolygon.from_points([(0, None)])


def test_must_start_at_origin():
    with pytest.raises(ParameterError, match=r"must start at \(0, 0\)"):
        NewtonPolygon.from_points([(1, 0), (2, 1)])
    with pytest.raises(ParameterError, match=r"must start at \(0, 0\)"):
        NewtonPolygon([(0, 1), (2, 2)])


def test_convexity_enforced():
    with pytest.raises(InternalError, match="slopes must strictly increase"):
        NewtonPolygon([(0, 0), (1, 1), (2, F(3, 2))])


def test_from_slopes():
    poly = NewtonPolygon.from_slopes([(F(1, 2), 2), (F(3, 2), 1)])
    assert poly.vertices == ((0, F(0)), (2, F(1)), (3, F(5, 2)))
    assert poly.slope_multiset() == ((F(1, 2), 2), (F(3, 2), 1))
    # unsorted and split pairs are fine
    same = NewtonPolygon.from_slopes([(F(3, 2), 1), (F(1, 2), 1), (F(1, 2), 1)])
    assert same == poly


def test_single_vertex_polygon():
    poly = NewtonPolygon.from_slopes([])
    assert poly.vertices == ((0, F(0)),)
    assert poly.slope_multiset() == ()
    assert poly.ordinate_at(0) == 0


def test_ordinate_at():
    poly = NewtonPolygon.from_slopes([(F(1, 3), 3), (F(2), 1)])
    assert poly.ordinate_at(0) == 0
    assert poly.ordinate_at(2) == F(2, 3)
    assert poly.ordinate_at(F(7, 2)) == 1 + F(1, 2) * 2
    with pytest.raises(ParameterError, match=r"abscissa 5 outside \[0, 4\]"):
        poly.ordinate_at(5)


def test_lies_above():
    low = NewtonPolygon.from_slopes([(F(0), 1), (F(1), 1)])
    high = NewtonPolygon.from_slopes([(F(1, 2), 2)])
    assert high.lies_above(low)
    assert not low.lies_above(high)
    assert low.lies_above(low)
    with pytest.raises(ParameterError, match="lengths differ"):
        low.lies_above(NewtonPolygon.from_slopes([(F(1), 3)]))


def _lies_above_at_integers(high, low):
    return all(high.ordinate_at(n) >= low.ordinate_at(n) for n in range(high.length + 1))


def _random_hull(rng, length):
    pts = [(0, F(0))] + [(x, F(rng.randrange(-20, 30), rng.randrange(1, 5)))
                         for x in range(1, length + 1)]
    return NewtonPolygon.from_points(pts)


def test_lies_above_matches_integer_abscissae_seeded():
    rng = random.Random(11)
    seen = {"above": 0, "crossing": 0, "touching": 0}
    for _ in range(400):
        length = rng.randrange(1, 9)
        a, b = _random_hull(rng, length), _random_hull(rng, length)
        if rng.random() < 0.3:
            # shear b by a linear function onto a at one vertex of a, so
            # the pair touches there
            x, y = rng.choice(a.vertices[1:])
            shift = y - b.ordinate_at(x)
            b = NewtonPolygon.from_points([(vx, vy + shift * vx / x) for vx, vy in b.vertices])
        for high, low in ((a, b), (b, a)):
            want = _lies_above_at_integers(high, low)
            assert high.lies_above(low) == want
            if want:
                seen["above"] += 1
                touch = any(high.ordinate_at(n) == low.ordinate_at(n)
                            for n in range(1, high.length + 1))
                seen["touching"] += touch
            elif not _lies_above_at_integers(low, high):
                seen["crossing"] += 1
    assert min(seen.values()) > 10, seen


def test_slope_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(25):
        slopes = sorted(
            F(rng.randrange(0, 40), rng.randrange(1, 9)) for _ in range(rng.randrange(1, 8))
        )
        poly = NewtonPolygon.from_slopes([(s, 1) for s in slopes])
        assert [s for s, n in poly.slope_multiset() for _ in range(n)] == slopes
        assert NewtonPolygon.from_slopes(poly.slope_multiset()) == poly


def test_hull_below_all_points_seeded():
    rng = random.Random(9)
    for _ in range(25):
        pts = [(0, F(0))]
        for x in range(1, rng.randrange(3, 10)):
            pts.append((x, F(rng.randrange(0, 30), rng.randrange(1, 7))))
        poly = NewtonPolygon.from_points(pts)
        for x, y in pts:
            assert poly.ordinate_at(x) <= y
        assert poly.vertices[-1][0] == max(x for x, _ in pts)


def test_json_round_trip():
    poly = NewtonPolygon.from_slopes([(F(2, 5), 3), (F(7, 5), 1)])
    data = poly.to_json_dict()
    assert data["slopes"] == [["2/5", 3], ["7/5", 1]]
    assert polygon_from_json(data) == poly


_NOT_PAIRS = "vertices must be a list of"
_NOT_FRACTION = "not a fraction num/den"


_MALFORMED = [
    ({"vertices": [[0, "0/1"], [1.5, "1/2"]]}, _NOT_PAIRS),
    ({"vertices": [[0, "0/1"], [1, "1/0"]]}, _NOT_FRACTION),
    ({"vertices": [[0, "0/1"], [1, "1"]]}, _NOT_FRACTION),
    ({"vertices": [[0, "0/1"], [1, 1]]}, _NOT_FRACTION),
    ({"vertices": [[0, "0/1"], [1, "1/2", 3]]}, _NOT_PAIRS),
    ({"vertices": [[0, "0/1"], [True, "1/2"]]}, _NOT_PAIRS),
    ({"vertices": "0/1"}, _NOT_PAIRS),
    ({"slopes": [["1/2", 2]]}, _NOT_PAIRS),
    ([[0, "0/1"]], _NOT_PAIRS),
]


@pytest.mark.parametrize("data, message", _MALFORMED, ids=[f"data{i}" for i in range(len(_MALFORMED))])
def test_json_rejects_malformed_documents(data, message):
    with pytest.raises(ParameterError, match=message):
        polygon_from_json(data)


def test_csv_rows():
    poly = NewtonPolygon.from_slopes([(F(1, 2), 2)])
    assert poly.to_csv_rows() == [[0, "0/1"], [1, "1/2"], [2, "1/1"]]
