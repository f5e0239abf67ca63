"""The near-linear steps of ``verify_realization`` against the linear scans
they replace: the sweep of the point rule, arc ends matched by exact
angle with bisection as the fallback, and the report built from both,
with and without a graph."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from circlesystems.embedding import medial
from circlesystems.equivalence import RealizationClass
from circlesystems.generators import (
    canonical_octahedron_realization,
    cube,
    dodecahedron,
    flower,
    icosahedron,
    octahedron,
    tetrahedron,
    upper_bound_family,
)
from circlesystems.packing import _BOX_MARGIN, Circle, _points_on_circles
from circlesystems.realization import (
    KIND_CROSS,
    TWO_PI,
    Arc,
    RealPoint,
    Realization,
    _arc_partition_faults,
    _exact_ends,
    realize,
    verify_realization,
)

from conftest import (
    bisection_arc_ends,
    relabel_graph,
    scan_arc_ends,
    scan_hits,
    scan_verify,
    verify_outcome,
)

TOLS = [0.0, 1e-12, 1e-8, 1.0, 1e300]


# -- the point rule ------------------------------------------------------------


def _scan_all(circles, points, tol):
    return [scan_hits(circles, x, y, tol) for x, y in points]


@st.composite
def _circles_and_points(draw):
    """Circles with radii spread over up to six decades, some repeated, and
    points on them within ``tol``, just off that, on the edges of a circle's
    padded extent and a hair outside them, and at random; with the tol they
    were placed for."""
    tol = draw(st.sampled_from(TOLS))
    spread = draw(st.sampled_from([0.0, 2.0, 6.0]))
    n = draw(st.integers(1, 12))
    circles = []
    for _ in range(n):
        if circles and draw(st.booleans()):
            circles.append(draw(st.sampled_from(circles)))  # a duplicate
            continue
        r = 10.0 ** draw(st.floats(-spread / 2, spread / 2))
        cx = draw(st.floats(-50.0, 50.0)) * r if draw(st.booleans()) else 0.0
        cy = draw(st.floats(-50.0, 50.0)) * r
        circles.append(Circle(cx, cy, r))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        c = draw(st.sampled_from(circles))
        where = draw(st.sampled_from(["on", "edge", "extent", "random"]))
        theta = draw(st.floats(0.0, TWO_PI))
        if where == "on":
            d = c.r * (1.0 + draw(st.floats(-1.0, 1.0)) * min(tol, 1.0))
        elif where == "edge":  # at the limit of tol, or just past it
            d = c.r * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * min(tol, 1.0)
                       * draw(st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15])))
        else:
            d = c.r * draw(st.floats(0.0, 3.0))
        x, y = c.cx + d * math.cos(theta), c.cy + d * math.sin(theta)
        if where == "extent":  # x or y on an extent edge of some circle
            other = draw(st.sampled_from(circles))
            # the half-width as the sweep rounds it, to either side
            h = (other.r * ((1.0 + tol) * (1.0 + _BOX_MARGIN))
                 * draw(st.sampled_from([-1.0, 1.0])))
            outside = math.copysign(math.inf, h)
            if draw(st.booleans()):
                x = other.cx + h
                points.append((math.nextafter(x, outside), y))
            else:
                y = other.cy + h
                points.append((x, math.nextafter(y, outside)))
        points.append((x, y))
    return circles, points, tol


@settings(max_examples=400, deadline=None)
@given(case=_circles_and_points())
def test_grid_finds_exactly_the_circles_the_scan_finds(case):
    circles, points, tol = case
    assert (_points_on_circles(circles, points, tol)
            == _scan_all(circles, points, tol))


def test_grid_keeps_points_that_round_onto_a_circle_from_outside_its_box():
    # the circle's unpadded x-extent starts at 0; a point a hair left of it
    # is on the circle once hypot rounds, and the pad keeps it a candidate
    c = Circle(0.75, -0.75, 0.75)
    for tol in (0.0, 1e-12):
        for x, y in ((-1e-17, -0.75), (0.75, 1e-17), (-1e-300, -0.75)):
            assert scan_hits([c], x, y, tol) == [0]
            assert _points_on_circles([c], [(x, y)], tol) == [[0]]


def test_grid_holds_circles_it_cannot_bucket():
    odd = [Circle(0.0, 0.0, 0.0), Circle(1.0, 0.0, -1.0), Circle(0.0, 0.0, math.nan),
           Circle(0.0, 0.0, math.inf), Circle(math.inf, 0.0, 1.0),
           Circle(math.nan, 0.0, 1.0), Circle(0.0, 0.0, 1e-310),
           Circle(1e308, 0.0, 1e300), Circle(0.0, 0.0, 1.0)]
    probes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1e308, 0.0), (math.inf, 0.0),
              (math.nan, 1.0), (-math.inf, math.inf), (1e-310, 0.0)]
    for tol in TOLS:
        assert _points_on_circles(odd, probes, tol) == _scan_all(odd, probes, tol), tol


def test_sweep_extent_holds_circles_too_small_for_a_relative_pad():
    # at radius 3 * 2**-1074 and tol 0.5, r(1 + tol) rounds to 4 * 2**-1074
    # and no relative pad lifts it, yet a point at 5 * 2**-1074 is on the
    # circle: the extent must be the one product r * (1 + tol)(1 + pad)
    unit = math.ulp(0.0)
    circles = [Circle(0.0, 0.0, k * unit) for k in range(1, 9)]
    points = [(k * unit, 0.0) for k in range(12)]
    for tol in TOLS + [0.5, 1.5]:
        assert (_points_on_circles(circles, points, tol)
                == _scan_all(circles, points, tol))
    assert scan_hits(circles, 5 * unit, 0.0, 0.5)[0] == 2


def test_sweep_tests_circles_off_the_plane_against_every_point():
    # tol * r overflows, and hypot(-inf, nan) is inf: the scan puts every
    # finite point on this circle, though no extent can hold them
    circles = [Circle(math.inf, math.nan, 1e300), Circle(math.nan, -math.inf, 1e300)]
    points = [(0.0, 0.0), (-3.0, 1e308), (5.0, -2.0)]
    assert _points_on_circles(circles, points, 1e300) == [[0, 1]] * 3
    assert _scan_all(circles, points, 1e300) == [[0, 1]] * 3


def test_grid_visits_each_circle_once_whatever_the_tol():
    # a reach that grows with tol must still list every circle once per
    # point, each point's ids ascending
    circles = [Circle(3.0 * i, 0.0, 2.0 ** (i % 7 - 3)) for i in range(40)]
    points = [(3.0 * i + 0.5, 0.25) for i in range(40)]
    for tol in (1e3, 1e300):
        assert _points_on_circles(circles, points, tol) == [list(range(40))] * 40


# -- arc ends ------------------------------------------------------------------

# angles an order can hold: both ends of [0, 2 pi], values that round onto
# them, and clusters of nearly equal angles
_SPECIAL = [0.0, TWO_PI, (-1e-17) % TWO_PI, math.pi, 1e-300, 1e-17,
            math.nextafter(TWO_PI, 0.0), 1.0, math.nextafter(1.0, 2.0),
            math.nextafter(1.0, 0.0), 1.0 + 1e-12, 3.0]


@st.composite
def _order_and_arc(draw):
    k = draw(st.integers(1, 9))
    angles = draw(st.lists(
        st.one_of(st.sampled_from(_SPECIAL), st.floats(0.0, TWO_PI)),
        min_size=k, max_size=k))
    pairs = sorted((a, pid) for pid, a in enumerate(angles))
    near = draw(st.sampled_from(angles))

    def end():
        kind = draw(st.sampled_from(["near", "turn", "any", "far"]))
        if kind == "near":
            return near + draw(st.sampled_from([0.0, 1e-300, -1e-17, 1e-15, -1e-12, 1e-9]))
        if kind == "turn":  # outside [0, 2 pi), by whole turns or a hair
            return (near + draw(st.sampled_from([-2, -1, 1, 3])) * TWO_PI
                    + draw(st.sampled_from([0.0, 1e-15, -1e-13])))
        if kind == "any":
            return draw(st.floats(-20.0, 20.0))
        return draw(st.sampled_from([1e10, -1e10, 1e16, -3e17, 1e300])) + near

    arc = Arc(0, end(), end(), 0)
    return [pairs], arc


def _ends(order, arc, tol):
    """Both ends of ``arc`` as ``_arc_partition_faults`` matches them: by
    ``_exact_ends`` where an end equals an isolated point angle, by
    ``_nearest`` otherwise.  The arc is given once per point of its
    circle, so that the partition check matches its ends."""
    return _arc_partition_faults(order, [arc] * len(order[arc.circle]), tol)[1][0]


@settings(max_examples=600, deadline=None)
@given(case=_order_and_arc(), tol=st.sampled_from(TOLS + [math.inf]))
def test_arc_ends_match_the_scan(case, tol):
    order, arc = case
    assert _ends(order, arc, tol) == scan_arc_ends(order, arc, tol)
    assert _ends(order, arc, tol) == bisection_arc_ends(order, arc, tol)


@pytest.mark.parametrize("tol", TOLS + [math.inf])
def test_arc_ends_with_runs_of_equal_angles(tol):
    for angles in ([0.0, 0.0, 0.0, TWO_PI, TWO_PI], [1.0] * 6,
                   [0.0, 1.0, 1.0, 1.0, 4.0, TWO_PI], [TWO_PI] * 3):
        order = [sorted((a, pid) for pid, a in enumerate(angles))]
        for start in (0.0, -0.0, 1.0, TWO_PI, -1e-17, 1e-17, 1.0 - 1e-16,
                      4.0 + TWO_PI, -TWO_PI, 7.0, math.pi):
            arc = Arc(0, start, start + 1.0, 0)
            assert _ends(order, arc, tol) == scan_arc_ends(order, arc, tol)


def test_arc_ends_that_are_not_angles_match_no_point():
    order = [[(0.5, 0), (2.0, 1), (4.0, 2)], [(math.nan, 3), (1.0, 4)]]
    for end in (math.nan, math.inf, -math.inf):
        assert _ends(order, Arc(0, end, 2.0, 0), math.inf) is None
        assert _ends(order, Arc(0, 0.5, end, 0), 1.0) is None
    # a point at a NaN angle is matched by nothing, not even by the NaN
    # object itself, which a dict finds by identity
    assert _ends(order, Arc(1, 1.0, 1.0, 0), 10.0) == (4, 4)
    assert _ends(order, Arc(1, math.nan, 1.0, 0), math.inf) is None
    assert _exact_ends(order[1]) == {}


# -- the report ----------------------------------------------------------------


def _duplicated_point(r):
    return Realization(list(r.circles), r.points + r.points[:1], list(r.arcs))


def _dropped_arc(r):
    return Realization(list(r.circles), list(r.points), list(r.arcs[1:]))


def _rotated_end(turn):
    def mutate(r):
        a = r.arcs[0]
        moved = Arc(a.circle, a.from_angle, a.to_angle + turn, a.edge)
        return Realization(list(r.circles), list(r.points), [moved] + r.arcs[1:])
    return mutate


def _wrong_kind(r):
    p = r.points[0]
    flipped = RealPoint(p.x, p.y, p.on, "TOUCH" if p.kind == KIND_CROSS else KIND_CROSS)
    return Realization(list(r.circles), [flipped] + r.points[1:], list(r.arcs))


def _dropped_circle(r):
    return Realization(r.circles[:-1], list(r.points), list(r.arcs))


MUTATIONS = [None, _duplicated_point, _dropped_arc, _rotated_end(0.1),
             _rotated_end(1e-10), _wrong_kind, _dropped_circle]


def _iterated_medial(depth):
    g = icosahedron()
    for _ in range(depth):
        g = medial(g)
    return g


def _corpus():
    """(name, realization, graph) of realized and generated systems."""
    cases = []
    for name, make in [("octahedron", octahedron),
                       ("medial-tetrahedron", lambda: medial(tetrahedron())),
                       ("medial-cube", lambda: medial(cube())),
                       ("medial-dodecahedron", lambda: medial(dodecahedron())),
                       ("medial-n60", lambda: _iterated_medial(2)),
                       ("medial-n120", lambda: _iterated_medial(3))]:
        g = relabel_graph(make(), random.Random(name))
        cases.append((name, realize(g), g))
    for family, count in ((flower, 5), (flower, 8), (upper_bound_family, 16)):
        g, r = family(count)
        cases.append((f"{family.__name__}({count})", r, g))
    for kind in RealizationClass:
        cases.append((kind.name, canonical_octahedron_realization(kind), octahedron()))
    return cases


CORPUS = _corpus()


@pytest.mark.parametrize("name, r, g", CORPUS, ids=[c[0] for c in CORPUS])
def test_report_matches_the_scan_report(monkeypatch, name, r, g):
    for mutate in MUTATIONS:
        bad = r if mutate is None else mutate(r)
        for graph in (None, g):
            for tol in (1e-8, 1e-3):
                expected = scan_verify(monkeypatch, bad, graph, tol)
                assert verify_outcome(bad, graph, tol) == expected, (mutate, tol)
        if mutate is None:
            assert verify_outcome(bad, g) == []


def _edge_cases():
    r = realize(octahedron())
    c, p = r.circles[0], r.points[0]
    cases = {}
    for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        cases[f"point x {label}"] = Realization(
            list(r.circles), [RealPoint(value, p.y, p.on, p.kind)] + r.points[1:],
            list(r.arcs))
        cases[f"circle cx {label}"] = Realization(
            [Circle(value, c.cy, c.r)] + r.circles[1:], list(r.points), list(r.arcs))
    for label, radius in (("zero", 0.0), ("negative", -c.r)):
        cases[f"{label} radius"] = Realization(
            [Circle(c.cx, c.cy, radius)] + r.circles[1:], list(r.points), list(r.arcs))
    return r, cases


def test_degenerate_realizations_are_reported_not_raised():
    r, cases = _edge_cases()
    g = octahedron()
    for name, bad in cases.items():
        for tol in (1e-8, 1e3, 1e300):
            for graph in (None, g):
                report = verify_realization(bad, graph, tol)
                assert not report.passed, (name, tol)


def test_finite_degenerate_realizations_match_the_scan(monkeypatch):
    r, cases = _edge_cases()
    g = octahedron()
    for name in ("zero radius", "negative radius"):
        for tol in (1e-8, 1e3, 1e300):
            for graph in (None, g):
                expected = scan_verify(monkeypatch, cases[name], graph, tol)
                assert verify_outcome(cases[name], graph, tol) == expected


@pytest.mark.parametrize("tol", [1e3, 1e300])
def test_huge_tol_puts_every_point_on_every_circle(monkeypatch, tol):
    r = realize(_iterated_medial(2))
    report = verify_realization(r, tol=tol)
    hits = [v for v in report.violations if v[0] == "point-on-two-circles"]
    assert len(hits) == len(r.points)
    if tol == 1e300:
        everyone = f"lies on circles {list(range(len(r.circles)))},"
        assert all(everyone in detail for _, detail in hits)
    assert report.violations == scan_verify(monkeypatch, r, None, tol)
