import math
import random

import pytest
from hypothesis import given, strategies as st

from circlesystems import realization
from circlesystems.embedding import build_embedding, medial
from circlesystems.equivalence import (
    RealizationClass, equivalent, oriented_dual, smooth_degree_two,
)
from circlesystems.errors import (
    DegenerateArc,
    DomainError,
    MalformedRealization,
    NoInnermostFace,
    NotThreeConnected,
    TooSmall,
)
from circlesystems.generators import (
    canonical_octahedron_realization,
    cube,
    dodecahedron,
    flower,
    gadget,
    icosahedron,
    octahedron,
    tetrahedron,
)
from circlesystems.isomorphism import graphs_isomorphic
from circlesystems.packing import Circle
from circlesystems.realization import (
    KIND_CROSS,
    KIND_TOUCH,
    Arc,
    RealPoint,
    Realization,
    angle_on,
    circle_count_bounds,
    extract_with_arcs,
    innermost_face_arc_check,
    point_kind,
    realize,
    verify_realization,
)

from conftest import (
    VERDICT_SYSTEMS, joined_octahedra, relabel_graph, relabel_realization,
)

CORPUS = [
    ("octahedron", octahedron),
    ("medial-tetrahedron", lambda: medial(tetrahedron())),
    ("medial-cube", lambda: medial(cube())),
    ("medial-octahedron", lambda: medial(octahedron())),
    ("medial-dodecahedron", lambda: medial(dodecahedron())),
    ("medial-icosahedron", lambda: medial(icosahedron())),
]


def test_realize_octahedron(octa):
    r = realize(octa, 1e-9)
    assert len(r.circles) == 4
    assert len(r.points) == 6
    assert len(r.arcs) == 12
    assert all(p.kind == KIND_TOUCH for p in r.points)
    assert verify_realization(r, octa).passed


@pytest.mark.parametrize("name,maker", CORPUS)
def test_pipeline_closure(name, maker):
    g = maker()
    r = realize(g, 1e-9)
    assert verify_realization(r, g, 1e-8).passed
    assert graphs_isomorphic(extract_with_arcs(r), g)


def test_pipeline_closure_iterated_medial():
    g = medial(medial(cube()))
    assert g.n == 24
    r = realize(g, 1e-9)
    assert verify_realization(r, g, 1e-8).passed
    assert graphs_isomorphic(extract_with_arcs(r), g)


def test_realize_icosahedron_medial_n480():
    # the rung the angle-sum sweep could not certify at this tolerance
    g = icosahedron()
    for _ in range(5):
        g = medial(g)
    assert g.n == 480
    r = realize(g, 1e-9)
    assert verify_realization(r, g).passed


@pytest.mark.parametrize("pid", range(6))
def test_extraction_groups_tangents_across_angle_zero(octa, pid):
    # turn the octahedron's system so that touching point pid sits at the
    # bottom of one circle, then nudge the two arc ends there whose
    # tangents are horizontal to either side of angle 0
    r = realize(octa, 1e-9)
    a, b = r.points[pid].on
    p = r.points[pid]
    phi = 1.5 * math.pi - angle_on(r.circles[a], (p.x, p.y))
    c, s = math.cos(phi), math.sin(phi)
    circles = [Circle(c * k.cx - s * k.cy, s * k.cx + c * k.cy, k.r)
               for k in r.circles]
    points = [RealPoint(c * q.x - s * q.y, s * q.x + c * q.y, q.on, q.kind)
              for q in r.points]
    bottom, top = 1.5 * math.pi, 0.5 * math.pi
    arcs = []
    for arc in r.arcs:
        start, end = arc.from_angle + phi, arc.to_angle + phi
        if arc.circle == a and abs(math.remainder(start - bottom, 2 * math.pi)) < 1e-6:
            start = bottom - 1e-9  # departs along angle -1e-9
        if arc.circle == b and abs(math.remainder(end - top, 2 * math.pi)) < 1e-6:
            end = top + 1e-9  # departs backwards along angle 1e-9
        arcs.append(Arc(arc.circle, start % (2 * math.pi), end % (2 * math.pi),
                        arc.edge))
    turned = Realization(circles, points, arcs)
    assert graphs_isomorphic(extract_with_arcs(turned), octa)
    assert verify_realization(turned, octa).passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_realize_and_verify_reject_tol_outside_zero_to_infinity(octa, tol):
    with pytest.raises(DomainError):
        realize(octa, tol)
    r = realize(octa)
    with pytest.raises(DomainError):
        verify_realization(r, octa, tol)
    with pytest.raises(DomainError):
        verify_realization(r, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_extraction_and_point_kind_reject_tol_outside_zero_to_infinity(tol):
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    with pytest.raises(DomainError):
        point_kind(r.circles[0], r.circles[1], tol)
    with pytest.raises(DomainError):
        extract_with_arcs(r, tol)
    with pytest.raises(DomainError):
        innermost_face_arc_check(r, tol)


def test_realize_rejects_not_three_connected():
    with pytest.raises(NotThreeConnected):
        realize(joined_octahedra())


@pytest.mark.parametrize("make, message", [
    (lambda: gadget().graph, "input must be 4-regular"),
    (lambda: build_embedding([[1, 3, 3, 1], [2, 0, 0, 2], [3, 1, 1, 3],
                              [0, 2, 2, 0]]), "input must be simple"),
], ids=["gadget-fragment", "doubled-4-cycle"])
def test_realize_refuses_a_graph_that_is_not_a_simple_4_regular_one(make, message):
    with pytest.raises(NotThreeConnected, match=f"^{message}$"):
        realize(make())


def test_touching_point_when_the_first_circle_contains_the_second():
    (p,) = realization._touchings([Circle(0, 0, 2), Circle(1, 0, 1)], [(0, 1)])
    assert (p.x, p.y, p.on, p.kind) == (2.0, 0.0, (0, 1), KIND_TOUCH)


def test_realize_rejects_augmented_octahedron():
    from circlesystems.generators import GADGET, augment_octahedron

    with pytest.raises(NotThreeConnected):
        realize(augment_octahedron(GADGET, 2))


def test_circle_count_equals_gray_faces(octa):
    from circlesystems.coloring import two_color_faces

    r = realize(octa)
    assert len(r.circles) == len(two_color_faces(octa).gray_faces())


def test_circle_angular_order_matches_face_order():
    # points around each circle follow the gray face boundary
    # counterclockwise, whichever face is outer; realize relies on it
    from circlesystems.coloring import build_il, two_color_faces
    from circlesystems.realization import angle_on

    for solid in (tetrahedron, cube, octahedron, dodecahedron, icosahedron):
        m = medial(solid())
        for outer in range(m.face_count):
            g = build_embedding(m.to_neighbor_lists(), outer)
            il = build_il(g, two_color_faces(g))
            r = realize(g)
            for ci, face in enumerate(il.gray_faces):
                boundary = g.face_tails(face)
                by_angle = sorted(
                    boundary,
                    key=lambda v: angle_on(r.circles[ci], (r.points[v].x, r.points[v].y)),
                )
                k = len(boundary)
                rotations = [boundary[i:] + boundary[:i] for i in range(k)]
                assert by_angle in rotations
                total = sum(a.extent for a in r.arcs if a.circle == ci)
                assert abs(total - 2 * math.pi) < 1e-9


def test_verify_detects_radius_perturbation(octa):
    r = realize(octa, 1e-9)
    bad = Realization(list(r.circles), list(r.points), list(r.arcs))
    c = bad.circles[0]
    bad.circles[0] = Circle(c.cx, c.cy, c.r * (1 + 1e-6))
    report = verify_realization(bad, tol=1e-8)
    assert any(rule == "point-on-two-circles" for rule, _ in report.violations)


def test_verify_canonical_three_crossing(octa):
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    report = verify_realization(r, octa)
    assert report.passed
    assert all(p.kind == KIND_CROSS for p in r.points)
    assert report.circle_count == 3


def test_extract_three_crossing_is_octahedron(octa):
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    assert graphs_isomorphic(extract_with_arcs(r), octa)


def test_extract_flower4():
    graph, real = flower(4)
    assert graph.n == 12
    assert graph.is_regular(4)
    assert graphs_isomorphic(extract_with_arcs(real), graph)


def test_bounds_values():
    b6 = circle_count_bounds(6)
    assert (b6.lower, b6.upper) == (3.0, 4.0)
    b12 = circle_count_bounds(12)
    assert (b12.lower, b12.upper) == (4.0, 8.0)
    b9 = circle_count_bounds(9)
    assert abs(b9.lower - (1 + math.sqrt(37)) / 2) < 1e-15
    assert b9.upper == 6.0


def test_bounds_too_small():
    with pytest.raises(TooSmall):
        circle_count_bounds(5)


@pytest.mark.parametrize("n", [7.5, math.nan, math.inf, True, False, "7", None])
def test_bounds_refuse_an_n_that_is_not_an_int(n):
    with pytest.raises(DomainError):
        circle_count_bounds(n)


@pytest.mark.parametrize("n", [10**400, 2**1024, 10**308])
def test_bounds_refuse_an_n_without_finite_bounds(n):
    # 2n/3 or sqrt(4n) is beyond the float range, or n is
    with pytest.raises(DomainError):
        circle_count_bounds(n)


def test_bounds_near_the_float_range_are_finite():
    b = circle_count_bounds(10**307)
    assert math.isfinite(b.lower) and math.isfinite(b.upper)


@given(st.integers(min_value=6, max_value=100000))
def test_bounds_ordering_and_exactness(n):
    b = circle_count_bounds(n)
    assert b.lower <= b.upper
    for c in range(1, 12):
        exact = c * (c - 1) >= n and 3 * c <= 2 * n
        assert b.contains(c) == exact


@pytest.mark.parametrize("kind", list(RealizationClass))
def test_innermost_face_arc(kind):
    r = canonical_octahedron_realization(kind)
    assert innermost_face_arc_check(r) is True


def test_innermost_face_arc_needs_one_face_apart_from_the_outer_face():
    # flower(4) is no octahedron: five faces share no point with its outer one
    with pytest.raises(NoInnermostFace, match=r"found \[3, 4, 5, 7, 13\]$"):
        innermost_face_arc_check(flower(4)[1])


def test_extract_rejects_coincident_points(octa):
    from circlesystems.realization import RealPoint

    r = realize(octa)
    p = r.points[0]
    squeezed = Realization(
        list(r.circles),
        list(r.points) + [RealPoint(p.x, p.y, p.on, p.kind)],
        list(r.arcs),
    )
    with pytest.raises(DegenerateArc):
        extract_with_arcs(squeezed)
    # an arc end 0.1 rad away from every point joins no consecutive points
    arc = r.arcs[0]
    rotated = Realization(
        list(r.circles),
        list(r.points),
        [Arc(arc.circle, arc.from_angle + 0.1, arc.to_angle, arc.edge)]
        + list(r.arcs[1:]),
    )
    with pytest.raises(DegenerateArc, match="does not join consecutive points"):
        extract_with_arcs(rotated)


@pytest.mark.parametrize("angle", [math.nan, math.inf])
def test_an_arc_end_with_no_numeric_gap_joins_no_points(angle):
    # no gap from a NaN or infinite arc end to a point is a number, so the
    # end matches no point: verify reports the arc, and the read refuses it
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    arcs = list(r.arcs)
    arcs[0] = arcs[0]._replace(from_angle=angle)
    bad = r._replace(arcs=arcs)
    message = f"arc {arcs[0]} does not join consecutive points of circle 0"
    assert verify_realization(bad).violations == [
        ("arcs-partition-circle", message)]
    with pytest.raises(DegenerateArc) as refused:
        extract_with_arcs(bad)
    assert str(refused.value) == message


def test_verify_bounds_rule(octa):
    r = realize(octa)
    report = verify_realization(r, octa)
    b = circle_count_bounds(len(r.points))
    assert b.contains(report.circle_count)


@pytest.mark.parametrize("circle", [99, -1])
def test_arc_on_a_missing_circle_is_a_partition_fault(octa, circle):
    r = realize(octa)
    bad = Realization(list(r.circles), list(r.points),
                      list(r.arcs) + [Arc(circle, 0.0, 1.0, 0)])
    for g in (None, octa):
        report = verify_realization(bad, g)
        assert not report.passed
        assert report.violations == [(
            "arcs-partition-circle",
            f"arc {bad.arcs[-1]} names a missing circle; there are 4 circles",
        )]
    with pytest.raises(MalformedRealization):
        smooth_degree_two(bad)
    with pytest.raises(MalformedRealization):
        equivalent(bad, r)


@pytest.mark.parametrize("name, make", VERDICT_SYSTEMS,
                         ids=[name for name, _ in VERDICT_SYSTEMS])
def test_verify_matches_the_extracted_edge_list(monkeypatch, name, make):
    # verify hands the isomorphism search the arc ends its partition rule
    # matched; arc k is darts 2k and 2k + 1 of the extracted graph, so the
    # edge lists agree arc for arc and so do the search and its mapping
    g, r = make()
    seen = []
    search = realization.find_isomorphism

    def recording(n1, edges1, n2, edges2):
        seen.append((n1, list(edges1)))
        return search(n1, edges1, n2, edges2)

    monkeypatch.setattr(realization, "find_isomorphism", recording)
    assert verify_realization(r, g).passed
    extracted = extract_with_arcs(r)
    assert seen == [(extracted.n, extracted.edges())]


@pytest.mark.parametrize("name, make", VERDICT_SYSTEMS,
                         ids=[name for name, _ in VERDICT_SYSTEMS])
def test_extracted_darts_follow_arc_numbering(name, make):
    # arc k is dart 2k, leaving the point at its from-angle counterclockwise,
    # and dart 2k + 1, leaving the point at its to-angle clockwise
    _, r = make()
    g = extract_with_arcs(r)
    assert len(g.dart_tail) == 2 * len(r.arcs)
    for k, arc in enumerate(r.arcs):
        assert g.dart_rev[2 * k] == 2 * k + 1
        for d, angle in ((2 * k, arc.from_angle), (2 * k + 1, arc.to_angle)):
            tail = g.dart_tail[d]
            assert arc.circle in r.points[tail].on
            p = r.points[tail]
            gap = realization._angle_gap(
                realization.angle_on(r.circles[arc.circle], (p.x, p.y)), angle)
            assert gap <= 1e-12


def _soddy_overlapped_by(eps):
    """The touching-disjoint octahedron system with the inner circle grown
    by ``eps`` relative: it crosses each unit circle at two points a few
    1e-7 rad apart, all declared touching."""
    from circlesystems.generators import _SODDY_INNER
    from circlesystems.packing import _circle_intersections, _tangency_point

    s3 = math.sqrt(3.0)
    units = [Circle(0.0, 0.0, 1.0), Circle(2.0, 0.0, 1.0), Circle(1.0, s3, 1.0)]
    inner = Circle(1.0, s3 / 3.0, _SODDY_INNER * (1.0 + eps))
    points = [RealPoint(*_tangency_point(units[i], units[j]), (i, j),
                        KIND_TOUCH) for i, j in ((0, 1), (0, 2), (1, 2))]
    points += [RealPoint(x, y, (i, 3), KIND_TOUCH) for i in range(3)
               for x, y in _circle_intersections(units[i], inner)]
    return realization._assemble(units + [inner], points)[0]


def test_verify_graph_match_refuses_nearly_coincident_points(octa):
    # at tol 1e-6 the two crossings of a pair of circles are one touching
    # point twice over: every rule passes, but reading a graph off the arcs
    # raises, as extraction does
    r = _soddy_overlapped_by(1e-13)
    assert verify_realization(r, None, 1e-6).passed
    with pytest.raises(DegenerateArc, match="nearly coincide"):
        verify_realization(r, octa, 1e-6)
    with pytest.raises(DegenerateArc, match="nearly coincide"):
        extract_with_arcs(r, 1e-6)
    assert verify_realization(r, octa, 1e-8).violations == [
        ("graph-match", "abstract graph differs from the input graph")]


@pytest.mark.parametrize("pattern", [(0, 1, 1), (0,)])
def test_point_that_does_not_name_two_circles(pattern):
    # verify reports such a point instead of unpacking its circles, and
    # every reader refuses it in the one validated read
    g, r = flower(4)
    p = r.points[0]
    on = tuple(p.on[i] for i in pattern)
    bad = Realization(list(r.circles),
                      [RealPoint(p.x, p.y, on, p.kind)] + list(r.points[1:]),
                      list(r.arcs))
    for graph in (None, g):
        # with one circle named, the other circle also misses an arc end
        assert verify_realization(bad, graph).violations[0] == (
            "point-on-two-circles",
            f"point 0 lies on circles {sorted(p.on)}, declared {on}",
        )
    for reader in (extract_with_arcs, oriented_dual, smooth_degree_two):
        with pytest.raises(MalformedRealization, match="point 0 names"):
            reader(bad)


@pytest.mark.parametrize("name, make", VERDICT_SYSTEMS,
                         ids=[name for name, _ in VERDICT_SYSTEMS])
def test_relabelled_systems_match_through_the_search(searched, name, make):
    # point v is vertex v on these systems, so the identity matches them;
    # relabelling either side leaves the match to the search
    g, r = make()
    assert verify_realization(r, g).passed
    assert searched == []
    rng = random.Random(0)
    assert verify_realization(relabel_realization(r, rng), g).passed
    assert verify_realization(r, relabel_graph(g, rng)).passed
    assert searched == [g.n] * 4


def test_graph_match_fails_on_another_graph_of_equal_size():
    # flower(6) and the icosahedron medial are 4-regular with n=30 and m=60
    flower_graph, flower_system = flower(6)
    medial_graph = medial(icosahedron())
    differs = [("graph-match", "abstract graph differs from the input graph")]
    for r, g in ((flower_system, medial_graph),
                 (realize(medial_graph), flower_graph)):
        assert verify_realization(r, g).violations == differs
