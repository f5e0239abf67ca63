import math

import pytest

from circlesystems import equivalence, realization
from circlesystems.equivalence import (
    OrientedDual,
    RealizationClass,
    classify_octahedron,
    digraph_isomorphic,
    equivalent,
    oriented_dual,
    smooth_degree_two,
)
from circlesystems.errors import DegenerateArc, MalformedRealization, NoClassMatch
from circlesystems.generators import (
    canonical_octahedron_realization,
    flower,
    octahedron,
    upper_bound_family,
)
from circlesystems.jsonio import parse_dual, serialize_dual
from circlesystems.packing import Circle
from circlesystems.realization import (
    Arc,
    RealPoint,
    Realization,
    extract_with_arcs,
    realize,
)

from conftest import (
    VERDICT_SYSTEMS,
    in_degree,
    out_degree,
    out_degree_counts,
    relabel_realization,
)

EXPECTED_OUT3 = {
    RealizationClass.THREE_CROSSING: 1,
    RealizationClass.FOUR_TOUCHING_DISJOINT: 4,
    RealizationClass.FOUR_TOUCHING_NESTED: 3,
}


def _transformed(r, scale=1.0, dx=0.0, dy=0.0):
    circles = [Circle(c.cx * scale + dx, c.cy * scale + dy, c.r * scale)
               for c in r.circles]
    points = [RealPoint(p.x * scale + dx, p.y * scale + dy, p.on, p.kind)
              for p in r.points]
    return Realization(circles, points, list(r.arcs))


def _with_split_arc(r):
    """Insert a degree-2 point in the middle of the first arc."""
    arc = r.arcs[0]
    c = r.circles[arc.circle]
    mid = (arc.from_angle + arc.extent / 2.0) % (2 * math.pi)
    new_pid_xy = (c.cx + c.r * math.cos(mid), c.cy + c.r * math.sin(mid))
    points = list(r.points) + [
        RealPoint(new_pid_xy[0], new_pid_xy[1], (arc.circle, arc.circle), "TOUCH")
    ]
    arcs = list(r.arcs[1:]) + [
        Arc(arc.circle, arc.from_angle, mid, arc.edge),
        Arc(arc.circle, mid, arc.to_angle, max(a.edge for a in r.arcs) + 1),
    ]
    return Realization(list(r.circles), points, arcs)


@pytest.mark.parametrize("kind", list(RealizationClass))
def test_out_degree_three_counts(kind):
    r = canonical_octahedron_realization(kind)
    d = oriented_dual(smooth_degree_two(r))
    assert out_degree_counts(d).get(3, 0) == EXPECTED_OUT3[kind]


@pytest.mark.parametrize("kind", list(RealizationClass))
def test_dual_degree_matches_face_length(kind):
    r = canonical_octahedron_realization(kind)
    d = oriented_dual(r)
    g = extract_with_arcs(r)
    for node in d.nodes:
        assert in_degree(d, node) + out_degree(d, node) == len(g.faces[node])


def test_dual_node_count_omits_outer():
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    d = oriented_dual(r)
    assert len(d.nodes) == 7  # 8 arrangement faces minus the outer one
    assert d.outer not in d.nodes


def test_outer_face_detection_nested():
    # the unbounded face of the nested drawing borders only the enclosing
    # circle, and every arc there points outward (toward the outer face)
    from circlesystems.realization import outer_face_of

    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    g = extract_with_arcs(r)
    outer = outer_face_of(r, g)
    enclosing = max(range(4), key=lambda ci: r.circles[ci].r)
    boundary_arcs = {d >> 1 for d in g.faces[outer]}
    assert all(r.arcs[a].circle == enclosing for a in boundary_arcs)
    d = oriented_dual(r)
    assert in_degree(d, d.outer) == 3
    assert out_degree(d, d.outer) == 0


def test_digraph_iso_self():
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    d = oriented_dual(r)
    assert digraph_isomorphic(d, d)


def test_digraph_iso_relabeled():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    d = oriented_dual(r)
    relabel = {node: 100 + node for node in d.nodes}
    relabel[d.outer] = 99
    d2 = OrientedDual(
        nodes=tuple(relabel[n] for n in d.nodes),
        edges=tuple((relabel[t], relabel[h]) for t, h in d.edges),
        outer=99,
    )
    assert digraph_isomorphic(d, d2)


def test_digraph_iso_rejects_different_classes():
    d1 = oriented_dual(
        canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    )
    d2 = oriented_dual(
        canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_DISJOINT)
    )
    assert not digraph_isomorphic(d1, d2)


@pytest.mark.parametrize("k1", list(RealizationClass))
@pytest.mark.parametrize("k2", list(RealizationClass))
def test_equivalence_is_class_identity(k1, k2):
    r1 = canonical_octahedron_realization(k1)
    r2 = canonical_octahedron_realization(k2)
    assert equivalent(r1, r2) == (k1 == k2)


def test_scaled_translated_equivalent():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_DISJOINT)
    assert equivalent(r, _transformed(r, scale=3.5, dx=10.0, dy=-2.0))
    assert equivalent(r, _transformed(r, dx=-7.0, dy=11.0))


def test_smooth_identity_without_degree_two_points():
    # the point and arc order fix the oriented dual's face ids, and through
    # them the isomorphism search order, so smoothing must not reorder them
    systems = [canonical_octahedron_realization(k) for k in RealizationClass]
    systems += [flower(c)[1] for c in (3, 4, 5)]
    systems += [upper_bound_family(c)[1] for c in (4, 8)]
    for r in systems:
        s = smooth_degree_two(r)
        assert s.points == r.points and s.arcs == r.arcs


@pytest.mark.parametrize("name, make", VERDICT_SYSTEMS,
                         ids=[name for name, _ in VERDICT_SYSTEMS])
def test_smoothing_reuses_the_validated_order(name, make):
    # smoothing filters the order its validation read and renumbers the
    # kept points in order; assembling the kept points afresh must give
    # the same circles, points and arcs, and the same order and arc ends.
    # The degree-2 point is listed first, so every kept point is renumbered
    _, r = make()
    split = _with_split_arc(r)
    split = Realization(split.circles, split.points[-1:] + split.points[:-1],
                        split.arcs)
    kept = [p for p in split.points if p.on[0] != p.on[1]]
    s = smooth_degree_two(split)
    fresh, order, ends = realization._assemble(split.circles, kept)
    assert s.circles == fresh.circles
    assert s.points == fresh.points
    assert s.arcs == fresh.arcs
    assert equivalence._smooth(split)[1:] == (order, ends)


def test_dual_document_round_trip():
    systems = [canonical_octahedron_realization(k) for k in RealizationClass]
    systems.append(smooth_degree_two(flower(5)[1]))
    for r in systems:
        d = oriented_dual(r)
        assert parse_dual(serialize_dual(d)) == d


@pytest.mark.parametrize("nodes, edges, outer", [
    ([0, 1], [[0, 7], [1, 0]], 2),  # an edge end that is no face
    ([0, 0, 1], [[0, 1], [1, 2]], 2),  # a repeated node
    ([0, 1, 2], [[0, 1], [1, 2]], 2),  # the outer face among the nodes
])
def test_dual_document_refuses_unknown_and_repeated_ids(nodes, edges, outer):
    doc = {"type": "oriented_dual", "version": 1, "nodes": nodes,
           "edges": edges, "outer": outer}
    with pytest.raises(ValueError, match="^dual document: "):
        parse_dual(doc)


def test_smooth_removes_subdivision_point():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_DISJOINT)
    split = _with_split_arc(r)
    s = smooth_degree_two(split)
    assert len(s.points) == 6
    assert len(s.arcs) == 12
    # merged arc spans the two halves
    total_extent = sum(a.extent for a in s.arcs)
    assert abs(total_extent - sum(a.extent for a in r.arcs)) < 1e-9


def test_smoothed_split_still_equivalent():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_DISJOINT)
    assert equivalent(r, _with_split_arc(r))


@pytest.mark.parametrize("kind", list(RealizationClass))
def test_classify_canonicals(kind):
    assert classify_octahedron(canonical_octahedron_realization(kind)) == kind


@pytest.mark.parametrize("kind", list(RealizationClass))
@pytest.mark.parametrize("seed", range(3))
def test_classify_relabelled_canonicals(kind, seed):
    import random

    r = relabel_realization(canonical_octahedron_realization(kind),
                            random.Random(seed))
    assert classify_octahedron(r) == kind


def test_classify_reads_duals_equal_to_fresh_ones():
    # the canonical duals are built once; they must be what oriented_dual
    # builds now, and every call must get the same objects
    cached = equivalence._canonical_duals()
    assert [kind for kind, _ in cached] == list(RealizationClass)
    for kind, dual in cached:
        assert dual == oriented_dual(canonical_octahedron_realization(kind))
    assert equivalence._canonical_duals() is cached


def test_classify_pipeline_output(octa):
    kind = classify_octahedron(realize(octa))
    assert kind == RealizationClass.FOUR_TOUCHING_DISJOINT


def test_classify_rejects_non_octahedron():
    from circlesystems.generators import flower

    _, real = flower(4)
    with pytest.raises(NoClassMatch):
        classify_octahedron(real)


def test_equivalence_relation_properties():
    import random

    from circlesystems.generators import flower, upper_bound_family

    pool = [canonical_octahedron_realization(k) for k in RealizationClass]
    pool.append(realize(octahedron()))
    pool.append(flower(3)[1])
    pool.append(upper_bound_family(4)[1])
    rng = random.Random(5)
    for _ in range(10):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)
        if equivalent(a, b) and equivalent(b, c):
            assert equivalent(a, c)


def test_dual_degrees_invariant_under_rigid_motions():
    import math as m

    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    theta = 0.83
    cos_t, sin_t = m.cos(theta), m.sin(theta)

    def move(x, y):
        return (
            2.0 * (x * cos_t - y * sin_t) + 5.0,
            2.0 * (x * sin_t + y * cos_t) - 1.0,
        )

    circles = []
    for c in r.circles:
        cx, cy = move(c.cx, c.cy)
        circles.append(Circle(cx, cy, 2.0 * c.r))
    points = [RealPoint(*move(p.x, p.y), p.on, p.kind) for p in r.points]
    arcs = [
        Arc(a.circle, (a.from_angle + theta) % (2 * math.pi),
            (a.to_angle + theta) % (2 * math.pi), a.edge)
        for a in r.arcs
    ]
    moved = Realization(circles, points, arcs)
    d0 = oriented_dual(r)
    d1 = oriented_dual(moved)

    def degree_multiset(d):
        return sorted((in_degree(d, v), out_degree(d, v)) for v in d.nodes)

    assert degree_multiset(d0) == degree_multiset(d1)
    assert digraph_isomorphic(d0, d1)


def _arc_dropped(r):
    return Realization(list(r.circles), list(r.points), list(r.arcs[1:]))


def _arc_repeated(r):
    return Realization(list(r.circles), list(r.points), r.arcs + r.arcs[:1])


def _arc_end_rotated(r):
    a = r.arcs[0]
    moved = Arc(a.circle, a.from_angle, a.to_angle + 0.1, a.edge)
    return Realization(list(r.circles), list(r.points), [moved] + r.arcs[1:])


def _circle_dropped(r):
    return Realization(r.circles[:-1], list(r.points), list(r.arcs))


def _point_moved(r):
    """Point 0 pushed radially off its first circle by 1% of its radius."""
    p = r.points[0]
    c = r.circles[p.on[0]]
    moved = RealPoint(c.cx + 1.01 * (p.x - c.cx), c.cy + 1.01 * (p.y - c.cy),
                      p.on, p.kind)
    return Realization(list(r.circles), [moved] + r.points[1:], list(r.arcs))


_SYSTEMS = [
    ("flower5", lambda: flower(5)[1]),
    ("touching-disjoint", lambda: canonical_octahedron_realization(
        RealizationClass.FOUR_TOUCHING_DISJOINT)),
]


@pytest.mark.parametrize("name, make", _SYSTEMS)
@pytest.mark.parametrize("mutate", [_arc_dropped, _arc_repeated, _arc_end_rotated])
def test_arcs_that_do_not_partition_the_circles_are_rejected(name, make, mutate):
    r = make()
    with pytest.raises(DegenerateArc):
        equivalent(r, mutate(r))
    with pytest.raises(DegenerateArc):
        classify_octahedron(mutate(r))


@pytest.mark.parametrize("name, make", _SYSTEMS)
def test_missing_circle_is_a_package_error(name, make):
    r = make()
    bad = _circle_dropped(r)
    with pytest.raises(MalformedRealization):
        equivalent(r, bad)
    with pytest.raises(MalformedRealization):
        classify_octahedron(bad)
    with pytest.raises(MalformedRealization):
        extract_with_arcs(bad)
    # only the arcs name the missing circle
    arcs_only = Realization(r.circles[:-1],
                            [p for p in r.points if len(r.circles) - 1 not in p.on],
                            list(r.arcs))
    with pytest.raises(MalformedRealization):
        equivalent(arcs_only, r)


@pytest.mark.parametrize("name, make", _SYSTEMS)
@pytest.mark.parametrize("mutate, error", [
    (_arc_dropped, DegenerateArc),
    (_arc_repeated, DegenerateArc),
    (_arc_end_rotated, DegenerateArc),
    (_point_moved, MalformedRealization),
])
def test_readers_refuse_alike(name, make, mutate, error):
    # extraction, the oriented dual and smoothing share one validated read,
    # so they accept and refuse the same realizations
    bad = mutate(make())
    for reader in (extract_with_arcs, oriented_dual, smooth_degree_two):
        with pytest.raises(error):
            reader(bad)


@pytest.mark.parametrize("name, make", VERDICT_SYSTEMS,
                         ids=[name for name, _ in VERDICT_SYSTEMS])
def test_smoothed_dual_is_the_dual_of_the_smoothing(name, make):
    # equivalent and classify_octahedron extract the smoothed system from
    # the order and the arc ends smoothing builds; the public pair matches
    # every end again and must give the same dual
    _, r = make()
    for system in (r, _with_split_arc(r)):
        assert (equivalence._smoothed_dual(system)
                == oriented_dual(smooth_degree_two(system)))
