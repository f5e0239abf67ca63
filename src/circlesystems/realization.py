"""Systems of circles: assembly, verification, graph extraction, bounds.

A realization is a set of circles together with points (each on exactly two
circles) and arcs (each arc lives on one circle, runs counterclockwise from
one point angle to the next, and carries one graph edge).  The pipeline for
a 3-connected 4-regular input packs the gray-face intersection graph and
reads the touching points back off the packing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import NamedTuple

from .coloring import build_il, il_simplicity, two_color_faces
from .embedding import EmbeddedGraph, connectivity_level
from .errors import (
    DegenerateArc,
    DomainError,
    ILNotSimple,
    MalformedRealization,
    NoInnermostFace,
    NonPlanarEmbedding,
    NotThreeConnected,
    TooSmall,
)
from .isomorphism import find_isomorphism
from .packing import (
    PACK_TOL, Circle, _check_tol, _points_on_circles, _tangency,
    _tangency_point, pack,
)

KIND_TOUCH = "TOUCH"
KIND_CROSS = "CROSS"

TWO_PI = 2.0 * math.pi
READ_TOL = 1e-8  # default tolerance of point kinds, extraction, verifier


class RealPoint(NamedTuple):
    """Marked point of a realization; ``on`` names its two circles."""

    x: float
    y: float
    on: tuple
    kind: str


class Arc(NamedTuple):
    """Counterclockwise arc on ``circle`` from one point angle to the next,
    carrying graph edge ``edge``."""

    circle: int
    from_angle: float
    to_angle: float
    edge: int

    @property
    def extent(self):
        return (self.to_angle - self.from_angle) % TWO_PI


class Realization(NamedTuple):
    circles: list
    points: list
    arcs: list


def angle_on(circle: Circle, xy) -> float:
    cx, cy, _ = circle
    return math.atan2(xy[1] - cy, xy[0] - cx) % TWO_PI


def point_kind(a: Circle, b: Circle, tol: float = READ_TOL) -> str:
    """TOUCH when the circles are externally or internally tangent within
    tolerance, CROSS otherwise."""
    _check_tol(tol)
    return KIND_CROSS if _tangency(a, b, tol) is None else KIND_TOUCH


def _angle_gap(a: float, b: float) -> float:
    """Distance between two angles around the circle, in [0, pi]."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _angular_order(circles, points):
    """Per circle, the (angle, point id) pairs of the points on it, sorted
    counterclockwise from angle 0; ties keep point id order."""
    order = [[] for _ in circles]
    for pid, (x, y, on, _) in enumerate(points):
        for ci in set(on):
            if 0 <= ci < len(order):
                order[ci].append((angle_on(circles[ci], (x, y)), pid))
    for pairs in order:
        pairs.sort()
    return order


def _exact_ends(pairs):
    """Each angle of ``pairs``, (angle, point id) sorted, mapped to its
    point when ``_nearest``'s tie guard holds both neighbours off: an arc
    end equal to the angle is at gap 0 from that point and no other.
    Empty unless every angle lies in [0, 2 pi], where the circular order
    is the sorted one (a NaN can leave ``pairs`` unsorted)."""
    at = {}
    for (b, _), (a, p), (c, _) in zip(pairs[-1:] + pairs[:-1], pairs,
                                      pairs[1:] + pairs[:1]):
        if not 0.0 <= a <= TWO_PI:
            return {}
        q = a % TWO_PI
        w = (abs(a) + 16.0) * 2.0 ** -50
        if (q - b) % TWO_PI > w and (c - q) % TWO_PI > w:
            at[a] = p
    return at


def _nearest(pairs, angle, tol):
    """Point id of the entry of ``pairs``, (angle, point id) sorted, whose
    angle has the least ``_angle_gap`` to the arc end ``angle``, the first
    of equal gaps; None when that gap exceeds ``tol`` or no gap is a
    number.  Ends that ``_exact_ends`` does not hold come here.

    A bisection finds the entries on either side of ``angle``.  A computed
    gap is off the true circular distance by less than (|angle| + 16) *
    2**-52, so when the next entries out on both sides are farther than
    that beyond the nearer of the two, no other entry can tie or beat them.
    Only crowded angles, within rounding of a tie, need the full scan.
    """
    k = len(pairs)
    q = angle % TWO_PI
    i = bisect_left(pairs, (q,))
    left, right = (i - 1) % k, i % k
    gl = _angle_gap(pairs[left][0], angle)
    gr = _angle_gap(pairs[right][0], angle)
    w = min(gl, gr) + (abs(angle) + 16.0) * 2.0 ** -50
    if ((q - pairs[(i - 2) % k][0]) % TWO_PI > w
            and (pairs[(i + 1) % k][0] - q) % TWO_PI > w):
        found = min((gl, left), (gr, right))
    else:
        gaps = [(gap, j) for j, (a, _) in enumerate(pairs)
                if (gap := _angle_gap(a, angle)) == gap]
        found = min(gaps) if gaps else None
    return None if found is None or found[0] > tol else pairs[found[1]][1]


def _assemble(circles, points):
    """The realization of ``points`` on ``circles`` whose arcs join
    angularly consecutive points of every circle, with fresh edge ids in
    circle order; also its angular order and the (from, to) point ids of
    every arc, known by construction."""
    return _join(circles, points, _angular_order(circles, points))


def _join(circles, points, order):
    """``_assemble(circles, points)`` from ``order``, the angular order of
    ``points`` on ``circles``."""
    arcs = []
    ends = []
    for ci, pairs in enumerate(order):
        k = len(pairs)
        for j in range(k):
            (a, p), (b, q) = pairs[j], pairs[(j + 1) % k]
            arcs.append(Arc(ci, a, b, len(arcs)))
            ends.append((p, q))
    return Realization(list(circles), list(points), arcs), order, ends


def _touchings(circles, pairs):
    """The tangency point of each (i, j) pair of tangent circles."""
    return [RealPoint(*_tangency_point(circles[i], circles[j]), (i, j),
                      KIND_TOUCH) for i, j in pairs]


def _check_circle_ids(r: Realization, slack):
    """Raise MalformedRealization when a point does not name two circles
    (one circle twice for a degree-2 point), when a point or an arc names a
    circle that ``r`` does not have, or when a point lies farther than
    ``slack`` times the radius off a circle it names."""
    circles = r.circles
    k = len(circles)
    for pid, (x, y, on, _) in enumerate(r.points):
        if len(on) != 2 or not all(0 <= ci < k for ci in on):
            raise MalformedRealization(
                f"point {pid} names circles {on}; a point names two of "
                f"the {k} circles"
            )
        for ci in on:
            cx, cy, cr = circles[ci]
            if abs(math.hypot(x - cx, y - cy) - cr) > slack * cr:
                raise MalformedRealization(f"point {pid} is not on circle {ci}")
    for i, a in enumerate(r.arcs):
        if not 0 <= a.circle < k:
            raise MalformedRealization(
                f"arc {i} names circle {a.circle}; there are {k} circles"
            )


def _arc_partition_faults(order, arcs, tol):
    """Why ``arcs`` fail to partition the circles, one detail per fault,
    and the (from, to) point ids of every arc matched within ``tol``
    (None for the others).

    Every circle with points in ``order`` needs as many arcs as points, and
    each arc must start at a point no other arc of its circle starts at and
    end at the next point counterclockwise, both ends within ``tol``.
    An arc naming no circle is a fault; circles without points are not
    checked.
    """
    by_circle = [[] for _ in order]
    faults = []
    for i, a in enumerate(arcs):
        if 0 <= a.circle < len(order):
            by_circle[a.circle].append(i)
        else:
            faults.append(f"arc {a} names a missing circle; there are "
                          f"{len(order)} circles")
    ends = [None] * len(arcs)
    for ci, pairs in enumerate(order):
        if not pairs:
            continue
        on_circle = by_circle[ci]
        if len(on_circle) != len(pairs):
            faults.append(
                f"circle {ci} has {len(on_circle)} arcs for {len(pairs)} points"
            )
            continue
        pids = [p for _, p in pairs]
        succ = dict(zip(pids, pids[1:] + pids[:1]))
        at = _exact_ends(pairs)
        for i in on_circle:
            _, a, b, _ = arcs[i]
            e = (at[a] if a in at else _nearest(pairs, a, tol),
                 at[b] if b in at else _nearest(pairs, b, tol))
            ends[i] = None if None in e else e
        # k distinct ends, each a point and its successor: no fault
        joined = {ends[i] for i in on_circle}
        if len(joined) == len(on_circle) and joined == succ.items():
            continue
        starts = Counter(ends[i][0] for i in on_circle if ends[i] is not None)
        for i in on_circle:
            e = ends[i]
            if e is None or starts[e[0]] > 1 or succ[e[0]] != e[1]:
                faults.append(
                    f"arc {arcs[i]} does not join consecutive points of circle {ci}"
                )
    return faults, ends


def _read(r: Realization, tol):
    """The angular order of ``r`` and the (from, to) point ids of its arcs:
    the one validated read of a system of circles as a graph.  Points may
    miss their circles, and arc ends their points, by max(10 * tol, 1e-9)
    radii.  Raises DomainError on a bad ``tol``, MalformedRealization on a
    missing circle or a point off its circles, and DegenerateArc when the
    arcs do not partition the circles."""
    _check_tol(tol)
    slack = max(tol * 10.0, 1e-9)
    _check_circle_ids(r, slack)
    order = _angular_order(r.circles, r.points)
    for arc in r.arcs:
        if not order[arc.circle]:
            raise DegenerateArc(f"circle {arc.circle} carries an arc but no points")
    faults, ends = _arc_partition_faults(order, r.arcs, slack)
    if faults:
        raise DegenerateArc(faults[0])
    return order, ends


class BoundsResult(NamedTuple):
    """Circle-count bounds for an n-vertex 4-regular planar graph."""

    n: int
    lower: float
    upper: float

    def contains(self, c: int) -> bool:
        # integer forms of c >= (1+sqrt(1+4n))/2 and c <= 2n/3, exact
        return c * (c - 1) >= self.n and 3 * c <= 2 * self.n


def circle_count_bounds(n: int) -> BoundsResult:
    """Bounds on the circle count of an n-vertex 4-regular plane graph.

    ``n`` must be an int (not a bool) of at least 6 whose bounds are finite
    floats; anything else raises DomainError, or TooSmall below 6."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < 6:
        raise TooSmall("no simple 4-regular planar graph has fewer than 6 vertices")
    try:
        lower = (1.0 + math.sqrt(1.0 + 4.0 * n)) / 2.0
        upper = 2.0 * n / 3.0
    except OverflowError:  # n beyond the float range
        lower = upper = math.inf
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DomainError("n is too large for finite circle-count bounds")
    return BoundsResult(n=n, lower=lower, upper=upper)


# -- pipeline ------------------------------------------------------------------


def realize(g: EmbeddedGraph, tol: float = PACK_TOL) -> Realization:
    """Realize a 3-connected 4-regular plane graph as touching circles.

    One circle per gray face; the touching point of two circles is the graph
    vertex their faces share; the arcs of each circle carry the edges of its
    face in boundary order.
    """
    _check_tol(tol)
    if not g.is_regular(4):
        raise NotThreeConnected("input must be 4-regular")
    if not g.is_simple():
        raise NotThreeConnected("input must be simple")
    if connectivity_level(g) != 3:
        raise NotThreeConnected("input must be 3-connected")

    coloring = two_color_faces(g)
    il = build_il(g, coloring)
    report = il_simplicity(il)
    if not report.simple:
        raise ILNotSimple(
            "gray-face graph of a 3-connected input must be simple; "
            f"got {report.multi_pairs} / loops {report.selfloop_faces}"
        )

    packing = pack(il.graph, tol)
    circles = list(packing.circles)
    points = _touchings(circles, il.vertex_gray_pair)

    # the layout places the neighbours of every circle counterclockwise in
    # rotation order, so the points of a gray face wind once around it
    arcs = []
    for i, f in enumerate(il.gray_faces):
        cycle = g.faces[f]
        tails = [g.dart_tail[d] for d in cycle]
        angles = [angle_on(circles[i], (points[v].x, points[v].y)) for v in tails]
        k = len(cycle)
        winding = sum((angles[(j + 1) % k] - angles[j]) % TWO_PI for j in range(k))
        if round(winding / TWO_PI) != 1:
            raise NonPlanarEmbedding(
                f"points of circle {i} are not in counterclockwise face order"
            )
        for j, d in enumerate(cycle):
            arcs.append(Arc(i, angles[j], angles[(j + 1) % k], g.edge_of_dart[d]))
    return Realization(circles, points, arcs)


# -- graph extraction ----------------------------------------------------------


def extract_with_arcs(r: Realization, tol: float = READ_TOL) -> EmbeddedGraph:
    """Embedded abstract graph of a realization.

    Vertices are the points; arc k is darts 2k (counterclockwise) and
    2k + 1 (clockwise); the rotation at each point orders the four arc ends
    by departure tangent, with curvature breaking the ties that tangencies
    create.  Raises DomainError on a bad ``tol``, MalformedRealization on
    a missing circle or a point off its circles, and DegenerateArc when the
    arcs do not partition the circles or two points of a circle lie within
    ``tol``; ``oriented_dual`` and ``smooth_degree_two`` read alike.
    """
    return _extract(r, *_read(r, tol), tol)


def _check_apart(order, tol):
    """Raise DegenerateArc when two points of a circle lie within ``tol``
    of each other in angle."""
    for ci, pairs in enumerate(order):
        if len(pairs) > 1:
            for (a1, p1), (a2, p2) in zip(pairs, pairs[1:] + pairs[:1]):
                if (a2 - a1) % TWO_PI < tol:
                    raise DegenerateArc(
                        f"points {p1} and {p2} nearly coincide on circle {ci}"
                    )


def _rotation(keyed):
    """The darts of ``keyed``, the (tangent mod 2 pi, curvature, dart)
    triples of one point, which it sorts, in rotation order at the point:
    tangents within 1e-6 of the first of their group join it, the last
    group continues the first one across angle 0, and curvature orders
    each group."""
    keyed.sort()
    groups = []
    for tau, kappa, d in keyed:
        if groups and abs(tau - first) < 1e-6:
            group.append((kappa, d))
        else:
            first, group = tau, [(kappa, d)]
            groups.append(group)
    if len(groups) > 1 and keyed[0][0] + TWO_PI - keyed[-1][0] < 1e-6:
        groups[0] += groups.pop()
    row = []
    for group in groups:
        group.sort()
        row += [d for _, d in group]
    return row


def _extract(r: Realization, order, ends, tol) -> EmbeddedGraph:
    """``extract_with_arcs`` of ``r`` from its angular order and ``ends``,
    the (from, to) point ids of every arc in arc order, which partition
    the circles; raises DegenerateArc when two points of a circle lie
    within ``tol`` of each other."""
    _check_apart(order, tol)

    # one dart per arc end; 2k and 2k+1 are the ccw and cw traversals
    germs = [[] for _ in r.points]
    for k, ((ci, from_angle, to_angle, _), (p_from, p_to)) in enumerate(
            zip(r.arcs, ends)):
        _, _, cr = r.circles[ci]
        # departing ccw from the from-end: tangent angle + pi/2, curving left
        germs[p_from].append(((from_angle + math.pi / 2.0) % TWO_PI, 1.0 / cr, 2 * k))
        # departing cw from the to-end: tangent angle - pi/2, curving right
        germs[p_to].append(((to_angle - math.pi / 2.0) % TWO_PI, -1.0 / cr, 2 * k + 1))

    # dart 2k leaves the from-end of arc k, dart 2k + 1 its to-end
    dart_tail = [p for pair in ends for p in pair]
    dart_rev = [d ^ 1 for d in range(2 * len(r.arcs))]
    return EmbeddedGraph([_rotation(keyed) for keyed in germs], dart_tail, dart_rev)


def outer_face_of(r: Realization, g: EmbeddedGraph) -> int:
    """The face of ``g = extract_with_arcs(r)`` of greatest signed area.
    With the face-on-the-right convention, bounded faces come out negative
    and the outer face positive."""
    # per dart, the chord term and the sector term of the area under it; a
    # clockwise dart's terms are the counterclockwise ones negated, exactly
    terms = []
    for a in r.arcs:
        cx, cy, cr = r.circles[a.circle]
        sx, sy = cx + cr * math.cos(a.from_angle), cy + cr * math.sin(a.from_angle)
        ex, ey = cx + cr * math.cos(a.to_angle), cy + cr * math.sin(a.to_angle)
        chord = 0.5 * (cx * (ey - sy) - cy * (ex - sx))
        sector = 0.5 * cr * cr * a.extent
        terms += [(chord, sector), (-chord, -sector)]
    areas = []
    for cycle in g.faces:
        total = 0.0
        for d in cycle:
            chord, sector = terms[d]
            total = total + chord + sector
        areas.append(total)
    return max(range(len(areas)), key=lambda f: areas[f])


# -- verification --------------------------------------------------------------


class VerifyReport(NamedTuple):
    """``violations`` holds (rule, detail) pairs; ``add`` appends one.  It
    has no default: a NamedTuple default is one object that every record
    built without the field would share."""

    violations: list
    circle_count: int = 0
    point_count: int = 0

    @property
    def passed(self):
        return not self.violations

    def add(self, rule, detail):
        self.violations.append((rule, detail))


def verify_realization(r: Realization, g: EmbeddedGraph | None = None,
                       tol: float = READ_TOL) -> VerifyReport:
    """Check the structural rules of a system of circles.

    Violations are reported, not raised: every point on exactly two circles,
    at least three points per circle, at most two shared points per circle
    pair, arcs partitioning each circle, circle count within bounds, and
    (optionally) the abstract graph matching ``g``.  A ``tol`` that is not
    finite or is negative raises DomainError.

    Each rule takes near-linear time on circles spread out in x: a point
    is tested only against the circles a sweep over x puts near it
    (``packing._points_on_circles``), and an arc end is looked up by its
    exact angle, with bisection on its circle's angular order as the
    fallback (``_exact_ends``, ``_nearest``).  The graph match reads the
    abstract graph straight off the arc ends that the partition rule
    already matched: arc k joins its (from, to) points, which is edge k of
    ``extract_with_arcs(r)``, so no embedding is built.  The match is
    linear when point v is vertex v of ``g``, as `realize` and the
    generators number them: the isomorphism search then accepts the
    identity without searching.  Like extraction, it raises DegenerateArc
    when two points of a circle lie within ``tol`` of each other.
    """
    _check_tol(tol)
    report = VerifyReport([], len(r.circles), len(r.points))

    circles = r.circles
    on_circles = _points_on_circles(circles, r.points, tol)
    for pid, ((_, _, on, kind), hits) in enumerate(zip(r.points, on_circles)):
        if len(hits) != 2 or len(on) != 2 or set(hits) != set(on):
            report.add(
                "point-on-two-circles",
                f"point {pid} lies on circles {hits}, declared {on}",
            )
            continue
        if kind != point_kind(circles[on[0]], circles[on[1]], tol):
            report.add(
                "point-kind",
                f"point {pid} declared {kind}, circles say otherwise",
            )

    order = _angular_order(r.circles, r.points)
    pair_points = {}
    for ci, pairs in enumerate(order):
        if len(pairs) < 3:
            report.add(
                "three-points-per-circle",
                f"circle {ci} carries {len(pairs)} points",
            )
    for pid, (_, _, on, _) in enumerate(r.points):
        # the point rule reports a point that does not name two circles
        if len(on) == 2 and on[0] != on[1]:
            key = tuple(sorted(on))
            pair_points.setdefault(key, []).append(pid)
    for key, pts in pair_points.items():
        if len(pts) > 2:
            report.add(
                "two-common-points",
                f"circles {key} share points {pts}",
            )

    # the ends are matched within at most the slack extraction allows, and
    # each is the nearest point whatever the slack, so extraction reuses them
    faults, ends = _arc_partition_faults(order, r.arcs, max(tol, 1e-12))
    for detail in faults:
        report.add("arcs-partition-circle", detail)

    n = len(r.points)
    if n >= 6:
        bounds = circle_count_bounds(n)
        if not bounds.contains(len(r.circles)):
            report.add(
                "circle-count-bounds",
                f"{len(r.circles)} circles outside "
                f"[{bounds.lower:.3f}, {bounds.upper:.3f}] for n={n}",
            )
    else:
        report.add("circle-count-bounds", f"only {n} points; need at least 6")

    if g is not None and not report.violations:
        _check_apart(order, tol)
        if find_isomorphism(len(r.points), ends, g.n, g.edges()) is None:
            report.add("graph-match", "abstract graph differs from the input graph")
    return report


# -- innermost-face arc property ----------------------------------------------


def innermost_face_arc_check(r: Realization, tol: float = READ_TOL) -> bool:
    """For an octahedron realization: the interior face disjoint from the
    outer face has at least one bounding arc of central angle below pi.
    A ``tol`` that is not finite or is negative raises DomainError."""
    g = extract_with_arcs(r, tol)
    outer = outer_face_of(r, g)
    outer_vertices = set(g.face_tails(outer))
    candidates = []
    for f in range(g.face_count):
        if f == outer:
            continue
        if not outer_vertices & set(g.face_tails(f)):
            candidates.append(f)
    if len(candidates) != 1:
        raise NoInnermostFace(
            f"expected one face disjoint from the outer face, found {candidates}"
        )
    face = candidates[0]
    for d in g.faces[face]:
        if r.arcs[d >> 1].extent < math.pi:
            return True
    return False
