"""Tangent-circle packing of embedded planar graphs.

The solver triangulates the input by placing one apex vertex inside every
face, runs the classical angle-sum radius iteration (each interior radius is
updated through the uniform-neighbor closed form until every interior angle
sum is 2*pi within tolerance), and then lays circles out by walking the
triangles from a fixed boundary triangle.  Apex circles are discarded at the
end; the required tangencies between base circles survive.

Normalization: the three boundary-triangle circles get radius 1 and centers
on an equilateral triangle of side 2, making output coordinates (and hence
golden files) reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import Disconnected, NoConvergence, TooSmall

MAX_SWEEPS = 10**6


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float


def _tangency(a: Circle, b: Circle, tol: float):
    """How two circles touch within ``tol`` relative to ``a.r + b.r``:
    "external", "internal", or None when they are not tangent."""
    d = math.hypot(a.cx - b.cx, a.cy - b.cy)
    scale = a.r + b.r
    if abs(d - scale) <= tol * scale:
        return "external"
    if abs(d - abs(a.r - b.r)) <= tol * scale:
        return "internal"
    return None


def _tangency_gap(a: Circle, b: Circle) -> float:
    """Relative deviation from external tangency of two circles."""
    d = math.hypot(a.cx - b.cx, a.cy - b.cy)
    return abs(d - (a.r + b.r)) / (a.r + b.r)


def _circle_intersections(a: Circle, b: Circle):
    """Crossing points of two circles: the one left of the line from a's
    center to b's, then the one right of it."""
    dx, dy = b.cx - a.cx, b.cy - a.cy
    d = math.hypot(dx, dy)
    x = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h = math.sqrt(max(0.0, a.r * a.r - x * x))
    ux, uy = dx / d, dy / d
    px, py = a.cx + x * ux, a.cy + x * uy
    return (px - h * uy, py + h * ux), (px + h * uy, py - h * ux)


def _tangency_point(a: Circle, b: Circle):
    """Touching point of two circles, external or internal, whichever
    tangency their center distance is closer to."""
    dx, dy = b.cx - a.cx, b.cy - a.cy
    d = math.hypot(dx, dy)
    if abs(d - (a.r + b.r)) <= abs(abs(a.r - b.r) - d):
        t = a.r / d  # external tangency: between the centers
    elif a.r >= b.r:
        t = a.r / d  # a contains b: past b's center
    else:
        t = -a.r / d  # b contains a: on the far side of a
    return (a.cx + t * dx, a.cy + t * dy)


@dataclass(frozen=True)
class Triangulation:
    """Apex-augmented graph in which every face is a triangle."""

    graph: EmbeddedGraph
    base_n: int
    apex_of_face: tuple
    boundary_face: int

    @property
    def boundary_vertices(self):
        return tuple(self.graph.face_tails(self.boundary_face))


@dataclass(frozen=True)
class Packing:
    """Circles for the base vertices plus the certified tangency residual."""

    circles: tuple
    residual: float
    iterations: int


def triangulate(g: EmbeddedGraph) -> Triangulation:
    """Join an apex vertex to every corner of every face.

    The boundary triangle is the lowest-numbered face incident to the apex
    of the outer face; its three circles anchor the layout.
    """
    n = g.n

    # the corner named by cycle dart d of face f sits at d's tail; it gets
    # a dart up to the apex n + f and one back down, numbered in face order
    up = [0] * len(g.dart_tail)
    dart_tail = list(g.dart_tail)
    dart_rev = list(g.dart_rev)
    for f, cycle in enumerate(g.faces):
        for d in cycle:
            up[d] = len(dart_tail)
            dart_tail += [g.dart_tail[d], n + f]
            dart_rev += [up[d] + 1, up[d]]

    # base vertex u: the corner (d, sigma(d)) belongs to the face of
    # sigma(d), so its apex dart follows d
    rotation = [
        [e for d in rot for e in (d, up[g.sigma_next(d)])] for rot in g.rotation
    ]
    # apex of face f: the down darts in reversed cycle order
    rotation += [[up[d] + 1 for d in reversed(cycle)] for cycle in g.faces]

    tg = EmbeddedGraph(rotation, dart_tail, dart_rev)

    outer_apex = n + g.outer_face
    boundary_face = min(
        tg.dart_face[d] for d in tg.rotation[outer_apex]
    )
    return Triangulation(
        graph=tg,
        base_n=n,
        apex_of_face=tuple(n + f for f in range(g.face_count)),
        boundary_face=boundary_face,
    )


def _relax_radii(tg: EmbeddedGraph, boundary, atol):
    """Angle-sum iteration; boundary radii stay 1.  Returns (radii, sweeps)."""
    n = tg.n
    radii = [1.0] * n
    interior = [v for v in range(n) if v not in boundary]
    flowers = [[tg.dart_head[d] for d in tg.rotation[v]] for v in range(n)]
    sin_target = {
        k: math.sin(math.pi / k) for k in {len(flowers[v]) for v in interior}
    }
    two_pi = 2.0 * math.pi
    asin = math.asin
    sin = math.sin
    sqrt = math.sqrt

    for sweep in range(1, MAX_SWEEPS + 1):
        worst = 0.0
        for v in interior:
            nbrs = flowers[v]
            k = len(nbrs)
            rv = radii[v]
            theta = 0.0
            prev = radii[nbrs[-1]]
            for w in nbrs:
                rw = radii[w]
                s = sqrt((prev / (rv + prev)) * (rw / (rv + rw)))
                theta += asin(s if s < 1.0 else 1.0)
                prev = rw
            theta *= 2.0
            err = theta - two_pi
            if err < 0.0:
                err = -err
            if err > worst:
                worst = err
            beta = sin(theta / (2.0 * k))
            delta = sin_target[k]
            rhat = rv * beta / (1.0 - beta)
            radii[v] = rhat * (1.0 - delta) / delta
        if worst < atol:
            return radii, sweep
    raise NoConvergence(
        f"angle-sum error above {atol:.3e} after {MAX_SWEEPS} sweeps"
    )


def _layout(tg: EmbeddedGraph, radii, boundary_face):
    """Place circle centers by walking triangles from the boundary face.

    Every non-boundary face is a clockwise triangle, so the third vertex
    goes on the right of the directed edge between two placed ones.
    """
    pos = [None] * tg.n
    t0, t1, t2 = tg.face_tails(boundary_face)
    pos[t0] = (0.0, 0.0)
    pos[t1] = (radii[t0] + radii[t1], 0.0)
    # boundary triangle counterclockwise in the plane (it is the outer face)
    pos[t2], _ = _circle_intersections(
        Circle(*pos[t0], radii[t0] + radii[t2]),
        Circle(*pos[t1], radii[t1] + radii[t2]),
    )

    processed = {boundary_face}
    queue = deque()
    for d in tg.faces[boundary_face]:
        queue.append(tg.dart_rev[d])
    while queue:
        d = queue.popleft()
        f = tg.dart_face[d]
        if f in processed:
            continue
        processed.add(f)
        cycle = tg.faces[f]
        tails = [tg.dart_tail[x] for x in cycle]
        missing = [i for i, v in enumerate(tails) if pos[v] is None]
        if missing:
            i = missing[0]
            # the dart from tails[i+1] to tails[i+2] has both ends placed
            a = tails[(i + 1) % 3]
            b = tails[(i + 2) % 3]
            c = tails[i]
            # c's center is where the circles of radius r_a + r_c around a
            # and r_b + r_c around b cross; clockwise triangle: right of a->b
            _, pos[c] = _circle_intersections(
                Circle(*pos[a], radii[a] + radii[c]),
                Circle(*pos[b], radii[b] + radii[c]),
            )
        for x in cycle:
            r = tg.dart_rev[x]
            if tg.dart_face[r] not in processed:
                queue.append(r)
    if any(p is None for p in pos):
        raise NoConvergence("layout left circles unplaced (disconnected input?)")
    return pos


def pack(g: EmbeddedGraph, tol: float = 1e-9) -> Packing:
    """Circle packing whose tangency graph equals the edges of ``g``.

    The input must be simple, connected, and embedded; face boundaries must
    be simple cycles (no cut vertices), otherwise the packing has hinge
    freedom and the iteration ends in NoConvergence.  Deterministic:
    identical inputs give bit-identical radii and centers.
    """
    if g.n < 3:
        raise TooSmall("packing needs at least 3 vertices")
    if len(g.connected_components()) != 1:
        raise Disconnected("packing needs a connected graph")

    tri = triangulate(g)
    tg = tri.graph
    boundary = set(tri.boundary_vertices)
    # layout amplifies angle-sum error, so iterate well past the target
    atol = max(tol * 1e-4, 1e-14)
    radii, sweeps = _relax_radii(tg, boundary, atol)
    pos = _layout(tg, radii, tri.boundary_face)

    circles = tuple(
        Circle(pos[v][0], pos[v][1], radii[v]) for v in range(tri.base_n)
    )
    residual = _tangency_residual(circles, g)
    overlap = _overlap_residual(circles, g)
    if residual > tol or overlap > tol:
        raise NoConvergence(
            f"residual {residual:.3e} / overlap {overlap:.3e} above tol {tol:.3e}"
        )
    return Packing(circles=circles, residual=residual, iterations=sweeps)


def _tangency_residual(circles, g):
    worst = 0.0
    for u, v in g.edges():
        gap = _tangency_gap(circles[u], circles[v])
        if gap > worst:
            worst = gap
    return worst


def _overlap_residual(circles, g):
    adjacent = set()
    for u, v in g.edges():
        adjacent.add((u, v) if u < v else (v, u))
    worst = 0.0
    n = len(circles)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in adjacent:
                continue
            a, b = circles[u], circles[v]
            pen = ((a.r + b.r) - math.hypot(a.cx - b.cx, a.cy - b.cy)) / (a.r + b.r)
            if pen > worst:
                worst = pen
    return worst


def packing_residual(p: Packing, g: EmbeddedGraph) -> float:
    """Max relative tangency violation over edges plus max relative overlap
    over non-edges; 0 for an exact packing."""
    return _tangency_residual(p.circles, g) + _overlap_residual(p.circles, g)
