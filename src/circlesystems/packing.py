"""Tangent-circle packing of embedded planar graphs.

The solver triangulates the input by placing one apex vertex inside every
face.  ``triangulate`` reads it off the input's darts into one record,
``Triangulation``, with no second graph built: triangle d is the corner
(tail d, head d, apex of d's face) of dart d, and the record holds the
corners of every triangle and the degree of every vertex.  The radii
come from Newton's method on the log-radii u: the angle sums at the
interior vertices must all be 2*pi, and their Jacobian in u is minus a
symmetric weighted Laplacian, the Hessian of the convex functional of
Bobenko and Springborn (Trans. AMS 356, 2004).  An apex touches base
vertices only, so each Newton step first eliminates the apexes of the faces
with at most 5 corners exactly (static condensation, a Schur complement),
runs one conjugate-gradient solve on the base unknowns and the apexes of
larger faces, and recovers the eliminated apexes by back-substitution.
Conjugate gradients are preconditioned by symmetric Gauss-Seidel, applied
through Eisenstat's trick at the cost of one product with the Laplacian per
iteration.  The solve is inexact: it stops once the residual of the
Laplacian system itself, not the preconditioned one, is within a forcing
term of the right-hand side; the forcing term shrinks with the angle-sum
error but never asks for more than the rounding floor can show.  A step
that does not lower the largest angle-sum error is halved until it
does.  Iteration stops once every angle-sum error is within the rounding
floor of its sum; the circles are then laid out by walking the triangles
from a fixed boundary triangle, and the packing is certified by its
tangency and overlap residuals.  Apex circles are discarded at the end; the
required tangencies between base circles survive.  The Newton system's
pattern is built once per packing, its weights numbered in the condensed
layout (``_newton_system``).

Normalization: the three boundary-triangle circles get radius 1 and centers
on an equilateral triangle of side 2, making output coordinates (and hence
golden files) reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import deque
from itertools import combinations
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .embedding import EmbeddedGraph
from .errors import Disconnected, DomainError, NoConvergence, TooSmall

PACK_TOL = 1e-9  # default certificate tolerance of pack and realize
# Newton directions (the corpus needs 6 to 8 to reach the rounding floor)
# and the largest change of one log-radius in one step; their product, 200,
# keeps every radius within e**200 of 1 and a product of three radii finite.
# The cap is loose enough that the line search, not the cap, sizes the
# early steps.
MAX_STEPS = 40
MAX_LOG_STEP = 5.0
# eta_max of the forcing term (Dembo, Eisenstat and Steihaug, SIAM J. Numer.
# Anal. 19, 1982): the loosest relative CG residual, asked of the early
# directions, where solving further buys no better step
CG_RTOL = 0.1


class Circle(NamedTuple):
    cx: float
    cy: float
    r: float


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that no residual can be compared with: NaN passes
    every ``residual > tol`` test, and an infinite or negative one makes
    the certificate meaningless."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and at least 0, got {tol!r}")


def _tangency(a: Circle, b: Circle, tol: float):
    """How two circles touch within ``tol`` relative to ``a.r + b.r``:
    "external", "internal", or None when they are not tangent."""
    ax, ay, ar = a
    bx, by, br = b
    d = math.hypot(ax - bx, ay - by)
    scale = ar + br
    if abs(d - scale) <= tol * scale:
        return "external"
    if abs(d - abs(ar - br)) <= tol * scale:
        return "internal"
    return None


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
    ax, ay, ar = a
    bx, by, br = b
    dx, dy = bx - ax, by - ay
    d = math.hypot(dx, dy)
    if abs(d - (ar + br)) <= abs(abs(ar - br) - d):
        t = ar / d  # external tangency: between the centers
    elif ar >= br:
        t = ar / d  # a contains b: past b's center
    else:
        t = -ar / d  # b contains a: on the far side of a
    return (ax + t * dx, ay + t * dy)


# relative pad of a circle's box: far above the few roundings between a
# point on the circle within tol and the box's edges
_BOX_MARGIN = 2.0 ** -20


def _circles_near(circles, tol: float):
    """``near(x, y)``: the ids of the circles that a point (x, y) may lie
    on within ``tol``, in no set order.  The list holds every circle with
    abs(hypot(x - cx, y - cy) - r) <= tol * r, and in general few others.

    Circles are bucketed by the binary exponent e of their radius
    (r < 2**e).  Each class has one dict grid whose cell side, about
    2**(e+1) * (1 + tol), is wider than any of its circles' boxes widened
    by ``tol``, so a circle sits in at most 2 x 2 cells and a point looks up
    one cell per class.  Floating-point rounding is monotone, so a point
    inside a box never lands in a cell outside the box's cells.  Circles
    that no grid holds (radius outside (2**-1000, 2**1000), center not
    finite, a box beyond float range) are returned for every point, and a
    point with a coordinate that is not finite gets every circle.
    """
    spill = []
    classes = {}  # e -> (cell side, {cell: circle ids})
    for ci, c in enumerate(circles):
        if not 2.0 ** -1000 < c.r < 2.0 ** 1000:
            spill.append(ci)
            continue
        e = math.frexp(c.r)[1]
        if e not in classes:
            side = (1.0 + tol) * (1.0 + 2.0 * _BOX_MARGIN) * math.ldexp(1.0, e + 1)
            classes[e] = (side, {})
        side, cells = classes[e]
        h = c.r * (1.0 + tol) * (1.0 + _BOX_MARGIN)
        try:
            i0, i1 = math.floor((c.cx - h) / side), math.floor((c.cx + h) / side)
            j0, j1 = math.floor((c.cy - h) / side), math.floor((c.cy + h) / side)
        except (OverflowError, ValueError):  # infinite or NaN
            spill.append(ci)
            continue
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                cells.setdefault((i, j), []).append(ci)
    grids = list(classes.values())
    everyone = range(len(circles))
    floor, isfinite = math.floor, math.isfinite

    def near(x, y):
        if not (isfinite(x) and isfinite(y)):
            return everyone
        found = list(spill)
        for side, cells in grids:
            try:
                ids = cells.get((floor(x / side), floor(y / side)))
            except OverflowError:  # beyond every cell of this class
                continue
            if ids:
                found += ids
        return found

    return near


class Triangulation(NamedTuple):
    """The apex triangulation of ``base``: an apex vertex, ``base.n + f``,
    in every face f, joined to each of its corners.  Triangle d is the
    corner of base dart d, ``corners[d]`` = (tail d, head d, apex of d's
    face).  ``degrees`` lists the degree of every vertex in the
    triangulation, base vertices first.  ``boundary_face`` is the triangle
    whose circles anchor the layout."""

    base: EmbeddedGraph
    boundary_face: int
    corners: list
    degrees: list


class Packing(NamedTuple):
    """Circles for the base vertices plus the certified tangency residual.

    ``iterations`` counts the Newton directions solved by the radius
    solve, including a last one that no halving could make lower the
    angle-sum error; the halvings themselves are not counted.
    """

    circles: tuple
    residual: float
    iterations: int


def triangulate(g: EmbeddedGraph) -> Triangulation:
    """Join an apex vertex to every corner of every face.

    The record is read off the darts of ``g``, with no second graph built:
    the corners of triangle d, and the degrees, 2 deg v for a base vertex
    (its edges and a spoke per corner) and the face length for an apex.
    The boundary triangle is the lowest-numbered dart of the outer face: it
    holds the outer face's apex, and its three circles anchor the layout.
    """
    return Triangulation(
        base=g,
        boundary_face=min(g.faces[g.outer_face]),
        corners=list(zip(g.dart_tail, g.dart_head, [g.n + f for f in g.dart_face])),
        degrees=[2 * len(rot) for rot in g.rotation] + [len(c) for c in g.faces],
    )


def _newton_system(tri: Triangulation):
    """The pattern of the Newton system, built once per packing.

    An apex touches base vertices only, so its row of L couples it to its
    face's corners alone and it can be eliminated exactly (a Schur
    complement).  Eliminating the apex of a d-corner face removes its d
    entries and couples every pair of its corners, which adds d(d-3)/2
    entries between corners that are not neighbours; so only the interior
    apexes of faces with at most 5 corners are eliminated, and the system
    never grows.

    The weights of L are numbered in the condensed layout: the edges
    between kept vertices in edge order (parallel copies share an id), the
    fill in the order the eliminated apexes make it, the edges from those
    apexes to their kept corners, and one spare id for every edge with a
    boundary end.  No triangle names a fill id, so fill weights stay 0.

    Returns (interior vertices; per triangle its corners (i, j, k) and the
    ids of ij, jk and ki; the spare id; the kept interior vertices, in the
    order of the condensed unknowns; the condensed edges as pairs of their
    positions, by id; per eliminated apex (apex, positions of its kept
    corners, ids of the edges to them, (id, corner s, corner t) per pair of
    corners)).
    """
    g, n, degree = tri.base, tri.base.n, tri.degrees
    tail = g.dart_tail
    boundary = set(tri.corners[tri.boundary_face])
    interior = [v for v in range(len(degree)) if v not in boundary]
    eliminated = [v for v in interior if v >= n and degree[v] <= 5]
    kept = [v for v in interior if v < n or degree[v] > 5]
    position = {v: i for i, v in enumerate(kept)}
    weight_id = {}
    pairs = []

    def couple(j, k):
        if (j, k) not in weight_id:
            weight_id[j, k] = weight_id[k, j] = len(pairs)
            pairs.append((position[j], position[k]))
        return weight_id[j, k]

    # the edges of the base graph, then the spokes in face order
    spokes = [(tail[d], n + f) for f, cycle in enumerate(g.faces) for d in cycle]
    for u, v in g.edges() + spokes:
        if u in position and v in position:
            couple(u, v)
    # an apex meets its face's corners in reversed cycle order; a corner
    # repeated around the face (a cut vertex) is coupled once
    corners = [list(dict.fromkeys(tail[d] for d in reversed(g.faces[a - n])
                                  if tail[d] in position))
               for a in eliminated]
    couplings = [[(couple(j, k), s, t)
                  for (s, j), (t, k) in combinations(enumerate(c), 2)]
                 for c in corners]
    spare = len(pairs)
    apexes = []
    for a, c, cp in zip(eliminated, corners, couplings):
        ids = range(spare, spare + len(c))
        spare += len(c)
        for j, e in zip(c, ids):
            weight_id[a, j] = weight_id[j, a] = e
        apexes.append((a, [position[j] for j in c], ids, cp))
    get = weight_id.get
    triangles = [(i, j, k, get((i, j), spare), get((j, k), spare), get((k, i), spare))
                 for i, j, k in tri.corners]
    return interior, triangles, spare, kept, pairs, apexes


def _linearize(radii, system):
    """Angle-sum errors and their Jacobian at ``radii``, on the pattern
    ``system`` of ``_newton_system``.

    The angle at corner i of the triangle of centers (i, j, k) is
    2 atan(h / r_i), where h = sqrt(r_i r_j r_k / (r_i + r_j + r_k)) is the
    triangle's inradius, and its derivative in u_j = log r_j is
    h / (r_i + r_j).  Returns the angle-sum errors theta - 2 pi (0 off the
    interior), their largest magnitude, and the diagonal and the edge
    weights of the Laplacian L = -d theta / d u, by weight id.
    """
    interior, triangles, spare, *_ = system
    n = len(radii)
    theta = [0.0] * n
    diag = [0.0] * n
    weight = [0.0] * (spare + 1)
    sqrt = math.sqrt
    atan = math.atan
    for i, j, k, eij, ejk, eki in triangles:
        ri, rj, rk = radii[i], radii[j], radii[k]
        h = sqrt(ri * rj * rk / (ri + rj + rk))
        theta[i] += atan(h / ri)
        theta[j] += atan(h / rj)
        theta[k] += atan(h / rk)
        wij = h / (ri + rj)
        wjk = h / (rj + rk)
        wki = h / (rk + ri)
        # every angle is scale invariant, so a row of L sums to 0
        diag[i] += wij + wki
        diag[j] += wij + wjk
        diag[k] += wjk + wki
        weight[eij] += wij
        weight[ejk] += wjk
        weight[eki] += wki
    err = [0.0] * n
    worst = 0.0
    for v in interior:
        e = 2.0 * theta[v] - 2.0 * math.pi
        err[v] = e
        if abs(e) > worst:
            worst = abs(e)
    return err, worst, diag, weight


def _sweep(edges, v):
    """One half-sweep: y = v, then y[b] += w y[a] for every (a, b, w) in
    ``edges``, in order.  Solves (I - E) y = v for E strictly triangular
    when every edge into a comes before every edge out of a."""
    y = v[:]
    for a, b, w in edges:
        y[b] += w * y[a]
    return y


def _conjugate_gradients(rhs, diag, edges, weight, max_iter, rtol):
    """Solve L x = rhs by symmetric Gauss-Seidel preconditioned conjugate
    gradients, through Eisenstat's trick (SIAM J. Sci. Stat. Comput. 2,
    1981).

    L has diagonal ``diag`` and entry -w at (a, b) and (b, a) for every
    edge (a, b) with weight w, in any orientation and order; entries where
    ``rhs`` is 0 and no edge reaches stay 0.  Scaled by D^-1/2, D the
    diagonal, L becomes I + Lo + Up with Lo strictly lower triangular and
    Up its transpose, and CG runs on (I + Lo)^-1 (I + Lo + Up) (I + Up)^-1,
    whose product with p is t + (I + Lo)^-1 (p - t), t = (I + Up)^-1 p:
    two half-sweeps (``_sweep``), the work of one product with L.  The
    edges are sorted once per call: by lower end for the sweeps with
    I + Lo, by higher end, descending, for those with I + Up.

    Stops once the residual of L x = rhs itself, D^1/2 (I + Lo) r for the
    preconditioned residual r, is at most ``rtol`` |rhs|; it is tested
    from the iteration at which |r| has shrunk by ``rtol`` on.
    """
    scale = [1.0 / math.sqrt(d) for d in diag]
    first = itemgetter(0)
    lower = sorted([(a, b, w * scale[a] * scale[b]) if a < b
                    else (b, a, w * scale[a] * scale[b])
                    for (a, b), w in zip(edges, weight)], key=first)
    upper = sorted([(b, a, w) for a, b, w in lower], key=first, reverse=True)
    x = [0.0] * len(rhs)  # D^1/2 x, updated by the t of each step
    res = _sweep(lower, list(map(mul, rhs, scale)))
    p = res[:]
    rr = sum(map(mul, res, res))
    shrunk = rtol * rtol * rr
    stop = rtol * rtol * sum(map(mul, rhs, rhs))
    for _ in range(max_iter):
        if rr <= shrunk:
            actual = res[:]
            for a, b, w in lower:
                actual[b] -= w * res[a]
            if sum(map(mul, diag, map(mul, actual, actual))) <= stop:
                break
        t = _sweep(upper, p)
        q = list(map(add, t, _sweep(lower, list(map(sub, p, t)))))
        alpha = rr / sum(map(mul, p, q))
        x = [xi + alpha * ti for xi, ti in zip(x, t)]
        res = [ri - alpha * qi for ri, qi in zip(res, q)]
        rr_next = sum(map(mul, res, res))
        beta = rr_next / rr
        rr = rr_next
        p = [ri + beta * pi for ri, pi in zip(res, p)]
    return list(map(mul, x, scale))


def _newton_direction(err, diag, weight, system, rtol):
    """Solve L delta = err through the condensed system.

    Each eliminated apex a, with diagonal d_a, right-hand side b_a and edge
    weights w_aj to its corners, subtracts w_aj w_ak / d_a from every entry
    (j, k) among its corners and adds w_aj b_a / d_a to the right-hand side
    at j.  Conjugate gradients solve for the kept unknowns, and each apex
    follows by back-substitution: delta_a = (b_a + sum_j w_aj delta_j) / d_a.
    Returns delta over all vertices, 0 on the boundary.
    """
    *_, kept, pairs, apexes = system
    rhs = [err[v] for v in kept]
    cdiag = [diag[v] for v in kept]
    cweight = weight[:len(pairs)]
    for a, corners, apex_edges, couplings in apexes:
        da, ba = diag[a], err[a]
        w = [weight[e] for e in apex_edges]
        for c, wj in zip(corners, w):
            rhs[c] += wj * ba / da
            cdiag[c] -= wj * wj / da
        for p, s, t in couplings:
            cweight[p] += w[s] * w[t] / da
    x = _conjugate_gradients(rhs, cdiag, pairs, cweight, len(kept), rtol)
    delta = [0.0] * len(err)
    for v, xv in zip(kept, x):
        delta[v] = xv
    for a, corners, apex_edges, _ in apexes:
        delta[a] = (err[a] + sum(
            weight[e] * x[c] for c, e in zip(corners, apex_edges)
        )) / diag[a]
    return delta


def _newton_radii(tri: Triangulation):
    """Radii whose angle sums are 2 pi at every interior vertex; the
    boundary radii stay 1.

    Newton's method on u = log r: each step solves L delta = theta - 2 pi
    and moves u by delta, scaled down so that no log-radius moves by more
    than ``MAX_LOG_STEP``.  One pattern (``_newton_system``) serves every
    step.  The solve eliminates the apexes of faces with at most 5 corners,
    runs conjugate gradients on the remaining unknowns and recovers the
    apexes by back-substitution (``_newton_direction``).

    - Floor stop: the iteration ends once every interior error
      |theta_v - 2 pi| is at most 2 deg(v) pi eps (eps the float epsilon),
      the rounding error of summing deg(v) arctangents, each below pi/2,
      and doubling the sum; below it an error is rounding, not a defect.
    - Backtracking: a step that does not lower the largest error is halved
      and tried again (Armijo).  The solve gives up, keeping the radii
      before the step, only when a halved step no longer changes any
      radius, or after ``MAX_STEPS`` directions.
    - Forcing terms: conjugate gradients stop at the relative residual
      eta = min(CG_RTOL, max(|err|, floor / (2 |err|))), |err| the largest
      error and floor the smallest bound above (Eisenstat and Walker,
      SIAM J. Sci. Comput. 17, 1996, with the guard of Kelley, Iterative
      Methods for Linear and Nonlinear Equations, 1995, section 6.3, that
      does not solve past what the floor can show).

    Returns (radii, Newton directions solved, largest angle-sum error).
    """
    degree = tri.degrees
    system = _newton_system(tri)
    eps = sys.float_info.epsilon
    floor = [(v, 2.0 * degree[v] * math.pi * eps) for v in system[0]]
    guard = 0.5 * min(b for _, b in floor)
    radii = [1.0] * len(degree)
    err, worst, diag, weight = _linearize(radii, system)
    steps = 0
    while steps < MAX_STEPS and any(abs(err[v]) > b for v, b in floor):
        steps += 1
        eta = min(CG_RTOL, max(worst, guard / worst))
        delta = _newton_direction(err, diag, weight, system, eta)
        scale = min(1.0, MAX_LOG_STEP / max(abs(x) for x in delta))
        while True:
            trial = [r * math.exp(scale * x) for r, x in zip(radii, delta)]
            if trial == radii:
                return radii, steps, worst
            state = _linearize(trial, system)
            if state[1] < worst:
                break
            scale *= 0.5
        radii = trial
        err, worst, diag, weight = state
    return radii, steps, worst


def _layout(tri: Triangulation, radii):
    """Place circle centers by walking triangles from the boundary triangle.

    Every other triangle is clockwise, so the third corner goes on the
    right of the directed side between two placed ones.  Across its sides
    (tail d, head d), (head d, apex) and (apex, tail d), triangle d meets
    the triangles of rev d, of the dart after d in its face, and of the
    reverse of the dart before d around its tail.
    """
    g, corners = tri.base, tri.corners
    pos = [None] * len(radii)
    t0, t1, t2 = corners[tri.boundary_face]
    pos[t0] = (0.0, 0.0)
    pos[t1] = (radii[t0] + radii[t1], 0.0)
    # boundary triangle counterclockwise in the plane (it is the outer face)
    pos[t2], _ = _circle_intersections(
        Circle(*pos[t0], radii[t0] + radii[t2]),
        Circle(*pos[t1], radii[t1] + radii[t2]),
    )

    def across(d):
        return g.dart_rev[d], g.next_in_face(d), g.dart_rev[g.sigma_prev(d)]

    processed = {tri.boundary_face}
    queue = deque(across(tri.boundary_face))
    while queue:
        d = queue.popleft()
        if d in processed:
            continue
        processed.add(d)
        tails = corners[d]
        missing = [i for i, v in enumerate(tails) if pos[v] is None]
        if missing:
            i = missing[0]
            # the side from a to b has both ends placed
            c, a, b = tails[i:] + tails[:i]
            if pos[a] == pos[b]:
                raise NoConvergence(f"layout puts circles {a} and {b} at one center")
            # c's center is where the circles of radius r_a + r_c around a
            # and r_b + r_c around b cross; clockwise triangle: right of a->b
            _, pos[c] = _circle_intersections(
                Circle(*pos[a], radii[a] + radii[c]),
                Circle(*pos[b], radii[b] + radii[c]),
            )
        queue.extend(e for e in across(d) if e not in processed)
    if any(p is None for p in pos):
        raise NoConvergence("layout left circles unplaced (disconnected input?)")
    return pos


def pack(g: EmbeddedGraph, tol: float = PACK_TOL) -> Packing:
    """Circle packing whose tangency graph equals the edges of ``g``.

    Newton's method on the log-radii runs until every angle-sum error is
    within the rounding floor of its sum, backtracking on steps that do
    not lower the largest error (``_newton_radii``); the circles are then
    laid out once and the result is certified: the tangency residual over
    the edges and the overlap residual over the non-edges, whose
    candidates a sweep over the circles' x-extents finds (``_residuals``),
    must both be at most ``tol``, otherwise NoConvergence names the Newton
    step count, the final angle-sum error and both residuals.  ``tol`` is
    used by this certificate only; one that is not finite or is negative
    raises DomainError.

    The input must be connected and embedded, with parallel edges allowed
    but no loop (DomainError); face boundaries must be simple cycles (no
    cut vertices), otherwise the packing has hinge freedom and ends in
    NoConvergence.  Deterministic: identical inputs
    give bit-identical radii and centers.
    """
    _check_tol(tol)
    if g.n < 3:
        raise TooSmall("packing needs at least 3 vertices")
    if g._component_count != 1:
        raise Disconnected("packing needs a connected graph")
    for u, v in g.edges():
        if u == v:
            raise DomainError(f"packing needs a graph without loops; "
                              f"vertex {u} has one")

    tri = triangulate(g)
    radii, steps, angle_error = _newton_radii(tri)
    diagnosis = f"after {steps} Newton steps, angle-sum error {angle_error:.3e}"
    try:
        pos = _layout(tri, radii)
    except NoConvergence as exc:
        raise NoConvergence(f"{diagnosis}: {exc}") from None

    circles = tuple(Circle(pos[v][0], pos[v][1], radii[v]) for v in range(g.n))
    residual, overlap = _residuals(circles, g)
    if residual > tol or overlap > tol:
        raise NoConvergence(
            f"{diagnosis}: tangency residual {residual:.3e}, "
            f"overlap {overlap:.3e}, tol {tol:.3e}"
        )
    return Packing(circles=circles, residual=residual, iterations=steps)


def _residuals(circles, g):
    """(tangency, overlap) from the signed relative gap
    s = (d - (r_a + r_b)) / (r_a + r_b) of two circles at center distance
    d: the largest |s| over the edges of ``g``, and the largest -s, the
    deepest overlap, over its non-edges.  Both are infinite when a center
    is not finite or a radius is not a finite positive number.

    The non-edges are found by a sweep ("sweep and prune": Cohen, Lin,
    Manocha and Ponamgi, I-COLLIDE, 1995): with the circles sorted by the
    left edge of their x-extent, padded by ``_BOX_MARGIN``, each circle is
    paired with the later ones whose left edge is not past its own right
    edge.  Rounding is monotone, so a pair whose padded extents are apart
    is apart in x by more than r_a + r_b, its gap is positive and it cannot
    raise the overlap: the result equals the scan over all pairs.
    """
    isfinite = math.isfinite
    for cx, cy, r in circles:
        if not (isfinite(cx) and isfinite(cy) and 0.0 < r < math.inf):
            return math.inf, math.inf

    def gap(a, b):
        ax, ay, ar = a
        bx, by, br = b
        d = math.hypot(ax - bx, ay - by)
        return (d - (ar + br)) / (ar + br)

    adjacent = set()
    tangency = overlap = 0.0
    for u, v in g.edges():
        adjacent.add((u, v) if u < v else (v, u))
        s = abs(gap(circles[u], circles[v]))
        if s > tangency:
            tangency = s
    pad = 1.0 + _BOX_MARGIN
    spans = sorted((cx - r * pad, cx + r * pad, u)
                   for u, (cx, _, r) in enumerate(circles))
    lefts = [left for left, _, _ in spans]
    for i, (_, right, u) in enumerate(spans):
        a = circles[u]
        for _, _, v in spans[i + 1:bisect_right(lefts, right, i + 1)]:
            if ((u, v) if u < v else (v, u)) not in adjacent:
                s = -gap(a, circles[v])
                if s > overlap:
                    overlap = s
    return tangency, overlap


def packing_residual(p: Packing, g: EmbeddedGraph) -> float:
    """Max relative tangency violation over edges plus max relative overlap
    over non-edges; 0 for an exact packing."""
    tangency, overlap = _residuals(p.circles, g)
    return tangency + overlap
