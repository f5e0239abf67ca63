"""Shared builders and brute-force oracles for the test suite."""

import itertools
import math
from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
from operator import add, mul, sub, truediv

import pytest

from circlesystems.embedding import EmbeddedGraph, build_embedding, medial
from circlesystems.equivalence import RealizationClass
from circlesystems.generators import (
    canonical_octahedron_realization,
    flower,
    icosahedron,
    octahedron,
    upper_bound_family,
)
from circlesystems.errors import InvalidConfig
from circlesystems.geometry import (
    CONFIG_TOL, EXTERIOR, INTERIOR, inner_mate_radius, outer_mate_radius,
)
from circlesystems.packing import Circle, triangulate
from circlesystems import isomorphism, realization
from circlesystems.realization import (
    Arc, RealPoint, Realization, _angle_gap, extract_with_arcs, realize,
)


def adjacency_sets(g):
    """The neighbours of each vertex of ``g`` as a set."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_force_connectivity(g, cap=3):
    """Exhaustive vertex-cut search; the oracle connectivity_level must match.

    Removes every vertex subset of size < k and checks connectedness; only
    usable for small graphs.
    """
    n = g.n
    adj = adjacency_sets(g)

    def connected_without(removed):
        remaining = [v for v in range(n) if v not in removed]
        if not remaining:
            return True
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    if not connected_without(set()):
        return 0
    level = 0
    for k in range(1, cap + 1):
        if n <= k:
            break
        ok = all(
            connected_without(set(cut))
            for cut in itertools.combinations(range(n), k - 1)
        )
        if not ok:
            break
        level = k
    return level


def apex_embedding(g):
    """The triangulation ``packing`` reads off the darts of ``g``, built as
    an embedding dart by dart: the oracle for its triangles, their
    neighbours, its edges and its degrees.

    The corner named by cycle dart d of face f sits at d's tail; it gets a
    dart up to the apex n + f and one back down, numbered in face order.
    A base vertex lists the up dart of the corner (d, sigma(d)) just after
    d, and the apex of face f lists its down darts in reversed cycle order.
    """
    n = g.n
    up = [0] * len(g.dart_tail)
    dart_tail = list(g.dart_tail)
    dart_rev = list(g.dart_rev)
    for f, cycle in enumerate(g.faces):
        for d in cycle:
            up[d] = len(dart_tail)
            dart_tail += [g.dart_tail[d], n + f]
            dart_rev += [up[d] + 1, up[d]]
    rotation = [
        [e for d in rot for e in (d, up[g.sigma_next(d)])] for rot in g.rotation
    ]
    rotation += [[up[d] + 1 for d in reversed(cycle)] for cycle in g.faces]
    return EmbeddedGraph(rotation, dart_tail, dart_rev)


def gauss_seidel_radii(g, atol=1e-14, max_sweeps=10**5):
    """Base-vertex radii of the packing of ``g`` by the uniform-neighbour
    angle-sum sweep of Collins and Stephenson (Comput. Geom. 25, 2003).

    The oracle the Newton solver in ``pack`` must agree with: it shares the
    triangulation and the unit boundary radii, and sweeps the interior
    vertices until every angle sum is within ``atol`` of 2 pi.
    """
    tri = triangulate(g)
    tg = apex_embedding(g)
    boundary = set(tri.corners[tri.boundary_face])
    radii = [1.0] * tg.n
    interior = [v for v in range(tg.n) if v not in boundary]
    flowers = [[tg.dart_head[d] for d in tg.rotation[v]] for v in range(tg.n)]
    for _ in range(max_sweeps):
        worst = 0.0
        for v in interior:
            nbrs = flowers[v]
            k = len(nbrs)
            rv = radii[v]
            theta = 0.0
            for prev, w in zip(nbrs[-1:] + nbrs[:-1], nbrs):
                s = math.sqrt(radii[prev] / (rv + radii[prev])
                              * radii[w] / (rv + radii[w]))
                theta += 2.0 * math.asin(min(s, 1.0))
            worst = max(worst, abs(theta - 2.0 * math.pi))
            # the radius for which k neighbours of the current mean size
            # close up exactly
            beta = math.sin(theta / (2.0 * k))
            delta = math.sin(math.pi / k)
            radii[v] = rv * beta / (1.0 - beta) * (1.0 - delta) / delta
        if worst < atol:
            return radii[:tri.base.n]
    raise AssertionError(f"oracle sweep above {atol} after {max_sweeps} sweeps")


def jacobi_conjugate_gradients(rhs, diag, edges, weight, max_iter, rtol):
    """Solve L x = rhs by Jacobi-preconditioned conjugate gradients: the
    oracle for ``packing._conjugate_gradients``, with the same arguments.

    L has diagonal ``diag`` and entry -w at (a, b) and (b, a) for every
    edge (a, b) with weight w.  Stops once the residual has shrunk by
    ``rtol``.
    """
    x = [0.0] * len(rhs)
    res = rhs[:]
    z = list(map(truediv, res, diag))
    p = z[:]
    rz = sum(map(mul, res, z))
    stop = rtol * rtol * sum(map(mul, res, res))
    for _ in range(max_iter):
        if sum(map(mul, res, res)) <= stop:
            break
        q = list(map(mul, diag, p))
        for (a, b), w in zip(edges, weight):
            q[a] -= w * p[b]
            q[b] -= w * p[a]
        alpha = rz / sum(map(mul, p, q))
        x = list(map(add, x, map(mul, itertools.repeat(alpha), p)))
        res = list(map(sub, res, map(mul, itertools.repeat(alpha), q)))
        z = list(map(truediv, res, diag))
        rz_next = sum(map(mul, res, z))
        beta = rz_next / rz
        rz = rz_next
        p = list(map(add, z, map(mul, itertools.repeat(beta), p)))
    return x


def laplacian_product(diag, edges, weight, x):
    """L x for the L of ``jacobi_conjugate_gradients``."""
    y = list(map(mul, diag, x))
    for (a, b), w in zip(edges, weight):
        y[a] -= w * x[b]
        y[b] -= w * x[a]
    return y


def gadget_search(phi, grid):
    """(feasible_found, tested, witness) of the branch-and-bound over
    z1 < ... < z8 that ``geometry.gadget_arc_infeasibility`` counts in
    closed form: the oracle for that function, with the full loop nest
    under z6 that its cut ``z6 + 1 >= z7_cap`` never enters."""
    G = grid
    tested = 0
    for z1 in range(0, G - 6):
        for z2 in range(z1 + 1, G - 5):
            d1 = z2 - z1
            z5_hi = min(z2 + d1 - 1, G - 3)
            for z5 in range(z2 + 3, z5_hi + 1):
                tested += 1
                d2 = z5 - z2
                z6_lo = z5 + d2 + 1
                if z6_lo > G - 2:
                    continue
                # the largest reachable 2*z4 - z3 given z2 < z3 < z4 < z5
                z7_cap = 2 * (z5 - 1) - (z2 + 1)
                for z6 in range(z6_lo, G - 1):
                    tested += 1
                    if z6 + 1 >= z7_cap:
                        continue  # no z7 can satisfy (c) for any z3, z4
                    for z3 in range(z2 + 1, z5 - 1):
                        for z4 in range(z3 + 1, z5):
                            tested += 1
                            cap = 2 * z4 - z3
                            for z7 in range(z6 + 1, min(cap, G)):
                                tested += 1
                                z8_lo = 2 * z7 - z4 + 1
                                for z8 in range(max(z8_lo, z7 + 1), G + 1):
                                    tested += 1
                                    witness = (z1, z2, z3, z4, z5, z6, z7, z8)
                                    scale = phi / G
                                    return True, tested, tuple(
                                        z * scale for z in witness)
    return False, tested, None


def gadget_double_sum(grid):
    """The count of ``gadget_search`` as a sum over z1 and z2 of the z5
    nodes and of the always-cut z6 nodes, each range counted in closed
    form: the oracle for ``geometry.gadget_arc_infeasibility``'s sum over
    z2 alone, Theta(grid**2) steps."""
    G = grid
    tested = 0
    for z1 in range(0, G - 6):
        for z2 in range(z1 + 1, G - 5):
            # every z5 in [lo, hi] is enumerated, hi the most (a) allows
            lo, hi = z2 + 3, min(2 * z2 - z1 - 1, G - 3)
            if hi < lo:
                continue
            tested += hi - lo + 1
            # each z6 in [2*z5 - z2 + 1, G - 2] is enumerated and cut at
            # once, an arithmetic series over the z5 up to top
            top = min(hi, (G - 3 + z2) // 2)
            if top >= lo:
                tested += (top - lo + 1) * (G - 2 + z2 - lo - top)
    return tested


def bisected_symmetric_pair_radius(span):
    """Radius of the equal-size pair inside the unit circle touching it at
    two points ``span`` apart, found by bisecting on ``inner_mate_radius``:
    the oracle for ``geometry.symmetric_pair_radius``'s closed form."""
    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inner_mate_radius(1.0, mid, span) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_inner_configuration(r1, r2, phi):
    """Circles (C1, C2, C) realizing the interior mate formula: C2 and C,
    of radius ``inner_mate_radius(r1, r2, phi)``, touch C1 from inside at
    angles 0 and ``phi``, so C must touch C2."""
    r = inner_mate_radius(r1, r2, phi)
    c1 = Circle(0.0, 0.0, r1)
    c2 = Circle(r1 - r2, 0.0, r2)
    c = Circle((r1 - r) * math.cos(phi), (r1 - r) * math.sin(phi), r)
    return c1, c2, c


def build_outer_configuration(r1, r2, phi):
    """Circles (C1, C2, C) realizing the exterior mate formula: C2 and C,
    of radius ``outer_mate_radius(r1, r2, phi)``, touch C1 from outside at
    angles 0 and ``phi``, so C must touch C2."""
    r = outer_mate_radius(r1, r2, phi)
    c1 = Circle(0.0, 0.0, r1)
    c2 = Circle(r1 + r2, 0.0, r2)
    c = Circle((r1 + r) * math.cos(phi), (r1 + r) * math.sin(phi), r)
    return c1, c2, c


def arc_pair_check(cfg):
    """The arc-pair validity check on four ``Circle`` records built from
    ``cfg``: the oracle for ``nested_arc_inequality``'s check on plain
    numbers.  Raises InvalidConfig with the same message, in the same order
    of conditions, or returns None."""
    if cfg.side not in (INTERIOR, EXTERIOR):
        raise InvalidConfig(f"unknown side {cfg.side!r}")
    if not (cfg.alpha < cfg.alpha_p < cfg.beta_p < cfg.beta):
        raise InvalidConfig("touch angles out of order")
    if not (cfg.beta - cfg.alpha < math.pi):
        raise InvalidConfig("total span must stay below pi")
    mate = inner_mate_radius if cfg.side == INTERIOR else outer_mate_radius
    for rho_a, rho_b, span in (
        (cfg.rho1, cfg.rho2, cfg.beta - cfg.alpha),
        (cfg.rho1_p, cfg.rho2_p, cfg.beta_p - cfg.alpha_p),
    ):
        expect = mate(cfg.base_radius, rho_a, span)
        if not 0.0 < rho_b < math.inf or (
                abs(expect - rho_b) > CONFIG_TOL * max(1.0, rho_b)):
            raise InvalidConfig(
                f"pair radii {rho_a}, {rho_b} are not mutually tangent"
            )
    sign = -1.0 if cfg.side == INTERIOR else 1.0

    def on_base(angle, rho):
        d = cfg.base_radius + sign * rho
        return Circle(d * math.cos(angle), d * math.sin(angle), rho)

    c1, c2 = on_base(cfg.alpha, cfg.rho1), on_base(cfg.beta, cfg.rho2)
    c1p, c2p = on_base(cfg.alpha_p, cfg.rho1_p), on_base(cfg.beta_p, cfg.rho2_p)
    for a, b in ((c1, c1p), (c1, c2p), (c2, c1p), (c2, c2p)):
        d = math.hypot(a.cx - b.cx, a.cy - b.cy)
        if d <= (a.r + b.r) * (1.0 + CONFIG_TOL):
            raise InvalidConfig("the two pairs cross or touch")


def tangency_residual(a, b):
    """Relative deviation from external tangency of two circles."""
    d = math.hypot(a.cx - b.cx, a.cy - b.cy)
    return abs(d - (a.r + b.r)) / (a.r + b.r)


def in_degree(d, node):
    """Edges of the oriented dual ``d`` into ``node``."""
    return sum(1 for _, h in d.edges if h == node)


def out_degree(d, node):
    """Edges of the oriented dual ``d`` out of ``node``."""
    return sum(1 for t, _ in d.edges if t == node)


def out_degree_counts(d):
    """How many nodes of the oriented dual ``d``, the outer face left out,
    have each out-degree."""
    return Counter(out_degree(d, node) for node in d.nodes)


def scan_hits(circles, x, y, tol):
    """Ids of the circles that (x, y) lies on within ``tol``, ascending, by
    testing every circle: the oracle for the sweep of
    ``packing._points_on_circles``."""
    return [ci for ci, c in enumerate(circles)
            if abs(math.hypot(x - c.cx, y - c.cy) - c.r) <= tol * c.r]


def all_pairs_residuals(circles, g):
    """``packing._residuals`` for finite circles by a scan over every pair:
    the largest |s| over the edges of ``g`` and the largest -s over its
    non-edges, s the signed relative gap.  The oracle for the sweep."""

    def gap(a, b):
        d = math.hypot(a.cx - b.cx, a.cy - b.cy)
        return (d - (a.r + b.r)) / (a.r + b.r)

    adjacent = set()
    tangency = overlap = 0.0
    for u, v in g.edges():
        adjacent.add((u, v) if u < v else (v, u))
        tangency = max(tangency, abs(gap(circles[u], circles[v])))
    for u, a in enumerate(circles):
        for v in range(u + 1, len(circles)):
            if (u, v) not in adjacent:
                overlap = max(overlap, -gap(a, circles[v]))
    return tangency, overlap


def scan_arc_ends(order, arc, tol):
    """``realization._arc_ends`` by a linear scan of the arc's circle: at
    each end the point nearest to the end angle, the first winning ties;
    None when an end is farther than ``tol`` from every point."""
    pairs = order[arc.circle]
    if not pairs:
        return None
    ends = []
    for angle in (arc.from_angle, arc.to_angle):
        a, pid = min(pairs, key=lambda e: _angle_gap(e[0], angle))
        if _angle_gap(a, angle) > tol:
            return None
        ends.append(pid)
    return tuple(ends)


def scan_verify(monkeypatch, r, g=None, tol=1e-8):
    """``verify_realization`` with every point tested against every circle
    and every arc end matched by ``scan_arc_ends``: the report, or the type
    and text of the error it raised."""
    with monkeypatch.context() as m:
        m.setattr(realization, "_points_on_circles",
                  lambda circles, points, tol: [scan_hits(circles, p.x, p.y, tol)
                                                for p in points])
        m.setattr(realization, "_arc_ends", scan_arc_ends)
        return verify_outcome(r, g, tol)


def verify_outcome(r, g=None, tol=1e-8):
    """The violations ``verify_realization`` reports, or the type and text
    of the error it raises."""
    try:
        return realization.verify_realization(r, g, tol).violations
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc).__name__, str(exc)


def subdivided_rows(g, k):
    """Neighbour lists of ``g`` with every edge replaced by a path of k
    vertices, numbered from ``g.n`` on edge by edge from the tail of the
    edge's lower dart; the rows ``subdivide_edges`` must give."""
    paths = [[g.dart_tail[d]] + [g.n + eid * k + j for j in range(k)]
             + [g.dart_head[d]] for eid, (d, _) in enumerate(g.edge_darts)]
    rows = []
    for rot in g.rotation:
        row = []
        for d in rot:
            eid = g.edge_of_dart[d]
            lower = d == g.edge_darts[eid][0]
            row.append(paths[eid][1] if lower else paths[eid][-2])
        rows.append(row)
    for path in paths:
        for j in range(k):
            rows.append([path[j], path[j + 2]])
    return rows


def _subst(row, old, new):
    return [new if w == old else w for w in row]


def joined_octahedra():
    """Two octahedra sharing a single degree-4 vertex (an explicit cut)."""
    base = octahedron().to_neighbor_lists()
    lists = [row[:] for row in base]
    # subdivision vertex 12 absorbs one edge of each copy
    lists[0] = _subst(lists[0], 1, 12)
    lists[1] = _subst(lists[1], 0, 12)
    for v in range(6):
        lists.append([w + 6 for w in base[v]])
    lists[6] = _subst(lists[6], 7, 12)
    lists[7] = _subst(lists[7], 6, 12)
    lists.append([0, 1, 6, 7])
    return build_embedding(lists)


def pinched_octahedra():
    """Simple biconnected 4-regular plane graph whose gray-face graph has a
    double edge: two octahedron blobs meeting at two junction vertices.

    The outer face is chosen so that the two pinch faces come out gray.
    """
    base = octahedron().to_neighbor_lists()
    lists = [row[:] for row in base]
    lists[3] = _subst(_subst(lists[3], 4, 12), 5, 13)
    lists[4] = _subst(lists[4], 3, 12)
    lists[5] = _subst(lists[5], 3, 13)
    for v in range(6):
        lists.append([w + 6 for w in base[v]])
    lists[6] = _subst(_subst(lists[6], 7, 12), 8, 13)
    lists[7] = _subst(lists[7], 6, 12)
    lists[8] = _subst(lists[8], 6, 13)
    lists.append([3, 7, 6, 4])
    lists.append([3, 5, 6, 8])
    g = build_embedding(lists)
    pinch = [
        f for f in range(g.face_count) if {12, 13} <= set(g.face_tails(f))
    ]
    neighbor_faces = {
        g.dart_face[g.dart_rev[d]] for d in g.faces[pinch[0]]
    }
    return g.with_outer_face(sorted(neighbor_faces)[0])


def relabel_graph(g, rng):
    """The same plane graph with its vertex ids permuted and each rotation
    list started at a random neighbour."""
    lists = g.to_neighbor_lists()
    perm = list(range(len(lists)))
    rng.shuffle(perm)
    new = [None] * len(lists)
    for v, row in enumerate(lists):
        k = rng.randrange(len(row))
        new[perm[v]] = [perm[w] for w in row[k:] + row[:k]]
    return build_embedding(new)


def relabel_realization(r, rng):
    """The same system of circles with circles, points and arcs listed in a
    random order and every circle reference renumbered to match."""
    pc, pp, pa = (list(range(len(xs))) for xs in (r.circles, r.points, r.arcs))
    for perm in (pc, pp, pa):
        rng.shuffle(perm)
    circles, points, arcs = [None] * len(pc), [None] * len(pp), [None] * len(pa)
    for i, c in enumerate(r.circles):
        circles[pc[i]] = c
    for i, q in enumerate(r.points):
        points[pp[i]] = RealPoint(q.x, q.y, (pc[q.on[0]], pc[q.on[1]]), q.kind)
    for i, a in enumerate(r.arcs):
        arcs[pa[i]] = Arc(pc[a.circle], a.from_angle, a.to_angle, a.edge)
    return Realization(circles, points, arcs)


@pytest.fixture
def octa():
    return octahedron()


def frontier_isomorphism(nodes1, edges1, nodes2, edges2, forced=()):
    """``isomorphism.digraph_isomorphism`` as it was before it computed
    its search order once: the frontier of unmapped nodes with a mapped
    neighbour is a lazy heap, updated on every assign and unassign, and the
    next node is its least valid entry.  The oracle that the fixed order
    must return the same dict as, or None with."""
    if len(nodes1) != len(nodes2) or len(edges1) != len(edges2):
        return None
    if (list(nodes1) == list(nodes2) and all(a == b for a, b in forced)
            and Counter(edges1) == Counter(edges2)
            and set(nodes1).issuperset(
                itertools.chain(itertools.chain.from_iterable(edges1),
                                (a for a, _ in forced)))):
        return {v: v for v in nodes1}
    index1, out1, in1, sig1 = isomorphism._adjacency(nodes1, edges1)
    index2, out2, in2, sig2 = isomorphism._adjacency(nodes2, edges2)
    if Counter(sig1) != Counter(sig2):
        return None
    n = len(nodes1)
    same_sig = defaultdict(list)
    for x in range(n):
        same_sig[sig2[x]].append(x)
    rank = [len(same_sig[sig1[v]]) for v in range(n)]
    starts = sorted(range(n), key=lambda v: (rank[v], v))
    nbrs1 = [sorted((set(out1[v]) | set(in1[v])) - {v}) for v in range(n)]
    mapping, inverse = [-1] * n, [-1] * n
    mapped_nbrs = [0] * n
    # the frontier, unmapped nodes with a mapped neighbour, as a lazy heap
    frontier = []  # (-mapped_nbrs[v], rank[v], v), stale entries included

    def consistent(v, x):
        # equal signatures also match the loops, which the checks below skip
        if sig1[v] != sig2[x] or inverse[x] != -1:
            return False
        for a, b in ((out1[v], out2[x]), (in1[v], in2[x])):
            if any(mapping[w] != -1 and b.get(mapping[w], 0) != m
                   for w, m in a.items()):
                return False
            if any(inverse[y] != -1 and a.get(inverse[y], 0) != m
                   for y, m in b.items()):
                return False
        return True

    def assign(v, x):
        mapping[v], inverse[x] = x, v
        for w in nbrs1[v]:
            mapped_nbrs[w] += 1
            if mapping[w] == -1:
                heappush(frontier, (-mapped_nbrs[w], rank[w], w))

    def unassign(v):
        inverse[mapping[v]], mapping[v] = -1, -1
        for w in nbrs1[v]:
            mapped_nbrs[w] -= 1
            if mapping[w] == -1 and mapped_nbrs[w]:
                heappush(frontier, (-mapped_nbrs[w], rank[w], w))
        if mapped_nbrs[v]:
            heappush(frontier, (-mapped_nbrs[v], rank[v], v))

    def pick():
        """The next node to map and the nodes it may map to: the frontier
        node with the most mapped neighbours, then the least rank, then the
        least index."""
        if len(frontier) > 4 * n + 64:  # drop the stale entries
            frontier[:] = [(-mapped_nbrs[v], rank[v], v) for v in range(n)
                           if mapping[v] == -1 and mapped_nbrs[v]]
            heapify(frontier)
        while frontier:
            count, _, v = frontier[0]
            if mapping[v] == -1 and mapped_nbrs[v] == -count:
                break
            heappop(frontier)
        else:  # first node of a component
            v = next(v for v in starts if mapping[v] == -1)
            return v, same_sig[sig1[v]]
        w = next(w for w in nbrs1[v] if mapping[w] != -1)
        return v, in2[mapping[w]] if w in out1[v] else out2[mapping[w]]

    def dfs():
        """Extend the mapping to every node, backtracking on dead ends."""
        stack = []  # (node, its remaining candidates) per search level
        left = mapping.count(-1)
        while left:
            v, candidates = pick()
            candidates = iter(candidates)
            while True:
                x = next((x for x in candidates if consistent(v, x)), None)
                if x is not None:
                    break
                if not stack:
                    return False
                v, candidates = stack.pop()
                unassign(v)
                left += 1
            assign(v, x)
            left -= 1
            stack.append((v, candidates))
        return True

    for a, b in forced:
        v, x = index1[a], index2[b]
        if mapping[v] != x:
            if mapping[v] != -1 or not consistent(v, x):
                return None
            assign(v, x)

    if not dfs():
        return None
    return {nodes1[v]: nodes2[x] for v, x in enumerate(mapping)}


@pytest.fixture
def searched(monkeypatch):
    """The node count of each graph the isomorphism search reads while the
    test runs, two per search; empty while the identity check answers."""
    counts = []
    adjacency = isomorphism._adjacency

    def recording(nodes, edges):
        counts.append(len(nodes))
        return adjacency(nodes, edges)

    monkeypatch.setattr(isomorphism, "_adjacency", recording)
    return counts


def _realized_icosahedron_medial(depth):
    g = icosahedron()
    for _ in range(depth):
        g = medial(g)
    return g, realize(g)


def _canonical_octahedron(kind):
    r = canonical_octahedron_realization(kind)
    return extract_with_arcs(r), r


# (name, maker of (graph, realization)): the systems on which the verdicts
# read graphs and duals off arc ends known by construction or matched once
VERDICT_SYSTEMS = (
    [(f"realize-icosahedron-medial-n{30 * 2 ** (d - 1)}",
      lambda d=d: _realized_icosahedron_medial(d)) for d in range(1, 5)]
    + [(f"flower{c}", lambda c=c: flower(c)) for c in range(3, 9)]
    + [(f"upper-bound-family{c}", lambda c=c: upper_bound_family(c))
       for c in (4, 8, 16, 32, 80)]
    + [(k.value, lambda k=k: _canonical_octahedron(k)) for k in RealizationClass]
)
