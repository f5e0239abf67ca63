"""Planar graphs stored as combinatorial rotation systems.

Every undirected edge contributes two darts paired by a fixed-point-free
reversal involution; every vertex owns the counterclockwise cyclic order of
its outgoing darts.  Faces are traced with ``next = successor(reverse(d))``,
which places each face on the right-hand side of its darts.  The embedding
supplied by the caller is trusted and then validated through the Euler
formula per connected component; no planarity test for abstract graphs is
performed here.  Connectivity up to 3 is read off the vertex–face
incidences of the embedding (see :func:`connectivity_level`).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .errors import Disconnected, MalformedRotation, NonPlanarEmbedding


def _check_size(name, value):
    """Refuse a size ``value`` that is not an int, or is a bool, naming
    the argument ``name``: a float or a bool would reach ``range`` or list
    arithmetic, which fail with a bare TypeError or take True for 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class EmbeddedGraph:
    """Immutable planar embedding with traced faces.

    Construct through :func:`build_embedding` (neighbor lists) or the
    dart-level constructor used by the structural transformations below.
    """

    __slots__ = (
        "n",
        "rotation",
        "dart_tail",
        "dart_head",
        "dart_rev",
        "dart_pos",
        "faces",
        "dart_face",
        "outer_face",
        "edge_of_dart",
        "edge_darts",
        "_component_count",
    )

    def __init__(self, rotation, dart_tail, dart_rev, outer_face=None):
        m = len(dart_tail)
        if len(dart_rev) != m:
            raise MalformedRotation("reversal involution size mismatch")
        for d, r in enumerate(dart_rev):
            if r == d or not (0 <= r < m) or dart_rev[r] != d:
                raise MalformedRotation("reversal is not a fixed-point-free involution")
        if not rotation:
            raise MalformedRotation("graph has no vertices")
        self.n = len(rotation)
        self.rotation = [list(r) for r in rotation]
        self.dart_tail = list(dart_tail)
        self.dart_rev = list(dart_rev)
        self.dart_head = [dart_tail[r] for r in dart_rev]
        pos = self.dart_pos = [-1] * m
        succ = [0] * m  # the next dart around its tail, sigma_next
        for v, rot in enumerate(self.rotation):
            if not rot:
                raise MalformedRotation(f"vertex {v} has no incident darts")
            prev = rot[-1]
            for i, d in enumerate(rot):
                if not 0 <= d < m or pos[d] != -1 or dart_tail[d] != v:
                    raise MalformedRotation("rotation lists do not partition the darts")
                pos[d] = i
                succ[prev] = d
                prev = d
        if -1 in pos:
            raise MalformedRotation("some darts missing from the rotation lists")

        self.faces, self.dart_face = _trace_faces([succ[r] for r in self.dart_rev])
        self._check_euler()

        self.edge_darts = [(d, r) for d, r in enumerate(self.dart_rev) if d < r]
        self.edge_of_dart = [0] * m
        for e, (d, r) in enumerate(self.edge_darts):
            self.edge_of_dart[d] = self.edge_of_dart[r] = e

        if outer_face is None:  # the longest face, the first of them on a tie
            lengths = [len(cycle) for cycle in self.faces]
            outer_face = lengths.index(max(lengths))
        if not 0 <= outer_face < len(self.faces):
            raise MalformedRotation(f"outer face id {outer_face} out of range")
        self.outer_face = outer_face

    # -- derived quantities ------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edge_darts)

    @property
    def face_count(self):
        return len(self.faces)

    def degree(self, v):
        return len(self.rotation[v])

    def sigma_next(self, d):
        rot = self.rotation[self.dart_tail[d]]
        return rot[(self.dart_pos[d] + 1) % len(rot)]

    def sigma_prev(self, d):
        rot = self.rotation[self.dart_tail[d]]
        return rot[(self.dart_pos[d] - 1) % len(rot)]

    def next_in_face(self, d):
        return self.sigma_next(self.dart_rev[d])

    def face_tails(self, f):
        return [self.dart_tail[d] for d in self.faces[f]]

    def edges(self):
        return [(self.dart_tail[d], self.dart_head[d]) for d, _ in self.edge_darts]

    def to_neighbor_lists(self):
        return [[self.dart_head[d] for d in rot] for rot in self.rotation]

    def is_simple(self):
        seen = set()
        for u, v in self.edges():
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_regular(self, k):
        return all(len(rot) == k for rot in self.rotation)

    def with_outer_face(self, outer_face):
        return EmbeddedGraph(self.rotation, self.dart_tail, self.dart_rev, outer_face)

    def connected_components(self):
        comp = [-1] * self.n
        comps = []
        for s in range(self.n):
            if comp[s] != -1:
                continue
            cid = len(comps)
            members = [s]
            comp[s] = cid
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for d in self.rotation[v]:
                    w = self.dart_head[d]
                    if comp[w] == -1:
                        comp[w] = cid
                        members.append(w)
                        queue.append(w)
            comps.append(members)
        return comps

    def __eq__(self, other):
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.to_neighbor_lists() == other.to_neighbor_lists()
            and self.outer_face == other.outer_face
        )

    def __repr__(self):
        return (
            f"EmbeddedGraph(n={self.n}, edges={self.edge_count}, "
            f"faces={self.face_count})"
        )

    # -- internals ----------------------------------------------------------

    def _check_euler(self):
        # V - E + F = 2 - 2 genus <= 2 on every component, so the totals
        # reach 2 per component only when every component is plane
        v, e, f = self.n, len(self.dart_tail) // 2, len(self.faces)
        c = self._component_count = len(self.connected_components())
        if v - e + f != 2 * c:
            raise NonPlanarEmbedding(f"V-E+F = {v}-{e}+{f} = {v - e + f}, "
                                     f"not 2 on each of {c} components")


def _trace_faces(next_in_face):
    """(faces, dart_face): the orbits of the permutation ``next_in_face``
    of the darts, each from its lowest dart, and the face of every dart."""
    m = len(next_in_face)
    dart_face = [-1] * m
    faces = []
    for d0 in range(m):
        if dart_face[d0] != -1:
            continue
        fid = len(faces)
        cycle = []
        d = d0
        # next_in_face is a permutation (dart_rev is an involution and the
        # rotations partition the darts), so every orbit closes at d0
        while dart_face[d] == -1:
            dart_face[d] = fid
            cycle.append(d)
            d = next_in_face[d]
        faces.append(tuple(cycle))
    return faces, dart_face


def build_embedding(neighbor_lists, outer_face=None):
    """Build an embedding from per-vertex counterclockwise neighbor lists.

    Each undirected edge must appear in both endpoints' lists.  Parallel
    edges are paired occurrence-by-occurrence (i-th of v in u's list with
    i-th of u in v's list); loop occurrences pair up consecutively.  Loops
    and parallel edges are kept; ``EmbeddedGraph.is_simple`` reports them.
    """
    n = len(neighbor_lists)
    for u, nbrs in enumerate(neighbor_lists):
        for v in nbrs:
            if not 0 <= v < n:
                raise MalformedRotation(f"vertex {u} lists unknown neighbor {v}")

    dart_tail = []
    rotation = []
    for u, nbrs in enumerate(neighbor_lists):
        rot = []
        for _ in nbrs:
            rot.append(len(dart_tail))
            dart_tail.append(u)
        rotation.append(rot)

    occurrences = {}
    for u, nbrs in enumerate(neighbor_lists):
        for i, v in enumerate(nbrs):
            occurrences.setdefault((u, v), []).append(rotation[u][i])

    m = len(dart_tail)
    dart_rev = [-1] * m
    for (u, v), darts in occurrences.items():
        if u < v:
            back = occurrences.get((v, u), [])
            if len(back) != len(darts):
                raise MalformedRotation(
                    f"adjacency between {u} and {v} is asymmetric"
                )
            for a, b in zip(darts, back):
                dart_rev[a] = b
                dart_rev[b] = a
        elif u == v:
            if len(darts) % 2 != 0:
                raise MalformedRotation(f"odd number of loop darts at {u}")
            for i in range(0, len(darts), 2):
                dart_rev[darts[i]] = darts[i + 1]
                dart_rev[darts[i + 1]] = darts[i]
    if any(r == -1 for r in dart_rev):
        raise MalformedRotation("unpaired darts remain")

    return EmbeddedGraph(rotation, dart_tail, dart_rev, outer_face)


# -- connectivity -----------------------------------------------------------


def _simple_part(g):
    """``g`` without loops and with one edge of each parallel class;
    deleting edges keeps the embedding plane."""
    firsts = {}
    for d, r in g.edge_darts:
        u, v = g.dart_tail[d], g.dart_head[d]
        if u != v:
            firsts.setdefault((min(u, v), max(u, v)), (d, r))
    kept = sorted(d for pair in firsts.values() for d in pair)
    new_id = {d: i for i, d in enumerate(kept)}
    return EmbeddedGraph(
        [[new_id[d] for d in rot if d in new_id] for rot in g.rotation],
        [g.dart_tail[d] for d in kept],
        [new_id[g.dart_rev[d]] for d in kept],
    )


def connectivity_level(g):
    """0 for disconnected input, otherwise the largest k <= 3 such that the
    graph is k-connected (higher connectivity still reports 3).

    Read off the faces once loops and parallel copies are dropped (Mohar
    and Thomassen, *Graphs on Surfaces*, 2001):

    1. a connected plane graph has a cut vertex if and only if some facial
       walk visits a vertex twice;
    2. so in a 2-connected one every face is bounded by a cycle;
    3. a 2-connected simple plane graph on n >= 4 vertices is 3-connected
       if and only if every two face boundaries meet in nothing, in one
       vertex, or in one edge that has those two faces on its sides.

    Recording each vertex under every pair of faces around it makes this
    O(sum of deg^2).
    """
    if g._component_count != 1:
        return 0
    if g.n <= 2:
        return g.n - 1  # a lone vertex counts as 0, an edge bundle as 1
    if not g.is_simple():
        g = _simple_part(g)
    for cycle in g.faces:
        if len({g.dart_tail[d] for d in cycle}) != len(cycle):
            return 1
    if g.n == 3:
        return 2
    nf = len(g.faces)
    # face pair -> the one vertex seen on both so far, or -1 after two.
    # The second vertex must see the two faces in consecutive corners, on
    # the sides of one of its edges; if that edge does not end at the
    # first vertex, its far end comes later as a third.
    met = {}
    for v, rot in enumerate(g.rotation):
        faces = [g.dart_face[d] for d in rot]
        k = len(faces)
        for i, j in combinations(range(k), 2):
            f, h = faces[i], faces[j]
            key = f * nf + h if f < h else h * nf + f
            u = met.setdefault(key, v)
            if u == v:
                continue
            if u < 0 or j - i not in (1, k - 1):
                return 2
            met[key] = -1
    return 3


# -- structural transformations ----------------------------------------------


def dual(g):
    """Dual embedding: one vertex per face, one edge crossing each edge."""
    if g._component_count != 1:
        raise Disconnected("dual requires a connected graph")
    # dual dart ids coincide with primal dart ids; dual dart d sits at the
    # face containing d and points to the face containing reverse(d)
    rotation = [list(cycle) for cycle in g.faces]
    dart_tail = [g.dart_face[d] for d in range(len(g.dart_tail))]
    return EmbeddedGraph(rotation, dart_tail, list(g.dart_rev))


def medial(g):
    """Medial embedding: one vertex per edge, one edge per face corner.

    Always 4-regular; preserves 3-connectivity of simple inputs.
    """
    # the corner named by dart d runs from d to sigma(d); corners are
    # numbered in rotation order, and medial darts 2c and 2c+1 of corner c
    # live at the medial vertices of its first and second edge
    corner = [0] * len(g.dart_tail)
    dart_tail = []
    dart_rev = []
    for rot in g.rotation:
        for d in rot:
            c = len(dart_tail) // 2
            corner[d] = c
            dart_tail += [g.edge_of_dart[d], g.edge_of_dart[g.sigma_next(d)]]
            dart_rev += [2 * c + 1, 2 * c]

    # around edge (d, dr): the corner ending at dr, the one starting at d,
    # the one ending at d, the one starting at dr
    rotation = [
        [
            2 * corner[g.sigma_prev(dr)] + 1,
            2 * corner[d],
            2 * corner[g.sigma_prev(d)] + 1,
            2 * corner[dr],
        ]
        for d, dr in g.edge_darts
    ]
    return EmbeddedGraph(rotation, dart_tail, dart_rev)


def subdivide_edges(g, k):
    """Replace every edge by a path with k internal degree-2 vertices.

    Built on the darts, as :func:`medial` and :func:`dual` are: the darts of
    ``g`` keep their ids, tails and rotation places, and the path vertices
    take the ids from ``g.n`` on, edge by edge, each path counted from the
    tail of its edge's lower dart.  The old darts come first, so every face
    keeps its id and its first dart, and the outer face stays outer.
    """
    _check_size("k", k)
    if k < 0:
        raise ValueError("k must be >= 0")
    n, m = g.n, len(g.dart_tail)
    rotation = list(g.rotation)
    dart_tail = list(g.dart_tail)
    dart_rev = g.dart_rev + [-1] * (2 * k * g.edge_count)
    for e, (d, r) in enumerate(g.edge_darts):
        # path vertex v = n + j owns darts m + 2j back towards d's tail and
        # m + 2j + 1 on towards r's tail; consecutive darts pair up
        chain = [d]
        for j in range(e * k, e * k + k):
            darts = [m + 2 * j, m + 2 * j + 1]
            rotation.append(darts)
            dart_tail += [n + j, n + j]
            chain += darts
        chain.append(r)
        for a, b in zip(chain[::2], chain[1::2]):
            dart_rev[a], dart_rev[b] = b, a
    return EmbeddedGraph(rotation, dart_tail, dart_rev, g.outer_face)


def subdivided_rows(g, k):
    """The neighbour lists of ``subdivide_edges(g, k)``, without building
    it: each path row is [previous, next] along its edge."""
    paths = [[g.dart_tail[d], *range(g.n + e * k, g.n + e * k + k), g.dart_tail[r]]
             for e, (d, r) in enumerate(g.edge_darts)]
    rows = [[paths[g.edge_of_dart[d]][1 if d < g.dart_rev[d] else -2] for d in rot]
            for rot in g.rotation]
    for path in paths:
        rows += [[path[j], path[j + 2]] for j in range(k)]
    return rows
