"""Reference graphs and reference realizations.

Provides the embedded platonic solids, the octahedron's three analytic
realizations, the two extremal circle-count families, the gadget fragments
with two degree-2 endpoints, and the augmented octahedra obtained by
attaching gadgets along subdivided edges.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from . import realization as rz
from .embedding import (EmbeddedGraph, _check_size, build_embedding, dual,
                        subdivided_rows)
from .equivalence import RealizationClass
from .errors import DegenerateArc, DegenerateRadius
from .packing import PACK_TOL, Circle, _circle_intersections, pack

# -- platonic solids (hand-checked rotation systems) --------------------------


def tetrahedron() -> EmbeddedGraph:
    return build_embedding(
        [
            [1, 3, 2],
            [2, 3, 0],
            [0, 3, 1],
            [2, 0, 1],
        ]
    )


def cube() -> EmbeddedGraph:
    return build_embedding(
        [
            [1, 4, 3],
            [2, 5, 0],
            [3, 6, 1],
            [0, 7, 2],
            [5, 7, 0],
            [6, 4, 1],
            [7, 5, 2],
            [6, 3, 4],
        ]
    )


def octahedron() -> EmbeddedGraph:
    """The unique 4-regular fully-triangulated plane graph on 6 vertices."""
    return build_embedding(
        [
            [1, 3, 4, 2],
            [2, 5, 3, 0],
            [0, 4, 5, 1],
            [5, 4, 0, 1],
            [5, 2, 0, 3],
            [2, 4, 3, 1],
        ]
    )


def icosahedron() -> EmbeddedGraph:
    # vertex 0 at the top, upper ring 1..5, lower ring 6..10, vertex 11 last
    def up(i):
        return (i - 1) % 5 + 1

    def lo(j):
        return (j - 1) % 5 + 6

    lists = [[1, 2, 3, 4, 5]]
    for i in range(1, 6):
        lists.append([lo(i - 1), lo(i), up(i + 1), 0, up(i - 1)])
    for j in range(1, 6):
        lists.append([lo(j - 1), 11, lo(j + 1), up(j + 1), up(j)])
    lists.append([10, 9, 8, 7, 6])
    return build_embedding(lists)


def dodecahedron() -> EmbeddedGraph:
    return dual(icosahedron())


# -- canonical octahedron realizations ----------------------------------------

_SODDY_INNER = (2.0 * math.sqrt(3.0) - 3.0) / 3.0
_SODDY_OUTER = (2.0 * math.sqrt(3.0) + 3.0) / 3.0

FLOWER_RADIUS = 1.3  # radius of the flower circles before any nudge


def _assembled_graph(circles, points):
    """(graph, realization) of ``realization._assemble``; the graph is
    ``extract_with_arcs`` of the realization, read off the arc ends the
    assembly built instead of matching them anew."""
    real, order, ends = rz._assemble(circles, points)
    return rz._extract(real, order, ends, rz.READ_TOL), real


def _crossings(circles):
    """Both crossing points of every pair of circles."""
    return [rz.RealPoint(x, y, (i, j), rz.KIND_CROSS)
            for i, j in combinations(range(len(circles)), 2)
            for x, y in _circle_intersections(circles[i], circles[j])]


def canonical_octahedron_realization(kind: RealizationClass) -> rz.Realization:
    """Analytic coordinates for the three octahedron realization classes."""
    s3 = math.sqrt(3.0)
    if kind == RealizationClass.THREE_CROSSING:
        circles = [
            Circle(0.0, 0.0, 1.0),
            Circle(1.0, 0.0, 1.0),
            Circle(0.5, s3 / 2.0, 1.0),
        ]
        return rz._assemble(circles, _crossings(circles))[0]

    units = [Circle(0.0, 0.0, 1.0), Circle(2.0, 0.0, 1.0), Circle(1.0, s3, 1.0)]
    center = (1.0, s3 / 3.0)
    if kind == RealizationClass.FOUR_TOUCHING_DISJOINT:
        fourth = Circle(center[0], center[1], _SODDY_INNER)
    elif kind == RealizationClass.FOUR_TOUCHING_NESTED:
        fourth = Circle(center[0], center[1], _SODDY_OUTER)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    circles = units + [fourth]
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    return rz._assemble(circles, rz._touchings(circles, pairs))[0]


# -- extremal families ---------------------------------------------------------


def flower(c: int):
    """c equal circles of radius ``FLOWER_RADIUS`` on a regular c-gon,
    every pair crossing twice.

    The induced graph has c*(c-1) vertices, so the circle count meets the
    lower bound exactly.  The radius is nudged upward while two points of
    a circle nearly coincide, as when three circles share a point.
    """
    _check_size("c", c)
    if c < 3:
        raise ValueError("flower needs at least 3 circles")
    r = FLOWER_RADIUS
    for _ in range(40):
        circles = [
            Circle(math.cos(2.0 * math.pi * k / c), math.sin(2.0 * math.pi * k / c), r)
            for k in range(c)
        ]
        try:
            return _assembled_graph(circles, _crossings(circles))
        except DegenerateArc:
            r += 1e-3
    raise DegenerateRadius("could not avoid triple concurrences")


def prism(k: int) -> EmbeddedGraph:
    """k-gonal prism: two concentric k-cycles joined by spokes (3-regular)."""
    _check_size("k", k)
    if k < 3:
        raise ValueError("prism needs k >= 3")
    lists = []
    for i in range(k):
        lists.append([(i + 1) % k, k + i, (i - 1) % k])
    for i in range(k):
        lists.append([i, k + (i + 1) % k, k + (i - 1) % k])
    return build_embedding(lists)


def upper_bound_family(c: int):
    """Coin configuration of c circles, each carrying exactly 3 points.

    Packs a 3-connected cubic planar graph (tetrahedron for c=4, otherwise
    the (c/2)-prism); the induced graph has n = 3c/2 vertices, so the circle
    count meets the upper bound exactly.
    """
    _check_size("c", c)
    if c < 4 or c % 2 != 0:
        raise ValueError("upper_bound_family needs an even c >= 4")
    base = tetrahedron() if c == 4 else prism(c // 2)
    p = pack(base, PACK_TOL)
    circles = list(p.circles)
    return _assembled_graph(circles, rz._touchings(circles, base.edges()))


# -- gadget fragments ----------------------------------------------------------


class GadgetFragment(NamedTuple):
    """Attachable piece with exactly two degree-2 vertices, its
    ``endpoints``; ``skeleton`` maps role names to vertex ids."""

    graph: EmbeddedGraph
    endpoints: tuple
    skeleton: dict


def _splice(lists, rows, fixed, mirror=False):
    """Append a copy of ``rows`` (neighbour lists over local ids) to
    ``lists``: local id v becomes ``fixed[v]`` when listed, and the others
    take the next free ids in local order.  Only the rows of the latter
    are appended, each reversed when ``mirror``.  Returns the id table."""
    free = iter(range(len(lists), len(lists) + len(rows)))
    table = [fixed[v] if v in fixed else next(free) for v in range(len(rows))]
    for v, row in enumerate(rows):
        if v not in fixed:
            row = [table[w] for w in row]
            lists.append(row[::-1] if mirror else row)
    return table


def _gadget_rows():
    """The neighbour rows ``gadget()`` embeds."""
    # ids: 0 = endpoint 1, 1 = endpoint 2, 2 = middle, 3 = corner 1,
    # 4 = corner 2, 5..10 = first loop, 11..16 = second loop.  A loop is
    # the octahedron with its outer edge (0, 1) split by a merge vertex 6
    # of degree 2, identified with a corner.
    loop = octahedron().to_neighbor_lists()
    loop[0] = [6 if w == 1 else w for w in loop[0]]
    loop[1] = [6 if w == 0 else w for w in loop[1]]
    loop.append([0, 1])

    lists = [[2, 3], [4, 2], [1, 4, 3, 0], [], []]
    left = _splice(lists, loop, {6: 3})
    right = _splice(lists, loop, {6: 4})
    # the loops keep their internal order; skeleton darts flank them
    lists[3] = [left[0], left[1], 0, 2]
    lists[4] = [right[0], right[1], 2, 1]
    return lists


# both fragments have their endpoints at these ids
_ENDPOINTS = (0, 1)


def gadget() -> GadgetFragment:
    """Fragment whose skeleton is two triangles sharing the middle vertex,
    with a hanging subgraph merged into each upper corner."""
    return GadgetFragment(build_embedding(_gadget_rows()), _ENDPOINTS,
                          {"v1": 0, "v2": 1, "w": 2, "w1": 3, "w2": 4})


def _bigadget_rows():
    """The neighbour rows ``bigadget()`` embeds."""
    # ids: 0 = endpoint 1, 1 = endpoint 2, 2 = middle; biloop 1 on 3..9 with
    # attachment pair (3, 4); biloop 2 on 10..16 with pair (10, 11).  A
    # biloop is the octahedron with its outer vertex 0 (rotation
    # [1, 3, 4, 2]) split into the adjacent pair 0 -> [1, 3, 6] and
    # 6 -> [4, 2, 0]; every other vertex keeps degree 4.
    biloop = octahedron().to_neighbor_lists()
    biloop[0] = [1, 3, 6]
    biloop.append([4, 2, 0])
    for v in (4, 2):
        biloop[v] = [6 if w == 0 else w for w in biloop[v]]

    lists = [[2, 3], [10, 2], [1, 11, 4, 0], [], []]
    left = _splice(lists, biloop, {0: 3, 6: 4})
    lists += [[], []]  # ids 10 and 11 hold the second attachment pair
    right = _splice(lists, biloop, {0: 10, 6: 11})
    # the fresh darts go into the corners the biloop's outer face exposes
    lists[3] = [left[1], left[3], 4, 0]
    lists[4] = [left[4], left[2], 2, 3]
    lists[10] = [right[1], right[3], 11, 1]
    lists[11] = [right[4], right[2], 2, 10]
    return lists


def bigadget() -> GadgetFragment:
    """Cut-vertex-free variant: each hanging subgraph is biconnected and
    attaches through a pair of adjacent degree-3 vertices."""
    return GadgetFragment(
        build_embedding(_bigadget_rows()), _ENDPOINTS,
        {"v1": 0, "v2": 1, "w": 2, "w1": 3, "w1p": 4, "w2": 10, "w2p": 11})


GADGET = "GADGET"
BIGADGET = "BIGADGET"


def _attachment_blocks(pairs_per_edge):
    """Endpoint slot pairs within a run of 4*pairs_per_edge path vertices.

    The 8-slot interlocking pattern (1,6),(2,5),(3,8),(4,7) repeats; an odd
    leftover pair attaches as a plain nested (1,4),(2,3) block.  Slots are
    1-based; the second element of each tuple marks the side of the path.
    """
    blocks = []
    base = 0
    for _ in range(pairs_per_edge // 2):
        blocks.append(((base + 1, base + 6), "L"))
        blocks.append(((base + 2, base + 5), "L"))
        blocks.append(((base + 3, base + 8), "R"))
        blocks.append(((base + 4, base + 7), "R"))
        base += 8
    if pairs_per_edge % 2 == 1:
        blocks.append(((base + 1, base + 4), "L"))
        blocks.append(((base + 2, base + 3), "L"))
    return blocks


def augment_octahedron(kind: str, pairs_per_edge: int = 2) -> EmbeddedGraph:
    """Subdivide every octahedron edge and attach gadget fragments.

    Each edge receives 4*pairs_per_edge internal vertices, and each
    attachment block of ``_attachment_blocks`` identifies the two endpoints
    of one spliced copy of the fragment with two of them; the resulting
    graph is 4-regular and planar.  With plain gadgets it has cut vertices;
    with bigadgets it is biconnected but not 3-connected.
    """
    _check_size("pairs_per_edge", pairs_per_edge)
    if pairs_per_edge < 2:
        raise ValueError("pairs_per_edge must be >= 2")
    if kind not in (GADGET, BIGADGET):
        raise ValueError(f"unknown kind {kind!r}")
    rows = _gadget_rows() if kind == GADGET else _bigadget_rows()

    base = octahedron()
    slots = 4 * pairs_per_edge
    blocks = _attachment_blocks(pairs_per_edge)
    # edge eid becomes the path base.n + eid * slots onward, as
    # subdivide_edges numbers it; a fragment splices in between two path
    # vertices, mirrored on side R, and their rows gain its darts on that side
    lists = subdivided_rows(base, slots)
    for eid in range(base.edge_count):
        first = base.n + eid * slots
        for (sa, sb), side in blocks:
            ends = (first + sa - 1, first + sb - 1)
            table = _splice(lists, rows, dict(zip(_ENDPOINTS, ends)),
                            mirror=side == "R")
            for v, z in zip(_ENDPOINTS, ends):
                prev_v, next_v = lists[z]
                g1, g2 = (table[w] for w in rows[v])
                if side == "L":
                    lists[z] = [next_v, g1, g2, prev_v]
                else:
                    lists[z] = [next_v, prev_v, g2, g1]

    # the graph is 4-regular and simple, so dart i of v is 4v + i, the id
    # build_embedding would give it, and its reverse is the dart of w that
    # lists v; a row that breaks this fails the constructor's checks
    return EmbeddedGraph(
        [range(4 * v, 4 * v + 4) for v in range(len(lists))],
        [v for v in range(len(lists)) for _ in range(4)],
        [4 * w + lists[w].index(v) for v, row in enumerate(lists) for w in row],
    )
