"""Reference graphs and reference realizations.

Provides the embedded platonic solids, the octahedron's three analytic
realizations, the two extremal circle-count families, the gadget fragments
with two degree-2 endpoints, and the augmented octahedra obtained by
attaching gadgets along subdivided edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import realization as rz
from .embedding import EmbeddedGraph, build_embedding, dual, subdivide_edges
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
    if c < 4 or c % 2 != 0:
        raise ValueError("upper_bound_family needs an even c >= 4")
    base = tetrahedron() if c == 4 else prism(c // 2)
    p = pack(base, PACK_TOL)
    circles = list(p.circles)
    return _assembled_graph(circles, rz._touchings(circles, base.edges()))


# -- gadget fragments ----------------------------------------------------------


@dataclass(frozen=True)
class GadgetFragment:
    """Attachable piece with exactly two degree-2 vertices, its
    ``endpoints``; ``skeleton`` maps role names to vertex ids."""

    graph: EmbeddedGraph
    endpoints: tuple
    skeleton: dict


def _loop_subgraph_rotation():
    """Octahedron with one outer edge subdivided once.

    Returns (rotation lists over local ids 0..6, merge vertex id 6); the
    merge vertex has degree 2 and ends up identified with a skeleton vertex.
    """
    lists = octahedron().to_neighbor_lists()
    # split the outer edge (0, 1) through a new vertex 6
    lists[0] = [6 if w == 1 else w for w in lists[0]]
    lists[1] = [6 if w == 0 else w for w in lists[1]]
    lists.append([0, 1])
    return lists, 6


def _relabel(rows, fixed, offset):
    """Neighbour lists ``rows`` over local ids, renumbered: local id v
    becomes ``fixed[v]`` when listed, and the others take the ids from
    ``offset`` on in local order.  A dict from new id to renumbered row."""
    free = iter(range(offset, offset + len(rows)))
    table = {v: fixed[v] if v in fixed else next(free) for v in range(len(rows))}
    return {table[v]: [table[w] for w in row] for v, row in enumerate(rows)}


def gadget() -> GadgetFragment:
    """Fragment whose skeleton is two triangles sharing the middle vertex,
    with a hanging subgraph merged into each upper corner."""
    # ids: 0 = endpoint 1, 1 = endpoint 2, 2 = middle, 3 = corner 1,
    # 4 = corner 2, 5..10 = first loop, 11..16 = second loop
    loop_rot, merge = _loop_subgraph_rotation()
    left = _relabel(loop_rot, {merge: 3}, 5)
    right = _relabel(loop_rot, {merge: 4}, 11)

    lists = [[] for _ in range(17)]
    for part in (left, right):
        for v, row in part.items():
            lists[v] = row
    lists[0] = [2, 3]
    lists[1] = [4, 2]
    lists[2] = [1, 4, 3, 0]
    # the loops keep their internal order; skeleton darts flank them
    lists[3] = left[3] + [0, 2]
    lists[4] = right[4] + [2, 1]

    graph = build_embedding(lists)
    return GadgetFragment(
        graph=graph,
        endpoints=(0, 1),
        skeleton={"v1": 0, "v2": 1, "w": 2, "w1": 3, "w2": 4},
    )


def _biloop_rotation():
    """Octahedron with one outer vertex split into an adjacent degree-3 pair.

    Local ids 0..6; the split pair is (0, 6) and carries the new edge.
    Every other vertex keeps degree 4.
    """
    base = octahedron().to_neighbor_lists()
    # split vertex 0 (rotation [1, 3, 4, 2]) into 0 -> [1, 3, 6], 6 -> [4, 2, 0]
    lists = [row[:] for row in base]
    lists[0] = [1, 3, 6]
    lists.append([4, 2, 0])
    for v in (4, 2):
        lists[v] = [6 if w == 0 else w for w in lists[v]]
    return lists


def bigadget() -> GadgetFragment:
    """Cut-vertex-free variant: each hanging subgraph is biconnected and
    attaches through a pair of adjacent degree-3 vertices."""
    # ids: 0 = endpoint 1, 1 = endpoint 2, 2 = middle; biloop 1 on 3..9 with
    # attachment pair (3, 4); biloop 2 on 10..16 with pair (10, 11)
    biloop = _biloop_rotation()
    left = _relabel(biloop, {0: 3, 6: 4}, 5)
    right = _relabel(biloop, {0: 10, 6: 11}, 12)

    lists = [[] for _ in range(17)]
    for part in (left, right):
        for v, row in part.items():
            lists[v] = row
    lists[0] = [2, 3]
    lists[1] = [10, 2]
    lists[2] = [1, 11, 4, 0]
    # the fresh darts go into the corners the biloop's outer face exposes
    lists[3] = left[3] + [0]
    lists[4] = left[4][:2] + [2] + left[4][2:]
    lists[10] = right[10] + [1]
    lists[11] = right[11][:2] + [2] + right[11][2:]

    graph = build_embedding(lists)
    return GadgetFragment(
        graph=graph,
        endpoints=(0, 1),
        skeleton={
            "v1": 0,
            "v2": 1,
            "w": 2,
            "w1": 3,
            "w1p": 4,
            "w2": 10,
            "w2p": 11,
        },
    )


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

    Each edge receives 4*pairs_per_edge internal vertices and twice that
    many fragment endpoints; the resulting graph is 4-regular and planar.
    With plain gadgets it has cut vertices; with bigadgets it is biconnected
    but not 3-connected.
    """
    if pairs_per_edge < 2:
        raise ValueError("pairs_per_edge must be >= 2")
    if kind not in (GADGET, BIGADGET):
        raise ValueError(f"unknown kind {kind!r}")
    fragment = gadget() if kind == GADGET else bigadget()

    base = octahedron()
    slots = 4 * pairs_per_edge
    blocks = _attachment_blocks(pairs_per_edge)

    frag_rot = fragment.graph.to_neighbor_lists()
    v1, v2 = fragment.endpoints
    interior = [v for v in range(fragment.graph.n) if v not in (v1, v2)]

    # edge eid becomes the path base.n + eid * slots onward; every path
    # vertex row is [previous, next] until its fragments are spliced in
    lists = subdivide_edges(base, slots).to_neighbor_lists()

    def add_fragment(za, zb, side):
        """Splice one fragment between path vertices za < zb."""
        table = {v1: za, v2: zb}
        table.update((v, len(lists) + i) for i, v in enumerate(interior))
        for v in interior:
            row = [table[w] for w in frag_rot[v]]
            lists.append(row if side == "L" else row[::-1])
        ends = {}
        for z, endpoint in ((za, v1), (zb, v2)):
            a, b = (table[w] for w in frag_rot[endpoint])
            ends[z] = (a, b) if side == "L" else (b, a)
        return ends

    for eid in range(len(base.edge_darts)):
        first = base.n + eid * slots
        gadget_ends = {}
        for (sa, sb), side in blocks:
            za, zb = first + sa - 1, first + sb - 1
            ends = add_fragment(za, zb, side)
            gadget_ends.update({z: (side, darts) for z, darts in ends.items()})
        for z in range(first, first + slots):
            prev_v, next_v = lists[z]
            side, (g1, g2) = gadget_ends[z]
            if side == "L":
                lists[z] = [next_v, g1, g2, prev_v]
            else:
                lists[z] = [next_v, prev_v, g1, g2]

    return build_embedding(lists)
