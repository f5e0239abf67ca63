"""Bipartite face 2-coloring and the intersection graph of gray faces.

For an Eulerian plane graph the dual is bipartite, so the faces split into
two classes; the outer face is fixed white.  The gray-face intersection
graph has one vertex per gray face and, for a 4-regular input, exactly one
edge per graph vertex (its two gray corners).  The embedding is inherited:
around each gray face the incident edges follow the face's boundary order.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple

from .embedding import EmbeddedGraph
from .errors import NotBipartiteDual, VertexNotOnTwoGrayFaces

GRAY = "GRAY"
WHITE = "WHITE"


class TwoColoring(NamedTuple):
    """``colors`` maps face id -> GRAY/WHITE, the outer face white."""

    colors: tuple

    def gray_faces(self):
        return [f for f, c in enumerate(self.colors) if c == GRAY]


def two_color_faces(g: EmbeddedGraph) -> TwoColoring:
    """Proper 2-coloring of the face adjacency graph, outer face white.

    Raises NotBipartiteDual when the face graph has an odd cycle, which
    happens exactly when the input is not Eulerian.
    """
    f_count = g.face_count
    colors = [None] * f_count
    colors[g.outer_face] = WHITE
    queue = deque([g.outer_face])
    while queue:
        f = queue.popleft()
        other = GRAY if colors[f] == WHITE else WHITE
        for d in g.faces[f]:
            nb = g.dart_face[g.dart_rev[d]]
            if colors[nb] is None:
                colors[nb] = other
                queue.append(nb)
            elif colors[nb] == colors[f]:
                raise NotBipartiteDual(
                    f"faces {f} and {nb} share an edge but need equal colors"
                )
    if any(c is None for c in colors):
        raise NotBipartiteDual("face adjacency graph is disconnected")
    return TwoColoring(tuple(colors))


class ILGraph(NamedTuple):
    """Intersection graph of gray faces with its inherited embedding.

    ``graph`` vertex i corresponds to gray face ``gray_faces[i]``; edge v
    is source graph vertex v, joining gray faces ``vertex_gray_pair[v]``.
    """

    graph: EmbeddedGraph
    gray_faces: list
    vertex_gray_pair: list


class SimplicityReport(NamedTuple):
    simple: bool
    multi_pairs: tuple
    selfloop_faces: tuple


def build_il(g: EmbeddedGraph, coloring: TwoColoring) -> ILGraph:
    """Construct the gray-face intersection graph of a 4-regular input.

    Every graph vertex lies on exactly two gray corners; these become one
    edge of the result.  Kept even when multiplicities exceed one so that
    non-3-connected inputs can be inspected.
    """
    gray = coloring.gray_faces()

    # the corner named by cycle dart d of a gray face sits at d's tail v;
    # dart pair (2v, 2v+1) realizes the edge of v, one dart at each of its
    # two gray corners in face order
    corner_count = [0] * g.n
    il_dart = [0] * len(g.dart_tail)
    dart_tail = [0] * (2 * g.n)
    for i, f in enumerate(gray):
        for d in g.faces[f]:
            v = g.dart_tail[d]
            k = corner_count[v]
            corner_count[v] += 1
            if k < 2:
                il_dart[d] = 2 * v + k
                dart_tail[2 * v + k] = i

    for v, count in enumerate(corner_count):
        if count != 2:
            raise VertexNotOnTwoGrayFaces(
                f"vertex {v} lies on {count} gray corners, expected 2"
            )

    rotation = [[il_dart[d] for d in g.faces[f]] for f in gray]
    dart_rev = [d ^ 1 for d in range(2 * g.n)]
    il_graph = EmbeddedGraph(rotation, dart_tail, dart_rev)

    vertex_gray_pair = [
        (dart_tail[2 * v], dart_tail[2 * v + 1]) for v in range(g.n)
    ]

    return ILGraph(
        graph=il_graph,
        gray_faces=gray,
        vertex_gray_pair=vertex_gray_pair,
    )


def il_simplicity(il: ILGraph) -> SimplicityReport:
    pairs = Counter((a, b) if a < b else (b, a)
                    for a, b in il.vertex_gray_pair if a != b)
    multi = tuple((a, b, c) for (a, b), c in sorted(pairs.items()) if c > 1)
    loops = tuple(
        sorted(a for (a, b) in il.vertex_gray_pair if a == b)
    )
    return SimplicityReport(
        simple=not multi and not loops,
        multi_pairs=multi,
        selfloop_faces=loops,
    )
