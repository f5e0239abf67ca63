"""Equivalence of realizations via the oriented dual digraph.

Degree-2 points are smoothed away, the faces of the arrangement become
digraph nodes, and every arc contributes one edge directed from the face on
the interior side of its circle to the face on the exterior side.  Two
realizations are equivalent when these digraphs are isomorphic.  The node
for the outer face is omitted from the node list but stays addressable as
``outer`` so that edge counts per node always match face lengths; the
isomorphism maps outer to outer.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .errors import NoClassMatch
from .isomorphism import digraph_isomorphism
from .realization import (
    READ_TOL,
    Realization,
    _extract,
    _join,
    _read,
    extract_with_arcs,
    outer_face_of,
)


class RealizationClass(enum.Enum):
    THREE_CROSSING = "THREE_CROSSING"
    FOUR_TOUCHING_DISJOINT = "FOUR_TOUCHING_DISJOINT"
    FOUR_TOUCHING_NESTED = "FOUR_TOUCHING_NESTED"


class OrientedDual(NamedTuple):
    """Directed dual of a realization's arrangement.

    ``edges`` holds one (tail face, head face) pair per arc, edge k for
    arc k, including the arcs bordering the outer face; ``nodes`` excludes
    the outer face id, which is kept separately in ``outer``.
    """

    nodes: tuple
    edges: tuple
    outer: int


def _smooth(r: Realization):
    """``smooth_degree_two(r)``, its angular order and the (from, to) point
    ids of its arcs, as smoothing builds them."""
    # the points must lie on their circles and the arcs partition the
    # circles as extraction reads them, since the smoothed arcs are rebuilt
    # from the points alone
    order, _ = _read(r, READ_TOL)

    # so a point has two arc ends exactly when it names one circle twice;
    # the kept points are renumbered in order, so each circle's order of
    # them stays sorted and ties keep their order
    new_id = {}
    for pid, p in enumerate(r.points):
        if p.on[0] != p.on[1]:
            new_id[pid] = len(new_id)
    order = [[(a, new_id[p]) for a, p in pairs if p in new_id]
             for pairs in order]
    for ci, pairs in enumerate(order):
        if not pairs:
            raise ValueError(f"circle {ci} would lose all its points")
    return _join(r.circles, [r.points[pid] for pid in new_id], order)


def smooth_degree_two(r: Realization) -> Realization:
    """Remove points with exactly two arc ends, merging their arcs.

    Such points sit in the interior of a single circle's boundary; circles
    are unchanged and surviving points keep their coordinates.  Merged arcs
    get fresh edge ids.  Raises MalformedRealization when a point or an arc
    names a missing circle or a point is off a circle it names, and
    DegenerateArc when the arcs do not partition the circles: an arc
    dropped, repeated, or not joining consecutive points within
    extraction's tolerance.  ``equivalent`` and ``classify_octahedron``
    smooth through the same code but keep the arc ends it builds for the
    dual (``_smoothed_dual``).
    """
    return _smooth(r)[0]


def _dual(r: Realization, g) -> OrientedDual:
    """The oriented dual of ``r``, given its extracted graph ``g``, where
    arc k is darts 2k (counterclockwise) and 2k + 1 (clockwise)."""
    outer = outer_face_of(r, g)
    edges = tuple((g.dart_face[2 * k + 1], g.dart_face[2 * k])
                  for k in range(len(r.arcs)))
    nodes = tuple(f for f in range(g.face_count) if f != outer)
    return OrientedDual(nodes=nodes, edges=edges, outer=outer)


def oriented_dual(r: Realization) -> OrientedDual:
    """Faces of the arrangement with one directed edge per arc.

    A counterclockwise traversal of an arc keeps its circle's interior on
    the left, so the face on that dart's side is the exterior side: the
    edge runs from the face of the clockwise dart to the face of the
    counterclockwise dart.  ``oriented_dual(smooth_degree_two(r))`` is
    the dual ``equivalent`` compares, built there without matching the
    smoothed arcs' ends again.
    """
    return _dual(r, extract_with_arcs(r))


def _smoothed_dual(r: Realization) -> OrientedDual:
    """``oriented_dual(smooth_degree_two(r))``, extracted from the order
    and the arc ends that smoothing builds instead of matching them anew."""
    s, order, ends = _smooth(r)
    return _dual(s, _extract(s, order, ends, READ_TOL))


def digraph_isomorphic(d1: OrientedDual, d2: OrientedDual) -> bool:
    mapping = digraph_isomorphism(
        list(d1.nodes) + [d1.outer],
        d1.edges,
        list(d2.nodes) + [d2.outer],
        d2.edges,
        forced=[(d1.outer, d2.outer)],
    )
    return mapping is not None


def equivalent(r1: Realization, r2: Realization) -> bool:
    """Smooth both realizations, build oriented duals, test isomorphism."""
    d1 = _smoothed_dual(r1)
    d2 = _smoothed_dual(r2)
    return digraph_isomorphic(d1, d2)


@functools.cache
def _canonical_duals() -> tuple:
    """(kind, oriented dual) of each canonical octahedron class, built once."""
    from . import generators

    return tuple(
        (kind, oriented_dual(generators.canonical_octahedron_realization(kind)))
        for kind in RealizationClass
    )


def classify_octahedron(r: Realization) -> RealizationClass:
    """Match an octahedron realization against the three known classes."""
    d = _smoothed_dual(r)
    for kind, canon in _canonical_duals():
        if digraph_isomorphic(d, canon):
            return kind
    raise NoClassMatch("realization matches none of the octahedron classes")
