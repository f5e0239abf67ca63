"""JSON schemas for graphs, packings, realizations, and oriented duals.

One envelope shape: ``{"type": ..., "version": 1, ...}``.  Floats are
emitted with Python's shortest round-trip representation, so parsing the
output reproduces every value bit for bit and identical inputs serialize to
identical bytes.  JSON has no NaN or infinity, so serializing a non-finite
float raises ValueError.  Parsing checks every document at the boundary:
a missing key, a wrongly typed or non-finite field, or an id out of range
raises ValueError naming the document type.  A graph's ``n`` must count
its rotation rows; a dual's nodes must be distinct and differ from its
``outer``, and every edge end must be one of them or ``outer``.
"""

from __future__ import annotations

import json
import math

from .embedding import EmbeddedGraph, build_embedding
from .equivalence import OrientedDual
from .packing import Circle, Packing
from .realization import Arc, RealPoint, Realization

VERSION = 1


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _document(data, types, name):
    """The JSON object ``data`` (parsed first if it is text), checked to be
    of one of the document ``types``."""
    if isinstance(data, str):
        data = json.loads(data)
    kind = data.get("type") if isinstance(data, dict) else None
    if kind not in types:
        raise ValueError(f"expected a {name} document, got {kind!r}")
    return data


def _field(obj, key, doc, kind=(int, float), size=None):
    """``obj[key]`` checked to be a ``kind`` (bools excluded), finite if it
    is a float, and in ``range(size)`` when ``size`` is given."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if (not isinstance(value, kind) or isinstance(value, bool)
            or isinstance(value, float) and not math.isfinite(value)
            or size is not None and not 0 <= value < size):
        raise ValueError(f"{doc} document: missing or invalid {key!r}")
    return value


def _ints(values, doc, key, size=None):
    """``values`` checked to be a list of ints, in ``range(size)`` if given."""
    if not isinstance(values, list) or not all(
            type(v) is int and (size is None or 0 <= v < size) for v in values):
        raise ValueError(f"{doc} document: {key!r} must hold ints")
    return values


def _by_id(entries, doc, build):
    """Place each entry at its ``id``; the ids must be 0..len-1, each once."""
    items = [None] * len(entries)
    for entry in entries:
        i = _field(entry, "id", doc, int, len(items))
        if items[i] is not None:
            raise ValueError(f"{doc} document: id {i} appears twice")
        items[i] = build(entry)
    return items


def _circles_to_obj(circles):
    return [{"id": i, "cx": cx, "cy": cy, "r": r}
            for i, (cx, cy, r) in enumerate(circles)]


def _circles(data, doc):
    def build(entry):
        r = _field(entry, "r", doc)
        if r <= 0:
            raise ValueError(f"{doc} document: radius {r!r} is not positive")
        return Circle(_field(entry, "cx", doc), _field(entry, "cy", doc), r)

    return _by_id(_field(data, "circles", doc, list), doc, build)


# -- graphs ----------------------------------------------------------------------


def graph_to_obj(g: EmbeddedGraph):
    return {
        "type": "graph",
        "version": VERSION,
        "n": g.n,
        "rotation": g.to_neighbor_lists(),
        "outer_face": g.outer_face,
    }


def serialize_graph(g: EmbeddedGraph) -> str:
    return dumps(graph_to_obj(g))


def parse_graph(data) -> EmbeddedGraph:
    data = _document(data, ("graph",), "graph")
    rotation = [_ints(row, "graph", "rotation")
                for row in _field(data, "rotation", "graph", list)]
    if _field(data, "n", "graph", int) != len(rotation):
        raise ValueError(f"graph document: 'n' is {data['n']}, but "
                         f"'rotation' has {len(rotation)} rows")
    if data.get("outer_face") is None:
        return build_embedding(rotation)
    return build_embedding(rotation, _field(data, "outer_face", "graph", int))


# -- packings --------------------------------------------------------------------


def packing_to_obj(p: Packing):
    return {
        "type": "packing",
        "version": VERSION,
        "circles": _circles_to_obj(p.circles),
        "residual": p.residual,
    }


def serialize_packing(p: Packing) -> str:
    return dumps(packing_to_obj(p))


def parse_packing(data) -> Packing:
    data = _document(data, ("packing",), "packing")
    return Packing(
        circles=tuple(_circles(data, "packing")),
        residual=_field(data, "residual", "packing"),
        iterations=0,
    )


# -- realizations ----------------------------------------------------------------


def realization_to_obj(r: Realization):
    return {
        "type": "realization",
        "version": VERSION,
        "circles": _circles_to_obj(r.circles),
        "points": [
            {"id": i, "x": x, "y": y, "on": list(on), "kind": kind}
            for i, (x, y, on, kind) in enumerate(r.points)
        ],
        "arcs": [
            {
                "circle": circle,
                "from_angle": from_angle,
                "to_angle": to_angle,
                "edge": edge,
            }
            for circle, from_angle, to_angle, edge in r.arcs
        ],
    }


def serialize_realization(r: Realization) -> str:
    return dumps(realization_to_obj(r))


def parse_realization(data) -> Realization:
    doc = "realization"
    data = _document(data, (doc,), doc)
    circles = _circles(data, doc)

    def point(entry):
        on = _ints(_field(entry, "on", doc, list), doc, "on", len(circles))
        if len(on) != 2 or on[0] == on[1]:
            raise ValueError(f"{doc} document: 'on' must name two different circles")
        return RealPoint(_field(entry, "x", doc), _field(entry, "y", doc),
                         tuple(on), _field(entry, "kind", doc, str))

    points = _by_id(_field(data, "points", doc, list), doc, point)
    arcs = [
        Arc(_field(e, "circle", doc, int, len(circles)),
            _field(e, "from_angle", doc), _field(e, "to_angle", doc),
            _field(e, "edge", doc, int))
        for e in _field(data, "arcs", doc, list)
    ]
    return Realization(circles, points, arcs)


# -- oriented duals ---------------------------------------------------------------


def serialize_dual(d: OrientedDual) -> str:
    return dumps(
        {
            "type": "oriented_dual",
            "version": VERSION,
            "nodes": list(d.nodes),
            "edges": [list(e) for e in d.edges],
            "outer": d.outer,
        }
    )


def parse_dual(data) -> OrientedDual:
    data = _document(data, ("oriented_dual",), "dual")
    edges = _field(data, "edges", "dual", list)
    if not all(len(_ints(e, "dual", "edges")) == 2 for e in edges):
        raise ValueError("dual document: 'edges' must be [tail, head] pairs")
    nodes = _ints(_field(data, "nodes", "dual", list), "dual", "nodes")
    outer = _field(data, "outer", "dual", int)
    ends = {*nodes, outer}
    if len(ends) != len(nodes) + 1:
        raise ValueError("dual document: 'nodes' must be distinct and "
                         "exclude 'outer'")
    if not all(ends.issuperset(e) for e in edges):
        raise ValueError("dual document: an edge end is neither a node "
                         "nor 'outer'")
    return OrientedDual(nodes=tuple(nodes), edges=tuple(map(tuple, edges)),
                        outer=outer)


def parse_any(text: str):
    data = json.loads(text)
    kind = data.get("type") if isinstance(data, dict) else None
    if kind == "graph":
        return parse_graph(data)
    if kind == "packing":
        return parse_packing(data)
    if kind == "realization":
        return parse_realization(data)
    if kind == "oriented_dual":
        return parse_dual(data)
    raise ValueError(f"unknown document type {kind!r}")
