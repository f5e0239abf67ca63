import hashlib
import math
from collections import Counter
from itertools import combinations

import pytest

from circlesystems import generators
from circlesystems.embedding import (
    build_embedding,
    connectivity_level,
    subdivide_edges,
)
from circlesystems.equivalence import (
    RealizationClass,
    oriented_dual,
    smooth_degree_two,
)
from circlesystems.generators import (
    BIGADGET,
    GADGET,
    augment_octahedron,
    bigadget,
    canonical_octahedron_realization,
    flower,
    gadget,
    octahedron,
    prism,
    tetrahedron,
    upper_bound_family,
)
from circlesystems.isomorphism import graphs_isomorphic
from circlesystems.jsonio import (
    serialize_dual,
    serialize_graph,
    serialize_realization,
)
from circlesystems.realization import (
    KIND_CROSS,
    KIND_TOUCH,
    circle_count_bounds,
    extract_with_arcs,
    verify_realization,
)

from conftest import embedded_augment_rows


def test_octahedron_is_medial_of_tetrahedron(octa):
    from circlesystems.embedding import medial

    assert graphs_isomorphic(octa, medial(tetrahedron()))
    assert connectivity_level(octa) == 3


@pytest.mark.parametrize("kind", list(RealizationClass))
def test_canonical_realizations_verify(kind, octa):
    r = canonical_octahedron_realization(kind)
    assert verify_realization(r, octa, 1e-8).passed


def test_three_crossing_shape():
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    assert len(r.circles) == 3
    assert len(r.points) == 6
    assert all(p.kind == KIND_CROSS for p in r.points)


def test_touching_disjoint_shape():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_DISJOINT)
    assert len(r.circles) == 4
    assert all(p.kind == KIND_TOUCH for p in r.points)
    # interiors pairwise disjoint
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = r.circles[i], r.circles[j]
            d = math.hypot(a.cx - b.cx, a.cy - b.cy)
            assert d >= a.r + b.r - 1e-12


def test_touching_nested_shape():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    assert len(r.circles) == 4
    big = max(r.circles, key=lambda c: c.r)
    for c in r.circles:
        if c is big:
            continue
        d = math.hypot(c.cx - big.cx, c.cy - big.cy)
        assert d + c.r <= big.r + 1e-12


@pytest.mark.parametrize("c", range(3, 9))
def test_flower_hits_lower_bound(c):
    graph, real = flower(c)
    assert graph.n == c * (c - 1)
    assert graph.is_regular(4)
    bounds = circle_count_bounds(graph.n)
    assert len(real.circles) == c
    assert bounds.lower == pytest.approx(c, abs=1e-12)
    assert verify_realization(real, tol=1e-8).passed


def test_flower_perturbs_away_from_concurrence(octa, monkeypatch):
    # radius 1.0 makes every circle pass through the center; the retry
    # nudges the radius until no three circles share a point
    monkeypatch.setattr(generators, "FLOWER_RADIUS", 1.0)
    graph, real = flower(5)
    assert graph.n == 20
    assert verify_realization(real, tol=1e-8).passed


@pytest.mark.parametrize("radius", [generators.FLOWER_RADIUS, 1.0])
def test_flower_points_stay_apart(monkeypatch, radius):
    # the assembly refuses two points of a circle that nearly coincide, and
    # flower nudges the radius until it accepts: no two points of the
    # system coincide, even where all circles would meet at the center
    monkeypatch.setattr(generators, "FLOWER_RADIUS", radius)
    for c in range(3, 13):
        _, real = flower(c)
        assert all(math.hypot(p.x - q.x, p.y - q.y) >= 1e-9
                   for p, q in combinations(real.points, 2))


def test_flower3_is_octahedron(octa):
    graph, real = flower(3)
    assert graphs_isomorphic(graph, octa)
    assert all(p.kind == KIND_CROSS for p in real.points)


def test_flower5_pairwise_two_points():
    _, real = flower(5)
    pair_counts = Counter(tuple(sorted(p.on)) for p in real.points)
    assert all(v == 2 for v in pair_counts.values())
    assert len(pair_counts) == 10


@pytest.mark.parametrize("c", (4, 6, 8, 10))
def test_upper_bound_family(c):
    graph, real = upper_bound_family(c)
    assert graph.n == 3 * c // 2
    assert graph.is_regular(4)
    assert len(real.circles) == c
    assert 3 * len(real.circles) == 2 * graph.n
    for ci in range(c):
        assert sum(ci in p.on for p in real.points) == 3
    assert verify_realization(real, tol=1e-8).passed


def test_upper_bound_family_80_verifies_against_its_graph():
    graph, real = upper_bound_family(80)
    assert len(real.circles) == 80 and graph.n == 120
    assert verify_realization(real, graph).passed


def test_upper_bound_4_is_octahedron(octa):
    graph, _ = upper_bound_family(4)
    assert graphs_isomorphic(graph, octa)


def test_prism_structure():
    g = prism(5)
    assert g.n == 10 and g.edge_count == 15
    assert g.is_regular(3)
    assert connectivity_level(g) == 3


def _degree_profile(g):
    return Counter(g.degree(v) for v in range(g.n))


def test_gadget_degree_profile():
    fr = gadget()
    profile = _degree_profile(fr.graph)
    assert profile == {2: 2, 4: fr.graph.n - 2}
    assert sorted(fr.endpoints) == sorted(
        v for v in range(fr.graph.n) if fr.graph.degree(v) == 2
    )


def test_bigadget_degree_profile():
    fr = bigadget()
    profile = _degree_profile(fr.graph)
    assert profile == {2: 2, 4: fr.graph.n - 2}


def test_endpoints_on_outer_face():
    for fr in (gadget(), bigadget()):
        outer_vertices = set(fr.graph.face_tails(fr.graph.outer_face))
        assert set(fr.endpoints) <= outer_vertices


def _cut_vertices_with_endpoint_bridge(fr):
    """Cut vertices once the endpoints are linked through a host graph."""
    lists = fr.graph.to_neighbor_lists()
    v1, v2 = fr.endpoints
    lists[v1] = lists[v1] + [v2]
    lists[v2] = lists[v2] + [v1]
    n = len(lists)
    cuts = []
    for skip in range(n):
        start = next(v for v in range(n) if v != skip)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in lists[u]:
                if w != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < n - 1:
            cuts.append(skip)
    return cuts


def test_gadget_has_cut_vertices_bigadget_does_not():
    gf = gadget()
    cuts = _cut_vertices_with_endpoint_bridge(gf)
    assert set(cuts) == {gf.skeleton["w1"], gf.skeleton["w2"]}
    assert _cut_vertices_with_endpoint_bridge(bigadget()) == []


def test_gadget_skeleton_removal():
    fr = gadget()
    g = fr.graph
    sk = fr.skeleton
    skeleton_edges = set()
    for i in ("1", "2"):
        skeleton_edges.add(frozenset((sk[f"v{i}"], sk["w"])))
        skeleton_edges.add(frozenset((sk[f"w{i}"], sk["w"])))
        skeleton_edges.add(frozenset((sk[f"v{i}"], sk[f"w{i}"])))
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        if frozenset((u, v)) not in skeleton_edges:
            adj[u].add(v)
            adj[v].add(u)
    isolated = [v for v in range(g.n) if not adj[v]]
    assert sorted(isolated) == sorted((sk["v1"], sk["v2"], sk["w"]))
    components = []
    seen = set(isolated)
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(comp)
    assert len(components) == 2
    # each remaining component is an octahedron with one edge subdivided
    for comp in components:
        degs = Counter(len(adj[v] & comp) for v in comp)
        assert degs == {4: 6, 2: 1}


def test_augmented_gadget_structure():
    g = augment_octahedron(GADGET, 2)
    assert g.is_regular(4)
    assert g.n > 100
    assert g.n == 6 + 12 * (8 + 4 * 15)
    assert connectivity_level(g) == 1


def test_augmented_bigadget_structure():
    g = augment_octahedron(BIGADGET, 2)
    assert g.is_regular(4)
    assert connectivity_level(g) == 2


def test_augmented_more_pairs():
    g = augment_octahedron(GADGET, 3)
    assert g.is_regular(4)
    assert g.n == 6 + 12 * (12 + 6 * 15)
    assert connectivity_level(g) == 1


@pytest.mark.parametrize("kind", (GADGET, BIGADGET))
@pytest.mark.parametrize("pairs", (2, 3, 4))
def test_augmented_darts_are_those_build_embedding_gives(kind, pairs):
    # augment_octahedron numbers and pairs its darts itself; pairing them
    # from the neighbour lists must give the same graph, dart for dart
    g = augment_octahedron(kind, pairs)
    h = build_embedding(g.to_neighbor_lists())
    assert g.rotation == h.rotation
    assert g.dart_rev == h.dart_rev
    assert g.faces == h.faces
    assert g.outer_face == h.outer_face


@pytest.mark.parametrize("kind", (GADGET, BIGADGET))
@pytest.mark.parametrize("pairs", (2, 3))
def test_augmented_rows_are_those_the_embeddings_gave(kind, pairs):
    # the path rows are written directly and the fragment's rows taken
    # before it is embedded; building both embeddings gives the same rows
    g = augment_octahedron(kind, pairs)
    assert g.to_neighbor_lists() == embedded_augment_rows(kind, pairs)


def test_fragment_rows_are_those_of_its_embedding():
    assert generators._gadget_rows() == gadget().graph.to_neighbor_lists()
    assert generators._bigadget_rows() == bigadget().graph.to_neighbor_lists()


def test_augmented_rejects_small_pairs():
    with pytest.raises(ValueError):
        augment_octahedron(GADGET, 1)


@pytest.mark.parametrize("make, name", [
    (flower, "c"),
    (upper_bound_family, "c"),
    (prism, "k"),
    (lambda k: subdivide_edges(octahedron(), k), "k"),
    (lambda pairs: augment_octahedron(GADGET, pairs), "pairs_per_edge"),
])
@pytest.mark.parametrize("size", [3.5, 6.0, True])
def test_generators_refuse_a_size_that_is_not_an_int(make, name, size):
    # a float size failed inside range() with a bare TypeError, and
    # subdivide_edges took True for one subdivision
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer, got {size!r}$"):
        make(size)


@pytest.mark.parametrize("kind", (GADGET, BIGADGET))
def test_augmented_il_simplicity_consistent(kind):
    from circlesystems.coloring import build_il, il_simplicity, two_color_faces

    g = augment_octahedron(kind, 2)
    il = build_il(g, two_color_faces(g))
    assert il.graph.edge_count == g.n
    if not il_simplicity(il).simple:
        assert connectivity_level(g) <= 2


@pytest.mark.parametrize("make", [lambda c=c: flower(c) for c in range(3, 9)]
                         + [lambda c=c: upper_bound_family(c)
                            for c in (4, 6, 8, 16, 32, 64, 80)])
def test_generator_graph_is_the_extracted_graph(make):
    # the generators read their graph off the arc ends the assembly builds;
    # matching every end again must give the same embedding, dart for dart
    g, r = make()
    e = extract_with_arcs(r)
    assert (g.rotation, g.dart_tail, g.dart_rev) == (e.rotation, e.dart_tail, e.dart_rev)
    assert serialize_graph(g) == serialize_graph(e)


def test_assembled_outputs_pinned():
    # the bytes that arc assembly builds: generator graphs and realizations,
    # the gadget-augmented octahedra, and a smoothed system with its dual;
    # none of them calls the packing solver, so solver changes leave it
    docs = []
    for c in range(3, 9):
        g, r = flower(c)
        docs += [serialize_graph(g), serialize_realization(r)]
    docs += [serialize_realization(canonical_octahedron_realization(kind))
             for kind in RealizationClass]
    docs += [serialize_graph(augment_octahedron(kind, pairs))
             for kind in (GADGET, BIGADGET) for pairs in (2, 3)]
    s = smooth_degree_two(flower(5)[1])
    docs += [serialize_realization(s), serialize_dual(oriented_dual(s))]
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == (
        "20ec3160e7964df184a7c48626bea124b9f64e86d1c682459530369f99bf33dc")
