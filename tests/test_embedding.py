import random

import pytest
from hypothesis import given, strategies as st

from circlesystems.embedding import (
    EmbeddedGraph,
    build_embedding,
    connectivity_level,
    dual,
    medial,
    subdivide_edges,
    subdivided_rows,
)
from circlesystems.errors import Disconnected, MalformedRotation, NonPlanarEmbedding
from circlesystems.generators import (
    BIGADGET,
    GADGET,
    augment_octahedron,
    cube,
    dodecahedron,
    icosahedron,
    octahedron,
    prism,
    tetrahedron,
)
from circlesystems.isomorphism import graphs_isomorphic

from conftest import (
    adjacency_sets,
    brute_force_connectivity,
    joined_octahedra,
    pinched_octahedra,
    relabel_graph,
)

PLATONICS = [tetrahedron, cube, octahedron, dodecahedron, icosahedron]


def test_octahedron_counts(octa):
    assert octa.n == 6
    assert octa.edge_count == 12
    assert octa.face_count == 8
    assert all(len(cycle) == 3 for cycle in octa.faces)


def test_doubled_square_accepted_as_not_simple():
    doubled = [[1, 3, 3, 1], [2, 0, 0, 2], [3, 1, 1, 3], [0, 2, 2, 0]]
    g = build_embedding(doubled)
    assert g.n == 4 and g.edge_count == 8 and g.face_count == 6
    assert not g.is_simple()


def test_asymmetric_adjacency_rejected():
    with pytest.raises(MalformedRotation):
        build_embedding([[1], [0, 2], [1, 0]])


def test_twisted_embedding_rejected():
    # K5-free but genus-1 rotation of K3,3-ish data: scrambled octahedron
    lists = octahedron().to_neighbor_lists()
    lists[0] = [lists[0][0], lists[0][2], lists[0][1], lists[0][3]]
    with pytest.raises(NonPlanarEmbedding):
        build_embedding(lists)


def test_euler_check_counts_every_component():
    lists = octahedron().to_neighbor_lists()
    # K5 has no plane rotation, so a disjoint K5 makes the whole non-plane
    k5 = [[6 + w for w in range(5) if w != v] for v in range(5)]
    with pytest.raises(NonPlanarEmbedding, match="on each of 2 components"):
        build_embedding(lists + k5)
    twice = build_embedding(lists + [[6 + w for w in row] for row in lists])
    assert len(twice.connected_components()) == 2
    assert twice.face_count == 16


def test_face_tracing_covers_each_dart_once():
    g = octahedron()
    covered = sorted(d for cycle in g.faces for d in cycle)
    assert covered == list(range(2 * g.edge_count))


@pytest.mark.parametrize("maker", PLATONICS)
def test_degree_sum_twice_edges(maker):
    g = maker()
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_connectivity_octahedron(octa):
    assert connectivity_level(octa) == 3


def test_connectivity_cut_vertex():
    assert connectivity_level(joined_octahedra()) == 1


def test_connectivity_disconnected():
    two_triangles = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    assert connectivity_level(build_embedding(two_triangles)) == 0


def wheel(k):
    """Hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = [[i % k + 1, 0, (i - 2) % k + 1] for i in range(1, k + 1)]
    return build_embedding([list(range(1, k + 1))] + rim)


def octahedron_with_double_edge():
    lists = octahedron().to_neighbor_lists()
    v = lists[0][0]
    # the copy sits beside the original at 0 and wraps around at v, so the
    # two copies bound an empty digon
    lists[0].insert(1, v)
    k = lists[v].index(0)
    lists[v] = lists[v][k:] + lists[v][:k] + [0]
    return build_embedding(lists)


def octahedron_with_loop():
    lists = octahedron().to_neighbor_lists()
    lists[0][1:1] = [0, 0]
    return build_embedding(lists)


def doubled_cycle(k):
    return build_embedding(
        [[(i + 1) % k, (i - 1) % k, (i - 1) % k, (i + 1) % k] for i in range(k)]
    )


def octahedra_sharing_an_edge():
    """Two octahedra glued along the edge 0-1, one on each side of it.

    {0, 1} is a 2-cut: the face around both copies meets each triangle
    beside 0-1 in just 0 and 1, and 0-1 does not lie between them."""
    base = octahedron().to_neighbor_lists()
    copy = {0: 0, 1: 1, 2: 6, 3: 7, 4: 8, 5: 9}
    lists = base + [[copy[w] for w in base[v]] for v in range(2, 6)]

    def after(row, start):
        k = row.index(start)
        return row[k + 1:] + row[:k]

    lists[0] = [1] + after(base[0], 1) + [copy[w] for w in after(base[0], 1)]
    lists[1] = [0] + [copy[w] for w in after(base[1], 0)] + after(base[1], 0)
    return build_embedding(lists)


def four_parallel_edges():
    # dart i at vertex 0 pairs with dart -i at vertex 1: four nested digons
    return EmbeddedGraph(
        [[0, 1, 2, 3], [4, 5, 6, 7]], [0] * 4 + [1] * 4, [4, 7, 6, 5, 0, 3, 2, 1]
    )


SMALL_GRAPHS = (
    [(f"dual-{m.__name__}", lambda m=m: dual(m())) for m in PLATONICS]
    + [(f"medial-{m.__name__}", lambda m=m: medial(m())) for m in PLATONICS]
    + [(f"prism{k}", lambda k=k: prism(k)) for k in range(3, 12)]
    + [
        (f"{m.__name__}-sub{k}", lambda m=m, k=k: subdivide_edges(m(), k))
        for m in (tetrahedron, cube, octahedron)
        for k in (1, 2)
    ]
    + [(f"wheel{k}", lambda k=k: wheel(k)) for k in range(3, 9)]
    + [("octahedra-sharing-an-edge", octahedra_sharing_an_edge)]
    + [
        ("octahedron-double-edge", octahedron_with_double_edge),
        ("octahedron-loop", octahedron_with_loop),
        ("four-parallel-edges", four_parallel_edges),
    ]
    + [(f"doubled-cycle{k}", lambda k=k: doubled_cycle(k)) for k in range(3, 7)]
)


@pytest.mark.parametrize(
    "maker",
    PLATONICS
    + [joined_octahedra, pinched_octahedra]
    + [pytest.param(maker, id=name) for name, maker in SMALL_GRAPHS],
)
def test_connectivity_matches_brute_force(maker):
    g = maker()
    assert g.n <= 40
    assert connectivity_level(g) == brute_force_connectivity(g)


@pytest.mark.parametrize("depth, n", [(5, 480), (6, 960)])
def test_connectivity_of_large_medials(depth, n):
    g = icosahedron()
    for _ in range(depth):
        g = medial(g)
    assert g.n == n
    assert connectivity_level(g) == 3


@pytest.mark.parametrize("kind, level", [(GADGET, 1), (BIGADGET, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_connectivity_of_relabelled_gadgets(kind, level, seed):
    g = relabel_graph(augment_octahedron(kind), random.Random(seed))
    assert connectivity_level(g) == level


def test_dual_octahedron_is_cube(octa):
    d = dual(octa)
    assert d.n == 8 and d.edge_count == 12
    assert graphs_isomorphic(d, cube())


def test_dual_involution(octa):
    assert graphs_isomorphic(dual(dual(octa)), octa)


def test_dual_preserves_edge_count():
    for maker in PLATONICS:
        g = maker()
        assert dual(g).edge_count == g.edge_count


def test_dual_of_four_regular_is_bipartite(octa):
    d = dual(octa)
    color = {0: 0}
    stack = [0]
    adj = adjacency_sets(d)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            else:
                assert color[w] != color[u]


def test_dual_requires_connected():
    two_triangles = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    with pytest.raises(Disconnected):
        dual(build_embedding(two_triangles))


def test_medial_tetrahedron_is_octahedron(octa):
    assert graphs_isomorphic(medial(tetrahedron()), octa)


def test_medial_cube_counts():
    m = medial(cube())
    assert m.n == 12 and m.edge_count == 24
    assert m.is_regular(4)


def test_medial_dodecahedron_three_connected():
    m = medial(dodecahedron())
    assert m.n == 30
    assert m.is_regular(4)
    assert connectivity_level(m) == 3


@pytest.mark.parametrize("maker", PLATONICS)
def test_medial_always_four_regular(maker):
    assert medial(maker()).is_regular(4)


@pytest.mark.parametrize("maker", [
    lambda: dual(icosahedron()),
    lambda: medial(medial(cube())),
])
def test_medial_faces_on_darts_out_of_rotation_order(maker):
    g = maker()
    assert [d for rot in g.rotation for d in rot] != list(range(len(g.dart_tail)))
    m = medial(g)
    # one medial face around each vertex and inside each face of g
    assert m.face_count == g.n + g.face_count
    assert sorted(len(cycle) for cycle in m.faces) == sorted(
        [g.degree(v) for v in range(g.n)] + [len(cycle) for cycle in g.faces]
    )


def test_subdivide_counts(octa):
    assert subdivide_edges(octa, 8).n == 6 + 12 * 8


def test_subdivide_zero_is_identity(octa):
    assert subdivide_edges(octa, 0) == octa


def test_subdivide_degrees(octa):
    s = subdivide_edges(octa, 1)
    assert s.n == 18
    assert all(s.degree(v) == 4 for v in range(6))
    assert all(s.degree(v) == 2 for v in range(6, 18))


@pytest.mark.parametrize(
    "maker",
    [lambda: prism(5).with_outer_face(1), octahedron, lambda: medial(cube())],
    ids=["prism5-quad-outside", "octahedron", "medial-cube"],
)
@pytest.mark.parametrize("k", range(4))
def test_subdivide_keeps_faces_and_outer_face(maker, k):
    g = maker()
    s = subdivide_edges(g, k)
    assert s.outer_face == g.outer_face
    m = len(g.dart_tail)
    for f, cycle in enumerate(g.faces):
        assert s.faces[f][0] == cycle[0]
        # the path darts sit between the old ones, which keep their order
        assert tuple(d for d in s.faces[f] if d < m) == cycle
    assert s.to_neighbor_lists() == subdivided_rows(g, k)


@pytest.mark.parametrize("rows, message", [
    ([[1, 1], [0]], "adjacency between 0 and 1 is asymmetric"),
    ([[0]], "odd number of loop darts at 0"),
    ([[5]], "vertex 0 lists unknown neighbor 5"),
])
def test_build_embedding_refuses_malformed_rows(rows, message):
    with pytest.raises(MalformedRotation, match=f"^{message}$"):
        build_embedding(rows)


@pytest.mark.parametrize("rotation, tails, revs, outer, message", [
    ([[0, 1]], [0, 0], [1], None, "reversal involution size mismatch"),
    ([[0, 1]], [0, 0], [0, 1], None,
     "reversal is not a fixed-point-free involution"),
    ([[0], [1]], [0, 1], [1, 2], None,
     "reversal is not a fixed-point-free involution"),
    ([[0, 1, 2], [3]], [0, 0, 0, 1], [1, 0, 3, 3], None,
     "reversal is not a fixed-point-free involution"),
    ([], [], [], None, "graph has no vertices"),
    ([[0, 1], []], [0, 0], [1, 0], None, "vertex 1 has no incident darts"),
    ([[0, 1], [1]], [0, 1], [1, 0], None,
     "rotation lists do not partition the darts"),
    ([[0, 0], [1]], [0, 1], [1, 0], None,
     "rotation lists do not partition the darts"),
    ([[0, 1], [2]], [0, 0, 1, 1], [1, 0, 3, 2], None,
     "some darts missing from the rotation lists"),
    ([[0], [1]], [0, 1], [1, 0], 1, "outer face id 1 out of range"),
    ([[0], [1]], [0, 1], [1, 0], -1, "outer face id -1 out of range"),
    # dart ids outside range(2): -1 would index from the end
    ([[0], [-1]], [0, 1], [1, 0], None,
     "rotation lists do not partition the darts"),
    ([[0], [5]], [0, 1], [1, 0], None,
     "rotation lists do not partition the darts"),
])
def test_constructor_refuses_malformed_darts(rotation, tails, revs, outer,
                                              message):
    with pytest.raises(MalformedRotation, match=f"^{message}$"):
        EmbeddedGraph(rotation, tails, revs, outer)


def test_repr_counts_vertices_edges_and_faces(octa):
    assert repr(octa) == "EmbeddedGraph(n=6, edges=12, faces=8)"


def test_equality_with_another_type_is_not_implemented(octa):
    assert octa.__eq__(octa.to_neighbor_lists()) is NotImplemented
    assert octa != octa.to_neighbor_lists()
    assert octa == octahedron()


def test_subdivide_refuses_a_negative_count(octa):
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        subdivide_edges(octa, -1)


@given(st.integers(min_value=0, max_value=5))
def test_subdivide_vertex_count_formula(k):
    g = tetrahedron()
    assert subdivide_edges(g, k).n == g.n + k * g.edge_count
