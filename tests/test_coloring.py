import pytest

from circlesystems.coloring import GRAY, WHITE, build_il, il_simplicity, two_color_faces
from circlesystems.embedding import build_embedding, connectivity_level, medial
from circlesystems.errors import NotBipartiteDual, VertexNotOnTwoGrayFaces
from circlesystems.generators import (
    cube,
    dodecahedron,
    flower,
    icosahedron,
    octahedron,
    tetrahedron,
)
from circlesystems.isomorphism import graphs_isomorphic

from conftest import pinched_octahedra

CORPUS = [
    octahedron,
    lambda: medial(tetrahedron()),
    lambda: medial(cube()),
    lambda: medial(octahedron()),
    lambda: medial(dodecahedron()),
    lambda: medial(icosahedron()),
]


def test_octahedron_four_gray_four_white(octa):
    coloring = two_color_faces(octa)
    assert len(coloring.gray_faces()) == 4
    assert coloring.colors.count(WHITE) == 4
    assert coloring.colors[octa.outer_face] == WHITE


def test_adjacent_faces_differ(octa):
    coloring = two_color_faces(octa)
    for d in range(2 * octa.edge_count):
        f, g = octa.dart_face[d], octa.dart_face[octa.dart_rev[d]]
        assert coloring.colors[f] != coloring.colors[g]


def test_odd_degree_input_rejected():
    with pytest.raises(NotBipartiteDual):
        two_color_faces(cube())


def _two_octahedra():
    rows = octahedron().to_neighbor_lists()
    return build_embedding(rows + [[w + 6 for w in row] for row in rows])


def _three_triangles_at_a_vertex():
    return build_embedding([[1, 2, 3, 4, 5, 6], [2, 0], [0, 1], [4, 0], [0, 3],
                            [6, 0], [0, 5]])


@pytest.mark.parametrize("make, step, error, message", [
    (_two_octahedra, two_color_faces, NotBipartiteDual,
     "face adjacency graph is disconnected"),
    (_three_triangles_at_a_vertex, lambda g: build_il(g, two_color_faces(g)),
     VertexNotOnTwoGrayFaces, "vertex 0 lies on 3 gray corners, expected 2"),
], ids=["two-octahedra", "three-triangles-at-a-vertex"])
def test_coloring_refuses(make, step, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        step(make())


def test_coloring_deterministic(octa):
    assert two_color_faces(octa) == two_color_faces(octa)


def test_flower_graph_two_colorable():
    graph, _ = flower(3)
    coloring = two_color_faces(graph)
    total = len(coloring.gray_faces()) + coloring.colors.count(WHITE)
    assert total == graph.face_count
    assert coloring.colors[graph.outer_face] == WHITE


def test_il_octahedron_is_k4(octa):
    il = build_il(octa, two_color_faces(octa))
    assert il.graph.n == 4
    assert il.graph.edge_count == 6
    assert graphs_isomorphic(il.graph, tetrahedron())
    assert il_simplicity(il).simple


def test_il_medial_cube_edge_count():
    g = medial(cube())
    il = build_il(g, two_color_faces(g))
    assert il.graph.edge_count == 12


@pytest.mark.parametrize("maker", CORPUS)
def test_il_edge_count_equals_vertex_count(maker):
    g = maker()
    il = build_il(g, two_color_faces(g))
    assert il.graph.edge_count == g.n
    assert len(il.vertex_gray_pair) == g.n


@pytest.mark.parametrize(
    "maker", CORPUS + [lambda: medial(medial(cube())), pinched_octahedra]
)
def test_il_darts_follow_gray_corners(maker):
    g = maker()
    coloring = two_color_faces(g)
    il = build_il(g, coloring)
    for v, pair in enumerate(il.vertex_gray_pair):
        # v's gray corners are its darts that lie in gray faces
        faces = sorted(
            g.dart_face[d] for d in g.rotation[v]
            if coloring.colors[g.dart_face[d]] == GRAY
        )
        assert [il.gray_faces[i] for i in pair] == faces
        assert (il.graph.dart_tail[2 * v], il.graph.dart_tail[2 * v + 1]) == pair
    for i, f in enumerate(il.gray_faces):
        assert [d // 2 for d in il.graph.rotation[i]] == g.face_tails(f)


def test_biconnected_pinch_has_multiplicity_two():
    g = pinched_octahedra()
    il = build_il(g, two_color_faces(g))
    report = il_simplicity(il)
    assert not report.simple
    assert any(count >= 2 for _, _, count in report.multi_pairs)


@pytest.mark.parametrize("maker", CORPUS + [pinched_octahedra])
def test_simplicity_contrapositive(maker):
    # non-simple gray-face graph forces connectivity below 3 (simple inputs)
    g = maker()
    assert g.is_simple()
    il = build_il(g, two_color_faces(g))
    if not il_simplicity(il).simple:
        assert connectivity_level(g) <= 2


def test_multiplicity_report_lists_pair():
    g = pinched_octahedra()
    il = build_il(g, two_color_faces(g))
    report = il_simplicity(il)
    (a, b, count), = report.multi_pairs
    assert count == 2
    assert a < b


def test_selfloop_at_cut_vertex():
    # the face wrapping around a cut vertex holds both of its gray corners
    # once that face is gray, producing a loop in the intersection graph
    from conftest import joined_octahedra

    g0 = joined_octahedra()
    junction = 12
    wrap_face = next(
        f for f in range(g0.face_count)
        if g0.face_tails(f).count(junction) == 2
    )
    neighbor = next(
        g0.dart_face[g0.dart_rev[d]] for d in g0.faces[wrap_face]
    )
    g = g0.with_outer_face(neighbor)
    il = build_il(g, two_color_faces(g))
    report = il_simplicity(il)
    assert not report.simple
    assert report.selfloop_faces
    assert connectivity_level(g) <= 2
