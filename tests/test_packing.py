import math

import pytest

from circlesystems.coloring import build_il, two_color_faces
from circlesystems.embedding import build_embedding, dual, medial
from circlesystems.errors import Disconnected, TooSmall
from circlesystems.geometry import descartes_check
from circlesystems.packing import Circle, Packing, pack, packing_residual, triangulate
from circlesystems.generators import cube, icosahedron, octahedron, prism, tetrahedron


def test_pack_k4_descartes():
    p = pack(tetrahedron(), 1e-10)
    assert p.residual <= 1e-10
    # four mutually tangent circles satisfy the curvature identity
    assert descartes_check(*p.circles) <= 1e-6
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = p.circles[i], p.circles[j]
            d = math.hypot(a.cx - b.cx, a.cy - b.cy)
            assert abs(d - (a.r + b.r)) <= 1e-9 * (a.r + b.r)


def test_pack_too_small():
    with pytest.raises(TooSmall):
        pack(build_embedding([[1], [0]]))


def test_pack_disconnected():
    two_triangles = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    with pytest.raises(Disconnected):
        pack(build_embedding(two_triangles))


def test_pack_il_of_medial_cube_residual():
    g = medial(cube())
    il = build_il(g, two_color_faces(g))
    p = pack(il.graph, 1e-9)
    assert p.residual <= 1e-9
    assert packing_residual(p, il.graph) <= 2e-9


def test_pack_deterministic():
    p1 = pack(octahedron(), 1e-9)
    p2 = pack(octahedron(), 1e-9)
    assert p1.circles == p2.circles
    assert p1.residual == p2.residual
    assert p1.iterations == p2.iterations


def test_boundary_normalization():
    # the two base circles of the boundary triangle sit at radius 1
    p = pack(tetrahedron(), 1e-9)
    unit = [c for c in p.circles if abs(c.r - 1.0) < 1e-12]
    assert len(unit) >= 2


def test_triangulate_k4():
    tri = triangulate(tetrahedron())
    g = tri.graph
    assert g.n == 8
    assert g.edge_count == 18
    assert all(len(cycle) == 3 for cycle in g.faces)


def test_triangulate_square():
    tri = triangulate(build_embedding([[1, 3], [2, 0], [3, 1], [0, 2]]))
    g = tri.graph
    assert g.n == 6  # 4 base + 2 apexes
    assert g.face_count == 8
    assert all(len(cycle) == 3 for cycle in g.faces)


def test_apex_degree_equals_face_length(octa):
    tri = triangulate(octa)
    for f, apex in enumerate(tri.apex_of_face):
        assert tri.graph.degree(apex) == len(octa.faces[f])


@pytest.mark.parametrize("maker", [
    octahedron,
    lambda: prism(7),
    lambda: dual(icosahedron()),
    lambda: medial(medial(cube())),
])
def test_triangulate_apex_darts_follow_corners(maker):
    g = maker()
    tri = triangulate(g)
    tg = tri.graph
    for u, rot in enumerate(g.rotation):
        row = tg.rotation[u]
        assert row[0::2] == rot
        for d, up in zip(rot, row[1::2]):
            # the corner (d, sigma(d)) lies in the face of sigma(d)
            assert tg.dart_head[up] == tri.apex_of_face[g.dart_face[g.sigma_next(d)]]
    for f, cycle in enumerate(g.faces):
        # the up dart of cycle dart d's corner sits just before d
        downs = [tg.dart_rev[tg.sigma_prev(d)] for d in reversed(cycle)]
        assert tg.rotation[tri.apex_of_face[f]] == downs


def test_residual_of_exact_triangle_packing():
    triangle = build_embedding([[1, 2], [2, 0], [0, 1]])
    s3 = math.sqrt(3.0)
    circles = (Circle(0.0, 0.0, 1.0), Circle(2.0, 0.0, 1.0), Circle(1.0, s3, 1.0))
    p = Packing(circles=circles, residual=0.0, iterations=0)
    assert packing_residual(p, triangle) <= 1e-15


def test_residual_detects_perturbation():
    triangle = build_embedding([[1, 2], [2, 0], [0, 1]])
    s3 = math.sqrt(3.0)
    circles = (Circle(0.0, 0.0, 1.01), Circle(2.0, 0.0, 1.0), Circle(1.0, s3, 1.0))
    p = Packing(circles=circles, residual=0.0, iterations=0)
    assert packing_residual(p, triangle) > 1e-3


def test_dropping_apexes_preserves_base_tangencies(octa):
    # residual recomputed against the base graph only stays within tolerance
    p = pack(octa, 1e-9)
    assert packing_residual(p, octa) <= 2e-9


@pytest.mark.parametrize("maker", [tetrahedron, cube, octahedron])
def test_pack_certificate_on_polyhedra(maker):
    g = maker()
    p = pack(g, 1e-9)
    assert packing_residual(p, g) <= 2e-9
