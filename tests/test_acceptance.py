"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import math
import random
import time
from contextlib import redirect_stdout

import pytest

from circlesystems import jsonio
from circlesystems.cli import run_cli
from circlesystems.coloring import build_il, il_simplicity, two_color_faces
from circlesystems.embedding import connectivity_level, medial
from circlesystems.equivalence import (
    RealizationClass,
    classify_octahedron,
    equivalent,
    oriented_dual,
    smooth_degree_two,
)
from circlesystems.generators import (
    BIGADGET,
    GADGET,
    augment_octahedron,
    bigadget,
    canonical_octahedron_realization,
    cube,
    dodecahedron,
    flower,
    gadget,
    icosahedron,
    octahedron,
    tetrahedron,
    upper_bound_family,
)
from circlesystems.geometry import (
    EXTERIOR,
    INTERIOR,
    descartes_check,
    gadget_arc_infeasibility,
    inner_mate_radius,
    nested_arc_inequality,
    outer_mate_radius,
    outer_phi_max,
    sample_arc_pair_config,
)
from circlesystems.isomorphism import graphs_isomorphic
from circlesystems.packing import pack
from circlesystems.realization import (
    KIND_TOUCH,
    circle_count_bounds,
    extract_with_arcs,
    innermost_face_arc_check,
    realize,
    verify_realization,
)

from conftest import (
    build_inner_configuration,
    build_outer_configuration,
    out_degree_counts,
    tangency_residual,
)

CORPUS = [
    ("octahedron", octahedron),
    ("medial(tetrahedron)", lambda: medial(tetrahedron())),
    ("medial(cube)", lambda: medial(cube())),
    ("medial(octahedron)", lambda: medial(octahedron())),
    ("medial(dodecahedron)", lambda: medial(dodecahedron())),
    ("medial(icosahedron)", lambda: medial(icosahedron())),
]


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_pipeline():
    start = time.monotonic()
    for name, maker in CORPUS:
        g = maker()
        r = realize(g, 1e-9)
        assert all(p.kind == KIND_TOUCH for p in r.points), name
        assert verify_realization(r, g, 1e-8).passed, name
        assert graphs_isomorphic(extract_with_arcs(r), g), name
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: realization pipeline on 6-graph corpus",
        elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_bounds():
    realizations = []
    for name, maker in CORPUS:
        g = maker()
        realizations.append((name, realize(g, 1e-9)))
    for kind in RealizationClass:
        realizations.append(
            (kind.value, canonical_octahedron_realization(kind))
        )
    lower_exact = True
    for c in range(3, 9):
        graph, real = flower(c)
        realizations.append((f"flower({c})", real))
        lower_exact &= graph.n == c * (c - 1)
        lower_exact &= circle_count_bounds(graph.n).lower == float(c)
        lower_exact &= len(real.circles) == c
    upper_exact = True
    for c in (4, 6, 8, 10):
        graph, real = upper_bound_family(c)
        realizations.append((f"upper_bound_family({c})", real))
        upper_exact &= graph.n == 3 * c // 2
        upper_exact &= 3 * len(real.circles) == 2 * graph.n
    in_bounds = all(
        circle_count_bounds(len(r.points)).contains(len(r.circles))
        for _, r in realizations
    )
    _report(
        "criterion 2: circle-count bounds with tight families",
        in_bounds and lower_exact and upper_exact,
        f"{len(realizations)} realizations checked",
    )


def test_criterion_3_octahedron_classification():
    canon = {
        kind: canonical_octahedron_realization(kind)
        for kind in RealizationClass
    }
    pairwise = all(
        equivalent(canon[k1], canon[k2]) == (k1 == k2)
        for k1 in RealizationClass
        for k2 in RealizationClass
    )
    expected_out3 = {
        RealizationClass.THREE_CROSSING: 1,
        RealizationClass.FOUR_TOUCHING_DISJOINT: 4,
        RealizationClass.FOUR_TOUCHING_NESTED: 3,
    }
    degrees = all(
        out_degree_counts(oriented_dual(smooth_degree_two(canon[k]))).get(3, 0)
        == expected_out3[k]
        for k in RealizationClass
    )
    consistent = all(
        classify_octahedron(canon[k]) == k for k in RealizationClass
    )
    pipeline_kind = classify_octahedron(realize(octahedron()))
    _report(
        "criterion 3: three non-equivalent octahedron classes",
        pairwise and degrees and consistent
        and pipeline_kind in set(RealizationClass),
        f"out-degree-3 counts 1/4/3, pipeline -> {pipeline_kind.value}",
    )


def test_criterion_4_il_structure():
    octa = octahedron()
    il = build_il(octa, two_color_faces(octa))
    k4_ok = graphs_isomorphic(il.graph, tetrahedron())
    packing = pack(il.graph, 1e-9)
    descartes = descartes_check(*packing.circles)
    contrapositive = True
    for _, maker in CORPUS:
        g = maker()
        report = il_simplicity(build_il(g, two_color_faces(g)))
        if not report.simple and connectivity_level(g) > 2:
            contrapositive = False
    _report(
        "criterion 4: gray-face graph structure",
        k4_ok and descartes <= 1e-6 and contrapositive,
        f"descartes residual {descartes:.2e}",
    )


def test_criterion_5_mate_radius_formulas():
    grid = [1e-4 + i * (math.pi - 2e-4) / 999 for i in range(1000)]
    worst_residual = 0.0
    monotone = True
    for r1, r2 in ((1.0, 0.5), (2.5, 0.4)):
        prev = None
        for phi in grid:
            value = inner_mate_radius(r1, r2, phi)
            _, c2, c = build_inner_configuration(r1, r2, phi)
            worst_residual = max(worst_residual, tangency_residual(c2, c))
            if prev is not None and value <= prev:
                monotone = False
            prev = value
    for r1, r2 in ((1.0, 1.0), (2.0, 0.7)):
        hi = outer_phi_max(r1, r2) - 1e-6
        prev = None
        for i in range(1000):
            phi = 1e-4 + i * (hi - 1e-4) / 999
            value = outer_mate_radius(r1, r2, phi)
            _, c2, c = build_outer_configuration(r1, r2, phi)
            worst_residual = max(worst_residual, tangency_residual(c2, c))
            if prev is not None and value <= prev:
                monotone = False
            prev = value
    singular = all(
        outer_mate_radius(r1, r2, outer_phi_max(r1, r2) - 1e-9) > 1e6
        for r1, r2 in ((1.0, 1.0), (3.0, 1.0), (0.6, 1.9))
    )
    _report(
        "criterion 5: mate-radius monotonicity and degeneration",
        monotone and worst_residual <= 1e-12 and singular,
        f"worst constructive residual {worst_residual:.2e}",
    )


def test_criterion_6_arc_inequality():
    rng = random.Random(20240817)
    violations = 0
    for side in (INTERIOR, EXTERIOR):
        for _ in range(10000):
            cfg = sample_arc_pair_config(rng, side)
            inner = cfg.beta_p - cfg.alpha_p
            ok = (
                nested_arc_inequality(cfg)
                and (cfg.alpha_p - cfg.alpha) - inner > 1e-12
                and (cfg.beta - cfg.beta_p) - inner > 1e-12
            )
            if not ok:
                violations += 1
    _report(
        "criterion 6: nested arc inequality on 2x10^4 samples",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_7_infeasibility():
    searches_empty = all(
        not gadget_arc_infeasibility(phi, 60).feasible_found
        for phi in (1.0, 2.0, 3.0, 3.14)
    )
    innermost = all(
        innermost_face_arc_check(canonical_octahedron_realization(kind))
        for kind in RealizationClass
    )
    _report(
        "criterion 7: attachment placement infeasible, innermost arc below pi",
        searches_empty and innermost,
    )


def test_criterion_8_counterexample_structure():
    ga = augment_octahedron(GADGET, 2)
    bga = augment_octahedron(BIGADGET, 2)
    gadget_profile = sorted(
        gadget().graph.degree(v) for v in range(gadget().graph.n)
    )
    bigadget_profile = sorted(
        bigadget().graph.degree(v) for v in range(bigadget().graph.n)
    )
    ok = (
        ga.is_regular(4)
        and ga.n > 100
        and connectivity_level(ga) == 1
        and bga.is_regular(4)
        and connectivity_level(bga) == 2
        and gadget_profile == [2, 2] + [4] * 15
        and bigadget_profile == [2, 2] + [4] * 15
    )
    _report(
        "criterion 8: augmented counterexample graphs",
        ok,
        f"gadget version n={ga.n}, bigadget version n={bga.n}",
    )


def _run_cli_capture(argv, stdin_text=""):
    import sys

    out = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out):
            code = run_cli(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue()


def test_criterion_9_determinism_roundtrip():
    import tempfile

    _, graph_json = _run_cli_capture(["generate", "octahedron"])
    _, real_json = _run_cli_capture(["realize"], graph_json)
    with tempfile.TemporaryDirectory() as tmp:
        real_path = f"{tmp}/real.json"
        with open(real_path, "w", encoding="utf-8") as fh:
            fh.write(real_json)
        commands = [
            (["generate", "octahedron"], ""),
            (["generate", "medial", "--base", "dodecahedron"], ""),
            (["generate", "flower", "--count", "5", "--realization"], ""),
            (["generate", "upper-bound", "--count", "6", "--realization"], ""),
            (["generate", "canonical", "--kind", "touching-nested"], ""),
            (["generate", "augmented", "--kind", "gadget", "--pairs", "2"], ""),
            (["realize"], graph_json),
            (["verify"], real_json),
            (["classify"], real_json),
            (["equiv", real_path, real_path], ""),
            (["bounds", "--n", "9"], ""),
            (["geom", "arc-inequality", "--samples", "25", "--seed", "11"], ""),
            (["geom", "infeasibility", "--phi", "1.0", "--grid", "30"], ""),
            (["render"], real_json),
        ]
        deterministic = True
        for argv, stdin_text in commands:
            code1, out1 = _run_cli_capture(argv, stdin_text)
            code2, out2 = _run_cli_capture(argv, stdin_text)
            if code1 != 0 or code2 != 0 or out1 != out2:
                deterministic = False

    g = medial(cube())
    r = realize(g)
    p = pack(g, 1e-9)
    d = oriented_dual(canonical_octahedron_realization(RealizationClass.THREE_CROSSING))
    roundtrip = (
        jsonio.parse_graph(jsonio.serialize_graph(g)) == g
        and jsonio.parse_realization(jsonio.serialize_realization(r)).circles
        == r.circles
        and jsonio.parse_realization(jsonio.serialize_realization(r)).points
        == r.points
        and jsonio.parse_realization(jsonio.serialize_realization(r)).arcs
        == r.arcs
        and jsonio.parse_packing(jsonio.serialize_packing(p)).circles == p.circles
        and jsonio.parse_dual(jsonio.serialize_dual(d)) == d
    )
    _report(
        "criterion 9: CLI determinism and JSON round-trips",
        deterministic and roundtrip,
    )
