import copy
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from circlesystems import cli, errors, jsonio, packing
from circlesystems.cli import run_cli
from circlesystems.equivalence import RealizationClass
from circlesystems.generators import (
    bigadget,
    canonical_octahedron_realization,
    flower,
    gadget,
    octahedron,
    upper_bound_family,
)
from circlesystems.packing import pack
from circlesystems.realization import Realization, realize
from circlesystems.svgrender import RenderOptions, render_svg


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_generate_realize_verify_pipeline():
    code, graph_json, _ = run(["generate", "octahedron"])
    assert code == 0
    code, real_json, _ = run(["realize"], graph_json)
    assert code == 0
    code, report, _ = run(["verify"], real_json)
    assert code == 0
    assert json.loads(report)["passed"] is True


def test_bounds_output_bytes():
    code, out, _ = run(["bounds", "--n", "6"])
    assert code == 0
    assert out.strip() == '{"lower":3.0,"upper":4.0}'


def test_bounds_n12():
    code, out, _ = run(["bounds", "--n", "12"])
    assert json.loads(out) == {"lower": 4.0, "upper": 8.0}


@pytest.mark.parametrize("n", [str(10**400), "5", "7.5", "nan"])
def test_bounds_outside_the_domain_exits_2(n):
    # 10**400 overflows a float; 5 is too small; the others are no int
    code, out, err = run(["bounds", "--n", n])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_verify_failure_exit_code(tmp_path):
    r = realize(octahedron())
    obj = jsonio.realization_to_obj(r)
    obj["circles"][0]["r"] *= 1.001
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(obj))
    code, out, err = run(["verify", "--in", str(bad)])
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "violation" in err


def test_numeric_failure_exit_code():
    _, graph_json, _ = run(["generate", "octahedron"])
    code, _, err = run(["realize", "--tol", "1e-30"], graph_json)
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("command", ["realize", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_outside_zero_to_infinity_exits_2(command, tol):
    _, graph_json, _ = run(["generate", "octahedron"])
    _, real_json, _ = run(["realize"], graph_json)
    stdin = graph_json if command == "realize" else real_json
    code, out, _ = run([command, "--tol", tol], stdin)
    assert code == 2 and out == ""


def test_newton_step_cap_exits_3_with_diagnosis(monkeypatch):
    monkeypatch.setattr(packing, "MAX_STEPS", 1)
    _, graph_json, _ = run(["generate", "medial", "--base", "cube"])
    code, out, err = run(["realize"], graph_json)
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: after 1 Newton steps, angle-sum error ")
    assert "tangency residual" in err and "overlap" in err


def test_usage_error_exit_code():
    code, _, _ = run(["generate", "nonsense"])
    assert code == 2
    code, _, err = run(["generate", "medial"])
    assert code == 2
    code, _, _ = run(["geom", "outer-mate", "--r1", "1", "--r2", "1",
                      "--phi", "2.0"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["generate", "flower"], "flower needs --count"),
    (["generate", "canonical"], "canonical needs --kind from "
     "['three-crossing', 'touching-disjoint', 'touching-nested']"),
    (["generate", "canonical", "--kind", "foo"], "canonical needs --kind from "
     "['three-crossing', 'touching-disjoint', 'touching-nested']"),
    (["generate", "augmented", "--kind", "foo"],
     "augmented needs --kind gadget|bigadget"),
    (["geom", "descartes"], "descartes needs --circles"),
    (["geom", "inner-mate", "--r2", "0.5", "--phi", "1"],
     "oracle 'inner-mate' needs --r1"),
])
def test_missing_option_exits_2_naming_it(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family, make", [("gadget", gadget),
                                          ("bigadget", bigadget)])
def test_generate_fragment_outputs_a_graph_with_its_ends(family, make):
    code, out, err = run(["generate", family])
    assert (code, err) == (0, "")
    fragment, doc = make(), json.loads(out)
    assert (jsonio.parse_graph(out).to_neighbor_lists()
            == fragment.graph.to_neighbor_lists())
    assert doc["endpoints"] == [0, 1]
    assert doc["skeleton"] == fragment.skeleton


def test_classify_command():
    r = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    code, out, _ = run(["classify"], jsonio.serialize_realization(r))
    assert code == 0
    assert json.loads(out) == {"class": "FOUR_TOUCHING_NESTED"}


def test_classify_failure_exit_code():
    _, real = flower(4)
    code, _, err = run(["classify"], jsonio.serialize_realization(real))
    assert code == 1


def test_equiv_command(tmp_path):
    r1 = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    r2 = canonical_octahedron_realization(RealizationClass.FOUR_TOUCHING_NESTED)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(jsonio.serialize_realization(r1))
    p2.write_text(jsonio.serialize_realization(r2))
    code, out, _ = run(["equiv", str(p1), str(p1)])
    assert code == 0 and json.loads(out) == {"equivalent": True}
    code, out, _ = run(["equiv", str(p1), str(p2)])
    assert code == 0 and json.loads(out) == {"equivalent": False}


def test_geom_oracles():
    code, out, _ = run(["geom", "inner-mate", "--r1", "1", "--r2", "0.5",
                        "--phi", "3.141592653589793"])
    assert code == 0
    assert json.loads(out)["radius"] == pytest.approx(0.5, abs=1e-12)
    code, out, _ = run(["geom", "infeasibility", "--phi", "2.0"])
    assert code == 0
    data = json.loads(out)
    assert data["feasible_found"] is False
    code, out, _ = run(["geom", "arc-inequality", "--samples", "50",
                        "--seed", "7", "--side", "exterior"])
    assert json.loads(out) == {"samples": 50, "holds": 50}


@pytest.mark.parametrize("argv, message", [
    (["geom", "arc-inequality", "--samples", "-5"],
     "error: --samples must not be negative, got -5\n"),
    (["geom", "outer-mate", "--r1", "1", "--r2", "1", "--phi", "nan"],
     "error: need phi > 0, got nan\n"),
])
def test_geom_argument_outside_the_domain_exits_2(argv, message):
    code, out, err = run(argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("circles", [
    "[[0,0,1],[1,0],[2,0,1],[3,0,1]]",
    "5",
    "[1,2,3,4]",
    "[[0,0,1],[2,0,1],[1,1.7]]",
    '[[0,0,1],[2,0,1],[1,1.7,1],[1,0.6,"0.15"]]',
    "[[0,0,1],[2,0,1],[1,1.7,1],[1,0.6,true]]",
    "[[0,0,0],[2,0,0],[1,1,0],[1,0.5,0]]",
    "[[0,0,1],[2,0,1],[1,1.7320508075688772,1],[1,0.5773502691896258,-1]]",
    "[[0,0,1],[2,0,1],[1,1.7320508075688772,1],[1,0.5773502691896258,NaN]]",
    "{",
])
def test_malformed_descartes_circles_exit_2(circles):
    code, out, err = run(["geom", "descartes", "--circles", circles])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_descartes_cli_accepts_four_triples_of_numbers():
    s3 = 3.0 ** 0.5
    circles = json.dumps([[0, 0, 1], [2, 0, 1], [1, s3, 1],
                          [1, s3 / 3, (2 * s3 - 3) / 3]])
    code, out, _ = run(["geom", "descartes", "--circles", circles])
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_descartes_cli_at_extreme_scales(scale):
    s3 = 3.0 ** 0.5
    circles = json.dumps([[x * scale for x in c] for c in (
        [0, 0, 1], [2, 0, 1], [1, s3, 1], [1, s3 / 3, (2 * s3 - 3) / 3])])
    code, out, err = run(["geom", "descartes", "--circles", circles])
    assert (code, err) == (0, "")
    assert json.loads(out)["residual"] <= 1e-12


def test_cli_determinism():
    for argv in (
        ["generate", "octahedron"],
        ["generate", "flower", "--count", "4", "--realization"],
        ["generate", "canonical", "--kind", "touching-disjoint"],
        ["bounds", "--n", "9"],
    ):
        code1, out1, _ = run(argv)
        code2, out2, _ = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2


def test_render_three_crossing():
    code, real_json, _ = run(
        ["generate", "canonical", "--kind", "three-crossing"]
    )
    code, svg, _ = run(["render"], real_json)
    assert code == 0
    assert svg.count('class="circle"') == 3
    assert svg.count('class="point"') == 6
    assert svg.count('class="arc"') == 12


def test_render_packing_has_no_arcs():
    p = pack(octahedron(), 1e-9)
    code, svg, _ = run(["render"], jsonio.serialize_packing(p))
    assert code == 0
    assert svg.count('class="circle"') == 6
    assert 'class="arc"' not in svg


def test_render_labels_toggle():
    code, real_json, _ = run(
        ["generate", "canonical", "--kind", "three-crossing"]
    )
    _, svg_plain, _ = run(["render"], real_json)
    assert "<text" not in svg_plain
    _, svg_labels, _ = run(["render", "--labels"], real_json)
    assert "<text" in svg_labels


def test_render_rejects_all_layers_off():
    _, real_json, _ = run(["generate", "canonical", "--kind", "three-crossing"])
    code, _, _ = run(
        ["render", "--no-circles", "--no-points", "--no-arcs"], real_json
    )
    assert code == 2


def test_render_svg_refuses_a_packing_with_only_point_and_arc_layers():
    # a packing has no points or arcs, so nothing would be drawn
    with pytest.raises(ValueError, match="something to draw"):
        render_svg(pack(octahedron(), 1e-9), RenderOptions(show_circles=False))


@pytest.mark.parametrize("opts, message", [
    (RenderOptions(width=True, height=2.5), "render width must be a number, got True"),
    (RenderOptions(height=False), "render height must be a number, got False"),
])
def test_render_svg_refuses_a_bool_size(opts, message):
    # True passed the size check as 1 and was written as width="True"
    with pytest.raises(ValueError, match=f"^{message}$"):
        render_svg(pack(octahedron(), 1e-9), opts)


def test_render_svg_refuses_an_empty_realization():
    with pytest.raises(errors.EmptyInput):
        render_svg(Realization([], [], []))


def test_parse_realization_refuses_a_repeated_circle_id():
    data = json.loads(jsonio.serialize_realization(realize(octahedron())))
    data["circles"][1]["id"] = 0
    with pytest.raises(ValueError, match="^realization document: id 0 appears twice$"):
        jsonio.parse_realization(data)


def test_render_no_circles_on_a_packing_is_a_usage_error():
    p = pack(octahedron(), 1e-9)
    code, out, err = run(["render", "--no-circles"],
                         jsonio.serialize_packing(p))
    assert code == 2
    assert out == ""
    assert "something to draw" in err


def test_render_refuses_coordinates_beyond_the_float_range():
    _, r = flower(4)
    r.circles[0] = packing.Circle(-1e308, r.circles[0].cy, 1e308)
    with pytest.raises(ValueError, match="cannot draw"):
        render_svg(r)


def test_render_bytes_pinned():
    # the drawings of the canonical octahedra and flower(3..8), by default
    # and with every layer on
    systems = [canonical_octahedron_realization(k) for k in RealizationClass]
    systems += [flower(c)[1] for c in range(3, 9)]
    every = RenderOptions(show_labels=True, shade_gray=True)
    svgs = [render_svg(r, opts)
            for r in systems for opts in (RenderOptions(), every)]
    assert hashlib.sha256("".join(svgs).encode()).hexdigest() == (
        "183e75f687df4ce861230ce45cb1ef589e1538818447fcdf8b7e68df4d1e4980")


def test_render_determinism():
    _, real_json, _ = run(["generate", "canonical", "--kind", "touching-nested"])
    _, svg1, _ = run(["render"], real_json)
    _, svg2, _ = run(["render"], real_json)
    assert svg1 == svg2


def test_render_arc_flags_recover_circle_centers():
    # endpoint-to-center conversion of each SVG arc path must land on the
    # transformed circle center, proving the large-arc/sweep flags are right
    import math
    import re

    _, real_json, _ = run(["generate", "canonical", "--kind", "three-crossing"])
    _, svg, _ = run(["render"], real_json)
    real = jsonio.parse_realization(real_json)

    circle_screen = {}
    for m in re.finditer(
        r'<circle class="circle" cx="([-\d.]+)" cy="([-\d.]+)" r="([-\d.]+)"', svg
    ):
        cx, cy, r = map(float, m.groups())
        circle_screen[len(circle_screen)] = (cx, cy, r)

    paths = re.findall(
        r'd="M ([-\d.]+) ([-\d.]+) A ([-\d.]+) [-\d.]+ 0 (\d) (\d) '
        r"([-\d.]+) ([-\d.]+)\"",
        svg,
    )
    assert len(paths) == len(real.arcs)
    for (x1, y1, r, large, sweep, x2, y2), arc in zip(
        (tuple(map(float, p)) for p in paths), real.arcs
    ):
        hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
        d2 = hx * hx + hy * hy
        factor = math.sqrt(max(0.0, (r * r - d2) / d2))
        if int(large) == int(sweep):
            factor = -factor
        cx = factor * hy + (x1 + x2) / 2.0
        cy = -factor * hx + (y1 + y2) / 2.0
        want = circle_screen[arc.circle]
        assert math.hypot(cx - want[0], cy - want[1]) < 1e-2 * want[2]


def test_graph_roundtrip():
    g = octahedron()
    text = jsonio.serialize_graph(g)
    assert jsonio.parse_graph(text) == g
    assert jsonio.serialize_graph(jsonio.parse_graph(text)) == text


def test_realization_roundtrip():
    r = realize(octahedron())
    text = jsonio.serialize_realization(r)
    back = jsonio.parse_realization(text)
    assert back.circles == r.circles
    assert back.points == r.points
    assert back.arcs == r.arcs
    assert jsonio.serialize_realization(back) == text


def test_packing_roundtrip():
    p = pack(octahedron(), 1e-9)
    text = jsonio.serialize_packing(p)
    back = jsonio.parse_packing(text)
    assert back.circles == p.circles
    assert back.residual == p.residual


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=20,
    )
)
def test_float_serialization_roundtrips_exactly(values):
    text = jsonio.dumps({"values": values})
    assert json.loads(text)["values"] == values


def test_dumps_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        jsonio.dumps({"radius": float("nan")})


def test_non_finite_result_is_usage_error():
    # the mate radius here is about 3.7e315, beyond the float range
    code, out, err = run(["geom", "outer-mate", "--r1", "1e308",
                          "--r2", "1e308", "--phi", "1.5707963"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, key, value", [
    (["geom", "outer-mate", "--r1", "1e308", "--r2", "1e308", "--phi", "0.1"],
     "radius", 1e308 * (1.0 / math.cos(0.1) - 1.0)),
    (["geom", "phi-max", "--r1", "1.7e308", "--r2", "0.5e308"],
     "phi_max", math.acos(6.0 / 11.0)),
])
def test_exterior_oracles_near_the_float_range_exit_0(argv, key, value):
    # r1 * r2 overflows, r2 / r1 does not
    code, out, _ = run(argv)
    assert code == 0
    assert json.loads(out)[key] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("argv, key, value", [
    # r1 * r2 would overflow; in units of r1 nothing does
    (["geom", "inner-mate", "--r1", "1.5e308", "--r2", "1", "--phi", "1"],
     "radius", 1.5e308),
    # r2 / r1 underflows to 0.0, its square root does not
    (["geom", "phi-max", "--r1", "1e300", "--r2", "1e-300"],
     "phi_max", 2e-300),
    # r2 / r1 underflows, yet the mate below that angle is r1 / 399
    (["geom", "outer-mate", "--r1", "1e300", "--r2", "1e-300", "--phi", "1e-301"],
     "radius", 1e300 / 399),
])
def test_oracles_at_the_float_range_ends_print_finite_json(argv, key, value):
    code, out, _ = run(argv)
    assert code == 0
    assert json.loads(out)[key] == pytest.approx(value, rel=1e-15, abs=0.0)


_CIRCLE = {"id": 0, "cx": 0.0, "cy": 0.0, "r": 1.0}
_THREE_CROSSING = jsonio.realization_to_obj(
    canonical_octahedron_realization(RealizationClass.THREE_CROSSING))
# a canonical octahedron whose first point names circle 0 twice
_REPEATED_CIRCLE = copy.deepcopy(_THREE_CROSSING)
_REPEATED_CIRCLE["points"][0]["on"] = [0, 0]
_EMPTY_GRAPH = {"type": "graph", "version": 1, "n": 0, "rotation": []}


@pytest.mark.parametrize("argv, doc", [
    (["verify"], {"type": "realization"}),
    (["realize"], {"type": "graph"}),
    (["realize"], {"type": "graph", "rotation": "abc"}),
    (["realize"], {"type": "graph", "rotation": [[1], [0.5]]}),
    (["verify"], {"type": "realization", "circles": [{"id": 0, "cx": 0.0}],
                  "points": [], "arcs": []}),
    (["verify"], {"type": "realization", "circles": [_CIRCLE],
                  "points": [{"id": 0, "x": "1", "y": 0.0, "on": [0, 0],
                              "kind": "TOUCH"}], "arcs": []}),
    (["verify"], {"type": "realization", "circles": [_CIRCLE],
                  "points": [], "arcs": [{"circle": 3, "from_angle": 0.0,
                                          "to_angle": 1.0, "edge": 0}]}),
    (["classify"], {"type": "realization", "circles": [_CIRCLE],
                    "points": [{"id": 0, "x": 1.0, "y": 0.0, "on": [0, 7],
                                "kind": "TOUCH"}], "arcs": []}),
    (["render"], {"type": "packing", "circles": [dict(_CIRCLE, id=2)],
                  "residual": 0.0}),
    (["render"], {"type": "packing", "circles": [dict(_CIRCLE, r=0.0)],
                  "residual": 0.0}),
    (["render"], {"type": "oriented_dual", "nodes": [0], "edges": [[0]],
                  "outer": 1}),
    (["render"], [1, 2]),
    (["render"], {"type": "oriented_dual", "version": 1, "nodes": [0, 1],
                  "edges": [[0, 1], [1, 2], [2, 0]], "outer": 2}),
    (["render"], jsonio.graph_to_obj(octahedron())),
    (["classify"], _REPEATED_CIRCLE),
    (["realize"], _EMPTY_GRAPH),
    # an 'n' that does not count the rotation rows, and a missing 'n'
    (["realize"], dict(jsonio.graph_to_obj(octahedron()), n=7)),
    (["realize"], {key: value for key, value
                   in jsonio.graph_to_obj(octahedron()).items() if key != "n"}),
    # viewport sides beyond the float range
    (["render", "--width", str(10**400)], _THREE_CROSSING),
    (["render", "--height", str(10**400)], _THREE_CROSSING),
    # a bounding box beyond the float range: no nan in the drawing
    (["render"], {"type": "packing", "version": 1,
                  "circles": [{"id": 0, "cx": -1e308, "cy": 0, "r": 1e308}],
                  "residual": 0}),
])
def test_malformed_document_exits_2(argv, doc):
    code, out, err = run(argv, json.dumps(doc))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_empty_graph_document_names_the_fault():
    code, out, err = run(["realize"], json.dumps(_EMPTY_GRAPH))
    assert code == 2
    assert err == "error: graph has no vertices\n"


def test_il_graph_document_is_not_a_graph():
    doc = dict(jsonio.graph_to_obj(octahedron()), type="il_graph")
    code, out, err = run(["realize"], json.dumps(doc))
    assert code == 2 and out == ""
    assert err.startswith("error: expected a graph document")


@pytest.mark.parametrize("argv", [
    ["realize", "--in", "{missing}"],
    ["verify", "--in", "{missing}"],
    ["verify", "--in", "{good}", "--graph", "{missing}"],
    ["equiv", "{missing}", "{good}"],
    ["equiv", "{good}", "{missing}"],
    ["classify", "--in", "{missing}"],
    ["render", "--in", "{missing}"],
])
def test_missing_input_file_exits_2(tmp_path, argv):
    good = tmp_path / "good.json"
    good.write_text(jsonio.serialize_realization(
        canonical_octahedron_realization(RealizationClass.THREE_CROSSING)))
    paths = {"missing": tmp_path / "missing.json", "good": good}
    code, out, err = run([arg.format(**paths) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing.json" in err


def test_non_finite_document_field_exits_2():
    obj = jsonio.packing_to_obj(pack(octahedron(), 1e-9))
    obj["residual"] = float("nan")
    code, _, err = run(["render"], json.dumps(obj))
    assert code == 2 and "Traceback" not in err


def test_equiv_duplicated_point_is_numeric_failure(tmp_path):
    r = canonical_octahedron_realization(RealizationClass.THREE_CROSSING)
    obj = jsonio.realization_to_obj(r)
    obj["points"].append(dict(obj["points"][0], id=len(obj["points"])))
    good, dup = tmp_path / "good.json", tmp_path / "dup.json"
    good.write_text(jsonio.dumps(jsonio.realization_to_obj(r)))
    dup.write_text(jsonio.dumps(obj))
    code, out, err = run(["equiv", str(good), str(dup)])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ")


def _duplicated_arc_doc():
    # circle 0's second arc replaced by a copy of its first
    obj = jsonio.realization_to_obj(realize(octahedron()))
    first, second = [i for i, a in enumerate(obj["arcs"]) if a["circle"] == 0][:2]
    obj["arcs"][second] = dict(obj["arcs"][first])
    return obj


@pytest.mark.parametrize("with_graph", [False, True])
def test_verify_duplicated_arc_fails_partition(tmp_path, with_graph):
    graph = tmp_path / "g.json"
    graph.write_text(jsonio.serialize_graph(octahedron()))
    argv = ["verify", "--graph", str(graph)] if with_graph else ["verify"]
    code, out, err = run(argv, json.dumps(_duplicated_arc_doc()))
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert err.startswith("violation [arcs-partition-circle]: ")


def _no_point_circle_doc():
    # an extra circle that carries one arc and no points
    obj = jsonio.realization_to_obj(
        canonical_octahedron_realization(RealizationClass.THREE_CROSSING))
    c = len(obj["circles"])
    obj["circles"].append({"id": c, "cx": 9.0, "cy": 9.0, "r": 1.0})
    obj["arcs"].append({"circle": c, "from_angle": 0.0, "to_angle": 1.0,
                        "edge": len(obj["arcs"])})
    return obj


@pytest.mark.parametrize("argv", [["equiv", "{doc}", "{doc}"],
                                  ["classify", "--in", "{doc}"]])
def test_arc_on_circle_without_points_is_numeric_failure(tmp_path, argv):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_no_point_circle_doc()))
    code, out, err = run([arg.format(doc=doc) for arg in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ") and "Traceback" not in err


def test_classify_maps_errors_like_equiv(tmp_path):
    # point 0 moved onto a circle it does not lie on: the arcs then fail
    # the Euler check, a usage error under every command
    obj = jsonio.realization_to_obj(
        canonical_octahedron_realization(RealizationClass.THREE_CROSSING))
    obj["points"][0]["on"] = [2, 1]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj))
    for argv in (["classify", "--in", str(doc)], ["equiv", str(doc), str(doc)]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
    _, real = flower(4)
    code, _, err = run(["classify"], jsonio.serialize_realization(real))
    assert code == 1
    assert err.startswith("classification failed: realization matches none")


_EXIT_CODES = {
    "CircleSystemsError": 1,
    "UsageError": 2,
    "MalformedRotation": 2,
    "MalformedRealization": 2,
    "NonPlanarEmbedding": 2,
    "Disconnected": 2,
    "NotBipartiteDual": 2,
    "TooSmall": 2,
    "NotThreeConnected": 2,
    "DomainError": 2,
    "InvalidConfig": 2,
    "NotTangent": 2,
    "EmptyInput": 2,
    "NotRenderable": 2,
    "NumericError": 3,
    "NoConvergence": 3,
    "DegenerateArc": 3,
    "DegenerateRadius": 3,
    "VertexNotOnTwoGrayFaces": 1,
    "ILNotSimple": 1,
    "NoInnermostFace": 1,
    "NoClassMatch": 1,
}
_PREFIXES = {1: "internal error", 2: "error", 3: "numeric failure"}


def test_exit_code_table_covers_every_error_class():
    assert set(_EXIT_CODES) == {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }


@pytest.mark.parametrize("name, expected", sorted(_EXIT_CODES.items()))
def test_exit_code_follows_error_class(monkeypatch, name, expected):
    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setitem(cli._COMMANDS, "bounds", fail)
    code, out, err = run(["bounds", "--n", "6"])
    assert (code, out, err) == (expected, "", f"{_PREFIXES[expected]}: boom\n")


def _base_documents():
    """(realization object, graph object) pairs the mutations start from."""
    octa_graph = jsonio.graph_to_obj(octahedron())
    pairs = [(canonical_octahedron_realization(kind), octa_graph)
             for kind in RealizationClass]
    pairs.append((realize(octahedron()), octa_graph))
    for graph, real in (flower(4), upper_bound_family(6)):
        pairs.append((real, jsonio.graph_to_obj(graph)))
    return [(jsonio.realization_to_obj(r), g) for r, g in pairs]


_BASES = _base_documents()
_FLOAT_FIELDS = {"circles": ("cx", "cy", "r"), "points": ("x", "y"),
                 "arcs": ("from_angle", "to_angle")}


@st.composite
def _mutated_documents(draw):
    """A base document index and a copy of it with one mutation applied."""
    index = draw(st.sampled_from(range(len(_BASES))))
    doc = copy.deepcopy(_BASES[index][0])
    circles, points, arcs = doc["circles"], doc["points"], doc["arcs"]

    def pick(seq):
        return draw(st.sampled_from(range(len(seq))))

    def other_circle(c):
        return (c + 1 + pick(circles[1:])) % len(circles)

    kind = draw(st.sampled_from([
        "drop-point", "drop-arc", "duplicate-arc", "pointless-circle",
        "nudge", "arc-circle", "swap-angles", "point-on",
    ]))
    if kind == "drop-point":
        del points[pick(points)]
        for i, p in enumerate(points):
            p["id"] = i
    elif kind == "drop-arc":
        del arcs[pick(arcs)]
    elif kind == "duplicate-arc":
        arcs[pick(arcs)] = dict(arcs[pick(arcs)])
    elif kind == "pointless-circle":
        c = len(circles)
        circles.append({"id": c, "cx": 5.0, "cy": -3.0, "r": 0.5})
        arcs.append({"circle": c, "from_angle": 0.5, "to_angle": 2.0,
                     "edge": len(arcs)})
    elif kind == "nudge":
        part = draw(st.sampled_from(sorted(_FLOAT_FIELDS)))
        entry = doc[part][pick(doc[part])]
        key = draw(st.sampled_from(_FLOAT_FIELDS[part]))
        step = draw(st.sampled_from([1e-12, 1e-6, 0.1]))
        entry[key] += draw(st.sampled_from([step, -step]))
    elif kind == "arc-circle":
        arc = arcs[pick(arcs)]
        arc["circle"] = other_circle(arc["circle"])
    elif kind == "swap-angles":
        arc = arcs[pick(arcs)]
        arc["from_angle"], arc["to_angle"] = arc["to_angle"], arc["from_angle"]
    else:
        on = points[pick(points)]["on"]
        j = draw(st.sampled_from([0, 1]))
        on[j] = other_circle(on[j])
    return index, doc


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bases")
    paths = []
    for i, (real, graph) in enumerate(_BASES):
        real_path, graph_path = root / f"real{i}.json", root / f"graph{i}.json"
        real_path.write_text(json.dumps(real))
        graph_path.write_text(json.dumps(graph))
        paths.append((str(real_path), str(graph_path)))
    return paths


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=_mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(base_files, case):
    index, doc = case
    real_path, graph_path = base_files[index]
    text = json.dumps(doc)
    for argv in (["verify"], ["verify", "--graph", graph_path],
                 ["equiv", "-", real_path], ["classify"], ["render"]):
        code, _, err = run(argv, text)
        assert code in (0, 1, 2, 3), (argv, code, err)
        if code == 0:
            assert err == "", (argv, err)
        elif code == 1:
            expected = {
                "verify": "violation [",
                "classify": "classification failed: realization matches none",
            }.get(argv[0])
            assert expected and err.startswith(expected), (argv, err)
        else:
            assert err.startswith(_PREFIXES[code] + ": "), (argv, code, err)
