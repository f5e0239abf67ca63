import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, strategies as st

from circlesystems import cli, errors, jsonio
from circlesystems.cli import run_cli
from circlesystems.equivalence import RealizationClass
from circlesystems.generators import canonical_octahedron_realization, flower, octahedron
from circlesystems.packing import pack
from circlesystems.realization import realize


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


def test_usage_error_exit_code():
    code, _, _ = run(["generate", "nonsense"])
    assert code == 2
    code, _, err = run(["generate", "medial"])
    assert code == 2
    code, _, _ = run(["geom", "outer-mate", "--r1", "1", "--r2", "1",
                      "--phi", "2.0"])
    assert code == 2


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


def test_il_graph_serialization():
    from circlesystems.coloring import build_il, two_color_faces

    g = octahedron()
    il = build_il(g, two_color_faces(g))
    doc = json.loads(jsonio.serialize_il(il))
    assert doc["type"] == "il_graph"
    assert doc["edge_labels"] == list(range(g.n))  # one edge per graph vertex
    assert jsonio.parse_graph(doc).n == il.graph.n


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
    code, out, err = run(["geom", "outer-mate", "--r1", "1e308",
                          "--r2", "1e308", "--phi", "0.1"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


_CIRCLE = {"id": 0, "cx": 0.0, "cy": 0.0, "r": 1.0}
# a canonical octahedron whose first point names circle 0 twice
_REPEATED_CIRCLE = jsonio.realization_to_obj(
    canonical_octahedron_realization(RealizationClass.THREE_CROSSING))
_REPEATED_CIRCLE["points"][0]["on"] = [0, 0]


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
])
def test_malformed_document_exits_2(argv, doc):
    code, out, err = run(argv, json.dumps(doc))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")


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


_EXIT_CODES = {
    "CircleSystemsError": 1,
    "UsageError": 2,
    "MalformedRotation": 2,
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
