"""Command line interface.

Data flows over stdin/stdout as the JSON documents defined in jsonio, so
commands compose in shell pipelines:

    circlesystems generate octahedron | circlesystems realize | circlesystems verify

Exit codes: 0 success, 1 verification failure, no matching octahedron
class or internal error, 2 usage or domain error (including malformed
documents, files that cannot be read or written, and results that are not
finite), 3 numeric failure (non-convergence or degeneracy).  The codes
follow the base classes in ``errors``.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import generators, geometry, jsonio
from .embedding import medial
from .equivalence import RealizationClass, classify_octahedron, equivalent
from .errors import CircleSystemsError, NoClassMatch, NumericError, UsageError
from .packing import Circle
from .realization import circle_count_bounds, realize, verify_realization
from .svgrender import RenderOptions, render_svg

_PLATONICS = {
    "tetrahedron": generators.tetrahedron,
    "cube": generators.cube,
    "octahedron": generators.octahedron,
    "dodecahedron": generators.dodecahedron,
    "icosahedron": generators.icosahedron,
}

_CLASS_NAMES = {
    "three-crossing": RealizationClass.THREE_CROSSING,
    "touching-disjoint": RealizationClass.FOUR_TOUCHING_DISJOINT,
    "touching-nested": RealizationClass.FOUR_TOUCHING_NESTED,
}


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="circlesystems",
        description="Realize 4-regular planar graphs as systems of circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a reference graph or realization")
    g.add_argument("family",
                   choices=sorted(_PLATONICS) + [
                       "medial", "flower", "upper-bound", "canonical",
                       "gadget", "bigadget", "augmented",
                   ])
    g.add_argument("--base", choices=sorted(_PLATONICS),
                   help="base solid for the medial family")
    g.add_argument("--count", type=int, help="circle count for flower/upper-bound")
    g.add_argument("--kind", help="canonical class or augmentation kind")
    g.add_argument("--pairs", type=int, default=2,
                   help="gadget pairs per edge for the augmented family")
    g.add_argument("--realization", action="store_true",
                   help="emit the reference realization instead of the graph")
    g.add_argument("--out")

    r = sub.add_parser("realize", help="realize a graph as touching circles")
    r.add_argument("--in", dest="infile")
    r.add_argument("--tol", type=float, default=1e-9)
    r.add_argument("--out")

    v = sub.add_parser("verify", help="check a realization against the rules")
    v.add_argument("--in", dest="infile")
    v.add_argument("--graph", help="graph JSON the realization must match")
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--out")

    b = sub.add_parser("bounds", help="circle-count bounds for n vertices")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--out")

    e = sub.add_parser("equiv", help="test equivalence of two realizations")
    e.add_argument("first")
    e.add_argument("second")
    e.add_argument("--out")

    c = sub.add_parser("classify", help="octahedron realization class")
    c.add_argument("--in", dest="infile")
    c.add_argument("--out")

    m = sub.add_parser("geom", help="evaluate a tangent-circle oracle")
    m.add_argument("oracle", choices=[
        "inner-mate", "outer-mate", "phi-max", "arc-inequality",
        "infeasibility", "descartes",
    ])
    m.add_argument("--r1", type=float)
    m.add_argument("--r2", type=float)
    m.add_argument("--phi", type=float)
    m.add_argument("--grid", type=int, default=60)
    m.add_argument("--side", choices=["interior", "exterior"], default="interior")
    m.add_argument("--samples", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--circles", help="JSON list of four [cx, cy, r] triples")
    m.add_argument("--out")

    s = sub.add_parser("render", help="render a packing or realization to SVG")
    s.add_argument("--in", dest="infile")
    s.add_argument("--format", choices=["svg"], default="svg")
    s.add_argument("--width", type=int, default=800)
    s.add_argument("--height", type=int, default=800)
    s.add_argument("--no-circles", action="store_true")
    s.add_argument("--no-points", action="store_true")
    s.add_argument("--no-arcs", action="store_true")
    s.add_argument("--labels", action="store_true")
    s.add_argument("--shade", action="store_true")
    s.add_argument("--out")
    return parser


def _cmd_generate(args):
    fam = args.family
    if fam in _PLATONICS:
        _emit(jsonio.serialize_graph(_PLATONICS[fam]()), args.out)
        return 0
    if fam == "medial":
        if not args.base:
            raise ValueError("medial needs --base")
        _emit(jsonio.serialize_graph(medial(_PLATONICS[args.base]())), args.out)
        return 0
    if fam in ("flower", "upper-bound"):
        if args.count is None:
            raise ValueError(f"{fam} needs --count")
        make = (generators.flower if fam == "flower"
                else generators.upper_bound_family)
        graph, real = make(args.count)
        doc = (jsonio.serialize_realization(real) if args.realization
               else jsonio.serialize_graph(graph))
        _emit(doc, args.out)
        return 0
    if fam == "canonical":
        kind = _CLASS_NAMES.get(args.kind or "")
        if kind is None:
            raise ValueError(
                f"canonical needs --kind from {sorted(_CLASS_NAMES)}"
            )
        real = generators.canonical_octahedron_realization(kind)
        _emit(jsonio.serialize_realization(real), args.out)
        return 0
    if fam in ("gadget", "bigadget"):
        fragment = generators.gadget() if fam == "gadget" else generators.bigadget()
        obj = jsonio.graph_to_obj(fragment.graph)
        obj["endpoints"] = list(fragment.endpoints)
        obj["skeleton"] = dict(fragment.skeleton)
        _emit(jsonio.dumps(obj), args.out)
        return 0
    if fam == "augmented":
        kind = (args.kind or "gadget").upper()
        if kind not in (generators.GADGET, generators.BIGADGET):
            raise ValueError("augmented needs --kind gadget|bigadget")
        g = generators.augment_octahedron(kind, args.pairs)
        _emit(jsonio.serialize_graph(g), args.out)
        return 0
    raise ValueError(f"unknown family {fam!r}")


def _cmd_realize(args):
    g = jsonio.parse_graph(_read_input(args.infile))
    real = realize(g, args.tol)
    _emit(jsonio.serialize_realization(real), args.out)
    return 0


def _cmd_verify(args):
    real = jsonio.parse_realization(_read_input(args.infile))
    graph = None
    if args.graph:
        graph = jsonio.parse_graph(_read_input(args.graph))
    report = verify_realization(real, graph, args.tol)
    obj = {
        "type": "verify_report",
        "version": 1,
        "passed": report.passed,
        "circles": report.circle_count,
        "points": report.point_count,
        "violations": [{"rule": rule, "detail": detail}
                       for rule, detail in report.violations],
    }
    _emit(jsonio.dumps(obj), args.out)
    if not report.passed:
        for rule, detail in report.violations:
            print(f"violation [{rule}]: {detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args):
    b = circle_count_bounds(args.n)
    _emit(jsonio.dumps({"lower": b.lower, "upper": b.upper}), args.out)
    return 0


def _cmd_equiv(args):
    r1 = jsonio.parse_realization(_read_input(args.first))
    r2 = jsonio.parse_realization(_read_input(args.second))
    result = equivalent(r1, r2)
    _emit(jsonio.dumps({"equivalent": result}), args.out)
    return 0


def _cmd_classify(args):
    real = jsonio.parse_realization(_read_input(args.infile))
    try:
        kind = classify_octahedron(real)
    except NoClassMatch as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return 1
    _emit(jsonio.dumps({"class": kind.value}), args.out)
    return 0


def _cmd_geom(args):
    oracle = args.oracle
    if oracle == "inner-mate":
        _require(args, "r1", "r2", "phi")
        value = geometry.inner_mate_radius(args.r1, args.r2, args.phi)
        _emit(jsonio.dumps({"radius": value}), args.out)
    elif oracle == "outer-mate":
        _require(args, "r1", "r2", "phi")
        value = geometry.outer_mate_radius(args.r1, args.r2, args.phi)
        _emit(jsonio.dumps({"radius": value}), args.out)
    elif oracle == "phi-max":
        _require(args, "r1", "r2")
        value = geometry.outer_phi_max(args.r1, args.r2)
        _emit(jsonio.dumps({"phi_max": value}), args.out)
    elif oracle == "arc-inequality":
        if args.samples < 0:
            raise ValueError(f"--samples must not be negative, got {args.samples}")
        rng = random.Random(args.seed)
        side = (geometry.INTERIOR if args.side == "interior"
                else geometry.EXTERIOR)
        holds = 0
        for _ in range(args.samples):
            cfg = geometry.sample_arc_pair_config(rng, side)
            if geometry.nested_arc_inequality(cfg):
                holds += 1
        _emit(
            jsonio.dumps({"samples": args.samples, "holds": holds}), args.out
        )
    elif oracle == "infeasibility":
        _require(args, "phi")
        rep = geometry.gadget_arc_infeasibility(args.phi, args.grid)
        _emit(
            jsonio.dumps({
                "feasible_found": rep.feasible_found,
                "tested": rep.tested,
                "phi": rep.phi,
                "grid": rep.grid,
            }),
            args.out,
        )
    elif oracle == "descartes":
        import json as _json

        if not args.circles:
            raise ValueError("descartes needs --circles")
        raw = _json.loads(args.circles)
        if not (isinstance(raw, list) and len(raw) == 4
                and all(isinstance(e, list) and len(e) == 3
                        and all(isinstance(z, (int, float))
                                and not isinstance(z, bool) for z in e)
                        for e in raw)):
            raise ValueError(
                "descartes needs --circles as a list of four [cx, cy, r] "
                "triples of numbers"
            )
        circles = [Circle(*entry) for entry in raw]
        value = geometry.descartes_check(*circles)
        _emit(jsonio.dumps({"residual": value}), args.out)
    return 0


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"oracle {args.oracle!r} needs --{name}")


def _cmd_render(args):
    obj = jsonio.parse_any(_read_input(args.infile))
    opts = RenderOptions(
        width=args.width,
        height=args.height,
        show_circles=not args.no_circles,
        show_points=not args.no_points,
        show_arcs=not args.no_arcs,
        show_labels=args.labels,
        shade_gray=args.shade,
    )
    _emit(render_svg(obj, opts), args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "equiv": _cmd_equiv,
    "classify": _cmd_classify,
    "geom": _cmd_geom,
    "render": _cmd_render,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CircleSystemsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
