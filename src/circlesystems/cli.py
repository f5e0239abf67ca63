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
import json
import random
import sys
from contextlib import nullcontext

from . import generators, geometry, jsonio
from .embedding import medial
from .equivalence import RealizationClass, classify_octahedron, equivalent
from .errors import CircleSystemsError, NoClassMatch, NumericError, UsageError
from .packing import PACK_TOL, Circle
from .realization import (READ_TOL, circle_count_bounds, realize,
                          verify_realization)
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

# geom's scalar oracles: the arguments they need, their output key, and
# the function
_SCALAR_ORACLES = {
    "inner-mate": (("r1", "r2", "phi"), "radius", geometry.inner_mate_radius),
    "outer-mate": (("r1", "r2", "phi"), "radius", geometry.outer_mate_radius),
    "phi-max": (("r1", "r2"), "phi_max", geometry.outer_phi_max),
}


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text, out):
    if not text.endswith("\n"):
        text += "\n"
    with (nullcontext(sys.stdout) if out is None or out == "-"
          else open(out, "w", encoding="utf-8")) as fh:
        fh.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="circlesystems",
        description="Realize 4-regular planar graphs as systems of circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, reads=False):
        p = sub.add_parser(name, help=summary)
        if reads:
            p.add_argument("--in", dest="infile")
        return p

    g = command("generate", "emit a reference graph or realization")
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

    r = command("realize", "realize a graph as touching circles", reads=True)
    r.add_argument("--tol", type=float, default=PACK_TOL)

    v = command("verify", "check a realization against the rules", reads=True)
    v.add_argument("--graph", help="graph JSON the realization must match")
    v.add_argument("--tol", type=float, default=READ_TOL)

    b = command("bounds", "circle-count bounds for n vertices")
    b.add_argument("--n", type=int, required=True)

    e = command("equiv", "test equivalence of two realizations")
    e.add_argument("first")
    e.add_argument("second")

    command("classify", "octahedron realization class", reads=True)

    m = command("geom", "evaluate a tangent-circle oracle")
    m.add_argument("oracle", choices=[*_SCALAR_ORACLES, "arc-inequality",
                                      "infeasibility", "descartes"])
    m.add_argument("--r1", type=float)
    m.add_argument("--r2", type=float)
    m.add_argument("--phi", type=float)
    m.add_argument("--grid", type=int, default=60)
    m.add_argument("--side", choices=["interior", "exterior"], default="interior")
    m.add_argument("--samples", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--circles", help="JSON list of four [cx, cy, r] triples")

    s = command("render", "render a packing or realization to SVG", reads=True)
    s.add_argument("--width", type=int, default=800)
    s.add_argument("--height", type=int, default=800)
    s.add_argument("--no-circles", action="store_true")
    s.add_argument("--no-points", action="store_true")
    s.add_argument("--no-arcs", action="store_true")
    s.add_argument("--labels", action="store_true")
    s.add_argument("--shade", action="store_true")

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def _cmd_generate(args):
    fam = args.family
    if fam in _PLATONICS:
        doc = jsonio.graph_to_obj(_PLATONICS[fam]())
    elif fam == "medial":
        if not args.base:
            raise ValueError("medial needs --base")
        doc = jsonio.graph_to_obj(medial(_PLATONICS[args.base]()))
    elif fam in ("flower", "upper-bound"):
        if args.count is None:
            raise ValueError(f"{fam} needs --count")
        make = (generators.flower if fam == "flower"
                else generators.upper_bound_family)
        graph, real = make(args.count)
        doc = (jsonio.realization_to_obj(real) if args.realization
               else jsonio.graph_to_obj(graph))
    elif fam == "canonical":
        kind = _CLASS_NAMES.get(args.kind or "")
        if kind is None:
            raise ValueError(
                f"canonical needs --kind from {sorted(_CLASS_NAMES)}"
            )
        doc = jsonio.realization_to_obj(
            generators.canonical_octahedron_realization(kind))
    elif fam == "augmented":
        kind = (args.kind or "gadget").upper()
        if kind not in (generators.GADGET, generators.BIGADGET):
            raise ValueError("augmented needs --kind gadget|bigadget")
        doc = jsonio.graph_to_obj(generators.augment_octahedron(kind, args.pairs))
    else:  # the gadget and bigadget fragments
        fragment = generators.gadget() if fam == "gadget" else generators.bigadget()
        doc = jsonio.graph_to_obj(fragment.graph)
        doc["endpoints"] = list(fragment.endpoints)
        doc["skeleton"] = dict(fragment.skeleton)
    _emit(jsonio.dumps(doc), args.out)
    return 0


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
    if oracle in _SCALAR_ORACLES:
        names, key, function = _SCALAR_ORACLES[oracle]
        _require(args, *names)
        doc = {key: function(*(getattr(args, name) for name in names))}
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
        doc = {"samples": args.samples, "holds": holds}
    elif oracle == "infeasibility":
        _require(args, "phi")
        doc = geometry.gadget_arc_infeasibility(args.phi, args.grid)._asdict()
    else:  # descartes
        if not args.circles:
            raise ValueError("descartes needs --circles")
        raw = json.loads(args.circles)
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
        doc = {"residual": geometry.descartes_check(*circles)}
    _emit(jsonio.dumps(doc), args.out)
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
