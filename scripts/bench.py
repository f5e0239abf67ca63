#!/usr/bin/env python3
"""Time the pipeline on the size ladder and diff against the last record.

Usage: python scripts/bench.py --label NAME [--max-n 3840] [--repeats 3]
                               [--outdir DIR]

The ladder is the iterated medials of the icosahedron, n=60 up to
``--max-n`` (at most 3840), each realized by `realize`; the prisms with 40,
70 and 80 sides, packed by `pack`; `flower(3..8)` and
`upper_bound_family(4..80)`, generated with their realizations; and the
geometry oracles: `gadget_arc_infeasibility(phi, 100)` for phi 0.5, 1.5
and 2.5, and 2000 seeded `sample_arc_pair_config` + `nested_arc_inequality`
draws per side.  Per input it records the median seconds over
``--repeats`` runs of `realize` (or of `pack`, the generator or the
oracle), of `verify_realization(r, g)` and of `equivalent(r, r)`, the
Newton directions `pack` solved, and the status:
"ok", "verify failed", "not equivalent to itself", or the class of the
exception that stopped the input.  A column that does not apply to an
input, or that an exception left unmeasured, is null.

The record goes to ``BENCH_<label>.json`` in ``--outdir`` (the root of this
checkout by default, created if missing), after the diff against the newest
other ``BENCH_*.json`` there is printed.  The package is imported from ``src/``
of this checkout.
"""

import argparse
import json
import pathlib
import platform
import random
import re
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from circlesystems.coloring import build_il, two_color_faces
from circlesystems.embedding import medial
from circlesystems.equivalence import equivalent
from circlesystems.errors import CircleSystemsError
from circlesystems.generators import (
    flower,
    icosahedron,
    prism,
    tetrahedron,
    upper_bound_family,
)
from circlesystems.geometry import (
    EXTERIOR,
    INTERIOR,
    gadget_arc_infeasibility,
    nested_arc_inequality,
    sample_arc_pair_config,
)
from circlesystems.packing import pack
from circlesystems.realization import realize, verify_realization

TOL = 1e-9
COLUMNS = ("realize_s", "verify_s", "equivalent_s", "directions", "status")


def _median_time(fn, repeats):
    """(median seconds, last result) of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _directions(g):
    """Newton directions of ``pack(g)``, read off the failure message when
    the packing is not certified."""
    try:
        return pack(g, TOL).iterations
    except CircleSystemsError as exc:
        found = re.match(r"after (\d+) Newton steps", str(exc))
        return int(found.group(1)) if found else None


def _row(make, packed, repeats, verdicts=True):
    """One record: ``make()`` returns (graph, realization), or a packing
    when ``verdicts`` is False; ``packed`` is the graph whose packing
    counts the Newton directions, or None."""
    row = dict.fromkeys(COLUMNS)
    if packed is not None:
        row["directions"] = _directions(packed)
    try:
        row["realize_s"], made = _median_time(make, repeats)
        row["status"] = "ok"
        if verdicts:
            g, r = made
            row["verify_s"], report = _median_time(
                lambda: verify_realization(r, g), repeats)
            row["equivalent_s"], same = _median_time(
                lambda: equivalent(r, r), repeats)
            if not report.passed:
                row["status"] = "verify failed"
            elif not same:
                row["status"] = "not equivalent to itself"
    except CircleSystemsError as exc:
        row["status"] = type(exc).__name__
    return row


def _arc_draws(side, count=2000):
    """``count`` seeded arc-pair samples on ``side``, each passed to
    `nested_arc_inequality`."""
    rng = random.Random(2024)
    for _ in range(count):
        nested_arc_inequality(sample_arc_pair_config(rng, side))


def _ladder(max_n):
    """(name, graph) of the icosahedron medials n=60..min(max_n, 3840)."""
    g = medial(icosahedron())
    while g.n < 3840 and 2 * g.n <= max_n:
        g = medial(g)
        yield f"medial-n{g.n}", g


def collect(max_n, repeats):
    rows = {}
    for name, g in _ladder(max_n):
        gray = build_il(g, two_color_faces(g)).graph
        rows[name] = _row(lambda g=g: (g, realize(g, TOL)), gray, repeats)
        print(name, rows[name], flush=True)
    for k in (40, 70, 80):
        p = prism(k)
        rows[f"prism{k}"] = _row(lambda p=p: pack(p, TOL), p, repeats,
                                 verdicts=False)
        print(f"prism{k}", rows[f"prism{k}"], flush=True)
    for c in range(3, 9):
        rows[f"flower{c}"] = _row(lambda c=c: flower(c), None, repeats)
        print(f"flower{c}", rows[f"flower{c}"], flush=True)
    for c in range(4, 81, 2):
        base = tetrahedron() if c == 4 else prism(c // 2)
        name = f"upper-bound-family{c}"
        rows[name] = _row(lambda c=c: upper_bound_family(c), base, repeats)
        print(name, rows[name], flush=True)
    for phi in (0.5, 1.5, 2.5):
        name = f"gadget-phi{phi}"
        rows[name] = _row(lambda phi=phi: gadget_arc_infeasibility(phi, 100),
                          None, repeats, verdicts=False)
        print(name, rows[name], flush=True)
    for side in (INTERIOR, EXTERIOR):
        name = f"arc-samples-{side.lower()}"
        rows[name] = _row(lambda side=side: _arc_draws(side), None, repeats,
                          verdicts=False)
        print(name, rows[name], flush=True)
    return rows


def _cell(old, new):
    if old == new:
        return str(new)
    if isinstance(old, float) and isinstance(new, float) and old > 0:
        return f"{old:.4f} -> {new:.4f} ({(new - old) / old:+.1%})"
    return f"{old} -> {new}"


def diff(old, new):
    """Lines comparing two records input by input."""
    lines = []
    for name, row in new["inputs"].items():
        before = old["inputs"].get(name)
        if before is None:
            lines.append(f"{name}: new input")
            continue
        cells = [f"{col} {_cell(before.get(col), row[col])}" for col in COLUMNS]
        lines.append(f"{name}: " + "; ".join(cells))
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--max-n", type=int, default=3840)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--outdir", type=pathlib.Path, default=ROOT)
    args = ap.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label may hold letters, digits, '_', '.' and '-' only")

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "inputs": collect(args.max_n, args.repeats),
    }
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = args.outdir / f"BENCH_{args.label}.json"
    others = [p for p in args.outdir.glob("BENCH_*.json") if p != out]
    if others:
        last = max(others, key=lambda p: p.stat().st_mtime)
        print(f"\ndiff against {last.name}")
        print("\n".join(diff(json.loads(last.read_text()), record)))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
