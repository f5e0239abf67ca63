#!/usr/bin/env python3
"""Time the pipeline on the size ladder, call by call in fresh subprocesses.

Usage: python scripts/bench.py [--label NAME] [--against REV] [--max-n 3840]
                               [--repeats 3] [--outdir DIR]

The inputs: the icosahedron medials n=60 up to ``--max-n`` (at most 3840),
realized by `realize`; the prisms with 40, 70 and 80 sides, packed by
`pack`; `flower(3..8)` and `upper_bound_family(4..80)` with their
realizations; `gadget_arc_infeasibility(phi, 100)` for phi 0.5, 1.5 and
2.5, and 2000 seeded `sample_arc_pair_config` + `nested_arc_inequality`
draws per side; `augment_octahedron` of GADGET and BIGADGET; the
isomorphism search, `graphs_isomorphic` on those two octahedra and
`find_isomorphism` of each rung against a seeded relabelled copy (graphs
built untimed, a row skipped when its graph exceeds ``--max-n``); and
``import``, the package imported afresh as perfbench's ``import_package``
does it, its modules dropped from ``sys.modules`` first.

Each input gets a fresh worker importing the package from ``src/`` of this
checkout, and with ``--against REV`` a second one importing it from commit
REV, exported with ``git archive`` (its package must have the functions
this script calls).  After one untimed call each, they time single calls
in alternation, the side that goes first alternating too, for at least
``MIN_PAIRS`` calls per side, the fewest a median or ratio can rest on,
and until each side has timed ``--repeats`` times ``AGAINST_SECONDS`` (at
most 100 calls).  Timing two trees call by call keeps a shared machine's
drift out of their ratio.  A call times `realize` (or the generator,
`pack`, oracle, search or import), `verify_realization(r, g)` and
`equivalent(r, r)`, and reports the Newton directions `pack` solved (one
untimed packing per worker) and the status: "ok", "verify failed", "not
equivalent to itself", "wrong answer" (the octahedra found isomorphic, or
a mapping that does not carry edges onto edges), or the class of the
exception that stopped the call.  A column that does not
apply, or that an exception left unmeasured, is null.

Per input and side the script prints and keeps the number of calls, each
time column's median, and the directions and status (their distinct
values when calls disagree).  ``--label NAME`` writes them to
``BENCH_NAME.json`` in ``--outdir`` (default: the root of this checkout);
with ``--against``, REV's entry goes under ``against``, and the median,
min and max of the per-pair ratios this checkout / REV under ``ratio``.
"""

import argparse
import functools
import importlib
import json
import pathlib
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from circlesystems.coloring import build_il, two_color_faces
from circlesystems.embedding import medial
from circlesystems.equivalence import equivalent
from circlesystems.errors import CircleSystemsError
from circlesystems.generators import (
    BIGADGET,
    GADGET,
    augment_octahedron,
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
from circlesystems.isomorphism import find_isomorphism, graphs_isomorphic
from circlesystems.packing import pack
from circlesystems.realization import realize, verify_realization

TOL = 1e-9
AGAINST_SECONDS = 0.3  # per repeat, input and side
MIN_PAIRS = 10  # calls per input and side
COLUMNS = ("realize_s", "verify_s", "equivalent_s", "directions", "status")


def _timed(fn):
    """(seconds, result) of one call of ``fn``."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _directions(graph):
    """A function that returns the Newton directions of ``pack(graph())``,
    read off the failure message when the packing is not certified, and
    packed on the first call only."""
    @functools.cache
    def count():
        try:
            return pack(graph(), TOL).iterations
        except CircleSystemsError as exc:
            found = re.match(r"after (\d+) Newton steps", str(exc))
            return int(found.group(1)) if found else None
    return count


def _row(make, directions, verdicts=True, right=None):
    """One call's row: ``make()`` returns (graph, realization), or a packing
    when ``verdicts`` is False; ``directions`` is a ``_directions``
    function of the graph whose packing counts them, or None; ``right``,
    if given, tells whether ``make()``'s result is the right answer."""
    row = dict.fromkeys(COLUMNS)
    if directions is not None:
        row["directions"] = directions()
    try:
        row["realize_s"], made = _timed(make)
        row["status"] = "ok" if right is None or right(made) else "wrong answer"
        if verdicts:
            g, r = made
            row["verify_s"], report = _timed(lambda: verify_realization(r, g))
            row["equivalent_s"], same = _timed(lambda: equivalent(r, r))
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


def _reimport():
    """Drop ``circlesystems`` and its modules from ``sys.modules`` and
    import them again, from the directory they were loaded from."""
    package = sys.modules["circlesystems"].__file__
    for name in [m for m in sys.modules
                 if m == "circlesystems" or m.startswith("circlesystems.")]:
        del sys.modules[name]
    # the package imports every other module but these two
    for name in ("circlesystems", "circlesystems.jsonio",
                 "circlesystems.svgrender"):
        importlib.import_module(name)
    if sys.modules["circlesystems"].__file__ != package:
        raise SystemExit(f"error: circlesystems re-imported from "
                         f"{sys.modules['circlesystems'].__file__}, not {package}")


def _edge_multiset(edges, name=lambda v: v):
    """Undirected edges with every vertex ``v`` renamed ``name(v)``."""
    return Counter(tuple(sorted((name(u), name(v)))) for u, v in edges)


@functools.cache
def _rung(n):
    """The icosahedron medial on ``n`` vertices, built once from the one below."""
    return medial(icosahedron() if n == 30 else _rung(n // 2))


@functools.cache
def _relabelled_search(n):
    """``find_isomorphism`` of ``_rung(n)`` against a copy with its vertex
    ids permuted by a shuffle seeded ``n``, and whether a mapping carries
    the edges of the rung onto those of the copy."""
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    edges = _rung(n).edges()
    copy = [(perm[u], perm[v]) for u, v in edges]
    random.Random(n).shuffle(copy)
    target = _edge_multiset(copy)
    return (lambda: find_isomorphism(n, edges, n, copy),
            lambda m: m is not None
            and _edge_multiset(edges, m.__getitem__) == target)


def _inputs(max_n):
    """(name, timed) of every input in record order; ``timed()`` makes one
    call of the input and returns its row, building its graphs on the first."""
    ladder = [n for n in (60 << k for k in range(7)) if n <= max_n]
    for n in ladder:
        count = _directions(
            lambda n=n: build_il(_rung(n), two_color_faces(_rung(n))).graph)
        yield f"medial-n{n}", lambda n=n, count=count: _row(
            lambda g=_rung(n): (g, realize(g, TOL)), count)
    for k in (40, 70, 80):
        graph = functools.cache(lambda k=k: prism(k))
        yield f"prism{k}", lambda graph=graph, count=_directions(graph): _row(
            lambda p=graph(): pack(p, TOL), count, verdicts=False)
    for c in range(3, 9):
        yield f"flower{c}", lambda c=c: _row(lambda: flower(c), None)
    for c in range(4, 81, 2):
        count = _directions(lambda c=c: tetrahedron() if c == 4 else prism(c // 2))
        yield f"upper-bound-family{c}", lambda c=c, count=count: _row(
            lambda: upper_bound_family(c), count)
    for phi in (0.5, 1.5, 2.5):
        yield f"gadget-phi{phi}", lambda phi=phi: _row(
            lambda: gadget_arc_infeasibility(phi, 100), None, verdicts=False)
    for side in (INTERIOR, EXTERIOR):
        yield f"arc-samples-{side.lower()}", lambda side=side: _row(
            lambda: _arc_draws(side), None, verdicts=False)
    for kind in (GADGET, BIGADGET):
        yield f"augment-{kind.lower()}", lambda kind=kind: _row(
            lambda: augment_octahedron(kind), None, verdicts=False)
    if max_n >= 822:  # augment_octahedron(GADGET).n
        gadgets = functools.cache(
            lambda: [augment_octahedron(kind) for kind in (GADGET, BIGADGET)])
        yield "iso-gadget-bigadget", lambda: _row(
            lambda pair=gadgets(): graphs_isomorphic(*pair), None,
            verdicts=False, right=lambda same: not same)
    for n in ladder:
        yield f"iso-medial-n{n}", lambda n=n: _row(
            _relabelled_search(n)[0], None, verdicts=False,
            right=_relabelled_search(n)[1])
    yield "import", lambda: _row(_reimport, None, verdicts=False)


# a worker: import the package from the tree's src/ (argv[1]) before this
# script (from argv[2]) puts its own src/ first on the path, and put the
# tree's src/ first again for the import row; then answer each input name
# on stdin with the row of one call
_WORKER = """
import json, pathlib, sys
src, scripts, max_n = sys.argv[1:]
sys.path.insert(0, src)
import circlesystems
package = pathlib.Path(circlesystems.__file__).parent
if package != pathlib.Path(src, "circlesystems"):
    raise SystemExit(f"circlesystems imported from {package}")
sys.path.insert(0, scripts)
import bench
sys.path.insert(0, src)
inputs = dict(bench._inputs(int(max_n)))
for name in sys.stdin:
    print(json.dumps(inputs[name.strip()]()), flush=True)
"""


def _time_calls(srcs, name, max_n, repeats):
    """Rows of input ``name``, one list per tree in ``srcs``, each from a
    fresh worker importing the package from that tree and timed as the
    module docstring says."""
    workers = [subprocess.Popen(
        [sys.executable, "-c", _WORKER, str(src), str(ROOT / "scripts"),
         str(max_n)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for src in srcs]
    try:
        def call(side):
            workers[side].stdin.write(name + "\n")
            workers[side].stdin.flush()
            line = workers[side].stdout.readline()
            if not line:
                raise SystemExit(f"error: a worker stopped on {name}")
            return json.loads(line)

        sides = list(range(len(workers)))
        rows = [[] for _ in sides]
        spent = [0.0] * len(sides)
        for side in sides:
            call(side)
        # an input whose every call fails has no time to spend
        while len(rows[0]) < MIN_PAIRS or (
                0.0 < min(spent) < AGAINST_SECONDS * repeats
                and len(rows[0]) < 100):
            for side in sides[::-1 if len(rows[0]) % 2 else 1]:
                row = call(side)
                rows[side].append(row)
                spent[side] += sum(row[col] or 0.0 for col in COLUMNS[:3])
        return rows
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()


def _summary(rows):
    """One side's entry for an input: its number of calls, the median of
    each time column over the calls that measured it (null if none did),
    and the value of each other column, or its distinct values when the
    calls disagree."""
    entry = {"calls": len(rows)}
    for col in COLUMNS[:3]:
        times = [row[col] for row in rows if row[col] is not None]
        entry[col] = statistics.median(times) if times else None
    for col in COLUMNS[3:]:
        seen = sorted({row[col] for row in rows}, key=str)
        entry[col] = seen[0] if len(seen) == 1 else seen
    return entry


def _ratios(mine, theirs):
    """Per time column measured in some pair of calls: the median, min and
    max of the per-pair ratios mine / theirs."""
    ratios = {col: [m[col] / t[col] for m, t in zip(mine, theirs)
                    if m[col] and t[col]] for col in COLUMNS[:3]}
    return {col: {"median": statistics.median(q), "min": min(q), "max": max(q)}
            for col, q in ratios.items() if q}


def _cells(entry):
    """The printed cells of an input's entry: this checkout's medians, or,
    with REV's entry beside it, REV's median -> this median and the ratio."""
    theirs = entry.get("against")
    if theirs is None:
        return [f"{col} {entry[col]:.4f}" if col in COLUMNS[:3]
                else f"{col} {entry[col]}"
                for col in COLUMNS if entry[col] is not None]
    cells = [f"{col} {theirs[col]:.4f} -> {entry[col]:.4f} x{q['median']:.3f} "
             f"[{q['min']:.3f}, {q['max']:.3f}]"
             for col, q in entry["ratio"].items()]
    return cells + [f"{col} {theirs[col]}" if theirs[col] == entry[col]
                    else f"{col} {theirs[col]} -> {entry[col]}"
                    for col in COLUMNS[3:]]


def _export(rev, into):
    """Extract commit ``rev`` of this repository into ``into``; return the
    commit's full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    commit = commit.stdout.strip()
    if not commit:
        raise SystemExit(f"error: {rev} names no commit")
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)
    return commit


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label")
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--max-n", type=int, default=3840)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--outdir", type=pathlib.Path, default=ROOT)
    args = ap.parse_args()
    if args.label is None and args.against is None:
        ap.error("give --label NAME, --against REV or both")
    if args.label is not None and not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label may hold letters, digits, '_', '.' and '-' only")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        srcs = [ROOT / "src"]
        commit = None
        if args.against is not None:
            commit = _export(args.against, tmp)
            srcs.append(pathlib.Path(tmp, "src"))
            print(f"this checkout against {commit}: its median -> this "
                  f"median, x ratio [min, max] over the alternating pairs",
                  flush=True)
        inputs = {}
        for name, _ in _inputs(args.max_n):
            rows = _time_calls(srcs, name, args.max_n, args.repeats)
            inputs[name] = entry = _summary(rows[0])
            if len(rows) == 2:
                entry.update(against=_summary(rows[1]), ratio=_ratios(*rows))
            print(f"{name} ({entry['calls']} calls): "
                  + "; ".join(_cells(entry)), flush=True)
    if args.label is None:
        return 0
    record = {"label": args.label, "python": platform.python_version(),
              "machine": platform.machine(), "repeats": args.repeats,
              "against": commit, "inputs": inputs}
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = args.outdir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
