#!/usr/bin/env python3
"""Time the pipeline on the size ladder and diff against the last record.

Usage: python scripts/bench.py --label NAME [--max-n 3840] [--repeats 3]
                               [--outdir DIR]
       python scripts/bench.py --against REV [--max-n 3840] [--repeats 3]

The ladder is the iterated medials of the icosahedron, n=60 up to
``--max-n`` (at most 3840), each realized by `realize`; the prisms with 40,
70 and 80 sides, packed by `pack`; `flower(3..8)` and
`upper_bound_family(4..80)`, generated with their realizations; and the
geometry oracles: `gadget_arc_infeasibility(phi, 100)` for phi 0.5, 1.5
and 2.5, and 2000 seeded `sample_arc_pair_config` + `nested_arc_inequality`
draws per side; the part-(c) graphs: `augment_octahedron(kind)` for GADGET
and BIGADGET; and the isomorphism search: `graphs_isomorphic` on the
GADGET and BIGADGET augmented octahedra, and `find_isomorphism` of each
ladder rung against a seeded relabelled copy, both graphs built untimed;
and ``import``, the package imported afresh as perfbench's
``import_package`` does it: ``circlesystems`` and its modules dropped from
``sys.modules``, then imported again from the same directory.
A search row is skipped when its graph has more than ``--max-n`` vertices.
Per input it records the median seconds over ``--repeats`` runs of
`realize` (or of `pack`, the generator, the oracle, the search or the
import), of
`verify_realization(r, g)` and of `equivalent(r, r)`, the Newton
directions `pack` solved (one untimed packing per input and process), and
the status: "ok", "verify failed", "not equivalent to itself", "wrong
answer" (the octahedra found isomorphic, or a mapping that does not carry
edges onto edges), or the class of the exception that stopped the input.
A column that does not apply to an input, or that an exception left
unmeasured, is null.

The record goes to ``BENCH_<label>.json`` in ``--outdir`` (the root of this
checkout by default, created if missing), after the diff against the
``BENCH_*.json`` there that git history added last is printed; a checkout
gives every record one mtime, so the mtime cannot tell.  The diff's
header says that the two records were timed at different times, perhaps
on a shared machine, and points to ``--against``.  Without a git
history of such a record the script says so and prints no diff.  The
package is imported from ``src/`` of this checkout.

``--against REV`` compares this checkout with commit REV instead, and
writes no file.  REV is exported with ``git archive`` into a temporary
directory.  Each input gets two fresh subprocesses, one importing the
package from each tree.  After one untimed call in each, they time single
calls in alternation, the side that goes first alternating too, for at
least ``MIN_PAIRS`` (10) pairs, the fewest a ratio can rest on, and until
each side has timed ``--repeats`` times ``AGAINST_SECONDS`` (at most 100
pairs).  Per input and column the script prints both medians and the
ratio this checkout / REV: the median of the per-pair ratios and their
min-max.  Timing the two trees call by call, not one after the other,
keeps the drift in a shared machine's speed out of the ratio.  REV's
package must have the functions this script calls.
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
AGAINST_SECONDS = 0.3  # per repeat, input and side of --against
MIN_PAIRS = 10  # per input of --against
COLUMNS = ("realize_s", "verify_s", "equivalent_s", "directions", "status")


def _median_time(fn, repeats):
    """(median seconds, last result) of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _directions(graph):
    """A function that returns the Newton directions of ``pack(graph())``,
    read off the failure message when the packing is not certified.  It
    packs on its first call only: ``--against`` times each input up to
    100 times in one process."""
    @functools.cache
    def count():
        try:
            return pack(graph(), TOL).iterations
        except CircleSystemsError as exc:
            found = re.match(r"after (\d+) Newton steps", str(exc))
            return int(found.group(1)) if found else None
    return count


def _row(make, directions, repeats, verdicts=True, right=None):
    """One record: ``make()`` returns (graph, realization), or a packing
    when ``verdicts`` is False; ``directions`` is a ``_directions``
    function of the graph whose packing counts them, or None; ``right``,
    if given, tells whether ``make()``'s result is the right answer."""
    row = dict.fromkeys(COLUMNS)
    if directions is not None:
        row["directions"] = directions()
    try:
        row["realize_s"], made = _median_time(make, repeats)
        row["status"] = "ok" if right is None or right(made) else "wrong answer"
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


def _relabelled_search(g, seed):
    """``find_isomorphism`` of ``g`` against a copy with its vertex ids
    permuted by a seeded shuffle, and whether a mapping carries the edges
    of ``g`` onto those of the copy."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    edges = g.edges()
    copy = [(perm[u], perm[v]) for u, v in edges]
    random.Random(seed).shuffle(copy)
    target = _edge_multiset(copy)
    return (lambda: find_isomorphism(g.n, edges, g.n, copy),
            lambda m: m is not None
            and _edge_multiset(edges, m.__getitem__) == target)


def _ladder(max_n):
    """(name, graph) of the icosahedron medials n=60..min(max_n, 3840)."""
    g = medial(icosahedron())
    while g.n < 3840 and 2 * g.n <= max_n:
        g = medial(g)
        yield f"medial-n{g.n}", g


def _inputs(max_n):
    """(name, timed) of every input in record order; ``timed(repeats)``
    measures the input and returns its row."""
    for name, g in _ladder(max_n):
        count = _directions(lambda g=g: build_il(g, two_color_faces(g)).graph)
        yield name, lambda repeats, g=g, count=count: _row(
            lambda: (g, realize(g, TOL)), count, repeats)
    for k in (40, 70, 80):
        p = prism(k)
        count = _directions(lambda p=p: p)
        yield f"prism{k}", lambda repeats, p=p, count=count: _row(
            lambda: pack(p, TOL), count, repeats, verdicts=False)
    for c in range(3, 9):
        yield f"flower{c}", lambda repeats, c=c: _row(
            lambda: flower(c), None, repeats)
    for c in range(4, 81, 2):
        base = tetrahedron() if c == 4 else prism(c // 2)
        count = _directions(lambda base=base: base)
        yield f"upper-bound-family{c}", lambda repeats, c=c, count=count: _row(
            lambda: upper_bound_family(c), count, repeats)
    for phi in (0.5, 1.5, 2.5):
        yield f"gadget-phi{phi}", lambda repeats, phi=phi: _row(
            lambda: gadget_arc_infeasibility(phi, 100), None, repeats,
            verdicts=False)
    for side in (INTERIOR, EXTERIOR):
        yield f"arc-samples-{side.lower()}", lambda repeats, side=side: _row(
            lambda: _arc_draws(side), None, repeats, verdicts=False)
    for kind in (GADGET, BIGADGET):
        yield f"augment-{kind.lower()}", lambda repeats, kind=kind: _row(
            lambda: augment_octahedron(kind), None, repeats, verdicts=False)
    gadgets = [augment_octahedron(kind) for kind in (GADGET, BIGADGET)]
    if gadgets[0].n <= max_n:
        yield "iso-gadget-bigadget", lambda repeats: _row(
            lambda: graphs_isomorphic(*gadgets), None, repeats,
            verdicts=False, right=lambda same: not same)
    for name, g in _ladder(max_n):
        search, right = _relabelled_search(g, g.n)
        yield f"iso-{name}", lambda repeats, search=search, right=right: _row(
            search, None, repeats, verdicts=False, right=right)
    # last, so that no other row of a --label run mixes the two imports
    yield "import", lambda repeats: _row(_reimport, None, repeats,
                                         verdicts=False)


def collect(max_n, repeats):
    rows = {}
    for name, timed in _inputs(max_n):
        rows[name] = timed(repeats)
        print(name, rows[name], flush=True)
    return rows


# a worker of --against: import the package from the tree's src/ (argv[1])
# before this script (from argv[2]) puts its own src/ first on the path,
# and put the tree's src/ first again for the import row; then time one
# call of each input named on stdin, answering with its row
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
    print(json.dumps(inputs[name.strip()](1)), flush=True)
"""


def _time_pairs(srcs, name, max_n, repeats):
    """Rows of input ``name`` from two fresh workers importing the package
    from ``srcs``, timed as the module docstring says for ``--against``."""
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

        call(0), call(1)
        rows = ([], [])
        spent = [0.0, 0.0]
        # an input whose every call fails has no time to spend
        while len(rows[0]) < MIN_PAIRS or (
                0.0 < min(spent) < AGAINST_SECONDS * repeats
                and len(rows[0]) < 100):
            for side in ((0, 1) if len(rows[0]) % 2 == 0 else (1, 0)):
                row = call(side)
                rows[side].append(row)
                spent[side] += sum(row[col] or 0.0 for col in COLUMNS[:3])
        return rows
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()


def _ratio_cells(mine, theirs):
    """Per time column measured on both sides: both medians, and the
    median and min-max of the per-pair ratios mine / theirs."""
    cells = []
    for col in COLUMNS[:3]:
        pairs = [(m[col], t[col]) for m, t in zip(mine, theirs)
                 if m[col] and t[col]]
        if not pairs:
            continue
        ratios = [m / t for m, t in pairs]
        cells.append(
            f"{col} {statistics.median(t for _, t in pairs):.4f} -> "
            f"{statistics.median(m for m, _ in pairs):.4f} "
            f"x{statistics.median(ratios):.3f} "
            f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    for col in COLUMNS[3:]:
        seen = [", ".join(sorted({str(row[col]) for row in rows}))
                for rows in (theirs, mine)]
        cells.append(f"{col} {seen[0]}" if seen[0] == seen[1]
                     else f"{col} {seen[0]} -> {seen[1]}")
    return cells


def against(rev, max_n, repeats):
    """Print, input by input, this checkout's times against commit ``rev``."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", rev],
                                 cwd=ROOT, stdout=subprocess.PIPE)
        if archive.returncode:
            raise SystemExit(f"error: git archive {rev} failed")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        srcs = (ROOT / "src", pathlib.Path(tmp, "src"))
        print(f"this checkout against {rev}: {rev} median -> this median, "
              f"x ratio [min, max] over at least {MIN_PAIRS} alternating pairs",
              flush=True)
        for name, _ in _inputs(max_n):
            rows = _time_pairs(srcs, name, max_n, repeats)
            print(f"{name} ({len(rows[0])} pairs): "
                  + "; ".join(_ratio_cells(*rows)), flush=True)


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


def _last_record(outdir, out):
    """The ``BENCH_*.json`` directly in ``outdir``, other than ``out``, that
    git history added last, or None when git knows of no such record."""
    try:
        log = subprocess.run(
            ["git", "log", "--diff-filter=A", "--format=", "--name-only",
             "--relative", "--", "BENCH_*.json"],
            cwd=outdir, capture_output=True, text=True)
    except OSError:  # no git
        return None
    if log.returncode:  # not in a git repository
        return None
    for name in log.stdout.split():
        path = outdir / name
        if "/" not in name and path != out and path.exists():
            return path
    return None


def main():
    ap = argparse.ArgumentParser()
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label")
    mode.add_argument("--against", metavar="REV")
    ap.add_argument("--max-n", type=int, default=3840)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--outdir", type=pathlib.Path, default=ROOT)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.against is not None:
        against(args.against, args.max_n, args.repeats)
        return 0
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
    last = _last_record(args.outdir, out)
    if last is None:
        print(f"\nno BENCH_*.json record in the git history of "
              f"{args.outdir}: no diff")
    else:
        print(f"\ndiff against {last.name}")
        print("(runs made at different times, maybe on a shared machine; "
              "--against REV times both trees call by call)")
        print("\n".join(diff(json.loads(last.read_text()), record)))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
