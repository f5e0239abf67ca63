#!/usr/bin/env python3
"""Run the realization pipeline over the standard corpus and print a table.

Usage: python scripts/realize_corpus.py [--tol 1e-9] [--outdir DIR]

The corpus is the medials of the Platonic solids plus the iterated medials
of the icosahedron up to n=1920, each realized by `realize`, and the coin
systems `upper_bound_family(16)` and `(64)`, generated with their
realizations; these pack the 8- and 32-gonal prisms, whose cap apexes stay
in the Newton system.  Exits 1 when a graph fails to realize or generate,
to verify, or to match its extracted graph.  With --outdir, the
realization JSON and an SVG drawing of every corpus graph are written next
to each other.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from circlesystems import jsonio
from circlesystems.embedding import medial
from circlesystems.errors import CircleSystemsError
from circlesystems.generators import (
    cube,
    dodecahedron,
    icosahedron,
    octahedron,
    tetrahedron,
    upper_bound_family,
)
from circlesystems.isomorphism import graphs_isomorphic
from circlesystems.realization import (
    circle_count_bounds,
    extract_with_arcs,
    realize,
    verify_realization,
)
from circlesystems.svgrender import RenderOptions, render_svg

CORPUS = [
    ("octahedron", octahedron),
    ("medial-tetrahedron", lambda: medial(tetrahedron())),
    ("medial-cube", lambda: medial(cube())),
    ("medial-octahedron", lambda: medial(octahedron())),
    ("medial-dodecahedron", lambda: medial(dodecahedron())),
    ("medial-icosahedron", lambda: medial(icosahedron())),
]


def _iterated_medial(depth):
    def make():
        g = icosahedron()
        for _ in range(depth):
            g = medial(g)
        return g
    return make


CORPUS += [
    (f"icosahedron-medial-n{30 * 2 ** (d - 1)}", _iterated_medial(d))
    for d in range(2, 8)
]

# (name, c): generated with their realizations, verified like the rest
GENERATED = [(f"upper-bound-family-{c}", c) for c in (16, 64)]


def _check(name, g, r, elapsed, outdir):
    """Verify ``r`` against ``g``, print its row and write its files;
    True when it verifies and its extracted graph matches ``g``."""
    b = circle_count_bounds(g.n)
    verified = verify_realization(r, g).passed
    iso = graphs_isomorphic(extract_with_arcs(r), g)
    print(
        f"{name:<26}{g.n:>4}{len(r.circles):>9}"
        f"{'[%.2f, %.2f]' % (b.lower, b.upper):>18}"
        f"{str(verified):>13}{str(iso):>5}{elapsed:>8.3f}s"
    )
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{name}.json").write_text(jsonio.serialize_realization(r))
        (outdir / f"{name}.svg").write_text(
            render_svg(r, RenderOptions(shade_gray=True))
        )
    return verified and iso


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--outdir", type=pathlib.Path)
    args = parser.parse_args()

    header = (
        f"{'graph':<26}{'n':>4}{'circles':>9}{'bounds':>18}"
        f"{'verified':>13}{'iso':>5}{'time':>9}"
    )
    print(header)
    print("-" * len(header))
    failed = 0
    for name, maker in CORPUS:
        g = maker()
        t0 = time.monotonic()
        try:
            r = realize(g, args.tol)
        except CircleSystemsError as exc:
            failed += 1
            print(f"{name:<26}{g.n:>4}  realize failed: {exc}")
            continue
        failed += not _check(name, g, r, time.monotonic() - t0, args.outdir)
    for name, c in GENERATED:
        t0 = time.monotonic()
        try:
            g, r = upper_bound_family(c)
        except CircleSystemsError as exc:
            failed += 1
            print(f"{name:<26}  generate failed: {exc}")
            continue
        failed += not _check(name, g, r, time.monotonic() - t0, args.outdir)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
