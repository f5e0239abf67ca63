#!/usr/bin/env python3
"""Scan the gadget attachment report over a range of arc angles.

Every row reports feasible=False: no placement of the eight attachment
points satisfies the arc inequalities the nested tangent pairs impose, at
any arc angle below pi, because two of them and the point order contradict
each other.  ``tested`` is the number of partial placements the
branch-and-bound enumerates; it depends on the grid alone, not on the
angle, and follows from a closed-form cut.

Usage: python scripts/infeasibility_scan.py [--grid 60] [--steps 12]
"""

import argparse
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from circlesystems.geometry import gadget_arc_infeasibility


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--grid", type=int, default=60)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    print(f"{'phi':>8}{'feasible':>10}{'tested':>12}{'time':>9}")
    for i in range(1, args.steps + 1):
        phi = i * (math.pi - 1e-6) / (args.steps + 1)
        t0 = time.monotonic()
        rep = gadget_arc_infeasibility(phi, args.grid)
        print(
            f"{phi:>8.4f}{str(rep.feasible_found):>10}"
            f"{rep.tested:>12}{time.monotonic() - t0:>8.2f}s"
        )


if __name__ == "__main__":
    main()
