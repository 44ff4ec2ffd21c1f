#!/usr/bin/env python3
"""Survey the small ranks: classes, stabilizer orders, wall structure,
and the kernel verdict, printed as one table row per (rank, group).

Typical session:

    python scripts/run_survey.py --max-n 5
    python scripts/run_survey.py --max-n 6 --allow-long   # slow

Exits with status 1 when any row's verdict is UNEXPECTED.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from vorcycle.complexes import build_complex, is_orientation_preserving
from vorcycle.enumeration import enumerate_perfect_forms
from vorcycle.homology import verify


def survey_row(n, group, allow_long):
    """The table row, and whether the verdict is the expected one."""
    start = time.monotonic()
    graph = enumerate_perfect_forms(n, group, allow_long=allow_long)
    cx = build_complex(graph)
    report = verify(cx)
    expected = ("generator" if is_orientation_preserving(group, n)
                else "vanishes")
    verdict = expected if report.ok else "UNEXPECTED"
    elapsed = time.monotonic() - start
    labels = ",".join(node.label for node in graph.nodes)
    orders = ",".join(str(node.stab_order) for node in graph.nodes)
    return (f"n={n} {group:2} | classes={len(graph.nodes)} ({labels}) "
            f"| orders={orders} | walls={len(cx.walls)} "
            f"(kept {len(cx.kept_walls)}) | kernel_dim={report.kernel_dim} "
            f"{verdict} | {elapsed:.1f}s"), report.ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--groups", default="sl,gl")
    parser.add_argument("--allow-long", action="store_true")
    args = parser.parse_args()
    groups = args.groups.split(",")
    all_ok = True
    for n in range(2, args.max_n + 1):
        for group in groups:
            row, ok = survey_row(n, group, args.allow_long)
            print(row, flush=True)
            all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
