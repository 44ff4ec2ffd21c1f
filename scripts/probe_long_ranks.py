#!/usr/bin/env python3
"""Long-haul probe for ranks 6 and 7 (no runtime guarantee).

Rank 6 typically finishes in well under an hour; rank 7 (33 classes,
large stabilizers) is a stretch target and may run for a very long
time.  Progress is printed per discovered class so partial runs still
tell you something.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from vorcycle import enumeration
from vorcycle.complexes import build_complex
from vorcycle.homology import verify


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, choices=(6, 7))
    parser.add_argument("--group", choices=("gl", "sl"), default="gl")
    parser.add_argument("--enumerate-only", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    graph = enumeration.enumerate_perfect_forms(args.n, args.group,
                                                allow_long=True)
    print(f"classes: {len(graph.nodes)} "
          f"({', '.join(node.label for node in graph.nodes)}) "
          f"[{time.monotonic() - start:.0f}s]", flush=True)
    for i, node in enumerate(graph.nodes):
        print(f"  [{i}] {node.label}: |m|={node.minvecs.vector_count} "
              f"stab_order={node.stab_order} "
              f"facets={len(node.domain.facets)}", flush=True)
    if args.enumerate_only:
        return
    cx = build_complex(graph)
    print(f"walls: {len(cx.walls)} (kept {len(cx.kept_walls)}, "
          f"self {sum(1 for w in cx.walls if w.kind == 'self')}) "
          f"[{time.monotonic() - start:.0f}s]", flush=True)
    report = verify(cx)
    print(f"kernel_dim={report.kernel_dim} ok={report.ok} "
          f"[{time.monotonic() - start:.0f}s]")


if __name__ == "__main__":
    main()
