"""Command line surface.

Subcommands:
  perfect   enumerate perfect-form classes and cache the walk graph
  complex   build the top two degrees of the cell complex
  verify    run the theorem verdict for (n, group), optionally d.d = 0
  tess      abstract tessellation tools: check / gen-sector-fan / export

Exit codes: 0 verified, 1 falsified, 2 usage, 3 cache corruption,
4 any other unexpected error (never reported as falsified).
The cache directory defaults to ./.vorcycle and can be overridden by
--cache-dir or the VORCYCLE_CACHE environment variable.
"""

import argparse
import os
import sys

from .complexes import build_complex
from .enumeration import FREE_MAX_RANK, HARD_MAX_RANK, enumerate_perfect_forms
from .homology import dd_sanity, verify
from .persistence import (
    CacheCorrupt,
    cache_path,
    complex_from_payload,
    complex_to_payload,
    graph_from_payload,
    graph_reference,
    graph_to_payload,
    load_payload,
    save_payload,
    stored_hash,
)
from .tessellation import (
    InvariantViolation,
    check_rigidity,
    dumps_instance,
    from_voronoi,
    loads_instance,
    sector_fan,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CACHE = 3
EXIT_CRASH = 4


def _cache_dir(args):
    return os.environ.get("VORCYCLE_CACHE") or args.cache_dir


def _check_rank(n, allow_long):
    if not 2 <= n <= HARD_MAX_RANK:
        print(f"error: rank must be between 2 and {HARD_MAX_RANK}",
              file=sys.stderr)
        return False
    if n > FREE_MAX_RANK and not allow_long:
        print(f"error: rank {n} is long-running; pass --allow-long",
              file=sys.stderr)
        return False
    return True


def _load_or_build_graph(args, digest=None):
    """The graph, its file and its header hash; with the `digest` that
    a complex names, the file must exist and carry it."""
    n, group = args.n, args.group
    path = cache_path(_cache_dir(args), "graph", n, group)
    if digest is not None or os.path.exists(path):
        payload = load_payload(path, "graph", n, group, digest)
        graph = graph_from_payload(payload, path)
    else:
        graph = enumerate_perfect_forms(n, group, allow_long=args.allow_long)
        save_payload(path, "graph", n, group, graph_to_payload(graph))
    return graph, path, digest or stored_hash(path)


def _load_or_build_complex(args):
    n, group = args.n, args.group
    seed = getattr(args, "seed_perm", 0)
    path = cache_path(_cache_dir(args), "complex", n, group, seed)
    if os.path.exists(path):
        payload = load_payload(path, "complex", n, group)
        digest = graph_reference(payload, path)
        try:
            graph = _load_or_build_graph(args, digest)[0]
        except (CacheCorrupt, FileNotFoundError) as exc:
            raise CacheCorrupt(f"{path}: payload.graph: {exc}") from exc
        return complex_from_payload(payload, graph, path), path
    graph, _, digest = _load_or_build_graph(args)
    cx = build_complex(graph, seed_perm=seed)
    save_payload(path, "complex", n, group, complex_to_payload(cx, digest))
    return cx, path


def cmd_perfect(args):
    if not _check_rank(args.n, args.allow_long):
        return EXIT_USAGE
    graph, path, _ = _load_or_build_graph(args)
    count = len(graph.nodes)
    names = ", ".join(node.label for node in graph.nodes)
    print(f"{count} class{'es' if count != 1 else ''}: {names}")
    for i, node in enumerate(graph.nodes):
        print(f"  [{i}] {node.label}: |m|={node.minvecs.vector_count} "
              f"stab_order={node.stab_order}")
    print("edges (node.facet -> neighbor):")
    for e in graph.edges:
        print(f"  {e.node}.{e.facet} -> {e.neighbor} (det {e.witness.det})")
    print(f"graph file: {path}")
    return EXIT_OK


def cmd_complex(args):
    if not _check_rank(args.n, args.allow_long):
        return EXIT_USAGE
    cx, path = _load_or_build_complex(args)
    kept = [cx.tops[i].label for i in cx.kept_tops]
    print(f"top classes kept: {len(cx.kept_tops)} {kept}")
    print(f"wall classes: {len(cx.walls)} "
          f"(kept {len(cx.kept_walls)}, "
          f"self {sum(1 for w in cx.walls if w.kind == 'self')})")
    for w in cx.walls:
        print(f"  {w.label}: kind={w.kind} stab_order={w.stab_order} "
              f"kept={w.orientation_kept}")
    print("differential (row, col, value):")
    for r, c, v in cx.differential.triplets():
        print(f"  {r} {c} {v}")
    print(f"complex file: {path}")
    return EXIT_OK


def cmd_verify(args):
    if not _check_rank(args.n, args.allow_long):
        return EXIT_USAGE
    cx, _ = _load_or_build_complex(args)
    report = verify(cx)
    checks = [report.ok]
    if args.check_dd:
        dd_ok, _ = dd_sanity(cx, seed_perm=getattr(args, "seed_perm", 0))
        report.details["dd_zero"] = dd_ok
        checks.append(dd_ok)
    path = cache_path(_cache_dir(args), "verdict", args.n, args.group,
                      getattr(args, "seed_perm", 0))
    save_payload(path, "verdict", args.n, args.group, report.to_payload())
    verdict = "verified" if all(checks) else "FALSIFIED"
    print(f"n={args.n} group={args.group}: kernel_dim={report.kernel_dim} "
          f"{verdict}")
    print(f"verdict file: {path}")
    return EXIT_OK if all(checks) else EXIT_FALSIFIED


def cmd_tess(args):
    if args.tess_cmd == "gen-sector-fan":
        try:
            inst = sector_fan(args.k)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        text = dumps_instance(inst)
        if args.out and args.out != "-":
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if args.tess_cmd == "export":
        if not _check_rank(args.n, args.allow_long):
            return EXIT_USAGE
        cx, _ = _load_or_build_complex(args)
        text = dumps_instance(from_voronoi(cx))
        if args.out and args.out != "-":
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    # check
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inst = loads_instance(text)
    except InvariantViolation as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = check_rigidity(inst)
    print(f"connected={verdict.connected} kernel_dim={verdict.kernel_dim} "
          f"canonical_in_kernel={verdict.canonical_in_kernel} "
          f"spanned={verdict.kernel_spanned_by_canonical}")
    for vec in verdict.kernel_vectors:
        print("kernel vector:", list(vec))
    return EXIT_OK if verdict.ok else EXIT_FALSIFIED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vorcycle",
        description="Exact perfect-form enumeration and top-cycle verification")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--group", choices=("gl", "sl"), default="sl")
        p.add_argument("--cache-dir", default="./.vorcycle")
        p.add_argument("--allow-long", action="store_true")

    p_perfect = sub.add_parser("perfect", help="enumerate perfect forms")
    common(p_perfect)
    p_perfect.set_defaults(func=cmd_perfect)

    p_complex = sub.add_parser("complex", help="build the cell complex")
    common(p_complex)
    p_complex.add_argument("--seed-perm", type=int, default=0)
    p_complex.set_defaults(func=cmd_complex)

    p_verify = sub.add_parser("verify", help="verify the theorem verdict")
    common(p_verify)
    p_verify.add_argument("--seed-perm", type=int, default=0)
    p_verify.add_argument("--check-dd", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_tess = sub.add_parser("tess", help="abstract tessellation tools")
    tess_sub = p_tess.add_subparsers(dest="tess_cmd", required=True)

    p_check = tess_sub.add_parser("check", help="check an instance file")
    p_check.add_argument("input", help="instance file or - for stdin")
    p_check.set_defaults(func=cmd_tess)

    p_gen = tess_sub.add_parser("gen-sector-fan",
                                help="generate a planar sector fan")
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_tess)

    p_export = tess_sub.add_parser("export",
                                   help="export a built complex as instance")
    common(p_export)
    p_export.add_argument("--seed-perm", type=int, default=0)
    p_export.add_argument("--out", default="-")
    p_export.set_defaults(func=cmd_tess)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CacheCorrupt as exc:
        print(f"error: cache corruption: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
