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
import tempfile

from .complexes import WallNotGlued, build_complex
from .enumeration import FREE_MAX_RANK, HARD_MAX_RANK, enumerate_perfect_forms
from .homology import dd_sanity, verify
from .persistence import (
    CacheCorrupt,
    cache_path,
    complex_from_payload,
    complex_to_payload,
    graph_from_payload,
    graph_to_payload,
    load_payload,
    save_payload,
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


class CacheDirError(Exception):
    """The cache directory cannot be made or written: a usage error."""


def _cache_dir(args):
    """The cache directory, made when missing and tried with a scratch
    file, so that one which cannot be used fails before any work."""
    path = os.environ.get("VORCYCLE_CACHE") or args.cache_dir
    try:
        os.makedirs(path, exist_ok=True)
        tempfile.TemporaryFile(dir=path).close()
    except OSError as exc:
        raise CacheDirError(f"cannot use {path} as the cache directory: "
                            f"{exc.strerror or exc}") from exc
    return path


def _seed_perm(text):
    """A --seed-perm value: each one names cache files of its own, and
    the representative pick takes it modulo a class size, so a negative
    value would only repeat a nonnegative one under another name."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


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


def _load_or_build_graph(args, cache_dir):
    """The graph, its file, and whether it was read from that file."""
    n, group = args.n, args.group
    path = cache_path(cache_dir, "graph", n, group)
    loaded = os.path.exists(path)
    if loaded:
        graph = graph_from_payload(load_payload(path, "graph", n, group), path)
    else:
        graph = enumerate_perfect_forms(n, group, allow_long=args.allow_long)
        save_payload(path, "graph", n, group, graph_to_payload(graph))
    return graph, path, loaded


def _load_or_build_complex(args, cache_dir):
    """The complex built over the graph, and its file, which must hold
    that complex when it exists and is written when it does not."""
    n, group, seed_perm = args.n, args.group, args.seed_perm
    path = cache_path(cache_dir, "complex", n, group, seed_perm)
    graph, graph_path, loaded = _load_or_build_graph(args, cache_dir)
    try:
        if os.path.exists(path):
            cx = complex_from_payload(load_payload(path, "complex", n, group),
                                      graph, seed_perm, path)
        else:
            cx = build_complex(graph, seed_perm)
            save_payload(path, "complex", n, group, complex_to_payload(cx))
    except WallNotGlued as exc:
        # A wall that a graph read from a file does not give is that
        # file's corruption; in a graph this process built, a defect.
        if not loaded:
            raise
        raise CacheCorrupt(f"{graph_path}: {exc}") from exc
    return cx, path


def cmd_perfect(args):
    if not _check_rank(args.n, args.allow_long):
        return EXIT_USAGE
    graph, path, _ = _load_or_build_graph(args, _cache_dir(args))
    count = len(graph.nodes)
    names = ", ".join(node.label for node in graph.nodes)
    print(f"{count} class{'es' if count != 1 else ''}: {names}")
    for i, node in enumerate(graph.nodes):
        print(f"  [{i}] {node.label}: |m|={node.minvecs.vector_count} "
              f"stab_order={node.stab_order}")
    print("edges (node.facet -> neighbor):")
    for i, (node, edges) in enumerate(zip(graph.nodes, graph.edges)):
        # Facet f's edge is its orbit's moved by a stabilizer element,
        # so its determinant is the two determinants' product.
        for f, r in enumerate(node.facets.orbit_of):
            det = node.facets.transporter_det(f) * edges[r].witness.det
            print(f"  {i}.{f} -> {edges[r].neighbor} (det {det})")
    print(f"graph file: {path}")
    return EXIT_OK


def cmd_complex(args):
    if not _check_rank(args.n, args.allow_long):
        return EXIT_USAGE
    cx, path = _load_or_build_complex(args, _cache_dir(args))
    kept = [cx.graph.nodes[i].label for i in cx.kept_tops]
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
    cache_dir = _cache_dir(args)
    cx, _ = _load_or_build_complex(args, cache_dir)
    report = verify(cx)
    checks = [report.ok]
    if args.check_dd:
        dd_ok, _ = dd_sanity(cx)
        report.details["dd_zero"] = dd_ok
        checks.append(dd_ok)
    path = cache_path(cache_dir, "verdict", args.n, args.group,
                      args.seed_perm)
    save_payload(path, "verdict", args.n, args.group, report.to_payload())
    verdict = "verified" if all(checks) else "FALSIFIED"
    print(f"n={args.n} group={args.group}: kernel_dim={report.kernel_dim} "
          f"{verdict}")
    print(f"verdict file: {path}")
    return EXIT_OK if all(checks) else EXIT_FALSIFIED


def _write_out(out, text):
    """Write `text` to the file `out`, or to stdout for "-"; a file that
    cannot be written is a usage error, as an unreadable input is."""
    if not out or out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_tess(args):
    if args.tess_cmd == "gen-sector-fan":
        try:
            inst = sector_fan(args.k)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return _write_out(args.out, dumps_instance(inst))
    if args.tess_cmd == "export":
        if not _check_rank(args.n, args.allow_long):
            return EXIT_USAGE
        cx, _ = _load_or_build_complex(args, _cache_dir(args))
        return _write_out(args.out, dumps_instance(from_voronoi(cx)))
    # check: the instance is read as bytes, as a cache file is, so
    # that bad UTF-8 is a malformed instance
    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inst = loads_instance(data)
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
    p_complex.add_argument("--seed-perm", type=_seed_perm, default=0)
    p_complex.set_defaults(func=cmd_complex)

    p_verify = sub.add_parser("verify", help="verify the theorem verdict")
    common(p_verify)
    p_verify.add_argument("--seed-perm", type=_seed_perm, default=0)
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
    p_export.add_argument("--seed-perm", type=_seed_perm, default=0)
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
    except CacheDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CacheCorrupt as exc:
        print(f"error: cache corruption: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
