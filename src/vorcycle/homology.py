"""Kernel of the top differential and the theorem verdicts.

Top homology over Q is the kernel of the top differential (there is
nothing above the top degree), so the verdicts reduce to exact kernel
computations plus structural certificates:

* orientation-preserving cases (determinant-one group for any rank,
  full group for odd rank): the kernel is one-dimensional and spanned
  by the chain weighting every top class by the inverse of its
  stabilizer order;
* full group in even rank: the kernel is zero, because every class
  whose stabilizer contains a determinant -1 element is dropped by the
  orientation filter.

Reports carry machine-checkable witnesses: the kernel basis, and one
cancellation certificate per wall row showing the weighted entries
telescoping to zero.
"""

from fractions import Fraction
from typing import NamedTuple

from .complexes import (
    ambient_orientation_sign,
    build_codim2,
    is_orientation_preserving,
)
from .tessellation import check_rigidity, from_voronoi


class WrongGroupParity(ValueError):
    """The (group, rank) pair does not act orientation-preservingly."""


class TheoremReport(NamedTuple):
    n: int
    group_kind: str
    kernel_dim: int
    canonical_in_kernel: bool
    kernel_spanned_by_canonical: bool
    ok: bool
    details: dict            # required: a default dict would be shared
    top_labels: tuple = ()
    stab_orders: tuple = ()
    kernel_vectors: tuple = ()
    canonical: tuple = ()
    row_certificates: tuple = ()

    def to_payload(self):
        return {
            "n": self.n,
            "group": self.group_kind,
            "kernel_dim": self.kernel_dim,
            "canonical_in_kernel": self.canonical_in_kernel,
            "kernel_spanned_by_canonical": self.kernel_spanned_by_canonical,
            "ok": self.ok,
            "top_labels": list(self.top_labels),
            "stab_orders": [str(o) for o in self.stab_orders],
            "kernel_vectors": [[str(x) for x in v]
                               for v in self.kernel_vectors],
            "canonical": [str(x) for x in self.canonical],
            "row_certificates": [
                {"row": r, "terms": [[c, str(e), str(o), str(v)]
                                     for c, e, o, v in terms]}
                for r, terms in self.row_certificates],
            "details": {k: str(v) for k, v in sorted(self.details.items())},
        }


def canonical_cycle(cx):
    """The chain with coefficient 1/|stabilizer| on every kept top class."""
    return tuple(Fraction(1, cx.graph.nodes[i].stab_order)
                 for i in cx.kept_tops)


def _report(cx, ok, tess, top_cycle, details):
    """The report of a complex from its `check_rigidity` verdict `tess`.
    Only a top cycle carries the canonical chain and one cancellation
    certificate per wall row: each entry with its column's stabilizer
    order and their quotient."""
    tops = [cx.graph.nodes[i] for i in cx.kept_tops]
    orders = [top.stab_order for top in tops]
    certs = ()
    if top_cycle:
        diff = cx.differential
        certs = tuple(
            (r, tuple((c, entry, orders[c], Fraction(entry, orders[c]))
                      for c, entry in diff.row_entries(r)))
            for r in range(diff.row_count))
    return TheoremReport(
        n=cx.n, group_kind=cx.group_kind, kernel_dim=tess.kernel_dim,
        canonical_in_kernel=top_cycle and tess.canonical_in_kernel,
        kernel_spanned_by_canonical=(
            top_cycle and tess.kernel_spanned_by_canonical),
        ok=ok,
        top_labels=tuple(top.label for top in tops),
        stab_orders=tuple(orders),
        kernel_vectors=tess.kernel_vectors,
        canonical=tess.canonical if top_cycle else (),
        row_certificates=certs,
        details={"classes": len(cx.graph.nodes),
                 "kept_tops": len(cx.kept_tops), **details})


def verify_top_cycle(cx):
    """Report for the orientation-preserving cases.

    Requires a determinant-one complex, or a full-group complex in odd
    rank; anything else raises WrongGroupParity.  The kernel-line
    verdict is the abstract one, `check_rigidity` of the complex's
    tessellation instance.  Its `ok` also requires a connected tile
    graph, which a one-dimensional kernel spanned by a vector with no
    zero entry already forces.
    """
    if not is_orientation_preserving(cx.group_kind, cx.n):
        raise WrongGroupParity(
            f"group {cx.group_kind!r} does not preserve orientation "
            f"in rank {cx.n}")
    tess = check_rigidity(from_voronoi(cx))
    return _report(cx, tess.ok, tess, True, {
        "wall_classes": len(cx.walls),
        "kept_walls": len(cx.kept_walls),
        "self_walls": sum(1 for w in cx.walls if w.kind == "self"),
    })


def verify_gl_even_vanishing(cx):
    """Report for the full group in even rank: top kernel is zero.

    Also certifies the mechanism: a class is kept exactly when no
    generator of its stabilizer reverses the orientation of the form
    space, read off the generator's transport there (the orientation
    sign being a character), and the root classes are never kept.  The
    kernel comes from `check_rigidity` of the complex's tessellation
    instance, the one call the top-cycle branch makes too; here only its
    dimension enters the verdict.
    """
    if is_orientation_preserving(cx.group_kind, cx.n):
        raise WrongGroupParity("vanishing applies to the full group "
                               "in even rank")
    nodes = cx.graph.nodes
    kept = set(cx.kept_tops)
    mech_ok = all(
        (i in kept) == all(ambient_orientation_sign(g, cx.n) == 1
                           for g in node.generators)
        for i, node in enumerate(nodes))
    # A node's label is "Pn.i" exactly when it is no root lattice: the
    # walk and a load label it by `enumeration.class_label`.
    root_excluded = all(nodes[i].label == f"P{cx.n}.{i}"
                        for i in cx.kept_tops)
    tess = check_rigidity(from_voronoi(cx))
    ok = tess.kernel_dim == 0 and mech_ok and root_excluded
    return _report(cx, ok, tess, False, {
        "kept_iff_in_det_one": mech_ok,
        "root_classes_excluded": root_excluded,
    })


def verify(cx):
    """The theorem verdict of a complex: the top cycle where the group
    preserves orientation, the vanishing of the kernel otherwise."""
    if is_orientation_preserving(cx.group_kind, cx.n):
        return verify_top_cycle(cx)
    return verify_gl_even_vanishing(cx)


def dd_sanity(cx):
    """Exactness of the composite of the top two differentials.

    Returns (ok, mid_matrix); vacuously true when either matrix is
    empty.
    """
    _, _, mid = build_codim2(cx)
    top = cx.differential
    ok = compose_is_zero(mid, top)
    return ok, mid


def compose_is_zero(mid, top):
    """True iff mid * top = 0 exactly (labels align kept walls)."""
    if mid.col_count != top.row_count:
        raise RuntimeError(f"the codim-2 differential has {mid.col_count} "
                           f"columns for {top.row_count} kept walls")
    top_rows = top.dense_rows()
    mid_rows = mid.dense_rows()
    for r in range(mid.row_count):
        for c in range(top.col_count):
            s = sum(mid_rows[r][k] * top_rows[k][c]
                    for k in range(mid.col_count))
            if s != 0:
                return False
    return True
