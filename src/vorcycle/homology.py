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

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import build_codim2, build_complex
from .enumeration import enumerate_perfect_forms
from .forms import QForm, minimum_and_minimal_vectors, a_n_gram, d_n_gram
from .isometry import form_maps
from .linalg import kernel_basis


class WrongGroupParity(ValueError):
    """The (group, rank) pair does not act orientation-preservingly."""


@dataclass
class TheoremReport:
    n: int
    group_kind: str
    kernel_dim: int
    canonical_in_kernel: bool
    kernel_spanned_by_canonical: bool
    ok: bool
    top_labels: tuple = ()
    stab_orders: tuple = ()
    kernel_vectors: tuple = ()
    canonical: tuple = ()
    row_certificates: tuple = ()
    details: dict = field(default_factory=dict)

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


def is_orientation_preserving(group_kind, n):
    return group_kind == "sl" or n % 2 == 1


def canonical_cycle(cx):
    """The chain with coefficient 1/|stabilizer| on every kept top class."""
    return tuple(Fraction(1, cx.tops[i].stab_order) for i in cx.kept_tops)


def differential_kernel(cx):
    """Primitive integer basis of the kernel of the top differential."""
    diff = cx.differential
    rows = diff.dense_rows()
    return kernel_basis(rows, ncols=diff.col_count)


def _apply_rows(diff, coeffs):
    out = []
    for r in range(diff.row_count):
        out.append(sum(Fraction(v) * coeffs[c] for c, v in diff.row_entries(r)))
    return out


def _row_certificates(cx, coeffs):
    certs = []
    diff = cx.differential
    orders = [cx.tops[i].stab_order for i in cx.kept_tops]
    for r in range(diff.row_count):
        terms = []
        for c, entry in diff.row_entries(r):
            terms.append((c, entry, orders[c], Fraction(entry, orders[c])))
        certs.append((r, tuple(terms)))
    return tuple(certs)


def _spans_same_line(vec_a, vec_b):
    if len(vec_a) != len(vec_b):
        return False
    for i in range(len(vec_a)):
        for j in range(len(vec_a)):
            if vec_a[i] * vec_b[j] != vec_a[j] * vec_b[i]:
                return False
    return any(vec_a) and any(vec_b)


def verify_top_cycle(cx):
    """Report for the orientation-preserving cases.

    Requires a determinant-one complex, or a full-group complex in odd
    rank; anything else raises WrongGroupParity.
    """
    if not is_orientation_preserving(cx.group_kind, cx.n):
        raise WrongGroupParity(
            f"group {cx.group_kind!r} does not preserve orientation "
            f"in rank {cx.n}")
    cycle = canonical_cycle(cx)
    boundary = _apply_rows(cx.differential, list(cycle))
    in_kernel = all(x == 0 for x in boundary)
    kernel = differential_kernel(cx)
    spanned = len(kernel) == 1 and _spans_same_line(
        [Fraction(x) for x in kernel[0]], list(cycle))
    ok = in_kernel and spanned and len(kernel) == 1
    return TheoremReport(
        n=cx.n, group_kind=cx.group_kind, kernel_dim=len(kernel),
        canonical_in_kernel=in_kernel, kernel_spanned_by_canonical=spanned,
        ok=ok,
        top_labels=tuple(cx.tops[i].label for i in cx.kept_tops),
        stab_orders=tuple(cx.tops[i].stab_order for i in cx.kept_tops),
        kernel_vectors=tuple(tuple(v) for v in kernel),
        canonical=cycle,
        row_certificates=_row_certificates(cx, cycle),
        details={
            "classes": len(cx.graph.nodes),
            "kept_tops": len(cx.kept_tops),
            "wall_classes": len(cx.walls),
            "kept_walls": len(cx.kept_walls),
            "self_walls": sum(1 for w in cx.walls if w.kind == "self"),
        })


def _is_root_class(form, minvecs, n):
    refs = [a_n_gram(n)]
    if n >= 4:
        refs.append(d_n_gram(n))
    for gram in refs:
        ref = QForm.from_matrix(gram)
        ref_mv = minimum_and_minimal_vectors(ref)
        if form_maps(ref, ref_mv.vectors, form, minvecs.vectors,
                     first_only=True):
            return True
    return False


def verify_gl_even_vanishing(cx):
    """Report for the full group in even rank: top kernel is zero.

    Also certifies the mechanism: a class is kept exactly when its
    stabilizer sits in the determinant-one subgroup (decided on its
    generators, the determinant being a character), and the root
    classes are never kept.
    """
    if cx.group_kind != "gl" or cx.n % 2 != 0:
        raise WrongGroupParity("vanishing applies to the full group "
                               "in even rank")
    mech_ok = True
    root_excluded = True
    for i, top in enumerate(cx.tops):
        inside_sl = all(g.det == 1 for g in top.generators)
        if top.orientation_kept != inside_sl:
            mech_ok = False
        node = cx.graph.nodes[i]
        if _is_root_class(node.form, node.minvecs, cx.n) and \
                top.orientation_kept:
            root_excluded = False
    kernel = differential_kernel(cx)
    ok = len(kernel) == 0 and mech_ok and root_excluded
    return TheoremReport(
        n=cx.n, group_kind=cx.group_kind, kernel_dim=len(kernel),
        canonical_in_kernel=False, kernel_spanned_by_canonical=False,
        ok=ok,
        top_labels=tuple(cx.tops[i].label for i in cx.kept_tops),
        stab_orders=tuple(cx.tops[i].stab_order for i in cx.kept_tops),
        kernel_vectors=tuple(tuple(v) for v in kernel),
        canonical=(),
        row_certificates=(),
        details={
            "classes": len(cx.graph.nodes),
            "kept_tops": len(cx.kept_tops),
            "kept_iff_in_det_one": mech_ok,
            "root_classes_excluded": root_excluded,
        })


def verify(n, group_kind, seed_perm=0, allow_long=False, graph=None,
           cx=None):
    """Build (or reuse) the complex and dispatch on parity."""
    if cx is None:
        if graph is None:
            graph = enumerate_perfect_forms(n, group_kind,
                                            allow_long=allow_long)
        cx = build_complex(graph, seed_perm=seed_perm)
    if group_kind == "gl" and n % 2 == 0:
        return verify_gl_even_vanishing(cx)
    return verify_top_cycle(cx)


def dd_sanity(cx, seed_perm=0):
    """Exactness of the composite of the top two differentials.

    Returns (ok, mid_matrix); vacuously true when either matrix is
    empty.
    """
    _, _, mid = build_codim2(cx, seed_perm=seed_perm)
    top = cx.differential
    ok = compose_is_zero(mid, top)
    return ok, mid


def compose_is_zero(mid, top):
    """True iff mid * top = 0 exactly (labels align kept walls)."""
    assert mid.col_count == top.row_count
    top_rows = top.dense_rows()
    mid_rows = mid.dense_rows()
    for r in range(mid.row_count):
        for c in range(top.col_count):
            s = sum(mid_rows[r][k] * top_rows[k][c]
                    for k in range(mid.col_count))
            if s != 0:
                return False
    return True
