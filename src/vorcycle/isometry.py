"""Integral maps between vector configurations, by backtracking.

This is the workhorse behind form equivalence, cell equivalence, and
stabilizer computation.  Given a source and a target configuration of
antipodal vector pairs, it enumerates the unimodular integer matrices g
with g * source = target (as sets of pairs), pruning partial
assignments with an invariant bilinear form on each side:

* for quadratic forms, the Gram matrices themselves (a map realizing
  the equivalence must match all pairwise Gram values);
* for cells, the adjugate of the configuration's barycenter matrix
  sum_x x x^t, which any set-preserving map must conjugate correctly.

Everything runs in integers, in the spirit of Plesken and Souvignier
("Computing isometries of lattices", J. Symbolic Comput. 24, 1997):

* the pairing table of all signed target vectors is built once per
  search; each base vector of the source gets the targets of the same
  self-pairing as candidates, and choosing an image filters the deeper
  candidate lists by table lookups, so no bilinear form is evaluated
  inside the search;
* a leaf assigns images Y to the base X of n independent source
  vectors and solves g = Y adj(X) / det(X) with the integer adjugate,
  rejecting it unless det(X) divides every entry exactly.

All solutions are found, so stabilizers come out as complete groups.
Generating sets of those groups are chosen by a scan over the sorted
elements whose running closure grows coset by coset (Dimino's
algorithm, see Butler, "Fundamental Algorithms for Permutation Groups",
LNCS 559, 1991).
"""

from operator import mul

from .forms import GroupElement, bilinear, canonical_pair
from .linalg import adjugate, det_int, independent_rows, mat_mul, mat_vec


def barycenter_matrix(vectors):
    """sum of x x^t over the configuration (positive definite iff spanning)."""
    n = len(vectors[0])
    out = [[0] * n for _ in range(n)]
    for v in vectors:
        for i in range(n):
            for j in range(n):
                out[i][j] += v[i] * v[j]
    return tuple(tuple(r) for r in out)


def cell_invariant(vectors):
    """Cheap complete-enough invariant used to bucket cells before matching."""
    b = barycenter_matrix(vectors)
    c = adjugate(b)
    profiles = sorted(
        (bilinear(c, x, x),
         tuple(sorted(abs(bilinear(c, x, y)) for y in vectors)))
        for x in vectors
    )
    return (len(vectors), det_int(b), tuple(profiles))


def form_invariant(gram, vectors):
    """Bucketing invariant for forms with their minimal vectors."""
    profiles = sorted(
        (tuple(sorted(abs(bilinear(gram, x, y)) for y in vectors)),)
        for x in vectors
    )
    return (len(vectors), det_int(gram), tuple(profiles))


def _independent_base(vectors):
    base = independent_rows(vectors, ())
    if len(base) != len(vectors[0]):
        raise ValueError("configuration does not span")
    return base


def _maps(src, dst, src_pair, dst_pair, accept, det_one, first_only):
    """All integer g with compatible pairings sending base vectors of
    `src` into signed vectors of `dst`, filtered through `accept`.

    Candidates are visited in sorted order of the signed target vectors,
    so the first map found (and the order of all maps) is fixed.
    """
    n = len(src[0])
    base_vecs = [src[i] for i in _independent_base(src)]
    # Columns of X are the base vectors; candidate g = Y adj(X) / det(X).
    x_cols = tuple(zip(*base_vecs))
    x_adj_cols = tuple(zip(*adjugate(x_cols)))
    x_det = det_int(x_cols)
    signed = sorted(list(dst) + [tuple(-t for t in v) for v in dst])
    paired = [mat_vec(dst_pair, y) for y in signed]
    table = [[sum(map(mul, y, p)) for p in paired] for y in signed]
    src_gram = [[bilinear(src_pair, a, b) for b in base_vecs]
                for a in base_vecs]
    by_norm = {}
    for k, row in enumerate(table):
        by_norm.setdefault(row[k], []).append(k)
    results = []
    images = []

    def leaf():
        y_rows = tuple(zip(*(signed[k] for k in images)))
        g_rows = []
        for y_row in y_rows:
            row = []
            for col in x_adj_cols:
                q, r = divmod(sum(map(mul, y_row, col)), x_det)
                if r:
                    return False
                row.append(q)
            g_rows.append(tuple(row))
        d = det_int(g_rows)
        if d not in (1, -1):
            return False
        if det_one and d != 1:
            return False
        g = GroupElement(rows=tuple(g_rows), det=d)
        if accept(g):
            results.append(g)
            return first_only
        return False

    def extend(depth, candidates):
        # candidates[e - depth]: targets for base vector e whose pairings
        # with the images chosen so far match the source Gram entries.
        if depth == n:
            return leaf()
        for k in candidates[0]:
            row = table[k]
            rest = []
            for e in range(depth + 1, n):
                want = src_gram[e][depth]
                kept = [c for c in candidates[e - depth] if row[c] == want]
                if not kept:
                    break
                rest.append(kept)
            else:
                images.append(k)
                if extend(depth + 1, rest):
                    return True
                images.pop()
        return False

    extend(0, [by_norm.get(src_gram[d][d], []) for d in range(n)])
    return results


def cell_maps(src_vectors, dst_vectors, det_one=False, first_only=False):
    """Unimodular g with g * src = dst as sets of antipodal pairs."""
    src = tuple(sorted(src_vectors))
    dst = tuple(sorted(dst_vectors))
    if len(src) != len(dst):
        return []
    b_src = barycenter_matrix(src)
    b_dst = barycenter_matrix(dst)
    if det_int(b_src) != det_int(b_dst):
        return []
    c_src = adjugate(b_src)
    c_dst = adjugate(b_dst)
    dst_set = set(dst)

    def accept(g):
        return all(canonical_pair(g.apply(v)) in dst_set for v in src)

    return _maps(src, dst, c_src, c_dst, accept, det_one, first_only)


def form_maps(src_form, src_vectors, dst_form, dst_vectors,
              det_one=False, first_only=False):
    """Unimodular g with act(g, src_form) = dst_form exactly.

    Equivalently g^t * dst_gram * g = src_gram; minimal vectors then map
    by v -> g v automatically.
    """
    src = tuple(sorted(src_vectors))
    dst = tuple(sorted(dst_vectors))
    if len(src) != len(dst):
        return []
    if det_int(src_form.gram) != det_int(dst_form.gram):
        return []
    src_gram = src_form.gram
    dst_gram = dst_form.gram

    def accept(g):
        gt = tuple(zip(*g.rows))
        return mat_mul(mat_mul(gt, dst_gram), g.rows) == src_gram

    return _maps(src, dst, src_gram, dst_gram, accept, det_one, first_only)


def cell_stabilizer(vectors, det_one=False):
    """The full finite group {g : g * S = S} of a spanning configuration."""
    elems = cell_maps(vectors, vectors, det_one=det_one)
    return tuple(sorted(elems, key=lambda g: g.rows))


def form_automorphisms(form, vectors, det_one=False):
    """The full automorphism group {g : g^t Q g = Q} of a perfect form."""
    elems = form_maps(form, vectors, form, vectors, det_one=det_one)
    return tuple(sorted(elems, key=lambda g: g.rows))


def pair_swap_elements(cell_a, cell_b, group_elements=None, det_one=False):
    """Elements exchanging two cells: g * a = b and g * b = a setwise."""
    a = tuple(sorted(cell_a))
    b = tuple(sorted(cell_b))
    out = []
    for g in cell_maps(a, b, det_one=det_one):
        if tuple(sorted(canonical_pair(g.apply(v)) for v in b)) == a:
            out.append(g)
    return tuple(sorted(out, key=lambda g: g.rows))


def small_generating_set(elements):
    """A short generating set of a finite matrix group given in full.

    Scans the (sorted) element list, adding an element whenever it is
    not yet a product of the chosen ones.  The running closure grows
    coset by coset (Dimino): adding g to the closed subgroup H, each new
    right coset H r is found by multiplying only the coset
    representatives r by the generators, and is then filled in as
    {h r : h in H}.  Adding a generator therefore costs one product per
    element of the enlarged group plus one per representative and
    generator.
    """
    if len(elements) <= 1:
        return ()
    gens = []
    closure = {GroupElement.identity(elements[0].n).rows}
    for g in sorted(elements, key=lambda e: e.rows):
        if g.rows in closure:
            continue
        gens.append(g)
        subgroup = list(closure)
        reps = [g.rows]
        closure.update(_right_coset(subgroup, g.rows))
        for r in reps:
            for s in gens:
                rs = mat_mul(r, s.rows)
                if rs not in closure:
                    reps.append(rs)
                    closure.update(_right_coset(subgroup, rs))
        if len(closure) == len(elements):
            break
    return tuple(gens)


def _right_coset(subgroup, r):
    """The matrix rows of h r for every h in `subgroup`."""
    cols = tuple(zip(*r))
    return [tuple(tuple(sum(map(mul, row, col)) for col in cols)
                  for row in h)
            for h in subgroup]


def orbit_decompose(keys, generators, apply, identity):
    """Orbits of `keys` under the group generated by `generators`.

    Returns (rep, {member: transporter}) per orbit with transporter *
    rep = member (the representative carries `identity`).  Raises
    ValueError when an image leaves `keys`.
    """
    key_set = set(keys)
    assigned = set()
    orbits = []
    for key in keys:
        if key in assigned:
            continue
        members = {key: identity}
        frontier = [key]
        for current in frontier:
            s = members[current]
            for g in generators:
                img = apply(g, current)
                if img not in key_set:
                    raise ValueError("group does not permute the keys")
                if img not in members:
                    members[img] = g * s
                    frontier.append(img)
        orbits.append((key, members))
        assigned.update(members)
    return orbits
