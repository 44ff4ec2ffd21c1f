"""Integral maps between vector configurations, and their finite groups.

This is the workhorse behind form equivalence, cell equivalence, and
stabilizer computation.  Given a source and a target configuration of
antipodal vector pairs, it searches the unimodular integer matrices g
with g * source = target (as sets of pairs), pruning partial
assignments with an invariant bilinear form on each side:

* for quadratic forms, the Gram matrices themselves (a map realizing
  the equivalence must match all pairwise Gram values);
* for cells, the adjugate of the configuration's barycenter matrix
  sum_x x x^t, which any set-preserving map must conjugate correctly.

Everything runs in integers, in the spirit of Plesken and Souvignier
("Computing isometries of lattices", J. Symbolic Comput. 24, 1997):

* the pairing table of all signed target vectors is built once per
  search, from one triangle of the pairings of the unsigned targets
  (the table of +-u and +-v holds one pairing, with signs), and a
  configuration mapped onto itself takes one barycenter adjugate for
  both sides; each base vector of the source gets the targets of the same
  self-pairing as candidates, and choosing an image filters the deeper
  candidate lists by table lookups, so no bilinear form is evaluated
  inside the search;
* a leaf assigns images Y to the base X of n independent source
  vectors and solves g = Y adj(X) / det(X) with the integer adjugate,
  rejecting it unless det(X) divides every entry exactly.

Stabilizers are never listed.  Each one is computed as a stabilizer
chain along the search base b_0, ..., b_{n-1}, the base and strong
generating set method of Seress ("Permutation Group Algorithms", 2003):
level i is the subgroup fixing b_0, ..., b_{i-1}, and its basic orbit is
the orbit of b_i under it.  Levels are closed from the deepest up.  The
generators found so far act as permutations of the signed vectors; every
candidate image of b_i outside their orbit of b_i gets one first-hit
search with the images of b_0, ..., b_{i-1} fixed, and a hit is a new
strong generator.  Since every candidate outside the orbit is searched
to completion, each basic orbit comes out complete, and the group order
is the product of the basic orbit lengths.  Orbits of faces come from
one breadth-first walk (`orbit_decompose`), with each generator turned
once into a permutation of vector indices.  The walk numbers the faces
it reaches orbit by orbit, so it decomposes a complete face list and
regenerates one from orbit representatives alike.  An orbit keeps its
Schreier vector (per face, the generator and the face it was reached
from), so a transporter is multiplied out only where it is read.

`form_automorphisms`, `cell_stabilizer` and `small_generating_set` (a
Dimino closure over a listed group, see Butler, "Fundamental Algorithms
for Permutation Groups", LNCS 559, 1991) still list whole groups.  The
pipeline does not call them: they are kept as the listing oracle for
the chain, and the benchmark's tracer wraps them by name.
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


def _adjugate_and_det(rows):
    """adj(A) and det(A), the latter read off the adjugate's first
    column: A adj(A) = det(A) I, so det(A) = sum_j A[0][j] adj(A)[j][0]."""
    adj = adjugate(rows)
    return adj, sum(a * r[0] for a, r in zip(rows[0], adj))


def _independent_base(vectors):
    base = independent_rows(vectors, ())
    if len(base) != len(vectors[0]):
        raise ValueError("configuration does not span")
    return base


class _Search:
    """The backtrack for maps of `src` into `dst`, set up once.

    Base vectors of `src` get images among the signed vectors of `dst`,
    visited in sorted order, so the first map found (and the order of
    all maps) is fixed.  Every leaf is filtered through exact division
    by det(X), unimodularity, `det_one` and `accept`.
    """

    def __init__(self, src, dst, src_pair, dst_pair, accept, det_one):
        self.base = [src[i] for i in _independent_base(src)]
        # Columns of X are the base vectors; candidate g = Y adj(X) / det(X).
        x_adj, self.x_det = _adjugate_and_det(tuple(zip(*self.base)))
        self.x_adj_cols = tuple(zip(*x_adj))
        # The signed vectors are the pairs +-u of `dst`: the table is
        # built from one triangle of the pairings of the u, with signs.
        signed = sorted([(u, i, 1) for i, u in enumerate(dst)] +
                        [(tuple(-t for t in u), i, -1)
                         for i, u in enumerate(dst)])
        self.signed = [y for y, _, _ in signed]
        gram = [[0] * len(dst) for _ in dst]
        for i, u in enumerate(dst):
            p = mat_vec(dst_pair, u)
            for j in range(i, len(dst)):
                gram[i][j] = gram[j][i] = sum(map(mul, p, dst[j]))
        rows = []
        for row in gram:
            plus = [s * row[j] for _, j, s in signed]
            rows.append((plus, [-x for x in plus]))
        self.table = [rows[i][s < 0] for _, i, s in signed]
        self.src_gram = [[bilinear(src_pair, a, b) for b in self.base]
                         for a in self.base]
        self.by_norm = {}
        for k, row in enumerate(self.table):
            self.by_norm.setdefault(row[k], []).append(k)
        self.accept = accept
        self.det_one = det_one

    def candidates(self, depth, prefix):
        """Targets for base vector `depth` whose pairings with the images
        `prefix` of the base vectors before it match the source Gram
        entries."""
        want = self.src_gram[depth]
        return [k for k in self.by_norm.get(want[depth], [])
                if all(self.table[k][p] == want[e]
                       for e, p in enumerate(prefix))]

    def run(self, first_only, prefix=()):
        """All maps (the first only, with `first_only`) sending base
        vector i to signed[prefix[i]] for i < len(prefix)."""
        n = len(self.base)
        x_adj_cols, x_det = self.x_adj_cols, self.x_det
        signed, table, src_gram = self.signed, self.table, self.src_gram
        accept, det_one = self.accept, self.det_one
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
            # candidates[e - depth]: targets for base vector e whose
            # pairings with the images chosen so far match the source
            # Gram entries.
            if depth == n:
                return leaf()
            choices = candidates[0]
            if depth < len(prefix):
                choices = [prefix[depth]] if prefix[depth] in choices else []
            for k in choices:
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

        extend(0, [self.by_norm.get(src_gram[d][d], []) for d in range(n)])
        return results


def _orbit(point, perms):
    """The orbit of a signed-vector index under index permutations."""
    orbit = {point}
    frontier = [point]
    for p in frontier:
        for perm in perms:
            q = perm[p]
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit


def _images(g, coords):
    """The images under g of the vectors whose coordinate lists are
    `coords`, in one pass: row r of g combines the lists at its nonzero
    entries."""
    rows = []
    for g_row in g.rows:
        acc = [0] * len(coords[0])
        for x, col in zip(g_row, coords):
            if x:
                acc = [a + x * c for a, c in zip(acc, col)]
        rows.append(acc)
    return zip(*rows)


def _chain(search):
    """Strong generators and order of the group of maps that `search`
    finds from a configuration onto itself (see the module docstring)."""
    signed = search.signed
    index = {v: k for k, v in enumerate(signed)}
    fixed = [index[b] for b in search.base]
    coords = tuple(zip(*signed))
    gens, perms = [], []
    order = 1
    for i in reversed(range(len(fixed))):
        orbit = _orbit(fixed[i], perms)
        for y in search.candidates(i, fixed[:i]):
            if y in orbit:
                continue
            hit = search.run(True, fixed[:i] + [y])
            if hit:
                g = hit[0]
                gens.append(g)
                perms.append([index[v] for v in _images(g, coords)])
                orbit = _orbit(fixed[i], perms)
        order *= len(orbit)
    return tuple(gens), order


def _cell_search(src, dst, det_one):
    """The search for maps of cell `src` onto cell `dst`, or None when
    their barycenter determinants already differ."""
    adj_src, det_src = _adjugate_and_det(barycenter_matrix(src))
    adj_dst, det_dst = (adj_src, det_src) if dst == src else \
        _adjugate_and_det(barycenter_matrix(dst))
    if det_src != det_dst:
        return None
    dst_set = set(dst)

    def accept(g):
        return all(canonical_pair(g.apply(v)) in dst_set for v in src)

    return _Search(src, dst, adj_src, adj_dst, accept, det_one)


def _form_search(src_gram, src, dst_gram, dst, det_one):
    """The search for g with g^t * dst_gram * g = src_gram."""

    def accept(g):
        gt = tuple(zip(*g.rows))
        return mat_mul(mat_mul(gt, dst_gram), g.rows) == src_gram

    return _Search(src, dst, src_gram, dst_gram, accept, det_one)


def cell_maps(src_vectors, dst_vectors, det_one=False, first_only=False):
    """Unimodular g with g * src = dst as sets of antipodal pairs."""
    src = tuple(sorted(src_vectors))
    dst = tuple(sorted(dst_vectors))
    if len(src) != len(dst):
        return []
    search = _cell_search(src, dst, det_one)
    return search.run(first_only) if search else []


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
    return _form_search(src_form.gram, src, dst_form.gram, dst,
                        det_one).run(first_only)


def cell_group(vectors, det_one=False):
    """(strong generators, order) of {g : g * S = S} for a spanning
    configuration S, by a stabilizer chain."""
    vecs = tuple(sorted(vectors))
    return _chain(_cell_search(vecs, vecs, det_one))


def form_group(form, vectors, det_one=False):
    """(strong generators, order) of {g : g^t Q g = Q} for a perfect
    form with its minimal vectors, by a stabilizer chain."""
    vecs = tuple(sorted(vectors))
    return _chain(_form_search(form.gram, vecs, form.gram, vecs, det_one))


def cell_stabilizer(vectors, det_one=False):
    """The full finite group {g : g * S = S} of a spanning configuration."""
    elems = cell_maps(vectors, vectors, det_one=det_one)
    return tuple(sorted(elems, key=lambda g: g.rows))


def form_automorphisms(form, vectors, det_one=False):
    """The full automorphism group {g : g^t Q g = Q} of a perfect form."""
    elems = form_maps(form, vectors, form, vectors, det_one=det_one)
    return tuple(sorted(elems, key=lambda g: g.rows))


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


def _index_perms(vectors, generators):
    """Each generator as a permutation of the indices of `vectors`
    (ValueError when it moves a vector off them)."""
    index = {v: i for i, v in enumerate(vectors)}
    perms = []
    for g in generators:
        images = [index.get(canonical_pair(g.apply(v))) for v in vectors]
        if None in images:
            raise ValueError("group does not permute the faces")
        perms.append(images)
    return perms


def orbit_decompose(vectors, faces, generators):
    """The orbits of `faces` under the group generated by `generators`,
    walked breadth first.

    Faces are sets of indices into the cell's sorted `vectors`.  Each
    generator is mapped once to a permutation of those indices, and
    faces move by it.  The walk goes through `faces` in order, and each
    face it has not reached yet starts an orbit.  Returns (reached,
    orbits, schreier): the faces reached, as frozensets numbered orbit
    by orbit in walk order (`faces` exactly when the group permutes
    them; a face that `faces` lists is reached as the object listed);
    the orbits as ranges of those numbers, representative first; and
    their Schreier vector: per face None at a representative, else the
    pair (g, j) of the generator index g and the face j it was reached
    from, with generators[g] carrying face j onto it (`transporter`
    multiplies a path out).  Raises ValueError when a generator moves a
    vector off `vectors`.
    """
    perms = _index_perms(vectors, generators)
    listed = {}
    for face in map(frozenset, faces):
        listed.setdefault(face, face)
    seen = set()
    reached, orbits, schreier = [], [], []
    for start in listed:
        if start in seen:
            continue
        first = len(reached)
        seen.add(start)
        reached.append(start)
        schreier.append(None)
        j = first
        while j < len(reached):
            for g, perm in enumerate(perms):
                img = frozenset(map(perm.__getitem__, reached[j]))
                if img not in seen:
                    img = listed.get(img, img)
                    seen.add(img)
                    reached.append(img)
                    schreier.append((g, j))
            j += 1
        orbits.append(range(first, len(reached)))
    return reached, tuple(orbits), tuple(schreier)


def transporter(generators, schreier, k, n):
    """The element that carries the representative of face k's orbit
    onto face k: the product of the generators along the Schreier path
    of `orbit_decompose` from face k back to the representative (the
    n x n identity at a representative)."""
    out = None
    while schreier[k] is not None:
        g, k = schreier[k]
        out = generators[g] if out is None else out * generators[g]
    return GroupElement.identity(n) if out is None else out


def transporter_det(generators, schreier, k):
    """The determinant of `transporter(generators, schreier, k, n)`:
    the product of the generator determinants along the path."""
    det = 1
    while schreier[k] is not None:
        g, k = schreier[k]
        det *= generators[g].det
    return det
