import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from functools import lru_cache

import pytest

import vorcycle
from vorcycle import complexes, cones, enumeration, forms, isometry
from vorcycle.complexes import (
    _node_view,
    _wall_view,
    build_complex,
    induced_sign,
    transport_flat,
)
from vorcycle.cones import face_indices, face_vectors
from vorcycle.enumeration import enumerate_perfect_forms
from vorcycle.forms import (
    GroupElement,
    QForm,
    apply_to_cell,
    canonical_pair,
    rank_one,
)
from vorcycle.isometry import cell_maps
from vorcycle.persistence import canonical_dumps
from vorcycle.tessellation import IndexOutOfRange, TessVerdict, _same_line
from vorcycle.linalg import (
    det_sign,
    identity_matrix,
    independent_rows,
    kernel_basis,
    mat_mul,
    mat_rank,
    mat_transpose,
    pairing_weights,
    sym_dim,
    sym_flatten,
)


# The pipeline's functions as imported, so the session-wide caches below
# can refuse to build, or hand out, a result while a test has one
# of them monkeypatched.
PIPELINE_FUNCTIONS = {
    (module, name): value
    for module in (enumeration, complexes, isometry, cones, forms)
    for name, value in vars(module).items()
    if isinstance(value, types.FunctionType)}


def _require_unpatched():
    patched = [f"{module.__name__}.{name}"
               for (module, name), value in PIPELINE_FUNCTIONS.items()
               if getattr(module, name, None) is not value]
    if patched:
        raise RuntimeError("the session-wide graph and complex caches are "
                           f"shared by every test; {', '.join(patched)} "
                           "is patched")


@lru_cache(maxsize=None)
def _cached_graph(n, group, traversal):
    return enumerate_perfect_forms(n, group, traversal=traversal)


@lru_cache(maxsize=None)
def _cached_complex(n, group, seed_perm):
    return build_complex(cached_graph(n, group), seed_perm=seed_perm)


def cached_graph(n, group, traversal="default"):
    _require_unpatched()
    return _cached_graph(n, group, traversal)


def cached_complex(n, group, seed_perm=0):
    _require_unpatched()
    return _cached_complex(n, group, seed_perm)


@pytest.fixture(scope="session")
def graph_sl2():
    return cached_graph(2, "sl")


@pytest.fixture(scope="session")
def graph_sl3():
    return cached_graph(3, "sl")


@pytest.fixture(scope="session")
def graph_sl4():
    return cached_graph(4, "sl")


@pytest.fixture(scope="session")
def graph_gl2():
    return cached_graph(2, "gl")


@pytest.fixture(scope="session")
def graph_gl3():
    return cached_graph(3, "gl")


@pytest.fixture(scope="session")
def graph_gl4():
    return cached_graph(4, "gl")


@pytest.fixture(scope="session")
def complex_sl2():
    return cached_complex(2, "sl")


@pytest.fixture(scope="session")
def complex_sl3():
    return cached_complex(3, "sl")


@pytest.fixture(scope="session")
def complex_sl4():
    return cached_complex(4, "sl")


@pytest.fixture(scope="session")
def complex_gl2():
    return cached_complex(2, "gl")


@pytest.fixture(scope="session")
def complex_gl3():
    return cached_complex(3, "gl")


@pytest.fixture(scope="session")
def complex_gl4():
    return cached_complex(4, "gl")


def python_env():
    """The environment of a fresh interpreter that imports this
    vorcycle, with VORCYCLE_CACHE unset."""
    env = {k: v for k, v in os.environ.items() if k != "VORCYCLE_CACHE"}
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(vorcycle.__file__)))
    return env


def run_python(*args, optimize=(), timeout=60):
    """`python [-O] ARGS...` in a fresh interpreter (`python_env`);
    `optimize` is () or ("-O",)."""
    return subprocess.run([sys.executable, *optimize, *args],
                          env=python_env(), capture_output=True, text=True,
                          timeout=timeout)


def content_hash(payload):
    """The hash that a cache file's header carries for `payload`."""
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def wall_facet(payload, i):
    """The (parent, face) of wall i of a seed-0 complex payload: the
    member that seed permutation 0 picks, its first."""
    parent, face = payload["walls"][i]["members"][0]
    return parent, face


def random_unimodular(n, rng, steps=8):
    """Product of random elementary shears, swaps, and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]

    def shear(i, j, c):
        for k in range(n):
            m[i][k] += c * m[j][k]

    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            shear(i, j, rng.choice((-2, -1, 1, 2)))
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return GroupElement.from_matrix(m)


# ---------------------------------------------------------------------------
# Helpers that state a relation the pipeline computes another way.

def act(g, q_rows):
    """The linear action on form space: (g^-1)^t Q g^-1, for a Gram
    matrix or a rank-one ray matrix Q alike."""
    if len(q_rows) != g.n:
        raise ValueError("dimension mismatch between group element and form")
    gi = g.inverse().rows
    return mat_mul(mat_mul(mat_transpose(gi), q_rows), gi)


def act_form(g, form):
    return QForm.from_matrix(act(g, form.gram))


def trace_pair(a, b):
    """tr(a*b) for symmetric matrices: diagonal once, off-diagonal twice."""
    n = len(a)
    total = 0
    for i in range(n):
        total += a[i][i] * b[i][i]
        for j in range(i + 1, n):
            total += 2 * a[i][j] * b[i][j]
    return total


def unit_completion(basis):
    """The standard unit vectors that the greedy rule adds to the
    independent rows `basis` to span the whole space."""
    units = identity_matrix(len(basis[0])) if basis else ()
    return [units[j] for j in independent_rows(units, basis)]


class SpanMismatch(ValueError):
    """Two ordered vector families do not span the same subspace."""


def relative_orientation(basis_a, basis_b):
    """Sign of the change of basis from `basis_a` to `basis_b`, two
    ordered bases of one subspace (SpanMismatch otherwise): both are
    completed by the unit completion of `basis_a`, and the ratio of the
    two determinants is the determinant of the change of basis."""
    if len(basis_a) != len(basis_b):
        raise SpanMismatch("bases have different sizes")
    k = len(basis_a)
    if mat_rank(basis_a) != k or mat_rank(basis_b) != k:
        raise SpanMismatch("input is not a basis")
    if mat_rank(list(basis_a) + list(basis_b)) != k:
        raise SpanMismatch("bases span different subspaces")
    completion = unit_completion(basis_a)
    return det_sign(list(basis_a) + completion) * \
        det_sign(list(basis_b) + completion)


def face_mask(indices):
    """The face of the vector indices `indices`, as a bitmask."""
    return sum(1 << i for i in set(indices))


def faces_of_codim(vectors, facets, k):
    """Faces of codimension k of the cone of `vectors` with `facets`, as
    bitmasks of incident rays, by iterated intersection with facets;
    k = 0 is the cone itself and k = 1 its facet list."""
    vectors = tuple(sorted(vectors))
    dim = sym_dim(len(vectors[0]))
    if k < 0 or k > dim:
        raise ValueError("codimension out of range")
    if k == 0:
        return [(1 << len(vectors)) - 1]
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    current = set(facets)
    for codim in range(2, k + 1):
        nxt = set()
        for face in current:
            for f in facets:
                cand = face & f
                if cand == face:
                    continue
                if mat_rank(face_vectors(flats, cand)) == dim - codim:
                    nxt.add(cand)
        current = nxt
    return sorted(current, key=face_indices)


def weighted_boundary(instance, weights):
    """Coefficient of every facet orbit under a tile weighting: a map
    from kept-tile positions, or a full list, to rationals; indices
    outside the tile list raise IndexOutOfRange."""
    instance.validate()
    kept = instance.kept_tiles()
    if isinstance(weights, dict):
        for t in weights:
            if not 0 <= t < len(instance.tiles):
                raise IndexOutOfRange(f"weight index {t}")
        w = {t: Fraction(v) for t, v in weights.items()}
    else:
        if len(weights) != len(kept):
            raise IndexOutOfRange("weight vector length mismatch")
        w = {t: Fraction(v) for t, v in zip(kept, weights)}
    return [sum((Fraction(v) * w.get(t, Fraction(0))
                 for t, v in f.incidences), Fraction(0))
            for f in instance.facet_orbits]


def canonical_cycle(cx):
    """The chain with coefficient 1/|stabilizer| on every kept top class."""
    return tuple(Fraction(1, cx.graph.nodes[i].stab_order)
                 for i in cx.kept_tops)


def reference_echelon(rows):
    """Reference: fraction-free (Bareiss) row echelon form of an integer
    matrix, column by column with row exchanges.  Returns
    (echelon_rows, pivot_cols, swap_sign)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        pc = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c, ncols):
                m[i][j] = (m[i][j] * pc - m[r][j] * mic) // prev
        prev = pc
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivot_cols, sign


def _reference_int_rows(rows):
    """Each rational row scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        denom = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * denom) for x in row])
    return out


def reference_rank(rows):
    """Reference: rank of a rational matrix by `reference_echelon`."""
    if not rows:
        return 0
    return len(reference_echelon(_reference_int_rows(rows))[1])


def reference_det(rows):
    """Reference: determinant of a square integer matrix, the last
    Bareiss pivot times the sign of the row exchanges."""
    n = len(rows)
    if n == 0:
        return 1
    ech, pivots, sign = reference_echelon(rows)
    if len(pivots) < n:
        return 0
    return sign * ech[n - 1][pivots[-1]]


def reference_adjugate(rows):
    """Reference: the adjugate of a square integer matrix, one cofactor
    (a determinant of a minor) per entry."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * reference_det(minor)
    return tuple(tuple(r) for r in adj)


def reference_kernel(rows):
    """Reference: kernel basis of a nonempty rational matrix, one vector
    per free column of `reference_echelon`, by Fraction back
    substitution, scaled to coprime integers with its first nonzero
    entry positive."""
    ncols = len(rows[0])
    ech, pivots, _ = reference_echelon(_reference_int_rows(rows))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((ech[r][c] * x[c] for c in range(pc + 1, ncols)),
                    Fraction(0))
            x[pc] = -s / ech[r][pc]
        denom = math.lcm(*(t.denominator for t in x))
        ints = [int(t * denom) for t in x]
        g = math.gcd(*ints)
        if next(t for t in ints if t) < 0:
            g = -g
        basis.append(tuple(t // g for t in ints))
    return basis


def reference_ldl(gram):
    """Reference: exact rational LDL^t data of a symmetric matrix.

    Returns (diag, coeff, bad) with Q(x) = sum_k diag[k] * (x_k +
    sum_{j>k} coeff[k][j] x_j)^2; `bad` is the index of the first pivot
    <= 0 (where the decomposition stops), or None."""
    n = len(gram)
    w = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    diag = []
    coeff = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d = w[k][k]
        if d <= 0:
            return diag, coeff, k
        diag.append(d)
        for j in range(k + 1, n):
            coeff[k][j] = w[k][j] / d
        for i in range(k + 1, n):
            for j in range(i, n):
                w[i][j] -= w[k][i] * w[k][j] / d
                w[j][i] = w[i][j]
    return diag, coeff, None


def reference_short_vectors(gram, bound):
    """Reference: Fincke-Pohst over `reference_ldl` in Fractions; the
    sorted (canonical vector, value) pairs with 0 < Q(x) <= bound, or
    None when the matrix is not positive definite."""
    diag, coeff, bad = reference_ldl(gram)
    if bad is not None:
        return None
    n = len(gram)
    found = {}
    x = [0] * n

    def descend(i, remaining):
        if i < 0:
            if any(x):
                vec = tuple(x)
                found[canonical_pair(vec)] = sum(
                    vec[a] * gram[a][b] * vec[b]
                    for a in range(n) for b in range(n))
            return
        center = -sum(coeff[i][j] * x[j] for j in range(i + 1, n))
        start = math.floor(center)
        for step, k in ((-1, start), (1, start + 1)):
            while diag[i] * (k - center) ** 2 <= remaining:
                x[i] = k
                descend(i - 1, remaining - diag[i] * (k - center) ** 2)
                k += step
        x[i] = 0

    descend(n - 1, Fraction(bound))
    return sorted(found.items())


def brute_min_vectors(gram, box):
    """Oracle: exhaustive minimum over the integer box [-box, box]^n."""
    n = len(gram)
    best = None
    hits = set()
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if not any(x):
            continue
        v = sum(x[i] * sum(gram[i][j] * x[j] for j in range(n))
                for i in range(n))
        if best is None or v < best:
            best, hits = v, set()
        if v == best:
            hits.add(canonical_pair(x))
    return best, hits


def brute_facets(vectors):
    """Oracle: facet search over all hyperplane-spanning ray subsets."""
    n = len(vectors[0])
    dim = sym_dim(n)
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    weights = [pairing_weights(f, n) for f in flats]
    found = {}
    for sub in itertools.combinations(range(len(vectors)), dim - 1):
        rows = [flats[i] for i in sub]
        if mat_rank(rows) != dim - 1:
            continue
        ker = kernel_basis([weights[i] for i in sub])
        if len(ker) != 1:
            continue
        y = ker[0]
        vals = [sum(a * b for a, b in zip(weights[i], y))
                for i in range(len(vectors))]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            y = tuple(-t for t in y)
            vals = [-t for t in vals]
        else:
            continue
        found[face_mask(i for i, v in enumerate(vals) if v == 0)] = y
    return found


def brute_stabilizer_2x2(gram, bound=2):
    """Oracle: all unimodular 2x2 matrices with entries in [-bound, bound]
    preserving the form."""
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det not in (1, -1):
            continue
        gt = tuple(zip(*m))
        if mat_mul(mat_mul(gt, gram), m) == gram:
            out.append(m)
    return sorted(out)


@lru_cache(maxsize=None)
def closure(generators, n):
    """Oracle: every element of the group generated by `generators`,
    sorted by rows, by breadth-first multiplication."""
    ident = GroupElement.identity(n)
    elems = {ident.rows: ident}
    frontier = [ident]
    for h in frontier:
        for g in generators:
            prod = g * h
            if prod.rows not in elems:
                elems[prod.rows] = prod
                frontier.append(prod)
    return tuple(sorted(elems.values(), key=lambda e: e.rows))


def pair_swap_elements(cell_a, cell_b, det_one=False):
    """Reference: the elements exchanging two cells (g * a = b and
    g * b = a setwise), sorted by rows."""
    a = tuple(sorted(cell_a))
    b = tuple(sorted(cell_b))
    out = [g for g in cell_maps(a, b, det_one=det_one)
           if apply_to_cell(g, b) == a]
    return tuple(sorted(out, key=lambda g: g.rows))


class WitnessMismatch(ValueError):
    """The claimed group element does not map the cell to the translate."""


def greedy_basis(vectors):
    """Reference: a basis of the span of the rank-one flats of
    `vectors`, each flat kept when it raises the rank of those kept
    before it."""
    basis = []
    for v in vectors:
        flat = sym_flatten(rank_one(v))
        if mat_rank(basis + [flat]) > len(basis):
            basis.append(flat)
    return basis


def transport_sign(child, translate_vectors, translate_basis, witness, n):
    """Reference: orientation carried by a witness from a representative,
    with its `greedy_basis`, to a translate with `translate_basis`;
    raises WitnessMismatch if the witness does not map the
    representative onto the translate."""
    if apply_to_cell(witness, child.vectors) != \
            tuple(sorted(translate_vectors)):
        raise WitnessMismatch("witness does not carry the cell to the "
                              "translate")
    moved = [transport_flat(witness, b, n)
             for b in greedy_basis(child.vectors)]
    return relative_orientation(list(translate_basis), moved)


def matrix_orbit_decompose(keys, generators, apply, identity):
    """Reference: orbits of `keys` with transporters, moving every key
    by the matrix action `apply`; raises ValueError when an image
    leaves `keys`."""
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


def reference_orbit_decompose(vectors, faces, generators):
    """Reference: `isometry.orbit_decompose` on faces held as frozensets
    of vector indices, each moved index by index, as the pipeline walked
    them before faces became bitmasks.  Returns the faces reached as
    frozensets, with the same orbits and Schreier vector."""
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


def facet_edges(graph):
    """(i, node, facet, edge) for every facet of every node of `graph`,
    with the edge across it, derived from its orbit's."""
    for i, (node, edges) in enumerate(zip(graph.nodes, graph.edges)):
        assert len(edges) == len(node.facets.orbits)
        for k, facet in enumerate(node.facets):
            yield i, node, facet, enumeration.facet_edge(graph, i, k)


def top_views(graph):
    """The parent view of every top cell, as `build_complex` makes it."""
    return [_node_view(graph, i) for i in range(len(graph.nodes))]


def kept_wall_views(cx):
    """The parent view of every kept wall, as `build_codim2` makes it."""
    return [_wall_view(cx.walls[i]) for i in cx.kept_walls]


def oriented_basis(frame, parent_vectors, vectors):
    """Reference: the `greedy_basis` of a face `vectors` of the cell
    `parent_vectors`, whose span has the oriented basis `frame`, with
    the orientation the cell induces: followed by a flat of a cell ray
    off the face, it has the orientation of `frame`, by unit-completion
    determinants (`relative_orientation`)."""
    basis = greedy_basis(vectors)
    extra = next(v for v in parent_vectors if v not in set(vectors))
    if relative_orientation(frame, basis + [sym_flatten(rank_one(extra))]) \
            < 0:
        basis[0] = tuple(-x for x in basis[0])
    return basis


def top_frames(graph):
    """Reference: the oriented basis of every top cell's span, the
    standard coordinates of the form space."""
    return [identity_matrix(sym_dim(graph.n))] * len(graph.nodes)


def class_frames(parents, frames, children):
    """Reference: the oriented basis of every class of `children` at its
    representative, a face of parents[child.parent], whose span has the
    oriented basis frames[child.parent]."""
    return [oriented_basis(frames[c.parent], parents[c.parent].vectors,
                           c.vectors) for c in children]


def kept_wall_frames(cx):
    """Reference: the oriented basis of every kept wall, in the order of
    `kept_wall_views`, as the top cell of its representative induces."""
    walls = [cx.walls[i] for i in cx.kept_walls]
    return class_frames([node.minvecs for node in cx.graph.nodes],
                        top_frames(cx.graph), walls)


def determinant_sign(view, frame, child, basis, member_vectors, transporter,
                     n):
    """Reference: the induced-orientation sign of one face against its
    parent `view`, whose span has the oriented basis `frame`, by
    determinants of the parent's size: the oriented basis `basis` of
    the class `child` at its representative, pushed forward by
    `transporter` (`transport_flat`), followed by a parent ray off the
    face, against `frame` (`relative_orientation`)."""
    assert apply_to_cell(transporter, child.vectors) == tuple(member_vectors)
    moved = [transport_flat(transporter, b, n) for b in basis]
    extra = next(v for v in view.vectors if v not in set(member_vectors))
    return relative_orientation(frame, moved + [sym_flatten(rank_one(extra))])


def sign_pairs(parents, frames, children, n, det_one):
    """Pairs (`induced_sign`, `determinant_sign`) of the classes
    `children` of the faces of `parents`, whose spans have the oriented
    bases `frames`: for every stabilizer generator g of each class, at
    its representative, and for every member orbit, at the orbit's
    first face with a transporter from the representative found by a
    second matching.  `determinant_sign` reads no orientation of the
    pipeline's: each class's basis is its own `class_frames`."""
    for child, basis in zip(children,
                            class_frames(parents, frames, children)):
        view, frame = parents[child.parent], frames[child.parent]
        for g in child.generators:
            yield (induced_sign(view, child, child.vectors, g.inverse(), n),
                   determinant_sign(view, frame, child, basis, child.vectors,
                                    g, n))
        firsts = {(p, next(o for o in parents[p].orbits if f in o)[0])
                  for p, f in child.members}
        for p, k in sorted(firsts):
            view = parents[p]
            t, = cell_maps(child.vectors, view.faces[k], det_one=det_one,
                           first_only=True)
            yield (induced_sign(view, child, view.faces[k], t.inverse(), n),
                   determinant_sign(view, frames[p], child, basis,
                                    view.faces[k], t, n))


def reference_incidences(parents, frames, columns, children, kept_children,
                         n, det_one):
    """Reference: the sorted nonzero ((row, col), value) incidence
    numbers of parents[columns[col]] against children[kept_children[row]],
    by matching every face orbit of each column parent to the kept
    children a second time and summing `determinant_sign` over every
    member of the orbit, each with its own transporter; `frames` are
    the oriented bases of the parents' spans."""
    bases = class_frames(parents, frames, children)
    entries = {}
    for col, p_pos in enumerate(columns):
        view = parents[p_pos]
        for orbit in view.orbits:
            rep_key = view.faces[orbit[0]]
            for row, c_pos in enumerate(kept_children):
                child = children[c_pos]
                link = cell_maps(child.vectors, rep_key, det_one=det_one,
                                 first_only=True)
                if not link:
                    continue
                total = sum(determinant_sign(view, frames[p_pos], child,
                                             bases[c_pos], view.faces[k],
                                             view.transporter(k) * link[0],
                                             n)
                            for k in orbit)
                entries[(row, col)] = entries.get((row, col), 0) + total
                break
    return tuple(sorted((k, v) for k, v in entries.items() if v != 0))


def differential_kernel(cx):
    """Reference: primitive integer basis of the kernel of the top
    differential, by dense elimination."""
    diff = cx.differential
    return kernel_basis(diff.dense_rows(), ncols=diff.col_count)


def dense_components(instance):
    """Reference: connected components of the kept-tile graph via wall
    incidences, by union-find, sorted."""
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    parent = list(range(len(kept)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in instance.facet_orbits:
        touched = [pos[t] for t, v in f.incidences if v != 0 and t in pos]
        for a, b in zip(touched, touched[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for i, t in enumerate(kept):
        groups.setdefault(find(i), []).append(t)
    return sorted(groups.values())


def dense_check_rigidity(instance):
    """Reference: the rigidity verdict by dense elimination of the whole
    wall-by-kept-tile matrix, and of each component's columns when the
    instance is disconnected."""
    instance.validate()
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    rows = []
    for f in instance.facet_orbits:
        row = [Fraction(0)] * len(kept)
        for t, v in f.incidences:
            if v != 0 and t in pos:
                row[pos[t]] += Fraction(v)
        rows.append(row)
    canonical = [Fraction(1, instance.tiles[t].stab_order) for t in kept]
    if not kept:
        return TessVerdict(connected=True, kernel_dim=0,
                           canonical_in_kernel=True,
                           kernel_spanned_by_canonical=True, ok=True)
    kernel = kernel_basis(rows, ncols=len(kept))
    boundary = weighted_boundary(instance, canonical)
    in_kernel = all(x == 0 for x in boundary)
    spanned = len(kernel) == 1 and _same_line(kernel[0], canonical)
    components = dense_components(instance)
    connected = len(components) <= 1
    per_component = ()
    if not connected:
        reports = []
        for tiles in components:
            sub_pos = [kept.index(t) for t in tiles]
            sub_rows = [[row[i] for i in sub_pos] for row in rows]
            sub_kernel = kernel_basis(sub_rows, ncols=len(sub_pos))
            sub_canon = [canonical[i] for i in sub_pos]
            comp_ok = len(sub_kernel) == 1 and _same_line(sub_kernel[0],
                                                          sub_canon)
            reports.append((tuple(tiles), len(sub_kernel), comp_ok))
        per_component = tuple(reports)
    ok = connected and in_kernel and spanned
    return TessVerdict(connected=connected, kernel_dim=len(kernel),
                       canonical_in_kernel=in_kernel,
                       kernel_spanned_by_canonical=spanned, ok=ok,
                       kernel_vectors=tuple(tuple(v) for v in kernel),
                       canonical=tuple(canonical),
                       per_component=per_component)


@pytest.fixture
def rng():
    return random.Random(20240817)
