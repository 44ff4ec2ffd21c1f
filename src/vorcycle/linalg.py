"""Exact integer/rational linear algebra.

Every decision made anywhere in this package (ranks, kernel dimensions,
determinant signs, orientations, positive definiteness) is computed
here in exact integer arithmetic, by one fraction-free elimination
(`echelon`): rows enter one at a time, each is reduced against the pivot
rows so far, and what is left becomes a pivot row.  `mat_rank`,
`det_int`, `adjugate`, `kernel_basis` and `independent_rows` read their
answers off it, and `forms` reads the leading principal minors of a
Gram matrix off it.  Rational input rows are scaled to integer rows
first.  No floating point enters any code path.

Symmetric matrices are identified with coordinate vectors through the
upper-triangle flattening (index pairs i <= j in row-major order,
off-diagonal entries NOT doubled).  That flattening is a coordinate
choice only; the inner product on symmetric matrices is the trace form
tr(A*B) and is provided separately by `trace_pair`.

Signs are plain ints in {-1, 0, +1}.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class SpanMismatch(ValueError):
    """Two ordered vector families do not span the same subspace."""


def _as_int_rows(rows):
    """`rows`, with each row that holds a Fraction scaled by a positive
    factor to integers."""
    out = []
    for row in rows:
        if Fraction in map(type, row):
            scale = lcm(*(x.denominator for x in row))
            row = [int(x * scale) for x in row]
        out.append(row)
    return out


def echelon(rows, stop=None):
    """Row-at-a-time fraction-free (Bareiss) elimination of integer rows.

    Each row in turn is reduced against the pivot rows kept so far:
    step k replaces it by (r * p_k - q_k * r[c_k]) / p_(k-1), where q_k
    is the k-th pivot row, c_k its pivot column, p_k = q_k[c_k] and
    p_0 = 1.  The division is exact: entry j of the result is the minor
    on the rows so far and the columns c_1, ..., c_k, j.  A row left
    nonzero becomes the next pivot row, with its first nonzero column as
    pivot column; a row left zero is dropped.  No two rows are ever
    exchanged, and pivot columns may arrive in any order.  The scan ends
    once `stop` pivot rows are found (by default, one per column).

    Returns (pivots, kept): `pivots` lists (pivot column, reduced row)
    and `kept` the indices of the rows that left them.
    """
    pivots, kept = [], []
    if not rows:
        return pivots, kept
    width = len(rows[0])
    stop = width if stop is None else min(stop, width)
    for i, r in enumerate(rows):
        if len(pivots) >= stop:
            break
        # A step with r[c_k] = 0 only scales r by p_k / p_(k-1); such
        # steps are deferred, and `base` is the pivot of the last step
        # taken (p_0 = 1).
        base = p = 1
        for c, q in pivots:
            p = q[c]
            a = r[c]
            if a:
                r = [(x * p - y * a) // base for x, y in zip(r, q)]
                base = p
        for c, x in enumerate(r):
            if x:
                if base != p:
                    r = [t * p // base for t in r]
                pivots.append((c, r))
                kept.append(i)
                break
    return pivots, kept


def mat_rank(rows, stop=None):
    """Rank over the rationals; with `stop`, the smaller of the rank and
    `stop` (the elimination ends at that many pivots)."""
    return len(echelon(_as_int_rows(rows), stop)[0])


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel of `rows`, as primitive integer vectors.

    `ncols` is required when `rows` is empty.  One basis vector per free
    column (a column that is no pivot column): 1 there, 0 at the other
    free columns, and the pivot entries by back substitution in reverse
    pivot order.  Each vector is scaled to coprime integers with its
    first nonzero entry positive.
    """
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        basis = []
        for j in range(ncols):
            v = [0] * ncols
            v[j] = 1
            basis.append(tuple(v))
        return basis
    ncols = len(rows[0])
    pivots, _ = echelon(_as_int_rows(rows))
    pivot_set = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        x = [0] * ncols
        x[f] = 1
        # Pivot row k vanishes on the pivot columns before its own, so
        # x[c_k] follows from the entries already set; x is rescaled by
        # a positive factor to keep it integral.
        for c, q in reversed(pivots):
            s = sum(map(mul, q, x))
            p = q[c]
            g = gcd(s, p)
            scale = abs(p) // g
            if scale != 1:
                x = [t * scale for t in x]
            x[c] = -(s // g) if p > 0 else s // g
        vec = primitive(x)
        for entry in vec:
            if entry != 0:
                if entry < 0:
                    vec = tuple(-t for t in vec)
                break
        basis.append(vec)
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    return primitive(_as_int_rows([vec])[0])


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _pivot_det(pivots):
    """The determinant of a square matrix off its `echelon` pivots, one
    per row: the last pivot (the determinant with the columns in pivot
    order) times the sign of the pivot-column permutation."""
    # Sort the pivot columns by swaps, each of which flips the sign.
    cols = [c for c, _ in pivots]
    c, last = pivots[-1]
    det = last[c]
    for i in range(len(cols)):
        while cols[i] != i:
            j = cols[i]
            cols[i], cols[j] = cols[j], j
            det = -det
    return det


def det_int(rows):
    """Exact determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    pivots, _ = echelon(rows)
    return _pivot_det(pivots) if len(pivots) == n else 0


def det_sign(rows):
    """Sign of the determinant of a square rational matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    d = det_int(_as_int_rows(rows))  # the row scaling is positive
    return (d > 0) - (d < 0)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def adjugate(rows):
    """Adjugate of a nonsingular square integer matrix A, so A * adj =
    det(A) * I; raises ValueError when A is singular.

    One `echelon` of [A | I] leaves pivot rows [U | M], U = M A, row k
    of U zero on the pivot columns before its own: U adj = det(A) M is
    solved by exact back substitution in reverse pivot order.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    pivots, _ = echelon([list(r) + [int(i == j) for j in range(n)]
                         for i, r in enumerate(rows)], n)
    if any(c >= n for c, _ in pivots):
        raise ValueError("matrix is singular")
    det = _pivot_det(pivots)
    adj = [None] * n
    for k in reversed(range(n)):
        c, q = pivots[k]
        acc = [det * x for x in q[n:]]
        for c_later, _ in pivots[k + 1:]:
            if q[c_later]:
                acc = [x - q[c_later] * y for x, y in zip(acc, adj[c_later])]
        adj[c] = tuple(x // q[c] for x in acc)
    return tuple(adj)


def independent_rows(candidates, start):
    """Indices of the candidates kept by the greedy independence rule.

    Scanning in order, a candidate is kept when it raises the rank of
    the linearly independent rows `start` plus the candidates kept
    before it: in one elimination of `start` then the candidates, the
    candidates that leave a pivot.  The scan stops once the rows reach
    full column rank.
    """
    k = len(start)
    _, kept = echelon(_as_int_rows(list(start) + list(candidates)))
    return [i - k for i in kept if i >= k]


def unit_completion(basis):
    """The standard unit vectors that the greedy rule adds to the
    independent rows `basis` to span the whole space."""
    units = identity_matrix(len(basis[0])) if basis else ()
    return [units[j] for j in independent_rows(units, basis)]


def relative_orientation(basis_a, basis_b):
    """Sign of the change of basis from `basis_a` to `basis_b`.

    Both arguments are ordered bases of the same subspace; raises
    SpanMismatch otherwise.  The result is +1 or -1, never 0.  Both
    bases are completed by the unit completion of `basis_a`; the ratio
    of the two determinants is the determinant of the change of basis.
    """
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


# ---------------------------------------------------------------------------
# Symmetric-matrix flattening and the trace pairing.

def sym_flatten(mat):
    """Upper-triangle coordinates (i <= j) of a symmetric matrix."""
    n = len(mat)
    return tuple(mat[i][j] for i in range(n) for j in range(i, n))


def sym_unflatten(vec, n):
    """Inverse of `sym_flatten` for an n x n symmetric matrix."""
    out = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            out[i][j] = vec[k]
            out[j][i] = vec[k]
            k += 1
    return tuple(tuple(r) for r in out)


def sym_dim(n):
    return n * (n + 1) // 2


def trace_pair(a, b):
    """tr(a*b) for symmetric matrices: diagonal once, off-diagonal twice."""
    n = len(a)
    total = 0
    for i in range(n):
        total += a[i][i] * b[i][i]
        for j in range(i + 1, n):
            total += 2 * a[i][j] * b[i][j]
    return total


def pairing_weights(flat, n):
    """Flattened vector w with trace_pair(A, B) = dot(w(A), sym_flatten(B))."""
    out = []
    k = 0
    for i in range(n):
        for j in range(i, n):
            out.append(flat[k] if i == j else 2 * flat[k])
            k += 1
    return tuple(out)
