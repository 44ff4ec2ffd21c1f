"""Exact integer/rational linear algebra.

Every decision made anywhere in this package (ranks, kernel dimensions,
determinant signs, orientations) is computed here in exact arithmetic:
arbitrary-precision integers with one fraction-free Bareiss elimination
(`_echelon`, behind `mat_rank`, `kernel_basis` and `det_int`), and
`fractions.Fraction` only in the back substitution of `kernel_basis`.
No floating point enters any code path.

Symmetric matrices are identified with coordinate vectors through the
upper-triangle flattening (index pairs i <= j in row-major order,
off-diagonal entries NOT doubled).  That flattening is a coordinate
choice only; the inner product on symmetric matrices is the trace form
tr(A*B) and is provided separately by `trace_pair`.

Signs are plain ints in {-1, 0, +1}.
"""

from fractions import Fraction
from math import gcd


class SpanMismatch(ValueError):
    """Two ordered vector families do not span the same subspace."""


def _lcm(a, b):
    return a * b // gcd(a, b)


def _as_int_rows(rows):
    """Copy `rows` into integer lists, scaling each row by a positive factor."""
    out = []
    for row in rows:
        denom = 1
        for x in row:
            if type(x) is Fraction:
                denom = _lcm(denom, x.denominator)
        out.append([int(x * denom) for x in row])
    return out


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (echelon_rows, pivot_cols, swap_sign).  The echelon rows are
    exact integer rows; entries below each pivot are zero.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
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


def mat_rank(rows):
    """Rank over the rationals, by fraction-free elimination."""
    if not rows:
        return 0
    _, pivots, _ = _echelon(_as_int_rows(rows))
    return len(pivots)


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel of `rows`, as primitive integer vectors.

    `ncols` is required when `rows` is empty.  One basis vector per free
    column of the echelon form; entries are coprime integers.
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
    ech, pivots, _ = _echelon(_as_int_rows(rows))
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = Fraction(0)
            for c in range(pc + 1, ncols):
                if ech[r][c]:
                    s += ech[r][c] * x[c]
            x[pc] = -s / ech[r][pc]
        vec = clear_denominators(x)
        for entry in vec:
            if entry != 0:
                if entry < 0:
                    vec = tuple(-t for t in vec)
                break
        basis.append(vec)
    return basis


def clear_denominators(vec):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    denom = 1
    for x in vec:
        if type(x) is Fraction:
            denom = _lcm(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def det_int(rows):
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    ech, pivots, sign = _echelon(_as_int_rows(rows))
    if len(pivots) < n:
        return 0
    # Bareiss leaves the determinant (up to swaps) in the last pivot.
    return sign * ech[n - 1][pivots[-1]]


def det_sign(rows):
    """Sign of the determinant of a square rational matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    d = det_int(rows)  # row scaling in _as_int_rows is positive
    return (d > 0) - (d < 0)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def adjugate(rows):
    """Adjugate of a square integer matrix (so rows * adj = det * I)."""
    n = len(rows)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_int(minor)
    return tuple(tuple(r) for r in adj)


def independent_rows(candidates, start):
    """Indices of the candidates kept by the greedy independence rule.

    Scanning in order, a candidate is kept when it raises the rank of
    the linearly independent rows `start` plus the candidates kept
    before it.  The scan stops once the rows reach full column rank.
    """
    rows = list(start)
    width = len((rows or candidates or [()])[0])
    chosen = []
    for i, cand in enumerate(candidates):
        if len(rows) == width:
            break
        if mat_rank(rows + [cand]) > len(rows):
            rows.append(cand)
            chosen.append(i)
    return chosen


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
