"""Positive definite quadratic forms over Z and the unimodular action.

Forms are stored as symmetric integer Gram matrices normalized up to
homothety: entries are scaled to coprime integers and the minimum is
carried separately.  Minimal vectors are certified complete by a
Fincke-Pohst style search driven by an exact rational LDL^t
decomposition; every comparison along the way is an exact integer or
Fraction comparison.

Minimal vectors come in antipodal pairs {x, -x}; we store one canonical
representative per pair, the one whose first nonzero coordinate is
positive (equivalently the lexicographically larger of the two).

The group GL_n(Z) acts on form space by

    act(g, Q) = (g^-1)^t Q g^-1,

so minimal vectors transport forward: m(act(g, h)) = g * m(h).  Cells of
the tessellation are handled at the vector level throughout the package
(a group element g sends a cell with vector set S to the cell with
vector set g*S), which keeps form witnesses and cell witnesses literally
the same matrices.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .linalg import (
    adjugate,
    det_int,
    mat_mul,
    mat_rank,
    mat_vec,
    mat_transpose,
    clear_denominators,
    sym_dim,
    sym_flatten,
)


class NotPositiveDefinite(ValueError):
    """A leading principal minor of the Gram matrix is <= 0."""


class ZeroVector(ValueError):
    """The zero vector has no associated ray."""


def canonical_pair(vec):
    """Representative of {x, -x} whose first nonzero coordinate is > 0."""
    for x in vec:
        if x != 0:
            if x < 0:
                return tuple(-y for y in vec)
            return tuple(vec)
    raise ZeroVector("zero vector has no canonical antipodal representative")


def rank_one(vec):
    """The rank-one symmetric matrix x x^t; identical for x and -x."""
    if all(x == 0 for x in vec):
        raise ZeroVector("rank_one of the zero vector")
    return tuple(tuple(a * b for b in vec) for a in vec)


def bilinear(mat, x, y):
    """x^t * mat * y."""
    return sum(x[i] * sum(mat[i][j] * y[j] for j in range(len(y)))
               for i in range(len(x)))


def _ldl(gram):
    """Exact LDL^t data for a symmetric matrix, as a sum of squares.

    Returns (diag, coeff, bad) with Q(x) = sum_k diag[k] * (x_k +
    sum_{j>k} coeff[k][j] x_j)^2 using the pivots produced so far.  If
    some pivot is <= 0 (the matrix is not positive definite), `bad` is
    its index and the decomposition stops there; otherwise bad is None.
    """
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


def is_positive_definite(gram):
    return _ldl(gram)[2] is None


def nonposdef_witness(gram):
    """A primitive integer vector v with Q(v) <= 0, for non-posdef Q."""
    diag, coeff, bad = _ldl(gram)
    if bad is None:
        raise ValueError("matrix is positive definite")
    n = len(gram)
    x = [Fraction(0)] * n
    x[bad] = Fraction(1)
    for i in range(bad - 1, -1, -1):
        x[i] = -sum(coeff[i][j] * x[j] for j in range(i + 1, n))
    v = clear_denominators(x)
    assert bilinear(gram, v, v) <= 0
    return v


def short_vectors(gram, bound):
    """All canonical antipodal pairs x != 0 with Q(x) <= bound.

    Exact Fincke-Pohst: coordinates are scanned outward from the
    rational center of each layer, so no square roots are ever taken.
    Returns a sorted list of (vector, value) pairs.
    """
    diag, coeff, bad = _ldl(gram)
    if bad is not None:
        raise NotPositiveDefinite(f"leading principal minor {bad + 1} is <= 0")
    n = len(gram)
    bound = Fraction(bound)
    found = {}
    x = [0] * n

    def descend(i, remaining):
        if i < 0:
            if any(x):
                vec = tuple(x)
                val = bilinear(gram, vec, vec)
                found[canonical_pair(vec)] = val
            return
        center = -sum(coeff[i][j] * x[j] for j in range(i + 1, n))
        # Nearest integer to the layer center; the quadratic term grows
        # monotonically away from it, so each scan direction may stop at
        # its first violation.
        start = (center.numerator + center.denominator // 2) // center.denominator
        k = start
        while diag[i] * (k - center) ** 2 <= remaining:
            x[i] = k
            descend(i - 1, remaining - diag[i] * (k - center) ** 2)
            k -= 1
        k = start + 1
        while diag[i] * (k - center) ** 2 <= remaining:
            x[i] = k
            descend(i - 1, remaining - diag[i] * (k - center) ** 2)
            k += 1
        x[i] = 0

    descend(n - 1, bound)
    return sorted(found.items())


class QForm(NamedTuple):
    """A positive definite integer quadratic form, normalized up to scale."""

    gram: tuple

    @classmethod
    def from_matrix(cls, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Gram matrix must be square")
        denom = 1
        for r in rows:
            for x in r:
                if isinstance(x, Fraction):
                    denom = denom * x.denominator // gcd(denom, x.denominator)
        scaled = [[int(x * denom) for x in r] for r in rows]
        for i in range(n):
            for j in range(n):
                if scaled[i][j] != scaled[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        g = 0
        for r in scaled:
            for x in r:
                g = gcd(g, abs(x))
        if g > 1:
            scaled = [[x // g for x in r] for r in scaled]
        gram = tuple(tuple(r) for r in scaled)
        if not is_positive_definite(gram):
            raise NotPositiveDefinite("form is not positive definite")
        return cls(gram)

    @property
    def n(self):
        return len(self.gram)

    def evaluate(self, x):
        return bilinear(self.gram, x, x)

    def pair(self, x, y):
        return bilinear(self.gram, x, y)


class MinVecSet(NamedTuple):
    """Minimum and the complete set of minimal vectors of a form.

    `vectors` holds one canonical representative per antipodal pair,
    sorted; `min_value` is the minimum of the normalized Gram matrix.
    """

    vectors: tuple
    min_value: int

    @property
    def vector_count(self):
        return 2 * len(self.vectors)


def minimum_and_minimal_vectors(form):
    """Certified minimum and minimal vectors of a positive definite form.

    The search bound is min_i Q(e_i), which dominates the minimum, so
    the enumeration provably sees every x with Q(x) = mu.
    """
    gram = form.gram
    bound = min(gram[i][i] for i in range(form.n))
    hits = short_vectors(gram, bound)
    mu = min(val for _, val in hits)
    vectors = tuple(sorted(v for v, val in hits if val == mu))
    return MinVecSet(vectors=vectors, min_value=mu)


class GroupElement(NamedTuple):
    """An element of GL_n(Z)."""

    rows: tuple
    det: int

    @classmethod
    def from_matrix(cls, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("group element must be square")
        d = det_int(rows)
        if d not in (1, -1):
            raise ValueError("group element must be unimodular")
        return cls(rows=rows, det=d)

    @classmethod
    def identity(cls, n):
        return cls.from_matrix(tuple(tuple(int(i == j) for j in range(n))
                                     for i in range(n)))

    @property
    def n(self):
        return len(self.rows)

    def inverse(self):
        adj = adjugate(self.rows)
        if self.det == 1:
            return GroupElement(rows=adj, det=1)
        return GroupElement(
            rows=tuple(tuple(-x for x in r) for r in adj), det=-1)

    def __mul__(self, other):
        return GroupElement(rows=mat_mul(self.rows, other.rows),
                            det=self.det * other.det)

    def apply(self, vec):
        return mat_vec(self.rows, vec)


def act(g, q_rows):
    """The linear action on form space: (g^-1)^t Q g^-1.

    Accepts and returns plain symmetric matrices (tuples of tuples); the
    same formula applies whether Q is a Gram matrix or a rank-one ray
    matrix.
    """
    if len(q_rows) != g.n:
        raise ValueError("dimension mismatch between group element and form")
    gi = g.inverse().rows
    return mat_mul(mat_mul(mat_transpose(gi), q_rows), gi)


def act_form(g, form):
    return QForm.from_matrix(act(g, form.gram))


def apply_to_cell(g, vectors):
    """Transport a cell given by canonical vector pairs: S -> g*S."""
    return tuple(sorted(canonical_pair(g.apply(v)) for v in vectors))


def is_perfect(form, minvecs=None):
    """True iff the rank-one matrices of the minimal vectors span form space."""
    if minvecs is None:
        minvecs = minimum_and_minimal_vectors(form)
    flats = [sym_flatten(rank_one(v)) for v in minvecs.vectors]
    return mat_rank(flats) == sym_dim(form.n)


def a_n_gram(n):
    """Gram matrix with 2 on the diagonal and -1 on the off-diagonals."""
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def d_n_gram(n):
    """Gram matrix of the n-dimensional checkerboard root lattice (n >= 4)."""
    if n < 4:
        raise ValueError("defined for n >= 4")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for i in range(n - 3):
        rows[i][i + 1] = rows[i + 1][i] = -1
    rows[n - 3][n - 2] = rows[n - 2][n - 3] = -1
    rows[n - 3][n - 1] = rows[n - 1][n - 3] = -1
    return tuple(tuple(r) for r in rows)
