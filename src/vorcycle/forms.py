"""Positive definite quadratic forms over Z and the unimodular action.

Forms are stored as symmetric integer Gram matrices normalized up to
homothety: entries are scaled to coprime integers and the minimum is
carried separately.  Minimal vectors are certified complete by a
Fincke-Pohst search in integers only: the fraction-free elimination of
the Gram matrix (`linalg.echelon`) writes the form, scaled by an integer,
as a weighted sum of squares of integer linear forms, and every
comparison along the way is an integer comparison.  The same
elimination decides positive definiteness.

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
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .linalg import (
    adjugate,
    det_int,
    echelon,
    mat_mul,
    mat_rank,
    mat_vec,
    mat_transpose,
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
    return sum(map(mul, x, [sum(map(mul, row, y)) for row in mat]))


def _pivot_rows(gram):
    """The pivot rows of the elimination of a symmetric integer matrix.

    Row k of the result carries its pivot on the diagonal, where it is
    the (k+1)-th leading principal minor.  The matrix is positive
    definite exactly when every row leaves a pivot on the diagonal and
    every pivot is positive (Sylvester's criterion); NotPositiveDefinite
    is raised otherwise.  The elimination never exchanges rows, so
    ((0, 1), (1, 5)) fails at its first row.
    """
    pivots, kept = echelon(gram)
    for k in range(len(gram)):
        if k == len(pivots) or kept[k] != k or pivots[k][0] != k or \
                pivots[k][1][k] <= 0:
            raise NotPositiveDefinite(
                f"leading principal minor {k + 1} is <= 0")
    return [row for _, row in pivots]


def is_positive_definite(gram):
    try:
        _pivot_rows(gram)
    except NotPositiveDefinite:
        return False
    return True


def short_vectors(gram, bound):
    """All canonical antipodal pairs x != 0 with Q(x) <= bound.

    Exact Fincke-Pohst in integers.  With B_k the k-th pivot row of the
    Gram matrix's elimination and D_k = B_kk its k-th leading principal
    minor (D_0 = 1),

        Q(x) = sum_k u_k^2 / (D_k D_(k-1)),   u_k = sum_(j>=k) B_kj x_j,

    so L * Q(x) is the sum of w_k u_k^2 with L the lcm of the D_k D_(k-1)
    and integer weights w_k = L / (D_k D_(k-1)).  Each coordinate is
    scanned outward from the floor of its layer's center; the value of a
    hit is read off the budget L * bound that it leaves.  The last
    nonzero coordinate is kept positive, so each pair is met once.  The
    bound must be an integer.  Returns a sorted list of (vector, value)
    pairs.
    """
    rows = _pivot_rows(gram)
    n = len(rows)
    minors = [1] + [rows[k][k] for k in range(n)]
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    budget = scale * bound
    found = {}
    x = [0] * n

    def descend(i, remaining, lead):
        # `lead`: every coordinate above i is zero.
        if i < 0:
            if not lead:
                found[canonical_pair(tuple(x))] = \
                    (budget - remaining) // scale
            return
        row, d, w = rows[i], minors[i + 1], weights[i]
        s = sum(map(mul, row[i + 1:], x[i + 1:]))
        # u_i = d * x_i + s grows in size away from x_i = -s / d, so
        # each direction stops at its first violation.
        start = -s // d
        for step, k in ((-1, start), (1, start + 1)):
            while k >= 0 or not lead:
                u = d * k + s
                left = remaining - w * u * u
                if left < 0:
                    break
                x[i] = k
                descend(i - 1, left, lead and k == 0)
                k += step
        x[i] = 0

    descend(n - 1, budget, True)
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
