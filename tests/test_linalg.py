from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    SpanMismatch,
    reference_adjugate,
    reference_det,
    reference_kernel,
    reference_rank,
    relative_orientation,
    trace_pair,
)
from vorcycle.linalg import (
    adjugate,
    clear_denominators,
    det_int,
    det_sign,
    independent_rows,
    kernel_basis,
    mat_rank,
    mat_transpose,
    sym_flatten,
    sym_unflatten,
)
from vorcycle.forms import rank_one

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=5, max_cols=5, entries=small_int):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_rank_identity():
    assert mat_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_zero_matrix():
    assert mat_rank([[0] * 5, [0] * 5]) == 0


def test_rank_rank_one_flats():
    # The flats of e1 e1^t, e2 e2^t, (e1-e2)(e1-e2)^t are independent.
    rows = [sym_flatten(rank_one(v)) for v in ((1, 0), (0, 1), (1, -1))]
    assert rows == [(1, 0, 0), (0, 0, 1), (1, -1, 1)]
    assert mat_rank(rows) == 3


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(m):
    assert mat_rank(m) == mat_rank(list(mat_transpose(m)))


def test_kernel_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_zero_matrix_full():
    assert len(kernel_basis([[0, 0, 0]])) == 3


def test_kernel_single_equation():
    assert kernel_basis([[1, -1]]) == [(1, 1)]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilate_and_count(m):
    basis = kernel_basis(m)
    cols = len(m[0])
    assert len(basis) == cols - mat_rank(m)
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def _cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_det_sign_matches_cofactor_expansion(m):
    d = _cofactor_det(m)
    assert det_int(m) == d
    assert det_sign(m) == (d > 0) - (d < 0)


def test_det_sign_examples():
    assert det_sign([[1, 0], [0, 1]]) == 1
    assert det_sign([[0, 1], [1, 0]]) == -1
    assert det_sign([[2, 0, 0], [0, 3, 0], [0, 0, -5]]) == -1
    # Rows leave their pivots in columns 2, 0, 1: an even permutation.
    assert det_int([[0, 0, 3], [2, 0, 1], [1, 5, 0]]) == 30


def test_relative_orientation_identity_and_swap():
    b = [(1, 0, 0), (0, 1, 0)]
    assert relative_orientation(b, b) == 1
    assert relative_orientation(b, [b[1], b[0]]) == -1


def test_relative_orientation_shear():
    assert relative_orientation([(1, 0), (0, 1)], [(1, 1), (0, 1)]) == 1


def test_relative_orientation_span_mismatch():
    with pytest.raises(SpanMismatch):
        relative_orientation([(1, 0, 0), (0, 1, 0)],
                             [(1, 0, 0), (0, 0, 1)])


@given(st.permutations([0, 1, 2]), st.permutations([0, 1, 2]))
def test_relative_orientation_cocycle(p, q):
    base = [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    b1 = [base[i] for i in p]
    b2 = [base[i] for i in q]
    s12 = relative_orientation(base, b1)
    s23 = relative_orientation(b1, b2)
    assert s12 * s23 == relative_orientation(base, b2)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(3, 4)]) == (2, 3)


@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_flatten_round_trip_and_trace_pair(rows):
    sym = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
    flat = sym_flatten(sym)
    assert sym_unflatten(flat, 3) == tuple(tuple(r) for r in sym)
    other = [[1, 2, 0], [2, 0, 1], [0, 1, 3]]
    lhs = trace_pair(sym, other)
    rhs = sum(sym[i][j] * other[j][i] for i in range(3) for j in range(3))
    assert lhs == rhs


def naive_independent_rows(candidates, start):
    """Reference: the greedy rank loop as each call site once wrote it,
    one reference rank per candidate."""
    rows, chosen = list(start), []
    for i, cand in enumerate(candidates):
        if reference_rank(rows + [cand]) > len(rows):
            rows.append(cand)
            chosen.append(i)
    return chosen


# Mostly zeros, so that ranks drop and rows leave their pivots in
# columns out of order; and small fractions, which are scaled per row.
sparse_int = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
entry_kinds = st.sampled_from((small_int, sparse_int, small_fraction))


@given(entry_kinds.flatmap(lambda entries: matrices(6, 6, entries)),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=200, deadline=None)
def test_elimination_matches_the_reference(m, stop):
    rank = reference_rank(m)
    assert mat_rank(m) == rank
    assert mat_rank(m, stop=stop) == min(rank, stop)
    assert kernel_basis(m) == reference_kernel(m)


def square(max_n, entries):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


@given(st.sampled_from((small_int, sparse_int)).flatmap(
    lambda entries: square(6, entries)))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_the_reference(m):
    assert det_int(m) == reference_det(m)


@given(st.sampled_from((small_int, sparse_int)).flatmap(
    lambda entries: square(7, entries)))
@settings(max_examples=300, deadline=None)
def test_adjugate_matches_the_cofactors(m):
    # One elimination of [A | I] against one determinant per cofactor,
    # and the determinant off its pivots; a singular matrix is refused.
    if reference_det(m) == 0:
        with pytest.raises(ValueError, match="singular"):
            adjugate(m)
    else:
        adj, det = adjugate(m)
        assert adj == reference_adjugate(m)
        assert det == reference_det(m)


@given(square(4, small_fraction))
@settings(max_examples=50, deadline=None)
def test_determinant_sign_of_rational_rows(m):
    # Scaling a row by a positive factor keeps the sign.
    d = reference_det([[int(x * lcm(*(y.denominator for y in row)))
                        for x in row] for row in m])
    assert det_sign(m) == (d > 0) - (d < 0)


@given(entry_kinds.flatmap(lambda entries: st.integers(
    min_value=1, max_value=5).flatmap(lambda c: st.tuples(
        st.lists(st.lists(entries, min_size=c, max_size=c), max_size=8),
        st.lists(st.lists(entries, min_size=c, max_size=c),
                 max_size=4)))))
@settings(max_examples=200, deadline=None)
def test_independent_rows_matches_naive_loop(data):
    candidates, pre = data
    start = [pre[i] for i in naive_independent_rows(pre, ())]
    assert independent_rows(candidates, start) == \
        naive_independent_rows(candidates, start)
    assert independent_rows(candidates, ()) == \
        naive_independent_rows(candidates, ())


def solve_in_span(basis_rows, target):
    """Reference: coordinates of `target` in the row span of the
    independent `basis_rows` by Fraction Gauss-Jordan, or None."""
    k = len(basis_rows)
    dim = len(target)
    aug = [[Fraction(basis_rows[j][i]) for j in range(k)] +
           [Fraction(target[i])] for i in range(dim)]
    r = 0
    for c in range(k):
        piv = next(i for i in range(r, dim) if aug[i][c] != 0)
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(dim):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][k] != 0 for i in range(r, dim)):
        return None
    return tuple(aug[i][k] for i in range(k))


def reference_orientation(basis_a, basis_b):
    """Reference: the sign of the determinant of the coordinates of
    `basis_b` in `basis_a`."""
    coeffs = [solve_in_span(basis_a, b) for b in basis_b]
    if None in coeffs:
        raise SpanMismatch("bases span different subspaces")
    return det_sign(coeffs)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(small_int, min_size=5, max_size=5),
                 min_size=k, max_size=k),
        st.lists(st.lists(small_int, min_size=k, max_size=k),
                 min_size=k, max_size=k),
        st.lists(small_int, min_size=5, max_size=5))))
@settings(max_examples=200, deadline=None)
def test_relative_orientation_matches_coordinate_rule(data):
    basis_a, change, stray = data
    k = len(basis_a)
    if mat_rank(basis_a) < k or det_int(change) == 0:
        return
    basis_b = [tuple(sum(c * a[i] for c, a in zip(row, basis_a))
                     for i in range(5)) for row in change]
    assert relative_orientation(basis_a, basis_b) == \
        reference_orientation(basis_a, basis_b) == det_sign(change)
    # Replacing a row by a vector off the span breaks both rules alike.
    off = basis_b[:-1] + [stray]
    if mat_rank(basis_a + [stray]) > k:
        with pytest.raises(SpanMismatch):
            relative_orientation(basis_a, off)
        with pytest.raises(SpanMismatch):
            reference_orientation(basis_a, off)
