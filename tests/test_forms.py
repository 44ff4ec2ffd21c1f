import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    brute_min_vectors,
    random_unimodular,
    reference_ldl,
    reference_short_vectors,
)

from vorcycle.forms import (
    GroupElement,
    NotPositiveDefinite,
    QForm,
    ZeroVector,
    a_n_gram,
    act,
    act_form,
    apply_to_cell,
    canonical_pair,
    d_n_gram,
    is_perfect,
    is_positive_definite,
    minimum_and_minimal_vectors,
    rank_one,
    short_vectors,
)
from vorcycle.linalg import (
    kernel_basis,
    mat_rank,
    sym_dim,
    sym_flatten,
    trace_pair,
)

HEXAGONAL = ((2, 1), (1, 2))


def test_identity_form_minimum():
    mv = minimum_and_minimal_vectors(QForm.from_matrix([[1, 0], [0, 1]]))
    assert mv.min_value == 1
    assert mv.vectors == ((0, 1), (1, 0))


def test_hexagonal_minimal_vectors():
    mv = minimum_and_minimal_vectors(QForm.from_matrix(HEXAGONAL))
    assert mv.min_value == 2
    assert mv.vectors == ((0, 1), (1, -1), (1, 0))


def test_a2_standard_gram_is_mirror_of_hexagonal():
    # With -1 off the diagonal the third minimal pair is e1 + e2; the two
    # Gram matrices are equivalent via diag(1, -1).
    mv = minimum_and_minimal_vectors(QForm.from_matrix(a_n_gram(2)))
    assert mv.vectors == ((0, 1), (1, 0), (1, 1))
    g = GroupElement.from_matrix([[1, 0], [0, -1]])
    assert act(g, a_n_gram(2)) == HEXAGONAL


def test_a3_twelve_minimal_vectors():
    q = QForm.from_matrix(a_n_gram(3))
    mv = minimum_and_minimal_vectors(q)
    assert mv.vector_count == 12
    best, hits = brute_min_vectors(q.gram, 2)
    assert best == mv.min_value
    assert hits == set(mv.vectors)


@pytest.mark.parametrize("gram,pairs", [
    (a_n_gram(4), 10),
    (d_n_gram(4), 12),
    (a_n_gram(5), 15),
    (d_n_gram(5), 20),
])
def test_root_form_minimal_vector_counts(gram, pairs):
    mv = minimum_and_minimal_vectors(QForm.from_matrix(gram))
    assert len(mv.vectors) == pairs


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefinite):
        QForm.from_matrix([[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefinite):
        QForm.from_matrix([[0, 0], [0, 1]])
    with pytest.raises(NotPositiveDefinite):
        short_vectors(((1, 0), (0, -1)), 4)
    for gram in (
            ((0, 1), (1, 5)),      # positive after a row exchange only
            ((1, 1), (1, 1)),      # singular, positive semidefinite
            ((1, 0, 0), (0, 0, 0), (0, 0, 2)),
            ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
            ((0, 1), (1, 0)),      # indefinite
            ((2, 1, 0), (1, 2, 3), (0, 3, 1)),
            ((-1,),)):
        assert not is_positive_definite(gram)
        with pytest.raises(NotPositiveDefinite):
            short_vectors(gram, 4)
        with pytest.raises(NotPositiveDefinite):
            QForm.from_matrix(gram)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_positive_definite_matches_the_reference(rows):
    n = len(rows)
    sym = tuple(tuple(rows[i][j] + rows[j][i] for j in range(n))
                for i in range(n))
    assert is_positive_definite(sym) == (reference_ldl(sym)[2] is None)


def _gram_of(basis):
    """The Gram matrix B^t B + I: positive definite for any B."""
    n = len(basis)
    return tuple(tuple(sum(basis[k][i] * basis[k][j] for k in range(n))
                       + (i == j) for j in range(n)) for i in range(n))


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.integers(min_value=0, max_value=3))))
@settings(max_examples=150, deadline=None)
def test_short_vectors_match_the_reference_and_a_box(data):
    basis, extra = data
    gram = _gram_of(basis)
    n = len(gram)
    bound = min(gram[i][i] for i in range(n)) + extra
    hits = short_vectors(gram, bound)
    assert hits == reference_short_vectors(gram, bound)
    found = dict(hits)
    assert len(found) == len(hits)
    # Every vector of a box with Q(x) <= bound is found, with its value.
    for x in itertools.product(range(-2, 3), repeat=n):
        if any(x):
            val = sum(x[i] * gram[i][j] * x[j]
                      for i in range(n) for j in range(n))
            assert (found.get(canonical_pair(x)) == val) == (val <= bound)


def test_gram_normalization():
    q = QForm.from_matrix([[4, 2], [2, 4]])
    assert q.gram == HEXAGONAL


def test_perfection():
    assert is_perfect(QForm.from_matrix(HEXAGONAL))
    assert is_perfect(QForm.from_matrix(a_n_gram(3)))
    assert not is_perfect(QForm.from_matrix([[1, 0], [0, 1]]))


@pytest.mark.parametrize("gram,expected", [
    (HEXAGONAL, True),
    (a_n_gram(3), True),
    (((1, 0), (0, 1)), False),
])
def test_perfection_equals_unique_reconstruction(gram, expected):
    # A form is perfect iff {Q(x) = mu on the minimal vectors} pins Q up
    # to scale: the homogeneous system in (Q, t) has a 1-dim kernel.
    q = QForm.from_matrix(gram)
    mv = minimum_and_minimal_vectors(q)
    n = q.n
    rows = []
    for v in mv.vectors:
        flat = sym_flatten(rank_one(v))
        weights = []
        k = 0
        for i in range(n):
            for j in range(i, n):
                weights.append(flat[k] if i == j else 2 * flat[k])
                k += 1
        rows.append(list(weights) + [-mv.min_value])
    kernel = kernel_basis(rows)
    assert (len(kernel) == 1) == expected
    assert is_perfect(q, mv) == expected


def test_rank_one_basics():
    assert rank_one((1, 0)) == ((1, 0), (0, 0))
    assert rank_one((1, -1)) == ((1, -1), (-1, 1))
    assert rank_one((1, -1)) == rank_one((-1, 1))
    with pytest.raises(ZeroVector):
        rank_one((0, 0))


def test_canonical_pair():
    assert canonical_pair((-1, 2)) == (1, -2)
    assert canonical_pair((0, -3)) == (0, 3)
    with pytest.raises(ZeroVector):
        canonical_pair((0, 0))


def test_act_identity_and_dimension_guard():
    q = QForm.from_matrix(HEXAGONAL)
    assert act(GroupElement.identity(2), q.gram) == q.gram
    with pytest.raises(ValueError):
        act(GroupElement.identity(3), q.gram)


def test_act_on_ray_matrix_example():
    g = GroupElement.from_matrix([[1, 0], [0, -1]])
    assert act(g, rank_one((1, -1))) == rank_one((1, 1))


def test_act_is_group_action(rng):
    q = QForm.from_matrix(a_n_gram(3))
    for _ in range(20):
        g = random_unimodular(3, rng)
        h = random_unimodular(3, rng)
        assert act(g, act(g.inverse(), q.gram)) == q.gram
        assert act(g * h, q.gram) == act(g, act(h, q.gram))


def test_minimal_vectors_contravariant_under_pullback(rng):
    # Under the pullback X -> g^t X g the minimal vectors move by g^-1.
    for n in (2, 3):
        q = QForm.from_matrix(a_n_gram(n))
        mv = minimum_and_minimal_vectors(q)
        for _ in range(12):
            g = random_unimodular(n, rng)
            pulled = act_form(g.inverse(), q)
            mv_pulled = minimum_and_minimal_vectors(pulled)
            expected = apply_to_cell(g.inverse(), mv.vectors)
            assert mv_pulled.vectors == expected
            assert mv_pulled.min_value == mv.min_value


def test_minimum_invariant_under_action(rng):
    q = QForm.from_matrix(a_n_gram(3))
    mu = minimum_and_minimal_vectors(q).min_value
    for _ in range(10):
        g = random_unimodular(3, rng)
        assert minimum_and_minimal_vectors(act_form(g, q)).min_value == mu


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=2,
                max_size=2).filter(any),
       st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=2, max_size=2),
                min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_trace_pairing_evaluates_forms(x, rows):
    sym = [[rows[i][j] + rows[j][i] for j in range(2)] for i in range(2)]
    lhs = trace_pair(sym, rank_one(tuple(x)))
    rhs = sum(x[i] * sym[i][j] * x[j] for i in range(2) for j in range(2))
    assert lhs == rhs


def test_short_vectors_completeness_small_box():
    gram = a_n_gram(3)
    hits = dict(short_vectors(gram, 6))
    import itertools
    for x in itertools.product(range(-2, 3), repeat=3):
        if not any(x):
            continue
        val = sum(x[i] * gram[i][j] * x[j]
                  for i in range(3) for j in range(3))
        if val <= 6:
            assert hits[canonical_pair(x)] == val


def test_minimal_vectors_span_check_rank():
    q = QForm.from_matrix(d_n_gram(4))
    mv = minimum_and_minimal_vectors(q)
    flats = [sym_flatten(rank_one(v)) for v in mv.vectors]
    assert mat_rank(flats) == sym_dim(4)
