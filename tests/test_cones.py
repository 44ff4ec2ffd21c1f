from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import brute_facets, random_unimodular
from test_linalg import solve_in_span

from vorcycle.cones import (
    NotFullDim,
    _dd_dual_rays,
    build_cone,
    faces_of_codim,
    meets_boundary,
    subcone_facets,
)
from vorcycle.forms import (
    QForm,
    a_n_gram,
    apply_to_cell,
    canonical_pair,
    d_n_gram,
    minimum_and_minimal_vectors,
    rank_one,
)
from vorcycle.linalg import (
    clear_denominators,
    det_int,
    mat_rank,
    primitive,
    sym_flatten,
    trace_pair,
)

HEXAGONAL = ((2, 1), (1, 2))


def domain_of(gram):
    mv = minimum_and_minimal_vectors(QForm.from_matrix(gram))
    return mv, build_cone(mv.vectors)


def test_hexagonal_domain_three_rays_three_facets():
    mv, cone = domain_of(HEXAGONAL)
    assert cone.ambient_dim == 3
    assert len(cone.vectors) == 3
    assert len(cone.facets) == 3
    for facet in cone.facets:
        assert len(facet.incident) == 2


def test_a3_domain_six_rays_six_facets():
    mv, cone = domain_of(a_n_gram(3))
    assert cone.ambient_dim == 6
    assert len(cone.vectors) == 6
    assert len(cone.facets) == 6


def test_identity_form_rays_not_full_dim():
    mv = minimum_and_minimal_vectors(QForm.from_matrix([[1, 0], [0, 1]]))
    with pytest.raises(NotFullDim):
        build_cone(mv.vectors)


def test_facet_normals_vanish_on_incident_positive_elsewhere():
    for gram in (HEXAGONAL, a_n_gram(3), a_n_gram(4), d_n_gram(4)):
        mv, cone = domain_of(gram)
        for facet in cone.facets:
            for i, v in enumerate(cone.vectors):
                val = trace_pair(facet.normal, rank_one(v))
                if i in facet.incident:
                    assert val == 0
                else:
                    assert val > 0


def test_facet_incident_rays_span_hyperplane():
    for gram in (HEXAGONAL, a_n_gram(3), d_n_gram(4)):
        mv, cone = domain_of(gram)
        for facet in cone.facets:
            flats = [cone.ray_flats[i] for i in facet.incident]
            assert mat_rank(flats) == cone.ambient_dim - 1


@pytest.mark.parametrize("gram", [HEXAGONAL, a_n_gram(3), a_n_gram(4),
                                  d_n_gram(4)])
def test_double_description_matches_brute_force(gram):
    mv, cone = domain_of(gram)
    assert {f.incident for f in cone.facets} == set(brute_facets(mv.vectors))


def test_faces_of_codim_counts_simplicial():
    mv, cone = domain_of(a_n_gram(3))
    assert faces_of_codim(cone, 0) == [frozenset(range(6))]
    assert len(faces_of_codim(cone, 1)) == 6
    assert len(faces_of_codim(cone, 2)) == 15
    with pytest.raises(ValueError):
        faces_of_codim(cone, -1)


def test_faces_of_codim_nonsimplicial_consistent():
    mv, cone = domain_of(d_n_gram(4))
    facets = faces_of_codim(cone, 1)
    assert {frozenset(f) for f in facets} == {f.incident for f in cone.facets}
    for face in faces_of_codim(cone, 2):
        assert mat_rank([cone.ray_flats[i] for i in face]) == \
            cone.ambient_dim - 2


def test_meets_boundary():
    assert meets_boundary([(1, 0)]) is True
    mv, _ = domain_of(HEXAGONAL)
    assert meets_boundary(mv.vectors) is False
    assert meets_boundary(((1, 0), (0, 1))) is False
    assert meets_boundary(()) is True


def test_meets_boundary_invariant_under_group(rng):
    mv, cone = domain_of(a_n_gram(3))
    face = cone.facet_vectors(cone.facets[0])
    for _ in range(10):
        g = random_unimodular(3, rng)
        assert meets_boundary(apply_to_cell(g, face)) == meets_boundary(face)


def test_subcone_facets_of_a_facet():
    mv, cone = domain_of(HEXAGONAL)
    face = cone.facet_vectors(cone.facets[0])
    # A 2-dimensional subcone has two extreme-ray facets.
    assert subcone_facets(face) == [frozenset({0}), frozenset({1})]


def test_subcone_facets_match_full_cone_codim2():
    mv, cone = domain_of(a_n_gram(3))
    facet = cone.facets[0]
    face_vecs = cone.facet_vectors(facet)
    sub = subcone_facets(face_vecs)
    # Each facet of the facet-cone is a codim-2 face of the big cone.
    codim2 = {frozenset(f) for f in faces_of_codim(cone, 2)}
    for s in sub:
        global_idx = frozenset(cone.vectors.index(face_vecs[i]) for i in s)
        assert global_idx in codim2


def fraction_inverse(rows):
    """Reference: exact inverse of a nonsingular matrix by Fraction
    Gauss-Jordan."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def primitive_fraction(vec):
    """Reference: primitive integer vector in the direction of a
    rational vector."""
    denom = 1
    for x in vec:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // _gcd(denom, x.denominator)
    return primitive(tuple(int(x * denom) for x in vec))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                       min_size=d, max_size=d)))
@settings(max_examples=200, deadline=None)
def test_seed_duals_match_fraction_inverse(rows):
    if det_int(rows) == 0:
        return
    # With as many rays as dimensions the dual cone is the simplicial
    # seed: dual ray j is column j of the inverse, active on the others.
    dim = len(rows)
    inv = fraction_inverse(rows)
    expected = {}
    for j in range(dim):
        col = primitive_fraction([inv[r][j] for r in range(dim)])
        assert col == clear_denominators([inv[r][j] for r in range(dim)])
        expected[col] = frozenset(range(dim)) - {j}
    assert dict(_dd_dual_rays(rows, rows)) == expected


def reference_subcone_facets(vectors):
    """Reference: subcone_facets with each ray's local coordinates
    solved one at a time by Fraction elimination."""
    vectors = tuple(sorted(vectors))
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    basis = []
    for f in flats:
        if mat_rank(basis + [f]) > len(basis):
            basis.append(f)
    if len(basis) == 1:
        return []
    local = [primitive_fraction(solve_in_span(basis, f)) for f in flats]
    out = {frozenset(active) for _, active in _dd_dual_rays(local, local)
           if mat_rank([local[i] for i in active]) == len(basis) - 1}
    return sorted(out, key=lambda s: tuple(sorted(s)))


@given(st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                         st.integers(-2, 2)).filter(any),
               min_size=2, max_size=7))
@settings(max_examples=100, deadline=None)
def test_subcone_facets_match_fraction_coordinates_random(vectors):
    # Arbitrary rays give local coordinates of both signs, so a wrong
    # orientation of the kernel vectors changes the facets.
    vectors = {canonical_pair(v) for v in vectors}
    assert subcone_facets(vectors) == reference_subcone_facets(vectors)


@pytest.mark.parametrize("gram", (a_n_gram(4), d_n_gram(4)))
def test_subcone_facets_match_fraction_coordinates(gram):
    mv, cone = domain_of(gram)
    for facet in cone.facets[:12]:
        face = cone.facet_vectors(facet)
        assert subcone_facets(face) == reference_subcone_facets(face)
        for sub in subcone_facets(face)[:3]:
            ridge = tuple(face[i] for i in sub)
            assert subcone_facets(ridge) == reference_subcone_facets(ridge)
