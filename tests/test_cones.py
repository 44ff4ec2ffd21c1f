import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import brute_facets, cached_graph, random_unimodular
from test_linalg import solve_in_span

from vorcycle import cones
from vorcycle.cones import (
    NotFullDim,
    _dd_dual_rays,
    build_cone,
    face_vectors,
    faces_of_codim,
    facet_closure,
    facet_normal,
    meets_boundary,
    subcone_facets,
)
from vorcycle.forms import (
    GroupElement,
    QForm,
    a_n_gram,
    apply_to_cell,
    canonical_pair,
    d_n_gram,
    minimum_and_minimal_vectors,
    rank_one,
)
from vorcycle.isometry import cell_group, form_group, orbit_decompose
from vorcycle.linalg import (
    clear_denominators,
    det_int,
    kernel_basis,
    mat_rank,
    pairing_weights,
    primitive,
    sym_dim,
    sym_flatten,
    sym_unflatten,
    trace_pair,
)

HEXAGONAL = ((2, 1), (1, 2))


def domain_of(gram):
    mv = minimum_and_minimal_vectors(QForm.from_matrix(gram))
    return mv, build_cone(mv.vectors)


def test_hexagonal_domain_three_rays_three_facets():
    mv, facets = domain_of(HEXAGONAL)
    assert len(mv.vectors) == 3
    assert len(facets) == 3
    for facet in facets:
        assert type(facet) is frozenset and len(facet) == 2


def test_a3_domain_six_rays_six_facets():
    mv, facets = domain_of(a_n_gram(3))
    assert len(mv.vectors) == 6
    assert len(facets) == 6
    # The facets are ordered by their sorted incidence lists.
    assert list(facets) == sorted(facets, key=sorted)


def test_identity_form_rays_not_full_dim():
    mv = minimum_and_minimal_vectors(QForm.from_matrix([[1, 0], [0, 1]]))
    with pytest.raises(NotFullDim):
        build_cone(mv.vectors)


def test_facet_normals_vanish_on_incident_positive_elsewhere():
    for gram in (HEXAGONAL, a_n_gram(3), a_n_gram(4), d_n_gram(4)):
        mv, facets = domain_of(gram)
        for facet in facets:
            normal = facet_normal(mv.vectors, facet)
            for i, v in enumerate(mv.vectors):
                val = trace_pair(normal, rank_one(v))
                if i in facet:
                    assert val == 0
                else:
                    assert val > 0


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_facet_normal_is_the_double_description_normal(n):
    # The normal recovered from a facet's rays is the dual ray that the
    # double description found for it, on every domain of ranks 2-5.
    # The node numbers the same facets in its orbit walk's order.
    for node in cached_graph(n, "gl").nodes:
        vectors = node.minvecs.vectors
        weights = [pairing_weights(sym_flatten(rank_one(v)), n)
                   for v in vectors]
        duals = _dd_dual_rays([sym_flatten(rank_one(v)) for v in vectors],
                              weights)
        assert {active for _, active in duals} == set(node.facets)
        assert len(duals) == len(node.facets)
        for y, active in duals:
            assert facet_normal(vectors, active) == sym_unflatten(y, n)


def test_facet_normal_refuses_a_face_that_is_no_facet():
    mv, facets = domain_of(a_n_gram(3))
    ridge = facets[0] & next(f for f in facets[1:]
                             if len(facets[0] & f) == 4)
    for face in (frozenset(), ridge, frozenset(range(len(mv.vectors)))):
        with pytest.raises(ValueError, match="do not describe a facet"):
            facet_normal(mv.vectors, face)


def test_facet_incident_rays_span_hyperplane():
    for gram in (HEXAGONAL, a_n_gram(3), d_n_gram(4)):
        mv, facets = domain_of(gram)
        for facet in facets:
            flats = [sym_flatten(rank_one(mv.vectors[i])) for i in facet]
            assert mat_rank(flats) == sym_dim(len(gram)) - 1


@pytest.mark.parametrize("gram", [HEXAGONAL, a_n_gram(3), a_n_gram(4),
                                  d_n_gram(4)])
def test_double_description_matches_brute_force(gram):
    mv, facets = domain_of(gram)
    brute = brute_facets(mv.vectors)
    assert set(facets) == set(brute)
    n = len(gram)
    for facet in facets:
        assert facet_normal(mv.vectors, facet) == \
            sym_unflatten(brute[facet], n)


def test_faces_of_codim_counts_simplicial():
    mv, facets = domain_of(a_n_gram(3))
    assert faces_of_codim(mv.vectors, facets, 0) == [frozenset(range(6))]
    assert len(faces_of_codim(mv.vectors, facets, 1)) == 6
    assert len(faces_of_codim(mv.vectors, facets, 2)) == 15
    with pytest.raises(ValueError):
        faces_of_codim(mv.vectors, facets, -1)


def test_faces_of_codim_nonsimplicial_consistent():
    mv, facets = domain_of(d_n_gram(4))
    assert set(faces_of_codim(mv.vectors, facets, 1)) == set(facets)
    for face in faces_of_codim(mv.vectors, facets, 2):
        assert mat_rank([sym_flatten(rank_one(mv.vectors[i]))
                         for i in face]) == sym_dim(4) - 2


def test_meets_boundary():
    assert meets_boundary([(1, 0)]) is True
    mv, _ = domain_of(HEXAGONAL)
    assert meets_boundary(mv.vectors) is False
    assert meets_boundary(((1, 0), (0, 1))) is False
    assert meets_boundary(()) is True


def test_meets_boundary_invariant_under_group(rng):
    mv, facets = domain_of(a_n_gram(3))
    face = face_vectors(mv.vectors, facets[0])
    for _ in range(10):
        g = random_unimodular(3, rng)
        assert meets_boundary(apply_to_cell(g, face)) == meets_boundary(face)


def test_subcone_facets_of_a_facet():
    mv, facets = domain_of(HEXAGONAL)
    face = face_vectors(mv.vectors, facets[0])
    # A 2-dimensional subcone has two extreme-ray facets.
    assert list(subcone_facets(face)) == [frozenset({0}), frozenset({1})]


def test_subcone_facets_refuse_a_dual_ray_that_is_no_facet(monkeypatch):
    # A dual ray whose incident rays span less than a hyperplane is
    # refused by subcone_facets, as by build_cone, never dropped.
    mv, facets = domain_of(a_n_gram(3))
    face = face_vectors(mv.vectors, facets[0])
    real = cones._dd_dual_rays

    def one_ray_too_few(rows, weights):
        (y, active), *rest = real(rows, weights)
        return [(y, frozenset(sorted(active)[1:]))] + rest

    monkeypatch.setattr(cones, "_dd_dual_rays", one_ray_too_few)
    for build, vectors in ((subcone_facets, face),
                           (build_cone, mv.vectors)):
        with pytest.raises(ValueError,
                           match="dual ray does not describe a facet"):
            build(vectors)


def test_subcone_facets_match_full_cone_codim2():
    mv, facets = domain_of(a_n_gram(3))
    face_vecs = face_vectors(mv.vectors, facets[0])
    sub = subcone_facets(face_vecs)
    # Each facet of the facet-cone is a codim-2 face of the big cone.
    codim2 = set(faces_of_codim(mv.vectors, facets, 2))
    for s in sub:
        global_idx = frozenset(mv.vectors.index(face_vecs[i]) for i in s)
        assert global_idx in codim2


def brute_dual_rays(rows):
    """Reference: the extreme rays of {y : dot(r, y) >= 0 for all r in
    rows}, each the kernel line of dim - 1 independent rows, oriented
    to pair nonnegatively with every row, with its zero set."""
    dim = len(rows[0])
    found = {}
    for sub in itertools.combinations(rows, dim - 1):
        if mat_rank(sub) != dim - 1:
            continue
        (y,) = kernel_basis(list(sub))
        for z in (y, tuple(-t for t in y)):
            vals = [sum(a * b for a, b in zip(r, z)) for r in rows]
            if all(v >= 0 for v in vals):
                found[z] = frozenset(i for i, v in enumerate(vals) if v == 0)
    return found


@pytest.mark.parametrize("seed", range(4))
def test_adjacency_test_matches_brute_force_on_degenerate_cones(seed):
    # Small entries make many intermediate cones degenerate, so some
    # pairs share dim - 2 active rays without being adjacent: the
    # bitset test must drop them, or non-extreme rays survive.
    rng = random.Random(seed)
    checked = 0
    while checked < 40:
        dim = rng.choice((4, 5))
        rows = sorted({tuple(rng.randint(-1, 2) for _ in range(dim))
                       for _ in range(rng.randint(dim + 1, dim + 5))})
        rows = [r for r in rows if any(r)]
        if mat_rank(rows) < dim:
            continue
        checked += 1
        assert dict(_dd_dual_rays(rows, rows)) == brute_dual_rays(rows)


def symmetric_cases():
    """(build, vectors, generators): the A4 domain with its stabilizer,
    and a facet of D4 with the facet's stabilizer."""
    form = QForm.from_matrix(a_n_gram(4))
    mv = minimum_and_minimal_vectors(form)
    d4_mv, d4_facets = domain_of(d_n_gram(4))
    face = face_vectors(d4_mv.vectors, d4_facets[0])
    return [(build_cone, mv.vectors, form_group(form, mv.vectors)[0]),
            (subcone_facets, face, cell_group(face)[0])]


SYMMETRIC_IDS = ("build_cone", "subcone_facets")


def face_orbit(vectors, duals, generators):
    """The orbit of the face where facets 0 and 1 of `duals` meet, as
    dual rays (y, active) with y the sum of two facet normals, so y
    vanishes exactly on the face.  g carries the face of facets a and b
    to the face of facets g.a and g.b."""
    vectors = tuple(sorted(vectors))
    keys = [face_vectors(vectors, active) for _, active in duals]
    position = {key: i for i, key in enumerate(keys)}
    pairs = [(0, 1)]
    for a, b in pairs:
        for g in generators:
            image = tuple(sorted(position[apply_to_cell(g, keys[k])]
                                 for k in (a, b)))
            if image not in pairs:
                pairs.append(image)
    faces = {}
    for a, b in pairs:
        y = tuple(p + q for p, q in zip(duals[a][0], duals[b][0]))
        faces.setdefault(duals[a][1] & duals[b][1], y)
    return [(y, active) for active, y in faces.items()]


@pytest.mark.parametrize("case", range(2), ids=SYMMETRIC_IDS)
def test_symmetric_cone_matches_the_trivial_group(case):
    # The stabilizer changes only how the facets are certified and
    # numbered: the facet set is the same, its orbits partition it, and
    # each transporter carries its orbit's representative onto the
    # member.  With the trivial group the numbering is the double
    # description's sorted order.
    build, vectors, gens = symmetric_cases()[case]
    vectors = tuple(sorted(vectors))
    facets = build(vectors, gens)
    trivial = build(vectors)
    assert set(facets) == set(trivial) and len(facets) == len(trivial)
    assert list(trivial) == sorted(trivial, key=sorted)
    assert len(facets.orbits) < len(facets)
    assert sorted(k for orbit in facets.orbits for k in orbit) == \
        list(range(len(facets)))
    for r, orbit in enumerate(facets.orbits):
        rep = face_vectors(vectors, facets[orbit[0]])
        for k in orbit:
            assert facets.orbit_of[k] == r
            assert apply_to_cell(facets.transporter(k), rep) == \
                face_vectors(vectors, facets[k])
    assert trivial.orbits == tuple(range(k, k + 1)
                                   for k in range(len(facets)))
    # Each representative is the first facet of its orbit in that
    # order, and the representatives alone give back the list, orbits
    # and Schreier vector.
    first = {facet: k for k, facet in enumerate(trivial)}
    heads = [first[facets[o[0]]] for o in facets.orbits]
    assert heads == sorted(heads)
    assert heads == [min(first[facets[k]] for k in o) for o in facets.orbits]
    again = facet_closure(vectors, [facets[o[0]] for o in facets.orbits],
                          gens)
    assert (list(again), again.orbits, again.schreier) == \
        (list(facets), facets.orbits, facets.schreier)


def test_build_cone_certifies_one_facet_and_one_ray_per_orbit(monkeypatch):
    # One rank for full dimensionality, then one per facet orbit and one
    # per ray orbit; with the trivial group, one per facet and per ray.
    build, vectors, gens = symmetric_cases()[0]
    calls = []
    real = cones.mat_rank
    monkeypatch.setattr(cones, "mat_rank",
                        lambda *args, **kwargs: calls.append(1) or
                        real(*args, **kwargs))
    facets = build_cone(vectors, gens)
    _, ray_orbits, _ = orbit_decompose(
        vectors, [(i,) for i in range(len(vectors))], gens)
    assert len(calls) == 1 + len(facets.orbits) + len(ray_orbits)
    assert len(ray_orbits) == 1
    calls.clear()
    assert set(build_cone(vectors)) == set(facets)
    assert len(calls) == 1 + len(facets) + len(vectors)


def test_each_facet_is_the_double_description_object(monkeypatch):
    # The orbit walk reaches every facet of D5's domain as the frozenset
    # that the double description returned, so a cone holds each facet
    # once, not a second copy made by the walk.
    form = QForm.from_matrix(d_n_gram(5))
    mv = minimum_and_minimal_vectors(form)
    real = cones._dd_dual_rays
    listed = []

    def recorded(rows, weights):
        listed.extend(real(rows, weights))
        return listed

    monkeypatch.setattr(cones, "_dd_dual_rays", recorded)
    facets = build_cone(mv.vectors, form_group(form, mv.vectors)[0])
    assert len(facets) == len(listed) == 400
    assert len(facets.orbits) == 4
    same = {active: active for _, active in listed}
    assert all(facet is same[facet] for facet in facets)


@pytest.mark.parametrize("case", range(2), ids=SYMMETRIC_IDS)
def test_a_non_facet_orbit_is_refused_at_its_representative(case,
                                                            monkeypatch):
    # The whole orbit of a face that is no facet joins the candidates:
    # the group permutes them, and the orbit's representative fails its
    # rank certificate.
    build, vectors, gens = symmetric_cases()[case]
    real = cones._dd_dual_rays

    def with_face_orbit(rows, weights):
        duals = real(rows, weights)
        orbit = face_orbit(vectors, duals, gens)
        assert len(orbit) > 1
        return duals + orbit

    monkeypatch.setattr(cones, "_dd_dual_rays", with_face_orbit)
    with pytest.raises(ValueError, match="dual ray does not describe a facet"):
        build(vectors, gens)


@pytest.mark.parametrize("case", range(2), ids=SYMMETRIC_IDS)
def test_a_non_facet_that_breaks_an_orbit_is_refused(case, monkeypatch):
    # One member of that orbit alone: the group moves it out of the
    # candidates, so the orbit walk reaches a face off the list.
    build, vectors, gens = symmetric_cases()[case]
    real = cones._dd_dual_rays

    def with_one_face(rows, weights):
        duals = real(rows, weights)
        return duals + face_orbit(vectors, duals, gens)[:1]

    monkeypatch.setattr(cones, "_dd_dual_rays", with_one_face)
    with pytest.raises(ValueError, match="group does not permute the faces"):
        build(vectors, gens)


@pytest.mark.parametrize("case", range(2), ids=SYMMETRIC_IDS)
def test_a_generator_that_does_not_permute_the_rays_is_refused(case):
    build, vectors, gens = symmetric_cases()[case]
    n = len(vectors[0])
    shear = GroupElement.from_matrix(
        [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
         for i in range(n)])
    assert {canonical_pair(shear.apply(v)) for v in vectors} != set(vectors)
    with pytest.raises(ValueError, match="group does not permute the faces"):
        build(vectors, tuple(gens) + (shear,))


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
    assert list(subcone_facets(vectors)) == reference_subcone_facets(vectors)


@pytest.mark.parametrize("gram", (a_n_gram(4), d_n_gram(4)))
def test_subcone_facets_match_fraction_coordinates(gram):
    mv, facets = domain_of(gram)
    for facet in facets[:12]:
        face = face_vectors(mv.vectors, facet)
        assert list(subcone_facets(face)) == reference_subcone_facets(face)
        for sub in subcone_facets(face)[:3]:
            ridge = tuple(face[i] for i in sub)
            assert list(subcone_facets(ridge)) == \
                reference_subcone_facets(ridge)
