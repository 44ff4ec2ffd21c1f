import itertools
from math import factorial

import pytest
from conftest import (
    brute_stabilizer_2x2,
    closure,
    matrix_orbit_decompose,
    pair_swap_elements,
    random_unimodular,
)

from vorcycle.forms import (
    GroupElement,
    QForm,
    a_n_gram,
    act,
    act_form,
    apply_to_cell,
    canonical_pair,
    d_n_gram,
    minimum_and_minimal_vectors,
)
from vorcycle import isometry
from vorcycle.cones import build_cone, face_vectors, facet_closure
from vorcycle.isometry import (
    _independent_base,
    cell_group,
    cell_maps,
    cell_stabilizer,
    form_automorphisms,
    form_group,
    form_maps,
    orbit_decompose,
    transporter,
    transporter_det,
)
from vorcycle.linalg import det_int

HEXAGONAL = ((2, 1), (1, 2))


def _form(gram):
    q = QForm.from_matrix(gram)
    return q, minimum_and_minimal_vectors(q)


def test_hexagonal_automorphisms_match_brute_force():
    q, mv = _form(HEXAGONAL)
    auts = form_automorphisms(q, mv.vectors)
    assert len(auts) == 12
    assert sorted(g.rows for g in auts) == brute_stabilizer_2x2(q.gram)
    sl = form_automorphisms(q, mv.vectors, det_one=True)
    assert len(sl) == 6
    assert {g.rows for g in sl} == {g.rows for g in auts if g.det == 1}


def test_automorphism_orders_of_root_forms():
    for gram, order in ((a_n_gram(3), 48), (a_n_gram(4), 240),
                        (d_n_gram(4), 1152)):
        q, mv = _form(gram)
        assert len(form_automorphisms(q, mv.vectors)) == order


def test_negative_identity_always_stabilizes():
    for gram in (HEXAGONAL, a_n_gram(3), d_n_gram(4)):
        q, mv = _form(gram)
        n = q.n
        neg = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
        assert neg in {g.rows for g in form_automorphisms(q, mv.vectors)}


def test_identity_witness_for_equal_forms():
    q, mv = _form(HEXAGONAL)
    maps = form_maps(q, mv.vectors, q, mv.vectors, first_only=True)
    assert maps and act(maps[0], q.gram) == q.gram


def test_witness_found_for_constructed_equivalence(rng):
    q, mv = _form(a_n_gram(3))
    for _ in range(8):
        u = random_unimodular(3, rng)
        img = act_form(u, q)
        img_mv = minimum_and_minimal_vectors(img)
        maps = form_maps(q, mv.vectors, img, img_mv.vectors, first_only=True)
        assert maps
        assert act(maps[0], q.gram) == img.gram


def test_a4_d4_not_equivalent():
    qa, mva = _form(a_n_gram(4))
    qd, mvd = _form(d_n_gram(4))
    assert mva.vector_count == 20 and mvd.vector_count == 24
    assert form_maps(qa, mva.vectors, qd, mvd.vectors, first_only=True) == []


def test_facet_cell_stabilizer_is_signed_permutations():
    stab = cell_stabilizer(((1, 0), (0, 1)))
    assert len(stab) == 8
    base = [((1, 0), (0, 1)), ((1, 0), (0, -1)),
            ((0, 1), (1, 0)), ((0, 1), (-1, 0))]
    expected = set()
    for m in base:
        expected.add(m)
        expected.add(tuple(tuple(-x for x in r) for r in m))
    assert {g.rows for g in stab} == expected


def test_cell_stabilizer_of_perfect_domain_equals_form_automorphisms():
    q, mv = _form(HEXAGONAL)
    assert {g.rows for g in cell_stabilizer(mv.vectors)} == \
        {g.rows for g in form_automorphisms(q, mv.vectors)}


def test_cell_maps_transport(rng):
    q, mv = _form(a_n_gram(3))
    for _ in range(6):
        g = random_unimodular(3, rng)
        moved = apply_to_cell(g, mv.vectors)
        maps = cell_maps(mv.vectors, moved, first_only=True)
        assert maps
        assert apply_to_cell(maps[0], mv.vectors) == moved


def test_equivalence_respects_conjugation(rng):
    # A witness survives composing either side with group elements.
    q, mv = _form(a_n_gram(3))
    for _ in range(6):
        u = random_unimodular(3, rng)
        w = random_unimodular(3, rng)
        left = act_form(u, q)
        right = act_form(w, q)
        left_mv = minimum_and_minimal_vectors(left)
        right_mv = minimum_and_minimal_vectors(right)
        maps = form_maps(left, left_mv.vectors, right, right_mv.vectors,
                         first_only=True)
        assert maps and act(maps[0], left.gram) == right.gram


def test_pair_swap_elements_hexagonal():
    # The two hexagonal cells around the diagonal facet swap under
    # diag(1,-1) and the rotation by a quarter turn.
    cell_a = ((0, 1), (1, -1), (1, 0))
    cell_b = ((0, 1), (1, 0), (1, 1))
    swaps = pair_swap_elements(cell_a, cell_b)
    assert len(swaps) == 4
    expected = set()
    for m in (((1, 0), (0, -1)), ((0, 1), (-1, 0))):
        expected.add(m)
        expected.add(tuple(tuple(-x for x in r) for r in m))
    assert {g.rows for g in swaps} == expected


def test_stabilizer_order_invariant_across_conjugates(rng):
    q, mv = _form(HEXAGONAL)
    order = len(cell_stabilizer(mv.vectors))
    for _ in range(5):
        g = random_unimodular(2, rng)
        moved = apply_to_cell(g, mv.vectors)
        assert len(cell_stabilizer(moved)) == order


def test_small_generating_set_generates():
    from vorcycle.isometry import small_generating_set
    for gram in (HEXAGONAL, d_n_gram(4)):
        q, mv = _form(gram)
        group = form_automorphisms(q, mv.vectors)
        gens = small_generating_set(group)
        assert len(gens) <= 8
        # closure of the generators is the whole group
        ident = GroupElement.identity(q.n)
        closure = {ident.rows}
        frontier = [ident]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    prod = g * h
                    if prod.rows not in closure:
                        closure.add(prod.rows)
                        nxt.append(prod)
            frontier = nxt
        assert closure == {g.rows for g in group}


def test_orbit_decompose_partitions_with_transporters():
    from vorcycle.isometry import small_generating_set
    q, mv = _form(d_n_gram(4))
    facets = build_cone(mv.vectors)
    group = form_automorphisms(q, mv.vectors)
    gens = small_generating_set(group)
    reached, orbits, schreier = orbit_decompose(mv.vectors, facets, gens)
    assert set(reached) == set(facets) and len(reached) == len(facets)
    covered = []
    for orbit in orbits:
        rep = face_vectors(mv.vectors, reached[orbit[0]])
        assert schreier[orbit[0]] is None
        for k in orbit:
            s = transporter(gens, schreier, k, 4)
            assert apply_to_cell(s, rep) == \
                face_vectors(mv.vectors, reached[k])
            assert transporter_det(gens, schreier, k) == s.det
        covered += orbit
    assert covered == list(range(len(reached)))
    # orbit sizes divide the group order
    for orbit in orbits:
        assert len(group) % len(orbit) == 0


def brute_cell_maps(src, dst, bound):
    """Oracle: all unimodular matrices with entries in [-bound, bound]
    sending the pairs of `src` onto the pairs of `dst`."""
    n = len(src[0])
    target = set(dst)
    out = set()
    for entries in itertools.product(range(-bound, bound + 1),
                                     repeat=n * n):
        rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if det_int(rows) not in (1, -1):
            continue
        g = GroupElement.from_matrix(rows)
        if {canonical_pair(g.apply(v)) for v in src} == target:
            out.add(rows)
    return out


# (cell S, shift h, entry bound for the maps S -> h S).  Each first
# independent base X (in sorted order) has |det X| > 1, so leaves can
# fail the exact division by det X; the rank-3 cell rejects 32
# pairing-compatible leaves that way.  A map g of S onto itself keeps
# B = sum x x^t, so each column c = g e_j has c^t B^-1 c = (B^-1)_jj;
# for these diagonal B every stabilizer entry lies in [-2, 2] (rank 2)
# or [-1, 1] (rank 3), and the maps onto h S are h * Stab(S).
BRUTE_CELLS = (
    (((1, 1), (1, -1)), ((1, 1), (0, 1)), 4),
    (((2, -1), (2, 1)), ((1, 1), (0, 1)), 4),
    (((0, 0, 1), (1, -1, 0), (1, 1, 0)),
     ((0, 0, 1), (0, -1, 0), (1, 0, 0)), 1),
)


@pytest.mark.parametrize("cell, shift, bound", BRUTE_CELLS)
def test_cell_stabilizer_and_maps_match_brute_force(cell, shift, bound):
    x = tuple(zip(*[cell[i] for i in _independent_base(cell)]))
    assert abs(det_int(x)) > 1
    n = len(cell[0])
    stab_bound = 2 if n == 2 else 1
    brute_stab = brute_cell_maps(cell, cell, stab_bound)
    for det_one in (False, True):
        expected = {m for m in brute_stab
                    if not det_one or det_int(m) == 1}
        stab = cell_stabilizer(cell, det_one=det_one)
        assert [g.rows for g in stab] == sorted(expected)
    h = GroupElement.from_matrix(shift)
    moved = apply_to_cell(h, cell)
    expected = brute_cell_maps(cell, moved, bound)
    assert expected == {(h * g).rows for g in cell_stabilizer(cell)}
    assert {g.rows for g in cell_maps(cell, moved)} == expected
    first = cell_maps(cell, moved, first_only=True)
    assert len(first) == 1 and first[0].rows in expected


def naive_generating_set(elements):
    """Reference: the same scan, re-closing the whole group each time."""
    if len(elements) <= 1:
        return ()
    ident = GroupElement.identity(elements[0].n)
    gens = []
    closure = {ident.rows: ident}
    for g in sorted(elements, key=lambda e: e.rows):
        if g.rows in closure:
            continue
        gens.append(g)
        frontier = list(closure.values())
        while frontier:
            nxt = []
            for h in frontier:
                for gen in gens:
                    prod = gen * h
                    if prod.rows not in closure:
                        closure[prod.rows] = prod
                        nxt.append(prod)
            frontier = nxt
        if len(closure) == len(elements):
            break
    return tuple(gens)


def test_small_generating_set_pins_selection_rule():
    from vorcycle.isometry import small_generating_set
    groups = []
    for gram in (a_n_gram(4), d_n_gram(4)):
        q, mv = _form(gram)
        for det_one in (False, True):
            groups.append(form_automorphisms(q, mv.vectors, det_one=det_one))
    q, mv = _form(d_n_gram(4))
    groups.append(cell_stabilizer(face_vectors(mv.vectors,
                                               build_cone(mv.vectors)[0])))
    assert [len(g) for g in groups][:4] == [240, 120, 1152, 576]
    for group in groups:
        gens = small_generating_set(group)
        assert [g.rows for g in gens] == \
            [g.rows for g in naive_generating_set(group)]


def test_orbit_decompose_rejects_keys_not_permuted():
    # The swap moves a vector off the cell: refused.  A face that it
    # moves off the faces is reached, so the walk returns the closure
    # (cones refuse a facet list that is not closed).
    swap = GroupElement.from_matrix(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="does not permute the faces"):
        orbit_decompose(((1, 0),), [(0,)], [swap])
    assert orbit_decompose(((0, 1), (1, 0)), [(0,)], [swap]) == \
        ([frozenset({0}), frozenset({1})], (range(2),), (None, (0, 0)))


def e_n_gram(n):
    """Cartan matrix of E_n (n = 6, 7, 8): a chain of n - 1 nodes with
    the last node attached to the third."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        rows[i][i + 1] = rows[i + 1][i] = -1
    rows[2][n - 1] = rows[n - 1][2] = -1
    return tuple(tuple(r) for r in rows)


# Automorphism group orders of the root lattices, from Conway and
# Sloane, "Sphere Packings, Lattices and Groups", ch. 4: |Aut(A_n)| =
# 2 (n+1)! for n >= 2, |Aut(D_4)| = 1152, |Aut(D_n)| = 2^n n! for
# n >= 5, |Aut(E_6)| = 103,680, |Aut(E_7)| = 2,903,040 and |Aut(E_8)| =
# 696,729,600.  Each contains a reflection, so the determinant-one
# subgroup has index two.
ROOT_LATTICE_ORDERS = (
    [(f"A{n}", a_n_gram(n), 2 * factorial(n + 1)) for n in range(2, 7)]
    + [("D4", d_n_gram(4), 1152)]
    + [(f"D{n}", d_n_gram(n), 2 ** n * factorial(n)) for n in (5, 6)]
    + [("E6", e_n_gram(6), 103680), ("E7", e_n_gram(7), 2903040),
       ("E8", e_n_gram(8), 696729600)])


@pytest.mark.parametrize("name, gram, order", ROOT_LATTICE_ORDERS,
                         ids=[r[0] for r in ROOT_LATTICE_ORDERS])
def test_chain_orders_match_published_orders(name, gram, order):
    q, mv = _form(gram)
    gens, full = form_group(q, mv.vectors)
    sl_gens, half = form_group(q, mv.vectors, det_one=True)
    assert (full, half) == (order, order // 2)
    assert all(g.det == 1 for g in sl_gens)
    # The same group as the stabilizer of the minimal vectors.
    assert cell_group(mv.vectors)[1] == order
    # Each generator lies outside the group of the ones before it, so
    # it at least doubles that group.
    assert 2 ** len(gens) <= order


def test_chain_runs_first_hit_searches_only(monkeypatch):
    # Aut(E6) has 103,680 elements; the chain reaches its order with a
    # handful of first-hit searches (six with this base) and never lists
    # the group.
    runs = []
    original = isometry._Search.run

    def counted(self, first_only, prefix=()):
        runs.append(first_only)
        return original(self, first_only, prefix)

    monkeypatch.setattr(isometry._Search, "run", counted)
    q, mv = _form(e_n_gram(6))
    assert form_group(q, mv.vectors)[1] == 103680
    assert runs and all(runs) and len(runs) <= 20


@pytest.mark.parametrize("gram", (a_n_gram(3), d_n_gram(4)))
@pytest.mark.parametrize("det_one", (False, True))
def test_chain_generators_close_to_the_listed_group(gram, det_one):
    q, mv = _form(gram)
    gens, order = form_group(q, mv.vectors, det_one=det_one)
    listed = form_automorphisms(q, mv.vectors, det_one=det_one)
    assert [g.rows for g in closure(gens, q.n)] == [g.rows for g in listed]
    assert order == len(listed)
    facet = face_vectors(mv.vectors, build_cone(mv.vectors)[0])
    gens, order = cell_group(facet, det_one=det_one)
    listed = cell_stabilizer(facet, det_one=det_one)
    assert [g.rows for g in closure(gens, q.n)] == [g.rows for g in listed]
    assert order == len(listed)


@pytest.mark.parametrize("gram", (a_n_gram(4), d_n_gram(4), d_n_gram(5)),
                         ids=("A4", "D4", "D5"))
def test_orbit_decompose_matches_the_matrix_action(gram):
    q, mv = _form(gram)
    facets = build_cone(mv.vectors)
    keys = [face_vectors(mv.vectors, f) for f in facets]
    for det_one in (False, True):
        gens, _ = form_group(q, mv.vectors, det_one=det_one)
        reached, orbits, schreier = orbit_decompose(mv.vectors, facets,
                                                    gens)
        want = matrix_orbit_decompose(keys, gens, apply_to_cell,
                                      GroupElement.identity(q.n))
        assert [[face_vectors(mv.vectors, reached[k]) for k in orbit]
                for orbit in orbits] == [list(ref) for _, ref in want]
        assert [[transporter(gens, schreier, k, q.n).rows for k in orbit]
                for orbit in orbits] == \
            [[s.rows for s in ref.values()] for _, ref in want]
        # One walk from the representatives gives back the facets in the
        # same order, with the same orbits and Schreier vector.
        reps = [reached[orbit[0]] for orbit in orbits]
        assert orbit_decompose(mv.vectors, reps, gens) == \
            (reached, orbits, schreier)
        # facet_closure refuses a representative that is not the first
        # facet of its orbit, two out of order and two in one orbit.
        big = next(orbit for orbit in orbits if len(orbit) > 1)
        for bad in ([reached[big[-1]] if f == reached[big[0]] else f
                     for f in reps],
                    reps[::-1],
                    reps + [reached[big[1]]]):
            if bad != reps:
                with pytest.raises(ValueError, match="not the first facets"):
                    facet_closure(mv.vectors, bad, gens)


def test_cell_leaves_need_the_setwise_check():
    # Here sum x x^t = 6 I, so all eight signed permutations pass the
    # pairing, division and unimodularity checks at the leaves; only the
    # setwise check keeps the four rotations.
    cell = ((0, 1), (1, 0), (1, 2), (2, -1))
    rotations = brute_cell_maps(cell, cell, 1)
    assert len(rotations) == 4
    assert {g.rows for g in cell_stabilizer(cell)} == rotations
    gens, order = cell_group(cell)
    assert order == 4
    assert {g.rows for g in closure(gens, 2)} == rotations


@pytest.mark.parametrize("gram", (a_n_gram(3), d_n_gram(4), d_n_gram(5)),
                         ids=("A3", "D4", "D5"))
def test_search_table_is_the_full_signed_table(gram, rng):
    # The pairing table is built from one triangle of the pairings of
    # the unsigned target vectors; the reference pairs every two signed
    # vectors.  Forms are moved by random unimodular maps, and cells are
    # random facets of their domains, mapped onto moved copies.
    n = len(gram)
    for _ in range(3):
        g = random_unimodular(n, rng)
        q, mv = _form(gram)
        moved = act_form(g, q)
        moved_mv = minimum_and_minimal_vectors(moved)
        searches = [(moved.gram, isometry._form_search(
            q.gram, mv.vectors, moved.gram, moved_mv.vectors, False))]
        facets = build_cone(mv.vectors)
        face = face_vectors(mv.vectors, facets[rng.randrange(len(facets))])
        for dst in (face, apply_to_cell(g, face)):
            search = isometry._cell_search(face, dst, False)
            pair = isometry.adjugate(isometry.barycenter_matrix(dst))
            searches.append((pair, search))
        for pair, search in searches:
            dst = sorted(v for v in search.signed if canonical_pair(v) == v)
            assert search.signed == sorted(
                dst + [tuple(-x for x in v) for v in dst])
            assert search.table == [
                [sum(a * b for a, b in zip(y, isometry.mat_vec(pair, z)))
                 for z in search.signed] for y in search.signed]
