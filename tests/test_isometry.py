import itertools

import pytest
from conftest import brute_stabilizer_2x2, random_unimodular

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
from vorcycle.isometry import (
    _independent_base,
    cell_invariant,
    cell_maps,
    cell_stabilizer,
    form_automorphisms,
    form_maps,
    pair_swap_elements,
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


def test_cell_invariant_separates_and_matches(rng):
    q, mv = _form(a_n_gram(3))
    inv = cell_invariant(mv.vectors)
    for _ in range(5):
        g = random_unimodular(3, rng)
        assert cell_invariant(apply_to_cell(g, mv.vectors)) == inv
    other = minimum_and_minimal_vectors(QForm.from_matrix(d_n_gram(4)))
    assert cell_invariant(other.vectors) != inv


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
    from vorcycle.cones import build_cone
    from vorcycle.isometry import orbit_decompose, small_generating_set
    q, mv = _form(d_n_gram(4))
    cone = build_cone(mv.vectors)
    keys = [cone.facet_vectors(f) for f in cone.facets]
    group = form_automorphisms(q, mv.vectors)
    gens = small_generating_set(group)
    orbits = orbit_decompose(keys, gens, apply_to_cell,
                             GroupElement.identity(4))
    covered = set()
    for rep, members in orbits:
        for member, s in members.items():
            assert apply_to_cell(s, rep) == member
        assert not covered & set(members)
        covered |= set(members)
    assert covered == set(keys)
    # orbit sizes divide the group order
    for _, members in orbits:
        assert len(group) % len(members) == 0


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
    from vorcycle.cones import build_cone
    from vorcycle.isometry import small_generating_set
    groups = []
    for gram in (a_n_gram(4), d_n_gram(4)):
        q, mv = _form(gram)
        for det_one in (False, True):
            groups.append(form_automorphisms(q, mv.vectors, det_one=det_one))
    q, mv = _form(d_n_gram(4))
    cone = build_cone(mv.vectors)
    groups.append(cell_stabilizer(cone.facet_vectors(cone.facets[0])))
    assert [len(g) for g in groups][:4] == [240, 120, 1152, 576]
    for group in groups:
        gens = small_generating_set(group)
        assert [g.rows for g in gens] == \
            [g.rows for g in naive_generating_set(group)]


def test_orbit_decompose_rejects_keys_not_permuted():
    from vorcycle.isometry import orbit_decompose
    swap = GroupElement.from_matrix(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="does not permute"):
        orbit_decompose([((1, 0),)], [swap], apply_to_cell,
                        GroupElement.identity(2))
