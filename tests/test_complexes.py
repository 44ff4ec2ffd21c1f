import pytest

from conftest import (
    WitnessMismatch,
    cached_complex,
    closure,
    pair_swap_elements,
    random_unimodular,
    transport_sign,
)

from vorcycle.complexes import (
    Differential,
    _ParentView,
    ambient_orientation_sign,
    apply_to_cell,
    build_complex,
    induced_sign,
    top_cell_dimension,
    transport_flat,
)
from vorcycle.cones import build_cone, meets_boundary
from vorcycle.forms import (
    GroupElement,
    QForm,
    minimum_and_minimal_vectors,
    rank_one,
)
from vorcycle.isometry import cell_maps, cell_stabilizer, orbit_decompose
from vorcycle.linalg import (
    det_sign,
    mat_rank,
    relative_orientation,
    sym_flatten,
)

HEX_CELL = ((0, 1), (1, -1), (1, 0))          # hexagonal domain vectors
HEX_MIRROR = ((0, 1), (1, 0), (1, 1))         # its far side across the wall
DIAG_WALL = ((0, 1), (1, 0))


def _node_view(graph, i):
    node = graph.nodes[i]
    faces = tuple(node.domain.facet_vectors(f) for f in node.domain.facets)
    return _ParentView(vectors=node.minvecs.vectors,
                       generators=node.generators, basis=None,
                       faces=faces, n=graph.n)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("group", ("sl", "gl"))
def test_cell_generators_close_to_the_cell_stabilizer(n, group):
    cx = cached_complex(n, group)
    for rec in cx.tops + cx.walls:
        group_elems = closure(rec.generators, n)
        assert len(group_elems) == rec.stab_order
        assert [g.rows for g in group_elems] == \
            [g.rows for g in cell_stabilizer(rec.vectors,
                                             det_one=(group == "sl"))]


def test_top_cell_dimension():
    assert top_cell_dimension(2) == 2
    assert top_cell_dimension(4) == 9
    assert top_cell_dimension(7) == 27


def test_sigma_star_counts(complex_sl2, complex_sl3, complex_sl4):
    assert (len(complex_sl2.tops), len(complex_sl2.walls)) == (1, 1)
    assert (len(complex_sl3.tops), len(complex_sl3.walls)) == (1, 1)
    assert len(complex_sl4.tops) == 2
    assert len(complex_sl4.walls) >= 1


def test_orientation_filter_results(complex_sl2, complex_sl3, complex_sl4,
                                    complex_gl2):
    # Rank 2 and 3: the unique wall class is dropped by the filter.
    assert complex_sl2.kept_walls == ()
    assert complex_sl3.kept_walls == ()
    # Orientation-preserving groups keep every top cell.
    assert complex_sl2.kept_tops == (0,)
    assert complex_sl4.kept_tops == (0, 1)
    # Full group in even rank drops tops with determinant -1 symmetries.
    assert complex_gl2.kept_tops == ()


def test_orientation_preserving_groups_keep_all_tops_and_nonself_walls(
        complex_sl2, complex_sl3, complex_sl4, complex_gl3):
    for cx in (complex_sl2, complex_sl3, complex_sl4, complex_gl3):
        assert cx.kept_tops == tuple(range(len(cx.tops)))
        for i, w in enumerate(cx.walls):
            if w.kind == "non_self":
                assert w.orientation_kept, "non-self wall must survive"


def test_wall_classification(complex_sl2, complex_sl4):
    assert complex_sl2.walls[0].kind == "self"
    kinds = sorted(w.kind for w in complex_sl4.walls)
    assert kinds == ["non_self", "self"]
    for cx in (complex_sl2, complex_sl4):
        for w in cx.walls:
            neighbor, g_rows = w.witness
            g = GroupElement.from_matrix(g_rows)
            node = cx.graph.nodes[w.parent]
            far = apply_to_cell(g, cx.graph.nodes[neighbor].minvecs.vectors)
            shared = tuple(sorted(set(node.minvecs.vectors) & set(far)))
            assert shared == w.vectors
            if w.kind == "self":
                assert neighbor == w.parent
            else:
                assert neighbor != w.parent


def test_no_wall_meets_boundary(graph_sl2, graph_sl3, graph_sl4):
    for graph in (graph_sl2, graph_sl3, graph_sl4):
        for node in graph.nodes:
            for facet in node.domain.facets:
                assert not meets_boundary(node.domain.facet_vectors(facet))


def test_epsilon_v_independence_and_both_signs():
    for gram in (((2, 1), (1, 2)), ((2, -1, 0), (-1, 2, -1), (0, -1, 2))):
        q = QForm.from_matrix(gram)
        mv = minimum_and_minimal_vectors(q)
        cone = build_cone(mv.vectors)
        signs = set()
        for facet in cone.facets:
            face = cone.facet_vectors(facet)
            basis = []
            for v in face:
                flat = sym_flatten(rank_one(v))
                if mat_rank(basis + [flat]) > len(basis):
                    basis.append(flat)
            per_v = {det_sign(basis + [sym_flatten(rank_one(v))])
                     for v in mv.vectors if v not in set(face)}
            assert len(per_v) == 1, "sign must not depend on the extra ray"
            signs |= per_v
        assert signs == {1, -1}


def test_epsilon_flips_when_basis_swapped():
    q = QForm.from_matrix(((2, 1), (1, 2)))
    mv = minimum_and_minimal_vectors(q)
    cone = build_cone(mv.vectors)
    facet = cone.facets[0]
    face = cone.facet_vectors(facet)
    basis = [sym_flatten(rank_one(v)) for v in face]
    v = next(v for v in mv.vectors if v not in set(face))
    extra = sym_flatten(rank_one(v))
    assert det_sign(basis + [extra]) == -det_sign(basis[::-1] + [extra])


def test_opposite_orientations_on_every_shared_wall(graph_sl2, graph_sl3,
                                                    graph_sl4):
    for graph in (graph_sl2, graph_sl3, graph_sl4):
        for e in graph.edges:
            node = graph.nodes[e.node]
            far = apply_to_cell(e.witness,
                                graph.nodes[e.neighbor].minvecs.vectors)
            face = node.domain.facet_vectors(node.domain.facets[e.facet])
            face_set = set(face)
            basis = []
            for v in face:
                flat = sym_flatten(rank_one(v))
                if mat_rank(basis + [flat]) > len(basis):
                    basis.append(flat)
            near_signs = {det_sign(basis + [sym_flatten(rank_one(v))])
                          for v in node.minvecs.vectors
                          if v not in face_set}
            far_signs = {det_sign(basis + [sym_flatten(rank_one(v))])
                         for v in far if v not in face_set}
            assert len(near_signs) == 1 and len(far_signs) == 1
            assert near_signs != far_signs


def test_wall_basis_is_positively_oriented_in_parent(complex_sl4):
    for w in complex_sl4.walls:
        view = _node_view(complex_sl4.graph, w.parent)
        extra = next(v for v in view.vectors if v not in set(w.vectors))
        sign = view.oriented_sign(list(w.basis) +
                                  [sym_flatten(rank_one(extra))])
        assert sign == 1


def test_stab_groups_lemma_on_nonself_walls(complex_sl4, complex_gl4):
    for cx in (complex_sl4, complex_gl4):
        det_one = cx.group_kind == "sl"
        for w in cx.walls:
            if w.kind != "non_self":
                continue
            node = cx.graph.nodes[w.parent]
            neighbor, g_rows = w.witness
            g = GroupElement.from_matrix(g_rows)
            far = apply_to_cell(g, cx.graph.nodes[neighbor].minvecs.vectors)
            wall_stab = {x.rows for x in closure(w.generators, cx.n)}
            sigma_stab = {x.rows for x in closure(node.generators, cx.n)}
            far_stab = {x.rows
                        for x in cell_stabilizer(far, det_one=det_one)}
            # (i) the wall stabilizer is exactly the intersection.
            assert wall_stab == sigma_stab & far_stab
            # (ii) orbit size = index of the wall stabilizer.
            view = _node_view(cx.graph, w.parent)
            orbits = orbit_decompose(view.faces, node.generators)
            rep_key = view.faces[w.face_index]
            orbit = next(members for key, members in orbits
                         if rep_key in members)
            assert len(orbit) == node.stab_order // w.stab_order


def test_self_wall_lemma_parts(complex_sl2, complex_gl2, complex_sl3,
                               complex_sl4):
    for cx in (complex_sl2, complex_gl2, complex_sl3, complex_sl4):
        det_one = cx.group_kind == "sl"
        for w in cx.walls:
            if w.kind != "self":
                continue
            node = cx.graph.nodes[w.parent]
            gamma = GroupElement.from_matrix(w.witness[1])
            cell = node.minvecs.vectors
            far = apply_to_cell(gamma, cell)
            # tau = sigma intersect gamma.sigma, literally.
            assert tuple(sorted(set(cell) & set(far))) == w.vectors
            inter = {x.rows for x in cell_stabilizer(cell, det_one=det_one)} \
                & {x.rows for x in cell_stabilizer(far, det_one=det_one)}
            swaps = {x.rows
                     for x in pair_swap_elements(cell, far, det_one=det_one)}
            wall_stab = {x.rows for x in closure(w.generators, cx.n)}
            # (i) disjoint decomposition of the wall stabilizer.
            assert inter & swaps == set()
            assert inter | swaps == wall_stab
            # (ii) the index is one or two.
            assert len(wall_stab) % len(inter) == 0
            index = len(wall_stab) // len(inter)
            assert index in (1, 2)
            # (iii) three-way equivalence:
            #   gamma^-1 tau in the same cell-orbit as tau
            #   <=> tau dropped by the orientation filter
            #   <=> index is two.
            pulled = apply_to_cell(gamma.inverse(), w.vectors)
            same_orbit = any(
                apply_to_cell(s, pulled) == w.vectors
                for s in closure(node.generators, cx.n))
            assert same_orbit == (not w.orientation_kept) == (index == 2)
            # (iv) orbit count under the cell stabilizer: two when kept,
            # merged into one when dropped.
            view = _node_view(cx.graph, w.parent)
            orbits = orbit_decompose(view.faces, node.generators)
            matching = [key for key, members in orbits
                        if cell_maps(w.vectors, key, det_one=det_one,
                                     first_only=True)]
            assert len(matching) == (2 if w.orientation_kept else 1)


def test_rank_two_example_exact_stabilizer_sets():
    gamma = GroupElement.from_matrix([[1, 0], [0, -1]])
    far = apply_to_cell(gamma, HEX_CELL)
    assert far == HEX_MIRROR
    wall = tuple(sorted(set(HEX_CELL) & set(HEX_MIRROR)))
    assert wall == DIAG_WALL

    def pm(*mats):
        out = set()
        for m in mats:
            out.add(m)
            out.add(tuple(tuple(-x for x in r) for r in m))
        return out

    orth = pm(((1, 0), (0, 1)), ((1, 0), (0, -1)),
              ((0, 1), (1, 0)), ((0, 1), (-1, 0)))
    assert {g.rows for g in cell_stabilizer(wall)} == orth
    inter = {g.rows for g in cell_stabilizer(HEX_CELL)} \
        & {g.rows for g in cell_stabilizer(HEX_MIRROR)}
    assert inter == pm(((1, 0), (0, 1)), ((0, 1), (1, 0)))
    swaps = {g.rows for g in pair_swap_elements(HEX_CELL, HEX_MIRROR)}
    assert swaps == pm(((1, 0), (0, -1)), ((0, 1), (-1, 0)))
    assert orth == inter | swaps and not inter & swaps


def test_rank_two_internal_cancellation_sign():
    # Crossing the diagonal wall with the determinant-one witness
    # reverses the transported orientation: the same-cell contribution
    # cancels as 1 + (-1).
    rot = GroupElement.from_matrix([[0, 1], [-1, 0]])
    assert apply_to_cell(rot, HEX_CELL) == HEX_MIRROR
    view = _ParentView(vectors=HEX_CELL, generators=(), basis=None,
                       faces=(DIAG_WALL,), n=2)
    basis = [sym_flatten(rank_one(v)) for v in DIAG_WALL]
    extra = next(v for v in HEX_CELL if v not in set(DIAG_WALL))
    if view.oriented_sign(basis + [sym_flatten(rank_one(extra))]) < 0:
        basis = [tuple(-x for x in basis[0])] + basis[1:]
    sign = induced_sign(view, basis, DIAG_WALL, DIAG_WALL, rot, 2)
    assert sign == -1


def test_member_signs_constant_within_stabilizer_orbit(complex_sl4):
    cx = complex_sl4
    for col, top_idx in enumerate(cx.kept_tops):
        view = _node_view(cx.graph, top_idx)
        node = cx.graph.nodes[top_idx]
        orbits = orbit_decompose(view.faces, node.generators)
        for row, wall_idx in enumerate(cx.kept_walls):
            w = cx.walls[wall_idx]
            for rep_key, members in orbits:
                link = cell_maps(w.vectors, rep_key, det_one=True,
                                 first_only=True)
                if not link:
                    continue
                signs = {induced_sign(view, w.basis, w.vectors, member, s * link[0],
                                      cx.n)
                         for member, s in members.items()}
                assert len(signs) == 1


def test_differential_empty_rank_two_three(complex_sl2, complex_sl3):
    assert complex_sl2.differential.row_count == 0
    assert complex_sl3.differential.row_count == 0
    assert complex_sl2.differential.col_count == 1


def test_differential_structure_rank_four(complex_sl4):
    diff = complex_sl4.differential
    assert diff.col_count == 2
    orders = [complex_sl4.tops[i].stab_order for i in complex_sl4.kept_tops]
    for r in range(diff.row_count):
        entries = diff.row_entries(r)
        assert len(entries) == 2
        (c1, v1), (c2, v2) = entries
        assert v1 * v2 < 0
        wall = complex_sl4.walls[complex_sl4.kept_walls[r]]
        assert abs(v1) == orders[c1] // wall.stab_order
        assert abs(v2) == orders[c2] // wall.stab_order


def test_row_entries_follow_the_sorted_entries():
    diff = Differential(row_labels=("w0", "w1", "w2"),
                        col_labels=("t0", "t1"),
                        entries=(((0, 1), 2), ((2, 0), -1), ((2, 1), 3)))
    assert diff.row_entries(0) == ((1, 2),)
    assert diff.row_entries(1) == ()
    assert diff.row_entries(2) == ((0, -1), (1, 3))
    assert diff.dense_rows() == [[0, 2], [0, 0], [-1, 3]]


def test_incidence_zero_for_unrelated_wall(complex_sl4):
    # A wall class equivalent to none of a cell's facets contributes 0:
    # columns only carry entries for walls in the cell's facet orbits.
    diff = complex_sl4.differential
    dense = diff.dense_rows()
    for r in range(diff.row_count):
        for c in range(diff.col_count):
            wall = complex_sl4.walls[complex_sl4.kept_walls[r]]
            view = _node_view(complex_sl4.graph, complex_sl4.kept_tops[c])
            in_orbit = any(cell_maps(wall.vectors, key, det_one=True,
                                     first_only=True)
                           for key in view.faces)
            if not in_orbit:
                assert dense[r][c] == 0


def test_orientation_action_proposition(rng):
    for n in (2, 3, 4):
        for _ in range(34):
            g = random_unimodular(n, rng)
            expected = 1 if (g.det == 1 or n % 2 == 1) else -1
            assert ambient_orientation_sign(g, n) == expected


def test_transport_sign_identity_and_mismatch(complex_sl4):
    wall = complex_sl4.walls[complex_sl4.kept_walls[0]]
    ident = GroupElement.identity(4)
    assert transport_sign(wall, wall.vectors, wall.basis, ident, 4) == 1
    with pytest.raises(WitnessMismatch):
        transport_sign(wall, wall.vectors, wall.basis,
                       GroupElement.from_matrix(
                           [[1, 1, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]]), 4)


def test_transport_sign_witness_independence_on_kept_wall(complex_sl4):
    # For a kept wall every stabilizer element transports the basis
    # positively, so the sign does not depend on the witness choice.
    wall = complex_sl4.walls[complex_sl4.kept_walls[0]]
    for s in closure(wall.generators, 4):
        moved = [transport_flat(s, b, 4) for b in wall.basis]
        assert relative_orientation(list(wall.basis), moved) == 1
    dropped = complex_sl4.walls[[i for i in range(len(complex_sl4.walls))
                                 if i not in complex_sl4.kept_walls][0]]
    signs = set()
    for s in closure(dropped.generators, 4):
        moved = [transport_flat(s, b, 4) for b in dropped.basis]
        signs.add(relative_orientation(list(dropped.basis), moved))
    assert signs == {1, -1}


def test_seed_perm_changes_rep_but_not_kernel_small():
    for n, group in ((2, "sl"), (3, "sl")):
        dims = set()
        for seed in range(3):
            cx = cached_complex(n, group, seed)
            dims.add((cx.differential.row_count, cx.differential.col_count))
        assert len(dims) == 1


def test_every_cell_has_nonself_wall_when_several_classes(graph_sl4,
                                                          graph_gl4):
    # With more than one class, connectivity forces every cell to touch
    # a wall leading to a different class.
    for graph in (graph_sl4, graph_gl4):
        for i in range(len(graph.nodes)):
            assert any(e.neighbor != i for e in graph.edges if e.node == i)


def test_degenerate_rank_one_complex():
    from vorcycle.enumeration import enumerate_perfect_forms
    cx = build_complex(enumerate_perfect_forms(1, "sl"))
    assert cx.kept_tops == (0,)
    assert cx.walls == ()
    assert cx.differential.row_count == 0
    from vorcycle.homology import verify_top_cycle
    assert verify_top_cycle(cx).kernel_dim == 1
