import pytest

from conftest import (
    WitnessMismatch,
    cached_complex,
    cached_graph,
    closure,
    determinant_sign,
    facet_edges,
    kept_wall_views,
    pair_swap_elements,
    random_unimodular,
    reference_incidences,
    run_python,
    sign_pairs,
    top_views,
    transport_sign,
)

from vorcycle import complexes, cones
from vorcycle.cli import main
from vorcycle.complexes import (
    Differential,
    _node_view,
    _ParentView,
    ambient_orientation_sign,
    apply_to_cell,
    build_codim2,
    build_complex,
    class_record,
    induced_sign,
    transport_flat,
)
from vorcycle.cones import build_cone, face_vectors, meets_boundary
from vorcycle.enumeration import enumerate_perfect_forms, facet_edge
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
    sym_dim,
    sym_flatten,
)
from vorcycle.persistence import graph_from_payload, graph_to_payload

HEX_CELL = ((0, 1), (1, -1), (1, 0))          # hexagonal domain vectors
HEX_MIRROR = ((0, 1), (1, 0), (1, 1))         # its far side across the wall
DIAG_WALL = ((0, 1), (1, 0))


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("group", ("sl", "gl"))
def test_cell_generators_close_to_the_cell_stabilizer(n, group):
    cx = cached_complex(n, group)
    cells = [(node.minvecs.vectors, node.generators, node.stab_order)
             for node in cx.graph.nodes] + \
        [(w.vectors, w.generators, w.stab_order) for w in cx.walls]
    for vectors, generators, order in cells:
        group_elems = closure(generators, n)
        assert len(group_elems) == order
        assert [g.rows for g in group_elems] == \
            [g.rows for g in cell_stabilizer(vectors,
                                             det_one=(group == "sl"))]


def test_sigma_star_counts(complex_sl2, complex_sl3, complex_sl4):
    assert (len(complex_sl2.graph.nodes), len(complex_sl2.walls)) == (1, 1)
    assert (len(complex_sl3.graph.nodes), len(complex_sl3.walls)) == (1, 1)
    assert len(complex_sl4.graph.nodes) == 2
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
        assert cx.kept_tops == tuple(range(len(cx.graph.nodes)))
        for i, w in enumerate(cx.walls):
            if w.kind == "non_self":
                assert w.orientation_kept, "non-self wall must survive"


def test_wall_classification(complex_sl2, complex_sl4):
    assert complex_sl2.walls[0].kind == "self"
    kinds = sorted(w.kind for w in complex_sl4.walls)
    assert kinds == ["non_self", "self"]
    for cx in (complex_sl2, complex_sl4):
        for w in cx.walls:
            neighbor, g = facet_edge(cx.graph, w.parent, w.face_index)
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
            for facet in node.facets:
                assert not meets_boundary(face_vectors(node.minvecs.vectors,
                                                       facet))


def test_epsilon_v_independence_and_both_signs():
    for gram in (((2, 1), (1, 2)), ((2, -1, 0), (-1, 2, -1), (0, -1, 2))):
        q = QForm.from_matrix(gram)
        mv = minimum_and_minimal_vectors(q)
        signs = set()
        for facet in build_cone(mv.vectors):
            face = face_vectors(mv.vectors, facet)
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
    face = face_vectors(mv.vectors, build_cone(mv.vectors)[0])
    basis = [sym_flatten(rank_one(v)) for v in face]
    v = next(v for v in mv.vectors if v not in set(face))
    extra = sym_flatten(rank_one(v))
    assert det_sign(basis + [extra]) == -det_sign(basis[::-1] + [extra])


def test_opposite_orientations_on_every_shared_wall(graph_sl2, graph_sl3,
                                                    graph_sl4):
    for graph in (graph_sl2, graph_sl3, graph_sl4):
        for _, node, facet, e in facet_edges(graph):
            far = apply_to_cell(e.witness,
                                graph.nodes[e.neighbor].minvecs.vectors)
            face = face_vectors(node.minvecs.vectors, facet)
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
            neighbor, g = facet_edge(cx.graph, w.parent, w.face_index)
            far = apply_to_cell(g, cx.graph.nodes[neighbor].minvecs.vectors)
            wall_stab = {x.rows for x in closure(w.generators, cx.n)}
            sigma_stab = {x.rows for x in closure(node.generators, cx.n)}
            far_stab = {x.rows
                        for x in cell_stabilizer(far, det_one=det_one)}
            # (i) the wall stabilizer is exactly the intersection.
            assert wall_stab == sigma_stab & far_stab
            # (ii) orbit size = index of the wall stabilizer.
            _, orbits, _ = orbit_decompose(node.minvecs.vectors,
                                           node.facets, node.generators)
            orbit = next(o for o in orbits if w.face_index in o)
            assert len(orbit) == node.stab_order // w.stab_order


def test_self_wall_lemma_parts(complex_sl2, complex_gl2, complex_sl3,
                               complex_sl4):
    for cx in (complex_sl2, complex_gl2, complex_sl3, complex_sl4):
        det_one = cx.group_kind == "sl"
        for w in cx.walls:
            if w.kind != "self":
                continue
            node = cx.graph.nodes[w.parent]
            gamma = facet_edge(cx.graph, w.parent, w.face_index).witness
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
            _, orbits, _ = orbit_decompose(cell, node.facets,
                                           node.generators)
            matching = [orbit for orbit in orbits
                        if cell_maps(w.vectors,
                                     face_vectors(cell, node.facets[orbit[0]]),
                                     det_one=det_one, first_only=True)]
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
    view = _ParentView(vectors=HEX_CELL, basis=None)
    wall = class_record(view, 0, 0, DIAG_WALL, (), det_one=True)
    assert induced_sign(view, wall, DIAG_WALL, rot.inverse(), 2) == -1
    assert determinant_sign(view, wall, DIAG_WALL, rot, 2) == -1


@pytest.mark.parametrize("level", ("top", "wall"))
@pytest.mark.parametrize("n, group", ((4, "sl"), (5, "sl"), (5, "gl")))
def test_member_signs_constant_within_stabilizer_orbit(n, group, level):
    # The level builder counts each face orbit of a kept parent as its
    # size times the sign at its representative.  Parents: the kept
    # tops, or the kept walls that build_codim2 descends from; children:
    # every class of the level below, kept or not.
    cx = cached_complex(n, group)
    if level == "top":
        views = [top_views(cx.graph)[i] for i in cx.kept_tops]
        children = cx.walls
    else:
        views = kept_wall_views(cx)
        children = build_codim2(cx)[0]
    checked = 0
    for view in views:
        for orbit in view.orbits:
            for child in children:
                link = cell_maps(child.vectors, view.faces[orbit[0]],
                                 det_one=(group == "sl"), first_only=True)
                if not link:
                    continue
                signs = {induced_sign(view, child, view.faces[k],
                                      (view.transporter(k) *
                                       link[0]).inverse(), n)
                         for k in orbit}
                assert len(signs) == 1
                checked += 1
    assert checked


@pytest.mark.parametrize("n, group, level", [
    (n, group, level) for n, group in ((4, "sl"), (4, "gl"), (5, "sl"),
                                       (5, "gl"))
    for level in ("top", "wall") if (n, group, level) != (4, "gl", "wall")])
def test_normal_signs_are_the_determinant_signs(n, group, level):
    # Each sign a level takes is read off the child's normals: at every
    # stabilizer generator (the kept test) and at every member orbit (the
    # incidence numbers).  The reference is one determinant of the
    # parent's size per sign.  Parents: every top cell, or the kept
    # walls that build_codim2 descends from (rank 4 gl keeps none);
    # children: every class of the level below, kept or not.  In rank 4
    # gl the map on form space reverses with det(g) = -1.
    cx = cached_complex(n, group)
    if level == "top":
        parents, children = top_views(cx.graph), cx.walls
    else:
        parents, children = kept_wall_views(cx), build_codim2(cx)[0]
    pairs = list(sign_pairs(parents, children, n, group == "sl"))
    assert len(pairs) > len(children)
    assert all(new == ref != 0 for new, ref in pairs)
    for child in children:
        assert child.orientation_kept == all(
            determinant_sign(parents[child.parent], child, child.vectors, g,
                             n) == 1
            for g in child.generators)


@pytest.mark.parametrize("n, group", ((4, "sl"), (5, "sl"), (5, "gl")))
def test_one_form_space_determinant_per_class_and_wall_parent(monkeypatch,
                                                              n, group):
    # A level takes a determinant of form-space size (sym_dim(n) rows)
    # to orient each class and, at codimension two, the span of each
    # kept wall; every other sign is a determinant of k x k pairings.
    # The session caches refuse to build while a pipeline function is
    # patched, so the graph is fetched first.
    graph = cached_graph(n, group)
    sizes = []
    real = complexes.det_sign

    def counting(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(complexes, "det_sign", counting)
    cx = build_complex(graph)
    top = sizes.count(sym_dim(n))
    sizes.clear()
    mids = build_codim2(cx)[0]
    mid = sizes.count(sym_dim(n))
    monkeypatch.undo()
    assert 0 < top <= len(cx.walls)
    assert 0 < mid <= len(mids) + len(cx.kept_walls)
    assert max(sizes) == sym_dim(n) and set(sizes) <= {1, 2, sym_dim(n)}


@pytest.mark.parametrize("n, group, seed", [
    (n, group, seed) for n in (2, 3, 4) for group in ("sl", "gl")
    for seed in range(3)] + [(5, "sl", 0), (5, "gl", 0)])
def test_incidences_match_a_second_matching(n, group, seed):
    cx = cached_complex(n, group, seed)
    det_one = group == "sl"
    assert cx.differential.entries == reference_incidences(
        top_views(cx.graph), cx.kept_tops, cx.walls, cx.kept_walls, n,
        det_one)
    mids, kept_mids, diff = build_codim2(cx)
    assert diff.entries == reference_incidences(
        kept_wall_views(cx), range(len(cx.kept_walls)), mids, kept_mids,
        n, det_one)


@pytest.mark.parametrize("n", (4, 5))
def test_each_face_orbit_is_matched_once(monkeypatch, n):
    # `_build_level` searches each face orbit, in its sorted order,
    # against the first orbit of each class met so far, once per class
    # and in class order, and stops at the one hit: an orbit of class c
    # misses classes 0..c-1 and then hits c, or opens c after c misses.
    # An orbit matched twice adds a search.  The session caches refuse
    # to build while a pipeline function is patched, so the graph is
    # fetched first and the complex is built under the patch.
    graph = cached_graph(n, "sl")
    hits = []
    real = complexes.cell_maps

    def counting(*args, **kwargs):
        found = real(*args, **kwargs)
        hits.append(bool(found))
        return found

    monkeypatch.setattr(complexes, "cell_maps", counting)
    cx = build_complex(graph)
    mids = build_codim2(cx)[0]
    monkeypatch.undo()
    expected = []
    for parents, classes in ((top_views(graph), cx.walls),
                             (kept_wall_views(cx), mids)):
        class_of = {m: c for c, rec in enumerate(classes)
                    for m in rec.members}
        opened = 0
        for _, _, c in sorted(
                (view.faces[orbit[0]], p, class_of[(p, orbit[0])])
                for p, view in enumerate(parents) for orbit in view.orbits
                if (p, orbit[0]) in class_of):
            if c < opened:
                expected += [False] * c + [True]
            else:
                assert c == opened
                opened += 1
                expected += [False] * c
        assert opened == len(classes)
    assert hits == expected
    assert any(hits)


def test_differential_empty_rank_two_three(complex_sl2, complex_sl3):
    assert complex_sl2.differential.row_count == 0
    assert complex_sl3.differential.row_count == 0
    assert complex_sl2.differential.col_count == 1


def test_differential_structure_rank_four(complex_sl4):
    diff = complex_sl4.differential
    assert diff.col_count == 2
    orders = [complex_sl4.graph.nodes[i].stab_order
              for i in complex_sl4.kept_tops]
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
            assert any(e.neighbor != i for e in graph.edges[i])



def test_each_node_is_decomposed_once_and_a_warm_verify_none(monkeypatch,
                                                              tmp_path,
                                                              capsys):
    # The walk decomposes each node's facets once (in build_cone, with
    # its rays) and the complex build reuses those orbits.  A warm
    # verify decomposes no facet list: it walks each node's orbits once,
    # from the stored representatives, as the load regenerates the
    # facets (without --check-dd, which builds the codim-2 level from
    # the walls).
    warm = [(node.minvecs.vectors,
             frozenset(node.facets[orbit[0]] for orbit in node.facets.orbits))
            for node in cached_graph(4, "sl").nodes]
    inputs = []
    real = cones.orbit_decompose

    def counted(vectors, faces, generators):
        inputs.append((tuple(vectors), frozenset(map(frozenset, faces))))
        return real(vectors, faces, generators)

    monkeypatch.setattr(cones, "orbit_decompose", counted)
    graph = enumerate_perfect_forms(5, "sl")
    build_complex(graph)
    facet_lists = [(node.minvecs.vectors, frozenset(node.facets))
                   for node in graph.nodes]
    assert [inputs.count(faces) for faces in facet_lists] == [1, 1, 1]
    assert len(inputs) == 2 * len(graph.nodes)
    args = ["verify", "--n", "4", "--group", "sl",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    inputs.clear()
    assert main(args) == 0
    assert inputs == warm
    assert capsys.readouterr().out.count("verified") == 2


def _count_products(monkeypatch):
    """Counts of GroupElement products and inverses from here on."""
    counts = {"__mul__": 0, "inverse": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(GroupElement, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(GroupElement, name, counted)
    return counts


def test_a_complex_build_reads_one_transporter_per_kept_wall_class(
        monkeypatch):
    # Rank 5 gl keeps 2 of its 4 wall classes.  A transporter is
    # multiplied out of a Schreier vector for each kept class only (the
    # sign of a class that is not kept is never taken), and an edge for
    # each wall, not once per facet: 430 facets.  The same holds over
    # the graph written and read back, whose orbits the load derived.
    graph = cached_graph(5, "gl")
    loaded = graph_from_payload(graph_to_payload(graph))
    for g in (graph, loaded):
        counts = _count_products(monkeypatch)
        cx = build_complex(g, seed_perm=3)
        monkeypatch.undo()
        assert (len(cx.walls), len(cx.kept_walls)) == (4, 2)
        assert sum(len(node.facets) for node in g.nodes) == 430
        assert counts["__mul__"] < 30 and counts["inverse"] < 8


# A transporter that does not carry the face class onto the face, a wall
# basis that is not independent, and normals that pair to zero with the
# ray off the face: all refused, also under -O.
_WRONG_TRANSPORT = """
from vorcycle.complexes import (
    WallNotGlued, _ParentView, class_record, induced_sign)
from vorcycle.forms import GroupElement
cell = ((0, 1), (1, -1), (1, 0))
wall = ((0, 1), (1, 0))
view = _ParentView(vectors=cell, basis=None, cell="node 0")
child = class_record(view, 0, 0, wall, (), True)
shear = GroupElement.from_matrix([[1, 1], [0, 1]])
try:
    induced_sign(view, child, wall, shear, 2)
except WallNotGlued as exc:
    print(exc)
try:
    _ParentView(vectors=wall, basis=child.basis[:1] * 2, cell="w0")
except WallNotGlued as exc:
    print(exc)
try:
    induced_sign(view, child._replace(normals=((0, 0, 0),)), wall,
                 GroupElement.identity(2), 2)
except WallNotGlued as exc:
    print(exc)
"""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_a_wrong_transporter_is_refused(optimize):
    result = run_python("-c", _WRONG_TRANSPORT, optimize=optimize)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "the transporter does not carry the face class onto a face of "
        "node 0\n"
        "the basis of w0 is not independent\n"
        "the parent rays off a face of node 0 do not complete its span\n")


# Every non-representative facet of a node gets a transporter skewed by
# a shear outside the stabilizer.  Rank 3 sl at seed permutation 1
# represents its one wall class (not kept) by facet 1, whose derived
# edge then carries the neighbour to the wrong side of the facet; rank 4
# sl at seed 3 represents its kept class by facet 3 of node 1, whose
# incidence sign reads that transporter first.
_SKEWED = """
from vorcycle import cones
from vorcycle.complexes import WallNotGlued, build_complex
from vorcycle.enumeration import enumerate_perfect_forms
from vorcycle.forms import GroupElement
real = cones.transporter
def skewed(generators, schreier, k, n):
    shear = GroupElement.from_matrix(
        [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
         for i in range(n)])
    t = real(generators, schreier, k, n)
    return t if schreier[k] is None else shear * t
cones.transporter = skewed
for n, seed in ((3, 1), (4, 3)):
    try:
        build_complex(enumerate_perfect_forms(n, "sl"), seed_perm=seed)
    except WallNotGlued as exc:
        print(exc)
"""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_a_skewed_transporter_is_refused(optimize):
    # Neither check is an assert: under -O both refuse too.
    result = run_python("-c", _SKEWED, optimize=optimize)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "walls[0] is not glued by the graph edge at node 0, facet 1\n"
        "the transporter does not carry the face class onto a face of "
        "node 1\n")


# The transporter of facet 1 of rank 3 sl, which represents its wall
# class at seed permutation 1, replaced by the identity (which leaves
# the representative facet where it is), or by the true one times a
# symmetry of the facet that is no automorphism of the form: that one
# carries the representative onto facet 1, but the derived edge then
# carries the neighbour onto the node's own cell.
_MISDIRECTED = """
import sys
from vorcycle import cones
from vorcycle.complexes import WallNotGlued, build_complex
from vorcycle.cones import face_vectors
from vorcycle.enumeration import enumerate_perfect_forms
from vorcycle.forms import GroupElement
from vorcycle.isometry import cell_group
from vorcycle.linalg import mat_mul, mat_transpose
real = cones.transporter
graph = enumerate_perfect_forms(3, "sl")
facets = graph.nodes[0].facets
gram = graph.nodes[0].form.gram
if sys.argv[1] == "identity":
    wrong = GroupElement.identity(3)
else:
    h = next(h for h in cell_group(face_vectors(
        graph.nodes[0].minvecs.vectors, facets[1]), det_one=True)[0]
        if mat_mul(mat_mul(mat_transpose(h.rows), gram), h.rows) != gram)
    wrong = h * facets.transporter(1)
def misdirected(generators, schreier, k, n):
    if schreier is facets.schreier and k == 1:
        return wrong
    return real(generators, schreier, k, n)
cones.transporter = misdirected
try:
    build_complex(graph, seed_perm=1)
except WallNotGlued as exc:
    print(exc)
"""


@pytest.mark.parametrize("transporter", ("identity", "facet-symmetry"))
def test_a_misdirected_transporter_is_refused(transporter):
    for optimize in ((), ("-O",)):
        result = run_python("-c", _MISDIRECTED, transporter,
                            optimize=optimize)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ("walls[0] is not glued by the graph edge "
                                 "at node 0, facet 1\n")
