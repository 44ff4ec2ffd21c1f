import pytest

from conftest import cached_graph, closure, random_unimodular

from vorcycle.cones import build_cone
from vorcycle.enumeration import (
    BoundaryFacet,
    enumerate_perfect_forms,
    facet_stabilizer,
    is_equivalent,
    neighbor_form,
    stabilizer,
)
from vorcycle.forms import (
    QForm,
    a_n_gram,
    act,
    apply_to_cell,
    is_perfect,
    minimum_and_minimal_vectors,
)
from vorcycle.isometry import form_automorphisms

HEXAGONAL = ((2, 1), (1, 2))


def test_single_class_rank_two_and_three(graph_sl2, graph_sl3):
    assert len(graph_sl2.nodes) == 1
    assert len(graph_sl3.nodes) == 1
    assert graph_sl2.nodes[0].label == "A2"
    assert graph_sl3.nodes[0].label == "A3"


def test_rank_two_three_reps_equivalent_to_chain_gram(graph_sl2, graph_sl3):
    for graph, n in ((graph_sl2, 2), (graph_sl3, 3)):
        ref = QForm.from_matrix(a_n_gram(n))
        ref_mv = minimum_and_minimal_vectors(ref)
        node = graph.nodes[0]
        assert is_equivalent(ref, ref_mv, node.form, node.minvecs) is not None


def test_rank_four_two_classes(graph_sl4):
    assert len(graph_sl4.nodes) == 2
    assert sorted(node.label for node in graph_sl4.nodes) == ["A4", "D4"]


def test_rank_four_gl_stabilizer_orders(graph_gl4):
    orders = {node.label: node.stab_order for node in graph_gl4.nodes}
    assert orders == {"A4": 240, "D4": 1152}


def test_sl_stabilizers_are_determinant_one_half(graph_sl4, graph_gl4):
    sl = {node.label: node.stab_order for node in graph_sl4.nodes}
    gl = {node.label: node.stab_order for node in graph_gl4.nodes}
    for label in gl:
        assert sl[label] == gl[label] // 2
    for node in graph_sl4.nodes:
        assert all(g.det == 1
                   for g in closure(node.generators, graph_sl4.n))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("group", ("sl", "gl"))
def test_generators_close_to_the_automorphism_group(n, group):
    graph = cached_graph(n, group)
    for node in graph.nodes:
        group_elems = closure(node.generators, n)
        assert len(group_elems) == node.stab_order
        assert [g.rows for g in group_elems] == \
            [g.rows for g in form_automorphisms(
                node.form, node.minvecs.vectors, det_one=(group == "sl"))]


def test_traversal_order_oracle_same_class_count():
    default = cached_graph(4, "sl")
    reversed_ = cached_graph(4, "sl", traversal="reversed")
    assert len(default.nodes) == len(reversed_.nodes)
    for node in reversed_.nodes:
        hits = [other for other in default.nodes
                if is_equivalent(other.form, other.minvecs, node.form,
                                 node.minvecs)]
        assert len(hits) == 1


def test_closure_every_facet_has_edge(graph_sl4):
    for i, node in enumerate(graph_sl4.nodes):
        for f_idx in range(len(node.domain.facets)):
            edge = graph_sl4.edge_at(i, f_idx)
            assert 0 <= edge.neighbor < len(graph_sl4.nodes)


def test_edges_intersect_exactly_in_facet(graph_sl4):
    for e in graph_sl4.edges:
        node = graph_sl4.nodes[e.node]
        other = graph_sl4.nodes[e.neighbor]
        moved = set(apply_to_cell(e.witness, other.minvecs.vectors))
        facet = node.domain.facets[e.facet]
        shared = set(node.minvecs.vectors) & moved
        assert shared == set(node.domain.facet_vectors(facet))


def test_neighbor_of_hexagonal_is_equivalent_hexagonal():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    cone = build_cone(mv.vectors)
    for facet in cone.facets:
        nb = neighbor_form(q, mv, facet)
        nb_mv = minimum_and_minimal_vectors(nb)
        assert is_perfect(nb, nb_mv)
        assert is_equivalent(q, mv, nb, nb_mv) is not None


def test_neighbor_certificates(graph_sl4):
    node = graph_sl4.nodes[0]
    facet = node.domain.facets[0]
    nb = neighbor_form(node.form, node.minvecs, facet)
    nb_mv = minimum_and_minimal_vectors(nb)
    face = set(node.domain.facet_vectors(facet))
    assert face <= set(nb_mv.vectors)
    assert set(nb_mv.vectors) - face
    assert is_perfect(nb, nb_mv)


def test_neighbor_rejects_boundary_face():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    cone = build_cone(mv.vectors)
    from vorcycle.cones import FacetRec
    degenerate = FacetRec(normal=cone.facets[0].normal,
                          incident=frozenset({0}))
    with pytest.raises(BoundaryFacet):
        neighbor_form(q, mv, degenerate)


def test_is_equivalent_witness_forms(rng):
    q = QForm.from_matrix(a_n_gram(3))
    mv = minimum_and_minimal_vectors(q)
    w = is_equivalent(q, mv, q, mv)
    assert w is not None and w.scale == 1
    from vorcycle.forms import act_form
    for _ in range(5):
        u = random_unimodular(3, rng)
        img = act_form(u, q)
        img_mv = minimum_and_minimal_vectors(img)
        w = is_equivalent(q, mv, img, img_mv)
        assert w is not None
        assert act(w.g, q.gram) == img.gram


def test_stabilizer_contains_inverses_and_products():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    elems, order = stabilizer(q, mv, "gl")
    assert order == 12
    rows = {g.rows for g in elems}
    for g in elems:
        assert g.inverse().rows in rows
    for g in elems[:4]:
        for h in elems[:4]:
            assert (g * h).rows in rows


def test_facet_stabilizer_diagonal_pair():
    elems, order = facet_stabilizer(((1, 0), (0, 1)), "gl")
    assert order == 8
    elems_sl, order_sl = facet_stabilizer(((1, 0), (0, 1)), "sl")
    assert order_sl == 4
    assert {g.rows for g in elems_sl} <= {g.rows for g in elems}


def test_facet_stabilizer_of_full_cell_is_cell_stabilizer():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    elems, order = facet_stabilizer(mv.vectors, "gl")
    full, full_order = stabilizer(q, mv, "gl")
    assert order == full_order
    assert {g.rows for g in elems} == {g.rows for g in full}


def test_rank_bounds():
    with pytest.raises(ValueError):
        enumerate_perfect_forms(0)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(8)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(6)  # needs allow_long


def test_rank_one_degenerate_graph():
    graph = enumerate_perfect_forms(1, "gl")
    assert len(graph.nodes) == 1
    assert graph.nodes[0].stab_order == 2
    assert enumerate_perfect_forms(1, "sl").nodes[0].stab_order == 1
    assert graph.edges == ()


def test_graph_connected(graph_sl4):
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for e in graph_sl4.edges:
            if e.node == i and e.neighbor not in seen:
                seen.add(e.neighbor)
                frontier.append(e.neighbor)
    assert seen == set(range(len(graph_sl4.nodes)))
