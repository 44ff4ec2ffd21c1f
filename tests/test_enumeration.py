import pytest

from conftest import cached_complex, cached_graph, closure, random_unimodular

from vorcycle import enumeration
from vorcycle.cones import FacetRec, build_cone
from vorcycle.enumeration import (
    BoundaryFacet,
    enumerate_perfect_forms,
    is_equivalent,
    neighbor_form,
)
from vorcycle.forms import (
    QForm,
    a_n_gram,
    act,
    act_form,
    apply_to_cell,
    bilinear,
    is_perfect,
    is_positive_definite,
    minimum_and_minimal_vectors,
)
from vorcycle.isometry import (
    cell_group,
    cell_stabilizer,
    form_automorphisms,
    form_group,
)

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


def test_sl_stabilizers_are_determinant_one_half():
    # No class of ranks 2-5 splits in sl, so the walk in sl meets the gl
    # classes at the same forms, in the same order, with the same
    # domains; each sl stabilizer is the determinant-one half.
    for n in (2, 3, 4, 5):
        sl, gl = cached_graph(n, "sl"), cached_graph(n, "gl")
        assert [(node.form, node.label, node.domain.facets)
                for node in sl.nodes] == \
            [(node.form, node.label, node.domain.facets)
             for node in gl.nodes]
        for node_sl, node_gl in zip(sl.nodes, gl.nodes):
            assert node_sl.stab_order == node_gl.stab_order // 2
            assert all(g.det == 1 for g in closure(node_sl.generators, n))


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


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("group", ("gl", "sl"))
def test_edges_intersect_exactly_in_facet(n, group):
    # The walk runs in the chosen group, so every sl witness has
    # determinant 1.
    graph = cached_graph(n, group)
    for e in graph.edges:
        node = graph.nodes[e.node]
        other = graph.nodes[e.neighbor]
        moved = set(apply_to_cell(e.witness, other.minvecs.vectors))
        facet = node.domain.facets[e.facet]
        shared = set(node.minvecs.vectors) & moved
        assert shared == set(node.domain.facet_vectors(facet))
        assert e.witness.det == 1 or group == "gl"


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
    degenerate = FacetRec(normal=cone.facets[0].normal,
                          incident=frozenset({0}))
    with pytest.raises(BoundaryFacet):
        neighbor_form(q, mv, degenerate)


# The walk's D6 representative (the neighbour of A6) and a facet of its
# domain whose pencil meets the boundary of the positive definite cone
# at an irrational t: re-seeding the crossing from non-positive-definite
# witnesses needs ever longer witnesses here and does not end.
D6_REP = ((2, -1, 0, 0, 0, 1), (-1, 2, -1, 0, 0, 0), (0, -1, 2, -1, 0, 0),
          (0, 0, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (1, 0, 0, 0, -1, 2))
D6_NORMAL = ((2, -1, 0, 0, 0, 1), (-1, 0, 0, 1, 0, -2), (0, 0, 0, 0, 0, 1),
             (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (1, -2, 1, 0, 0, 0))
D6_PROBE_BOUND = 6


def test_rank_six_crossing_ends_within_a_probe_bound(monkeypatch):
    form = QForm.from_matrix(D6_REP)
    mv = minimum_and_minimal_vectors(form)
    values = [bilinear(D6_NORMAL, v, v) for v in mv.vectors]
    assert min(values) == 0 and all(val >= 0 for val in values)
    # The incident vectors are the minimal vectors on which N vanishes.
    facet = FacetRec(normal=D6_NORMAL, incident=frozenset(
        i for i, val in enumerate(values) if val == 0))
    probes = []

    def counting(gram):
        probes.append(gram)
        if len(probes) > D6_PROBE_BOUND:
            raise RuntimeError(f"more than {D6_PROBE_BOUND} probes")
        return is_positive_definite(gram)

    # neighbor_form tests one probe for positive definiteness per step.
    monkeypatch.setattr(enumeration, "is_positive_definite", counting)
    nb = neighbor_form(form, mv, facet)
    nb_mv = minimum_and_minimal_vectors(nb)
    face = {mv.vectors[i] for i in facet.incident}
    assert face <= set(nb_mv.vectors)
    assert set(nb_mv.vectors) - face
    assert is_perfect(nb, nb_mv)


def test_is_equivalent_witness_forms(rng):
    q = QForm.from_matrix(a_n_gram(3))
    mv = minimum_and_minimal_vectors(q)
    w = is_equivalent(q, mv, q, mv)
    assert w is not None and w.scale == 1
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
    elems = form_automorphisms(q, mv.vectors)
    assert len(elems) == form_group(q, mv.vectors)[1] == 12
    rows = {g.rows for g in elems}
    for g in elems:
        assert g.inverse().rows in rows
    for g in elems[:4]:
        for h in elems[:4]:
            assert (g * h).rows in rows


def test_facet_stabilizer_diagonal_pair():
    cell = ((1, 0), (0, 1))
    assert cell_group(cell)[1] == 8
    assert cell_group(cell, det_one=True)[1] == 4
    elems = cell_stabilizer(cell)
    elems_sl = cell_stabilizer(cell, det_one=True)
    assert (len(elems), len(elems_sl)) == (8, 4)
    assert {g.rows for g in elems_sl} <= {g.rows for g in elems}


def test_facet_stabilizer_of_full_cell_is_cell_stabilizer():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    assert cell_group(mv.vectors)[1] == form_group(q, mv.vectors)[1]
    elems = cell_stabilizer(mv.vectors)
    full = form_automorphisms(q, mv.vectors)
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


@pytest.mark.parametrize("n, cones, crossings", ((4, 2, 3), (5, 3, 6)))
@pytest.mark.parametrize("group", ("gl", "sl"))
def test_one_walk_builds_and_crosses_each_domain_once(n, cones, crossings,
                                                      group, monkeypatch):
    # One double description and one stabilizer chain per class, and
    # one crossing per facet orbit; the edges come from the recorded
    # crossings, with no equivalence search against the classes.
    calls = {"build_cone": 0, "form_group": 0, "neighbor_form": 0,
             "is_equivalent": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(enumeration, name),
                    **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(enumeration, name, counted)
    graph = enumerate_perfect_forms(n, group)
    assert len(graph.nodes) == cones
    assert calls == {"build_cone": cones, "form_group": cones,
                     "neighbor_form": crossings, "is_equivalent": 0}


def test_session_caches_refuse_a_patched_pipeline(monkeypatch):
    # cached_graph and cached_complex serve the whole session, so a
    # result built while a test patches the pipeline would reach every
    # later test.
    real = enumeration.neighbor_form
    monkeypatch.setattr(enumeration, "neighbor_form",
                        lambda *args: real(*args))
    for cached in (cached_graph, cached_complex):
        with pytest.raises(RuntimeError,
                           match="vorcycle.enumeration.neighbor_form is "
                                 "patched"):
            cached(2, "sl")
    monkeypatch.undo()
    assert cached_complex(2, "sl").graph is cached_graph(2, "sl")
