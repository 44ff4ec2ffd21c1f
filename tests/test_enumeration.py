import pytest

from conftest import (
    act,
    act_form,
    cached_complex,
    cached_graph,
    closure,
    face_mask,
    facet_edges,
    random_unimodular,
    run_python,
)

from vorcycle import enumeration
from vorcycle.cones import build_cone, face_vectors, facet_normal
from vorcycle.enumeration import (
    BoundaryFacet,
    enumerate_perfect_forms,
    is_equivalent,
    neighbor_form,
)
from vorcycle.forms import (
    GroupElement,
    QForm,
    a_n_gram,
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
    # domains (the same facets, each group numbering them by its own
    # orbits); each sl stabilizer is the determinant-one half.
    for n in (2, 3, 4, 5):
        sl, gl = cached_graph(n, "sl"), cached_graph(n, "gl")
        assert [(node.form, node.label, len(node.facets),
                 frozenset(node.facets)) for node in sl.nodes] == \
            [(node.form, node.label, len(node.facets),
              frozenset(node.facets)) for node in gl.nodes]
        for node_sl, node_gl in zip(sl.nodes, gl.nodes):
            assert node_sl.stab_order == node_gl.stab_order // 2
            assert all(g.det == 1 for g in closure(node_sl.generators, n))


@pytest.mark.parametrize("n", (2, 3, 4))
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
    edges = list(facet_edges(graph_sl4))
    assert len(edges) == sum(len(node.facets) for node in graph_sl4.nodes)
    for _, _, _, edge in edges:
        assert 0 <= edge.neighbor < len(graph_sl4.nodes)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("group", ("gl", "sl"))
def test_edges_intersect_exactly_in_facet(n, group):
    # The walk runs in the chosen group, so every sl witness has
    # determinant 1.
    graph = cached_graph(n, group)
    for _, node, facet, e in facet_edges(graph):
        other = graph.nodes[e.neighbor]
        moved = set(apply_to_cell(e.witness, other.minvecs.vectors))
        shared = set(node.minvecs.vectors) & moved
        assert shared == set(face_vectors(node.minvecs.vectors, facet))
        assert e.witness.det == 1 or group == "gl"


def test_neighbor_of_hexagonal_is_equivalent_hexagonal():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    for facet in build_cone(mv.vectors):
        nb = neighbor_form(q, mv, facet)
        nb_mv = minimum_and_minimal_vectors(nb)
        assert is_perfect(nb, nb_mv)
        assert is_equivalent(q, mv, nb, nb_mv) is not None


def test_neighbor_certificates(graph_sl4):
    node = graph_sl4.nodes[0]
    facet = node.facets[0]
    nb = neighbor_form(node.form, node.minvecs, facet)
    nb_mv = minimum_and_minimal_vectors(nb)
    face = set(face_vectors(node.minvecs.vectors, facet))
    assert face <= set(nb_mv.vectors)
    assert set(nb_mv.vectors) - face
    assert is_perfect(nb, nb_mv)


def test_neighbor_rejects_boundary_face():
    q = QForm.from_matrix(HEXAGONAL)
    mv = minimum_and_minimal_vectors(q)
    with pytest.raises(BoundaryFacet):
        neighbor_form(q, mv, 0b1)


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
    # The incident vectors are the minimal vectors on which N vanishes,
    # and N is the normal recovered from them.
    facet = face_mask(i for i, val in enumerate(values) if val == 0)
    assert facet_normal(mv.vectors, facet) == D6_NORMAL
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
    face = set(face_vectors(mv.vectors, facet))
    assert face <= set(nb_mv.vectors)
    assert set(nb_mv.vectors) - face
    assert is_perfect(nb, nb_mv)


def test_is_equivalent_witness_forms(rng):
    q = QForm.from_matrix(a_n_gram(3))
    mv = minimum_and_minimal_vectors(q)
    w = is_equivalent(q, mv, q, mv)
    assert w is not None
    for _ in range(5):
        u = random_unimodular(3, rng)
        img = act_form(u, q)
        img_mv = minimum_and_minimal_vectors(img)
        w = is_equivalent(q, mv, img, img_mv)
        assert w is not None
        assert act(w, q.gram) == img.gram


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
    with pytest.raises(ValueError, match="rank must be at least 2"):
        enumerate_perfect_forms(1)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(8)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(6)  # needs allow_long


def test_graph_connected(graph_sl4):
    seen = {0}
    frontier = [0]
    while frontier:
        for e in graph_sl4.edges[frontier.pop()]:
            if e.neighbor not in seen:
                seen.add(e.neighbor)
                frontier.append(e.neighbor)
    assert seen == set(range(len(graph_sl4.nodes)))


# Two copies of the rank-2 class with no edge between them.
_DISCONNECTED = """
from vorcycle.enumeration import (
    VoronoiGraph, _check_connected, enumerate_perfect_forms)
node, = enumerate_perfect_forms(2, "sl").nodes
try:
    _check_connected(VoronoiGraph(n=2, group_kind="sl", nodes=(node, node),
                                  edges=((), ())))
except RuntimeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_disconnected_walk_graph_is_refused(optimize):
    # The check is no assert: under -O a disconnected graph is refused
    # too.
    result = run_python("-c", _DISCONNECTED, optimize=optimize)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "walk graph is disconnected\n"


# Every match of a neighbour to its class skewed by a shear, so the
# crossing at the first facet orbit's representative carries the
# neighbour to the wrong side of the facet.
_SKEWED_MATCH = """
from vorcycle import enumeration
from vorcycle.forms import GroupElement
real = enumeration.form_maps
shear = GroupElement.from_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
enumeration.form_maps = lambda *args, **kwargs: [
    shear * g for g in real(*args, **kwargs)]
try:
    enumeration.enumerate_perfect_forms(3, "sl")
except RuntimeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_walk_refuses_an_edge_that_does_not_glue(optimize):
    # The gluing test is no assert: under -O the walk refuses the skewed
    # edge too.
    result = run_python("-c", _SKEWED_MATCH, optimize=optimize)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("the crossing at facet 0 of node 0 does not "
                             "glue it\n")


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


def test_the_walk_moves_no_edge_along_an_orbit(monkeypatch):
    # One edge per facet orbit: the walk multiplies no transporter out
    # and maps no member facet.  When it stored an edge per facet, the
    # rank-5 gl walk made 901 products and 7,800 `apply` calls.
    counts = {"__mul__": 0, "apply": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(GroupElement, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(GroupElement, name, counted)
    graph = enumerate_perfect_forms(5, "gl")
    assert [len(row) for row in graph.edges] == \
        [len(node.facets.orbits) for node in graph.nodes] == [1, 4, 1]
    assert counts["__mul__"] < 100 and counts["apply"] < 2000


# The crossing's certificate that the form it reaches is perfect, made
# to fail: the walk raises, and the CLI reports a crash (exit 4), never
# a verdict.
_NOT_PERFECT = """
import sys, tempfile
from vorcycle import cli, enumeration
enumeration.is_perfect = lambda *args: False
sys.exit(cli.main(["verify", "--n", "3", "--group", "sl",
                   "--cache-dir", tempfile.mkdtemp()]))
"""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_a_crossing_that_fails_its_certificate_exits_four(optimize):
    # The certificates of neighbor_form are no asserts: under -O the
    # crossing raises too.
    result = run_python("-c", _NOT_PERFECT, optimize=optimize)
    assert result.returncode == 4, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == (
        "error: unexpected RuntimeError: the form across the facet is not "
        "a perfect neighbour that keeps the facet\n")


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
