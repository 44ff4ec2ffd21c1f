"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line (visible with -s or in the captured
output).  Rank 6 runs in both groups; rank 7 and above stay out of
reach of this suite by design and are documented as stretch targets in
the README.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from conftest import brute_stabilizer_2x2, cached_complex, cached_graph, \
    closure, differential_kernel, face_mask, facet_edges, greedy_basis, \
    kept_wall_frames, kept_wall_views, pair_swap_elements, random_unimodular, \
    reference_orbit_decompose, sign_pairs, top_frames, top_views

from vorcycle.complexes import (
    ambient_orientation_sign,
    apply_to_cell,
    build_codim2,
    build_complex,
)
from vorcycle.cones import (
    face_indices,
    face_vectors,
    facet_closure,
    meets_boundary,
)
from vorcycle.enumeration import (
    enumerate_perfect_forms,
    facet_edge,
    is_equivalent,
)
from vorcycle.forms import (
    GroupElement,
    QForm,
    a_n_gram,
    minimum_and_minimal_vectors,
    rank_one,
)
from vorcycle.homology import (
    dd_sanity,
    verify_gl_even_vanishing,
    verify_top_cycle,
)
from vorcycle.isometry import cell_maps, cell_stabilizer, orbit_decompose
from vorcycle.linalg import det_sign, sym_flatten
from vorcycle.tessellation import (
    FacetOrbit,
    TessInstance,
    check_rigidity,
    from_voronoi,
    sector_fan,
)

def test_criterion_1_single_class_ranks_two_three():
    start = time.monotonic()
    for n in (2, 3):
        graph = enumerate_perfect_forms(n, "sl")
        assert len(graph.nodes) == 1
        ref = QForm.from_matrix(a_n_gram(n))
        ref_mv = minimum_and_minimal_vectors(ref)
        node = graph.nodes[0]
        assert is_equivalent(ref, ref_mv, node.form, node.minvecs,
                             det_one=True) is not None
        cx = build_complex(graph)
        assert cx.kept_walls == ()
        kernel = differential_kernel(cx)
        assert len(kernel) == 1 and kernel[0] == (1,)
        report = verify_top_cycle(cx)
        assert report.ok
        assert report.canonical == (Fraction(1, node.stab_order),)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1: PASS (single class + empty wall degree, "
          f"{elapsed:.2f}s)")


def test_criterion_2_rank_two_stabilizer_sets():
    start = time.monotonic()
    cell = ((0, 1), (1, -1), (1, 0))
    gamma = GroupElement.from_matrix([[1, 0], [0, -1]])
    far = apply_to_cell(gamma, cell)
    wall = tuple(sorted(set(cell) & set(far)))
    assert wall == ((0, 1), (1, 0))

    def pm(*mats):
        out = set()
        for m in mats:
            out.add(m)
            out.add(tuple(tuple(-x for x in r) for r in m))
        return out

    orthogonal = pm(((1, 0), (0, 1)), ((1, 0), (0, -1)),
                    ((0, 1), (1, 0)), ((0, 1), (-1, 0)))
    wall_stab = {g.rows for g in cell_stabilizer(wall)}
    assert wall_stab == orthogonal and len(wall_stab) == 8
    inter = {g.rows for g in cell_stabilizer(cell)} \
        & {g.rows for g in cell_stabilizer(far)}
    assert inter == pm(((1, 0), (0, 1)), ((0, 1), (1, 0)))
    swaps = {g.rows for g in pair_swap_elements(cell, far)}
    assert swaps == pm(((1, 0), (0, -1)), ((0, 1), (-1, 0)))
    assert wall_stab == inter | swaps and not inter & swaps
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2: PASS (rank-2 stabilizer sets, {elapsed:.2f}s)")


def test_criterion_3_rank_four_pipeline():
    start = time.monotonic()
    graph = enumerate_perfect_forms(4, "sl")
    assert len(graph.nodes) == 2
    cx = build_complex(graph)
    diff = cx.differential
    orders = [cx.graph.nodes[i].stab_order for i in cx.kept_tops]
    for r in range(diff.row_count):
        entries = diff.row_entries(r)
        wall = cx.walls[cx.kept_walls[r]]
        if wall.kind == "self":
            assert entries == []
        else:
            assert len(entries) == 2
            (c1, v1), (c2, v2) = entries
            assert v1 * v2 < 0
            assert abs(v1) * wall.stab_order == orders[c1]
            assert abs(v2) * wall.stab_order == orders[c2]
    report = verify_top_cycle(cx)
    assert report.kernel_dim == 1
    assert report.canonical_in_kernel
    assert report.kernel_spanned_by_canonical
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3: PASS (rank-4 pipeline, {elapsed:.2f}s)")


def check_rank_six_facet_walks(graph):
    """Every node's facets, orbits and Schreier vector are those of the
    reference walk over its facets as index sets, and `facet_closure`
    from its representatives rebuilds them."""
    for node in graph.nodes:
        vectors, facets = node.minvecs.vectors, node.facets
        want = (list(facets), facets.orbits, facets.schreier)
        reached, orbits, schreier = reference_orbit_decompose(
            vectors, map(face_indices, facets), node.generators)
        assert (list(map(face_mask, reached)), orbits, schreier) == want
        again = facet_closure(vectors, [facets[o[0]] for o in facets.orbits],
                              node.generators)
        assert (list(again), again.orbits, again.schreier) == want


def test_criterion_4_rank_five_and_even_vanishing():
    start = time.monotonic()
    graph = enumerate_perfect_forms(5, "gl")
    assert len(graph.nodes) == 3
    # Independent oracle: a different traversal order must close on the
    # same classes.
    other = enumerate_perfect_forms(5, "gl", traversal="reversed")
    assert len(other.nodes) == 3
    for node in other.nodes:
        hits = [c for c in graph.nodes
                if is_equivalent(c.form, c.minvecs, node.form, node.minvecs)]
        assert len(hits) == 1
    cx = build_complex(graph)
    report = verify_top_cycle(cx)
    assert report.ok and report.kernel_dim == 1
    # Any kernel chain has full support with weights inverse to the
    # stabilizer orders along every edge of the walk graph.
    kernel = differential_kernel(cx)
    orders = [cx.graph.nodes[i].stab_order for i in cx.kept_tops]
    vec = kernel[0]
    assert all(x != 0 for x in vec)
    assert len({x * o for x, o in zip(vec, orders)}) == 1
    elapsed5 = time.monotonic() - start
    assert elapsed5 < 600.0
    # Ranks 4 and 6 have 2 and 7 classes (Barnes 1957; Conway and Sloane,
    # "Low-dimensional lattices III", 1988).
    classes = {4: 2, 6: 7}
    for n in (4, 6):
        gl = build_complex(enumerate_perfect_forms(n, "gl", allow_long=True))
        assert len(gl.graph.nodes) == classes[n]
        vanish = verify_gl_even_vanishing(gl)
        assert vanish.ok and vanish.kernel_dim == 0
    check_rank_six_facet_walks(gl.graph)
    # In sl no rank-6 class splits, and the kernel is the canonical
    # line: full support, weights inverse to the stabilizer orders.
    sl = build_complex(enumerate_perfect_forms(6, "sl", allow_long=True))
    assert len(sl.graph.nodes) == classes[6]
    check_rank_six_facet_walks(sl.graph)
    report = verify_top_cycle(sl)
    assert report.ok and report.kernel_dim == 1
    vec, = differential_kernel(sl)
    orders = [sl.graph.nodes[i].stab_order for i in sl.kept_tops]
    assert all(x != 0 for x in vec)
    assert len({x * o for x, o in zip(vec, orders)}) == 1
    # Rank-6 sl is the one case with kept codim-2 classes, so the only
    # one whose codim-2 incidence signs reach a verdict (d.d = 0): the
    # entries are pinned by their digest, and every sign read off a
    # class's normals equals the form-space determinant's, over a basis
    # that the reference orients of its own.
    mids, kept_mids, mid = build_codim2(sl)
    assert (len(mids), len(kept_mids), len(mid.entries)) == (49, 25, 62)
    assert hashlib.sha256(repr(mid.entries).encode()).hexdigest() == \
        "2a8dbfc83ca0bb301d4b7772e79ad9a0922b30ba168ecc74f8580f87511c07d4"
    for parents, frames, children in (
            (top_views(sl.graph), top_frames(sl.graph), sl.walls),
            (kept_wall_views(sl), kept_wall_frames(sl), mids)):
        pairs = list(sign_pairs(parents, frames, children, 6, True))
        assert len(pairs) > len(children)
        assert all(new == ref != 0 for new, ref in pairs)
    print(f"ACCEPTANCE 4: PASS (rank-5 generator {elapsed5:.1f}s, even-rank "
          "vanishing incl. rank 6, and rank-6 sl)")


def test_criterion_5_property_suites(rng):
    checked_edges = 0
    checked_walls = 0
    for n in (2, 3, 4):
        for group in ("sl", "gl"):
            graph = cached_graph(n, group)
            cx = cached_complex(n, group)
            det_one = group == "sl"
            # Opposite induced orientations across every shared wall.
            for _, node, facet, e in facet_edges(graph):
                far = apply_to_cell(
                    e.witness, graph.nodes[e.neighbor].minvecs.vectors)
                face = face_vectors(node.minvecs.vectors, facet)
                face_set = set(face)
                basis = greedy_basis(face)
                near = {det_sign(basis + [sym_flatten(rank_one(v))])
                        for v in node.minvecs.vectors if v not in face_set}
                away = {det_sign(basis + [sym_flatten(rank_one(v))])
                        for v in far if v not in face_set}
                assert len(near) == 1 and len(away) == 1 and near != away
                checked_edges += 1
            # No wall of any top cell touches the boundary cone.
            for node in graph.nodes:
                for facet in node.facets:
                    assert not meets_boundary(
                        face_vectors(node.minvecs.vectors, facet))
            # Stabilizer lemmas, every wall orbit.
            for w in cx.walls:
                node = graph.nodes[w.parent]
                neighbor, gamma = facet_edge(graph, w.parent, w.face_index)
                far_cell = apply_to_cell(
                    gamma, graph.nodes[neighbor].minvecs.vectors)
                wall_stab = {x.rows for x in closure(w.generators, n)}
                inter = {x.rows for x in closure(node.generators, n)} \
                    & {x.rows
                       for x in cell_stabilizer(far_cell, det_one=det_one)}
                _, orbits, _ = orbit_decompose(node.minvecs.vectors,
                                               node.facets,
                                               node.generators)
                if w.kind == "non_self":
                    assert wall_stab == inter
                    orbit = next(o for o in orbits if w.face_index in o)
                    assert len(orbit) * w.stab_order == node.stab_order
                else:
                    swaps = {x.rows for x in pair_swap_elements(
                        node.minvecs.vectors, far_cell, det_one=det_one)}
                    assert not inter & swaps
                    assert inter | swaps == wall_stab
                    index = len(wall_stab) // len(inter)
                    assert index in (1, 2)
                    pulled = apply_to_cell(gamma.inverse(), w.vectors)
                    same_orbit = any(apply_to_cell(s, pulled) == w.vectors
                                     for s in closure(node.generators, n))
                    assert same_orbit == (not w.orientation_kept) \
                        == (index == 2)
                    matching = [o for o in orbits
                                if cell_maps(w.vectors, face_vectors(
                                    node.minvecs.vectors, node.facets[o[0]]),
                                    det_one=det_one, first_only=True)]
                    assert len(matching) == \
                        (2 if w.orientation_kept else 1)
                checked_walls += 1
    # Orientation of the induced map on form space on random elements.
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        g = random_unimodular(n, rng)
        expected = 1 if (g.det == 1 or n % 2 == 1) else -1
        assert ambient_orientation_sign(g, n) == expected
    print(f"ACCEPTANCE 5: PASS (lemma suites: {checked_edges} edges, "
          f"{checked_walls} wall orbits, 100 random elements)")


def test_criterion_6_dd_zero_up_to_rank_four():
    for n in (2, 3, 4):
        cx = cached_complex(n, "sl")
        ok, mid = dd_sanity(cx)
        assert ok
    print("ACCEPTANCE 6: PASS (d.d = 0 exactly for ranks 2-4)")


def test_criterion_7_abstract_framework():
    for k in (2, 3, 5, 8):
        fan = sector_fan(k)
        verdict = check_rigidity(fan)
        assert verdict.ok and verdict.kernel_dim == 1
        assert list(verdict.kernel_vectors[0]) == [1] * k
        # Sign-flip mutation breaks the verdict.
        facets = list(fan.facet_orbits)
        (t1, v1), (t2, v2) = facets[0].incidences
        facets[0] = FacetOrbit(1, "non_self", ((t1, v1), (t2, -v2)))
        assert not check_rigidity(
            TessInstance(2, fan.tiles, tuple(facets))).ok
    for n in (2, 3, 4):
        cx = cached_complex(n, "sl")
        adapter = check_rigidity(from_voronoi(cx))
        direct = verify_top_cycle(cx)
        assert adapter.ok == direct.ok
        assert adapter.kernel_dim == direct.kernel_dim
        if cx.differential.row_count:
            facets = list(from_voronoi(cx).facet_orbits)
            (t1, v1), (t2, v2) = facets[0].incidences
            facets[0] = FacetOrbit(facets[0].stab_order, facets[0].kind,
                                   ((t1, v1), (t2, -v2)))
            assert not check_rigidity(TessInstance(
                from_voronoi(cx).ambient_dim, from_voronoi(cx).tiles,
                tuple(facets))).ok
    print("ACCEPTANCE 7: PASS (sector fans, adapter agreement, mutations)")


def test_criterion_8_representative_choice_invariance():
    graph = cached_graph(4, "sl")
    dims = set()
    verdicts = set()
    reps_seen = set()
    sides_seen = set()
    base = build_complex(graph, seed_perm=0)
    members = base.walls[base.kept_walls[0]].members
    # Five plain seeds, plus one seed per side of the kept wall so the
    # choice of containing cell is genuinely re-made.
    side_seeds = {}
    for idx, (parent, _) in enumerate(members):
        side_seeds.setdefault(parent, idx)
    for seed in sorted(set(range(5)) | set(side_seeds.values())):
        cx = build_complex(graph, seed_perm=seed)
        report = verify_top_cycle(cx)
        dims.add(report.kernel_dim)
        verdicts.add((report.canonical_in_kernel,
                      report.kernel_spanned_by_canonical, report.ok))
        reps_seen.add(tuple(w.vectors for w in cx.walls))
        sides_seen.add(cx.walls[cx.kept_walls[0]].parent)
    assert dims == {1}
    assert verdicts == {(True, True, True)}
    assert len(reps_seen) > 1, "seeds must actually move the representatives"
    assert len(sides_seen) == 2, "both containing cells must be exercised"
    print("ACCEPTANCE 8: PASS (kernel verdict invariant over "
          f"{5 + len(side_seeds) } representative choices, "
          "both wall sides exercised)")


def test_criterion_9_long_targets_gated():
    with pytest.raises(ValueError):
        enumerate_perfect_forms(6)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(7)
    with pytest.raises(ValueError):
        enumerate_perfect_forms(8, allow_long=True)
    print("ACCEPTANCE 9: PASS (ranks 6-7 gated behind allow_long; rank 8+ "
          "refused; rank-7 figures documented as stretch targets)")
