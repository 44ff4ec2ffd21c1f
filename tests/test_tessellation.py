import copy
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import cached_complex, dense_check_rigidity, \
    differential_kernel

import vorcycle.linalg
from vorcycle.cli import main
from vorcycle.homology import verify_gl_even_vanishing, verify_top_cycle
from vorcycle.tessellation import (
    FacetOrbit,
    IndexOutOfRange,
    InvariantViolation,
    TessInstance,
    TessVerdict,
    TileOrbit,
    _same_line,
    boundary_kernel,
    check_rigidity,
    dumps_instance,
    from_voronoi,
    loads_instance,
    sector_fan,
    weighted_boundary,
)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_sector_fan_kernel_is_all_ones(k):
    verdict = check_rigidity(sector_fan(k))
    assert verdict.ok
    assert verdict.kernel_dim == 1
    assert list(verdict.kernel_vectors[0]) == [1] * k
    assert verdict.canonical_in_kernel


def test_sector_fan_structure():
    fan = sector_fan(5)
    assert len(fan.tiles) == 5
    assert len(fan.facet_orbits) == 4
    for i, f in enumerate(fan.facet_orbits):
        assert f.incidences == ((i, Fraction(1)), (i + 1, Fraction(-1)))
    with pytest.raises(ValueError):
        sector_fan(1)


def test_corrupted_fan_fails_with_alternating_kernel():
    bad = TessInstance(
        ambient_dim=2,
        tiles=(TileOrbit(1), TileOrbit(1)),
        facet_orbits=(FacetOrbit(1, "non_self",
                                 ((0, Fraction(1)), (1, Fraction(1)))),))
    verdict = check_rigidity(bad)
    assert not verdict.ok
    assert not verdict.canonical_in_kernel
    assert tuple(verdict.kernel_vectors[0]) == (1, -1)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_mutated_fan_sign_flip_breaks_verdict(k):
    fan = sector_fan(k)
    facets = list(fan.facet_orbits)
    t, v = facets[0].incidences[1]
    facets[0] = FacetOrbit(facets[0].stab_order, facets[0].kind,
                           ((facets[0].incidences[0][0],
                             facets[0].incidences[0][1]), (t, -v)))
    mutated = TessInstance(ambient_dim=2, tiles=fan.tiles,
                           facet_orbits=tuple(facets))
    assert not check_rigidity(mutated).ok


def test_weighted_boundary_zero_and_canonical():
    fan = sector_fan(4)
    assert weighted_boundary(fan, [0, 0, 0, 0]) == [0, 0, 0]
    assert weighted_boundary(fan, [1, 1, 1, 1]) == [0, 0, 0]
    assert weighted_boundary(fan, [1, 2, 0, 0]) == [-1, 2, 0]


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=4,
                max_size=4),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=4,
                max_size=4),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=80, deadline=None)
def test_weighted_boundary_linearity(w1, w2, c):
    fan = sector_fan(4)
    lhs = weighted_boundary(fan, [a + c * b for a, b in zip(w1, w2)])
    b1 = weighted_boundary(fan, w1)
    b2 = weighted_boundary(fan, w2)
    assert lhs == [x + c * y for x, y in zip(b1, b2)]


def test_weighted_boundary_index_errors():
    fan = sector_fan(3)
    with pytest.raises(IndexOutOfRange):
        weighted_boundary(fan, [1, 1])
    with pytest.raises(IndexOutOfRange):
        weighted_boundary(fan, {5: Fraction(1)})


def test_invariant_violations():
    with pytest.raises(InvariantViolation):
        TessInstance(ambient_dim=0, tiles=(), facet_orbits=()).validate()
    with pytest.raises(InvariantViolation):
        TessInstance(ambient_dim=2, tiles=(TileOrbit(0),),
                     facet_orbits=()).validate()
    with pytest.raises(InvariantViolation):
        TessInstance(
            ambient_dim=2, tiles=(TileOrbit(1),),
            facet_orbits=(FacetOrbit(1, "weird", ()),)).validate()
    with pytest.raises(InvariantViolation):
        TessInstance(
            ambient_dim=2,
            tiles=(TileOrbit(1), TileOrbit(1), TileOrbit(1)),
            facet_orbits=(FacetOrbit(1, "non_self",
                                     ((0, Fraction(1)), (1, Fraction(1)),
                                      (2, Fraction(1)))),)).validate()
    with pytest.raises(IndexOutOfRange):
        TessInstance(
            ambient_dim=2, tiles=(TileOrbit(1),),
            facet_orbits=(FacetOrbit(1, "non_self",
                                     ((3, Fraction(1)),)),)).validate()


def test_disconnected_instance_reports_components():
    two_fans = TessInstance(
        ambient_dim=2,
        tiles=(TileOrbit(1), TileOrbit(1), TileOrbit(2), TileOrbit(2)),
        facet_orbits=(
            FacetOrbit(1, "non_self", ((0, Fraction(1)), (1, Fraction(-1)))),
            FacetOrbit(2, "non_self", ((2, Fraction(1)), (3, Fraction(-1)))),
        ))
    verdict = check_rigidity(two_fans)
    assert not verdict.connected
    assert verdict.kernel_dim == 2
    assert not verdict.ok
    assert len(verdict.per_component) == 2
    for tiles, dim, comp_ok in verdict.per_component:
        assert dim == 1 and comp_ok


def test_voronoi_adapter_structure():
    inst2 = from_voronoi(cached_complex(2, "sl"))
    assert len(inst2.tiles) == 1 and len(inst2.facet_orbits) == 0
    inst4 = from_voronoi(cached_complex(4, "sl"))
    assert len(inst4.tiles) == 2
    assert all(f.kind in ("self", "non_self") for f in inst4.facet_orbits)


def test_voronoi_adapter_agrees_with_direct_verdicts():
    for n, group in ((2, "sl"), (3, "sl"), (4, "sl")):
        cx = cached_complex(n, group)
        inst = from_voronoi(cx)
        verdict = check_rigidity(inst)
        report = verify_top_cycle(cx)
        assert verdict.ok == report.ok
        assert verdict.kernel_dim == report.kernel_dim
    cx = cached_complex(4, "gl")
    inst = from_voronoi(cx)
    verdict = check_rigidity(inst)
    report = verify_gl_even_vanishing(cx)
    assert verdict.kernel_dim == report.kernel_dim == 0


def test_voronoi_adapter_mutation_breaks_verdict():
    cx = cached_complex(4, "sl")
    inst = from_voronoi(cx)
    facets = list(inst.facet_orbits)
    (t1, v1), (t2, v2) = facets[0].incidences
    facets[0] = FacetOrbit(facets[0].stab_order, facets[0].kind,
                           ((t1, v1), (t2, -v2)))
    mutated = TessInstance(ambient_dim=inst.ambient_dim, tiles=inst.tiles,
                           facet_orbits=tuple(facets))
    assert not check_rigidity(mutated).ok


def test_instance_serialization_round_trip():
    fan = sector_fan(3)
    assert loads_instance(dumps_instance(fan)) == fan
    with pytest.raises(InvariantViolation) as err:
        loads_instance("{ nope }")
    assert "line" in str(err.value)
    with pytest.raises(InvariantViolation):
        loads_instance('{"kind": "other"}')


def pairwise_same_line(vec_a, vec_b):
    """Reference: both nonzero and every 2x2 minor zero."""
    if len(vec_a) != len(vec_b):
        return False
    for i in range(len(vec_a)):
        for j in range(len(vec_a)):
            if Fraction(vec_a[i]) * Fraction(vec_b[j]) != \
                    Fraction(vec_a[j]) * Fraction(vec_b[i]):
                return False
    return any(vec_a) and any(vec_b)


entries = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(Fraction),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


@given(st.lists(entries, max_size=6), st.lists(entries, max_size=6),
       st.one_of(st.integers(-2, 2), st.fractions(max_denominator=3)),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_same_line_matches_pairwise_minors(vec_a, other, scale, multiple):
    # Half the cases pair a vector with a multiple of itself (zero
    # included), so both verdicts occur.
    vec_b = [scale * x for x in vec_a] if multiple else other
    assert _same_line(vec_a, vec_b) == pairwise_same_line(vec_a, vec_b)
    assert _same_line(vec_b, vec_a) == pairwise_same_line(vec_b, vec_a)


nonzero = st.one_of(
    st.integers(-3, 3).filter(bool).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))


@st.composite
def two_entry_instances(draw):
    """Instances whose walls have at most two nonzero incidences: rows
    consistent with the canonical weights, random rows (so inconsistent
    cycles), self-glued zero rows, single-entry rows and rows padded
    with zero incidences, over tiles that are sometimes not kept."""
    orders = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), max_size=8))
    tiles = tuple(TileOrbit(s, draw(st.sampled_from((True, True, False))))
                  for s in orders)
    facets = []
    tile = st.integers(0, max(len(orders) - 1, 0))
    for _ in range(draw(st.integers(0, 12)) if orders else 0):
        i, j, c = draw(tile), draw(tile), draw(nonzero)
        shape = draw(st.sampled_from(
            ("canonical", "canonical", "random", "self", "single", "zero")))
        if shape == "canonical":
            inc = ((i, c * orders[i]), (j, -c * orders[j]))
        elif shape == "random":
            inc = ((i, c), (j, draw(nonzero)))
        elif shape == "self":
            inc = ((i, c), (i, -c))
        elif shape == "single":
            inc = ((i, c),)
        else:
            inc = ((i, c), (draw(tile), Fraction(0)), (j, draw(nonzero)))
        facets.append(FacetOrbit(draw(st.integers(1, 3)),
                                 draw(st.sampled_from(("self", "non_self"))),
                                 inc))
    return TessInstance(ambient_dim=2, tiles=tiles, facet_orbits=tuple(facets))


@given(two_entry_instances())
@settings(max_examples=200, deadline=None)
def test_walk_verdict_matches_dense_elimination(inst):
    verdict = check_rigidity(inst)
    assert verdict == dense_check_rigidity(inst)
    assert boundary_kernel(inst)[1] == list(verdict.kernel_vectors)


@pytest.mark.parametrize("n, group", [(2, "sl"), (2, "gl"), (3, "sl"),
                                      (3, "gl"), (4, "sl"), (4, "gl")])
def test_walk_verdict_matches_dense_elimination_on_voronoi(n, group):
    cx = cached_complex(n, group)
    inst = from_voronoi(cx)
    assert check_rigidity(inst) == dense_check_rigidity(inst)
    assert boundary_kernel(inst)[1] == differential_kernel(cx)


def test_tess_check_and_verdicts_make_no_dense_elimination(
        monkeypatch, tmp_path, capsys):
    complexes = [cached_complex(4, "sl"), cached_complex(4, "gl")]
    calls = []
    original = vorcycle.linalg.kernel_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("vorcycle") and \
                getattr(module, "kernel_basis", None) is original:
            monkeypatch.setattr(module, "kernel_basis", counting)
    path = tmp_path / "fan.json"
    path.write_text(dumps_instance(sector_fan(5)))
    assert main(["tess", "check", str(path)]) == 0
    assert verify_top_cycle(complexes[0]).ok
    assert verify_gl_even_vanishing(complexes[1]).ok
    assert calls == []
    vorcycle.linalg.kernel_basis([[1, -1]])
    assert len(calls) == 1


def tessgen_documents():
    """Documents shaped like the benchmark's generated instances:
    string stabilizer orders, tile indices as integers, incidence values
    as strings."""
    orders = st.lists(st.sampled_from((1, 2, 4, 6)), min_size=1, max_size=5)

    def document(stabs):
        tile = st.integers(0, len(stabs) - 1)
        wall = st.tuples(st.sampled_from(("1", "2")),
                         st.sampled_from(("self", "non_self")),
                         st.lists(st.tuples(tile, st.sampled_from(
                             ("1", "-1", "2", "-3/2", "0"))), max_size=2))
        return st.lists(wall, max_size=5).map(lambda walls: {
            "kind": "tess-instance",
            "ambient_dim": 2,
            "tiles": [{"stab_order": str(s), "orientation_kept": True,
                       "label": f"t{i}"} for i, s in enumerate(stabs)],
            "facet_orbits": [
                {"stab_order": order, "kind": kind,
                 "incidences": [[t, v] for t, v in inc], "label": f"w{i}"}
                for i, (order, kind, inc) in enumerate(walls)]})
    return orders.flatmap(document)


def _slots(node, out):
    """Every (container, key) inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


WRONG_VALUES = (None, True, False, 0, -1, 1.5, "x", "1/0", "false", "",
                [], {}, [1], {"a": 1}, 10 ** 30, "-0", [0, "1", 2])


@given(tessgen_documents(), st.data())
@settings(max_examples=300, deadline=None)
def test_loads_instance_fuzz(doc, data):
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        node, key = data.draw(st.sampled_from(slots))
        if data.draw(st.booleans()):
            del node[key]
        else:
            # A copy: a later draw may edit inside the inserted value.
            node[key] = copy.deepcopy(
                data.draw(st.sampled_from(WRONG_VALUES)))
    try:
        inst = loads_instance(json.dumps(doc))
    except InvariantViolation:
        return
    assert isinstance(check_rigidity(inst), TessVerdict)


def test_loads_instance_unreadable_json():
    for text in ("[" * 100000, '{"ambient_dim": ' + "9" * 5000 + "}"):
        with pytest.raises(InvariantViolation):
            loads_instance(text)
