import contextlib
import json

import pytest

from conftest import cached_complex, cached_graph

from vorcycle.homology import verify_top_cycle
from vorcycle.persistence import (
    CacheCorrupt,
    cache_path,
    complex_from_payload,
    complex_to_payload,
    content_hash,
    graph_from_payload,
    graph_to_payload,
    load_payload,
    save_payload,
)
from vorcycle.tessellation import TessInstance, sector_fan


def test_graph_round_trip(tmp_path):
    graph = cached_graph(3, "sl")
    payload = graph_to_payload(graph)
    path = save_payload(str(tmp_path / "g.json"), "graph", 3, "sl", payload)
    loaded = graph_from_payload(load_payload(path, "graph", 3, "sl"))
    assert loaded.n == graph.n
    assert loaded.group_kind == graph.group_kind
    assert len(loaded.nodes) == len(graph.nodes)
    for a, b in zip(loaded.nodes, graph.nodes):
        assert a.form.gram == b.form.gram
        assert a.minvecs == b.minvecs
        assert a.stab_order == b.stab_order
        assert a.generators == b.generators
        assert {f.incident for f in a.domain.facets} == \
            {f.incident for f in b.domain.facets}
    assert loaded.edges == graph.edges


def test_complex_round_trip(tmp_path):
    cx = cached_complex(2, "sl")
    payload = complex_to_payload(cx)
    path = save_payload(str(tmp_path / "c.json"), "complex", 2, "sl", payload)
    loaded = complex_from_payload(load_payload(path, "complex", 2, "sl"))
    assert loaded.kept_tops == cx.kept_tops
    assert loaded.kept_walls == cx.kept_walls
    assert loaded.walls == cx.walls
    assert loaded.differential == cx.differential
    assert verify_top_cycle(loaded).ok


def test_verdict_round_trip(tmp_path):
    report = verify_top_cycle(cached_complex(2, "sl")).to_payload()
    path = save_payload(str(tmp_path / "v.json"), "verdict", 2, "sl", report)
    assert load_payload(path, "verdict", 2, "sl") == report


def test_tess_round_trip(tmp_path):
    inst = sector_fan(4).to_payload()
    path = save_payload(str(tmp_path / "t.json"), "tess-instance", 0, "-",
                        inst)
    assert TessInstance.from_payload(
        load_payload(path, "tess-instance")) == sector_fan(4)


def test_save_is_deterministic(tmp_path):
    payload = graph_to_payload(cached_graph(2, "sl"))
    p1 = save_payload(str(tmp_path / "a.json"), "graph", 2, "sl", payload)
    p2 = save_payload(str(tmp_path / "b.json"), "graph", 2, "sl", payload)
    assert open(p1).read() == open(p2).read()


def test_integers_serialized_as_strings():
    payload = graph_to_payload(cached_graph(2, "sl"))
    gram = payload["nodes"][0]["gram"]
    assert all(isinstance(x, str) for row in gram for x in row)


def test_hash_corruption_detected(tmp_path):
    payload = graph_to_payload(cached_graph(2, "sl"))
    path = save_payload(str(tmp_path / "g.json"), "graph", 2, "sl", payload)
    doc = json.load(open(path))
    doc["payload"]["n"] = 5
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CacheCorrupt):
        load_payload(path, "graph", 2, "sl")


def test_schema_version_checked(tmp_path):
    payload = {"x": 1}
    path = save_payload(str(tmp_path / "g.json"), "verdict", 2, "sl", payload)
    doc = json.load(open(path))
    doc["schema_version"] = 99
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CacheCorrupt):
        load_payload(path)


def test_kind_and_params_checked(tmp_path):
    path = save_payload(str(tmp_path / "g.json"), "verdict", 2, "sl",
                        {"x": 1})
    with pytest.raises(CacheCorrupt):
        load_payload(path, "graph")
    with pytest.raises(CacheCorrupt):
        load_payload(path, "verdict", 3)
    with pytest.raises(CacheCorrupt):
        load_payload(path, "verdict", 2, "gl")


def test_content_hash_canonical():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_cache_path_layout(tmp_path):
    assert cache_path("/c", "graph", 4, "sl") == "/c/graph-n4-sl.json"
    assert cache_path("/c", "complex", 4, "sl", 3) == \
        "/c/complex-n4-sl-p3.json"


def _paths(obj, path=()):
    """Every (path, value) below `obj`, keys and list positions alike."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


@contextlib.contextmanager
def _mutated(payload, path, new=None, delete=False):
    """The payload with one field replaced (or a key deleted), restored
    afterwards."""
    target = payload
    for key in path[:-1]:
        target = target[key]
    old = target[path[-1]]
    if delete:
        del target[path[-1]]
    else:
        target[path[-1]] = new
    try:
        yield payload
    finally:
        target[path[-1]] = old


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_every_missing_field_is_cache_corrupt(n, group):
    payload = complex_to_payload(cached_complex(n, group))
    keys = [p for p, _ in _paths(payload) if isinstance(p[-1], str)]
    assert len(keys) > 50
    for path in keys:
        with _mutated(payload, path, delete=True) as bad, \
                pytest.raises(CacheCorrupt, match="c.json: payload"):
            complex_from_payload(bad, "c.json")


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_mistyped_fields_never_crash(n, group):
    # A replaced value may happen to be valid (a label "x"); anything
    # else must surface as CacheCorrupt, never as another exception.
    payload = complex_to_payload(cached_complex(n, group))
    rejected = 0
    for path, _ in list(_paths(payload)):
        for new in ({}, "x", -1, None):
            with _mutated(payload, path, new) as bad:
                try:
                    complex_from_payload(bad, "c.json")
                except CacheCorrupt as exc:
                    assert str(exc).startswith("c.json: payload")
                    rejected += 1
    assert rejected > 300


def test_missing_field_message_names_the_field():
    payload = complex_to_payload(cached_complex(2, "sl"))
    del payload["tops"][0]["label"]
    with pytest.raises(CacheCorrupt) as exc:
        complex_from_payload(payload, "complex-n2-sl.json")
    assert str(exc.value) == \
        "complex-n2-sl.json: payload.tops[0].label is missing"


SHEAR = [["1", "1"], ["0", "1"]]


@pytest.mark.parametrize("where, new, problem", (
    (("graph", "nodes", 0, "generators", 0), SHEAR,
     "does not fix the Gram matrix"),
    (("tops", 0, "generators", 0), SHEAR, "does not fix the cell"),
    (("walls", 0, "generators", 0), SHEAR, "does not fix the cell"),
    (("walls", 0, "generators", 0), [["2", "0"], ["0", "1"]],
     "is not unimodular"),
    (("walls", 0, "generators", 0), [["0", "1"], ["1", "0"]],
     "has determinant -1"),
    (("kept_tops", 0), 1, "is not a list of indices"),
    (("graph", "edges", 0, "neighbor"), 1, "is out of range"),
    (("graph", "nodes", 0, "min_vectors", 0), ["0", "0"],
     "is not a sorted list of canonical vector pairs"),
    (("walls", 0, "vectors", 0), ["-1", "0"],
     "is not a sorted list of canonical vector pairs"),
    (("graph", "edges", 0, "facet"), 999, "is out of range"),
    (("walls", 0, "basis", 1), ["0", "0", "1"],
     "is not a basis of the cell's span"),
))
def test_generator_certificates_and_ranges(where, new, problem):
    payload = complex_to_payload(cached_complex(2, "sl"))
    with _mutated(payload, where, new) as bad, \
            pytest.raises(CacheCorrupt, match=problem) as exc:
        complex_from_payload(bad, "c.json")
    assert "payload." in str(exc.value)


@pytest.mark.parametrize("n, group", ((2, "sl"), (4, "gl")))
def test_one_edge_per_node_facet(n, group):
    payload = graph_to_payload(cached_graph(n, group))
    edges = payload["edges"]
    assert len(edges) == sum(len(node["facets"])
                             for node in payload["nodes"])
    first = edges[0]
    twin = next(e for e in edges[1:] if e["node"] == first["node"])
    with _mutated(payload, ("edges", edges.index(twin), "facet"),
                  first["facet"]) as bad, \
            pytest.raises(CacheCorrupt, match=r"payload\.edges\[\d+\] "
                                              r"repeats the edge at node"):
        graph_from_payload(bad, "g.json")
    payload["edges"] = edges[1:]
    with pytest.raises(CacheCorrupt, match=r"payload\.edges does not have "
                                           r"one edge per node facet"):
        graph_from_payload(payload, "g.json")


def test_stale_schema_version_names_the_remedy(tmp_path):
    payload = graph_to_payload(cached_graph(2, "sl"))
    path = save_payload(str(tmp_path / "g.json"), "graph", 2, "sl", payload)
    doc = json.load(open(path))
    assert doc["schema_version"] == 3
    doc["schema_version"] = 2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CacheCorrupt, match="delete it or use a fresh "
                                           "--cache-dir"):
        load_payload(path, "graph", 2, "sl")


def test_verdict_files_keep_schema_one(tmp_path):
    path = save_payload(str(tmp_path / "v.json"), "verdict", 2, "sl",
                        {"x": 1})
    assert json.load(open(path))["schema_version"] == 1
