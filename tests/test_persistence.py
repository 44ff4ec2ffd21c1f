import contextlib
import copy
import json

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import cached_complex, cached_graph, content_hash

from vorcycle.homology import verify_top_cycle
from vorcycle.persistence import (
    CacheCorrupt,
    cache_path,
    canonical_dumps,
    complex_from_payload,
    complex_to_payload,
    graph_from_payload,
    graph_reference,
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


def _graph_hash(cx):
    return content_hash(graph_to_payload(cx.graph))


def _save_and_load(tmp_path, cx):
    """Write the graph and complex files of `cx` and load them back: the
    complex over the graph file whose header hash its payload names."""
    n, group = cx.n, cx.group_kind
    g_path = save_payload(str(tmp_path / "g.json"), "graph", n, group,
                          graph_to_payload(cx.graph))
    c_path = save_payload(str(tmp_path / "c.json"), "complex", n, group,
                          complex_to_payload(cx, _graph_hash(cx)))
    payload = load_payload(c_path, "complex", n, group)
    graph = graph_from_payload(load_payload(
        g_path, "graph", n, group, graph_reference(payload, c_path)), g_path)
    return complex_from_payload(payload, graph, c_path)


def test_complex_round_trip(tmp_path):
    cx = cached_complex(2, "sl")
    loaded = _save_and_load(tmp_path, cx)
    assert loaded.kept_tops == cx.kept_tops
    assert loaded.kept_walls == cx.kept_walls
    assert loaded.walls == cx.walls
    assert loaded.differential == cx.differential
    assert verify_top_cycle(loaded).ok


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("group", ("sl", "gl"))
def test_complex_round_trip_is_exact(tmp_path, n, group):
    # Members are stored as [parent, face]; the vectors derived from the
    # graph on load must be the ones the build held.
    cx = cached_complex(n, group)
    assert _save_and_load(tmp_path, cx) == cx


def test_complex_payload_refers_to_the_graph_file(tmp_path):
    cx = cached_complex(3, "gl")
    payload = complex_to_payload(cx, _graph_hash(cx))
    assert set(payload) == {"seed_perm", "graph", "tops", "walls",
                            "kept_tops", "kept_walls", "differential"}
    g_path = save_payload(str(tmp_path / "g.json"), "graph", 3, "gl",
                          graph_to_payload(cx.graph))
    c_path = save_payload(str(tmp_path / "c.json"), "complex", 3, "gl",
                          payload)
    assert json.load(open(g_path))["hash"] == payload["graph"]
    assert json.load(open(c_path))["schema_version"] == 5
    assert load_payload(g_path, "graph", 3, "gl", payload["graph"])
    with pytest.raises(CacheCorrupt, match="g.json: expected hash '0+'"):
        load_payload(g_path, "graph", 3, "gl", "0" * 64)


def test_file_is_the_canonical_encoding(tmp_path):
    payload = graph_to_payload(cached_graph(3, "gl"))
    path = save_payload(str(tmp_path / "g.json"), "graph", 3, "gl", payload)
    text = open(path).read()
    doc = json.loads(text)
    assert text == canonical_dumps(doc) + "\n"
    assert doc["hash"] == content_hash(payload)


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


def test_integers_serialized_as_json_integers():
    payload = graph_to_payload(cached_graph(2, "sl"))
    gram = payload["nodes"][0]["gram"]
    assert all(type(x) is int for row in gram for x in row)
    # Verdict payloads keep the decimal strings of their reports.
    report = verify_top_cycle(cached_complex(2, "sl")).to_payload()
    assert all(type(v) is str for v in report["details"].values())


@pytest.mark.parametrize("key, value", (("n", 4), ("group", "gl")))
def test_payload_rank_and_group_are_the_headers(tmp_path, key, value):
    payload = graph_to_payload(cached_graph(3, "sl"))
    header = {"n": 3, "group": "sl", key: value}
    path = save_payload(str(tmp_path / "g.json"), "graph", header["n"],
                        header["group"], payload)
    with pytest.raises(CacheCorrupt, match=rf"g.json: payload\.{key} is "
                                           rf"not {value!r}"):
        load_payload(path)


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


json_keys = st.text(max_size=4) | st.sampled_from(("", "\"", "\\", "\n",
                                                    "\u00e9", "\U0001f600"))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.integers(min_value=-10 ** 40, max_value=10 ** 40) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.lists(st.dictionaries(json_keys, inner, max_size=3), max_size=3),
    max_leaves=24)


@given(json_values)
@example({"\u00e9\n": [{"b": 10 ** 30, "a": None}, 1, True, [], {}],
          "": {}, "z": [[{"k": []}]], "a": [{}, {"x": [{"y": False}]}]})
@settings(max_examples=300, deadline=None)
def test_canonical_dumps_is_json_dumps(value):
    # canonical_dumps assembles lists of objects, and objects holding
    # them, itself; the bytes must be json's own.
    assert canonical_dumps(value) == \
        json.dumps(value, sort_keys=True, separators=(",", ":"))


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


def _decoders(n, group):
    """(payload, decode) for the graph and the complex payload of
    (n, group): every field of the two files."""
    cx = cached_complex(n, group)
    return ((graph_to_payload(cx.graph),
             lambda p: graph_from_payload(p, "c.json")),
            (complex_to_payload(cx, _graph_hash(cx)),
             lambda p: complex_from_payload(p, cx.graph, "c.json")))


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_every_missing_field_is_cache_corrupt(n, group):
    count = 0
    for payload, decode in _decoders(n, group):
        keys = [p for p, _ in _paths(payload) if isinstance(p[-1], str)]
        count += len(keys)
        for path in keys:
            with _mutated(payload, path, delete=True) as bad, \
                    pytest.raises(CacheCorrupt, match="c.json: payload"):
                decode(bad)
    assert count > 50


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_mistyped_fields_never_crash(n, group):
    # A replaced value may happen to be valid (a label "x"); anything
    # else must surface as CacheCorrupt, never as another exception.
    rejected = 0
    for payload, decode in _decoders(n, group):
        for path, _ in list(_paths(payload)):
            for new in ({}, "x", -1, None):
                with _mutated(payload, path, new) as bad:
                    try:
                        decode(bad)
                    except CacheCorrupt as exc:
                        assert str(exc).startswith("c.json: payload")
                        rejected += 1
    assert rejected > 300


def test_missing_field_message_names_the_field():
    cx = cached_complex(2, "sl")
    payload = complex_to_payload(cx, _graph_hash(cx))
    del payload["tops"][0]["label"]
    with pytest.raises(CacheCorrupt) as exc:
        complex_from_payload(payload, cx.graph, "complex-n2-sl.json")
    assert str(exc.value) == \
        "complex-n2-sl.json: payload.tops[0].label is missing"


SHEAR = [[1, 1], [0, 1]]


@pytest.mark.parametrize("where, new, problem", (
    (("graph", "nodes", 0, "generators", 0), SHEAR,
     "does not fix the Gram matrix"),
    (("tops", 0, "generators", 0), SHEAR, "does not fix the cell"),
    (("walls", 0, "generators", 0), SHEAR, "does not fix the cell"),
    (("walls", 0, "generators", 0), [[2, 0], [0, 1]],
     "is not unimodular"),
    (("walls", 0, "generators", 0), [[0, 1], [1, 0]],
     "has determinant -1"),
    (("kept_tops", 0), 1, "is not a list of indices"),
    (("graph", "edges", 0, "neighbor"), 1, "is out of range"),
    (("graph", "nodes", 0, "min_vectors", 0), [0, 0],
     "is not a sorted list of canonical vector pairs"),
    (("walls", 0, "vectors", 0), [-1, 0],
     "is not a sorted list of canonical vector pairs"),
    (("graph", "edges", 0, "facet"), 999, "is out of range"),
    (("walls", 0, "basis", 1), [0, 0, 1],
     "is not a basis of the cell's span"),
    (("walls", 0, "witness", "g"), [[7, 7], [7, 7]],
     "witness is not the graph edge at node 0, facet 0"),
    (("walls", 0, "witness", "neighbor"), 1, "witness is not the graph edge"),
    (("walls", 0, "witness"), None, "witness is not the graph edge"),
    (("walls", 0, "face_index"), 1,
     "witness is not the graph edge at node 0, facet 1"),
    (("walls", 0, "kind"), "non_self",
     "kind does not match the wall's neighbor"),
    (("walls", 0, "parent"), 1, "parent is out of range"),
    (("walls", 0, "face_index"), 3, "face_index is out of range"),
    (("graph", "edges", 0, "witness"), [[0, 1], [1, 0]],
     "witness has determinant -1"),
    (("walls", 0, "members", 0, 0), 3, "has a parent out of range 0..0"),
    (("walls", 0, "members", 0, 1), 3, "has a face out of range 0..2"),
    (("tops", 0, "members", 0, 1), 0, "has a face other than -1 on a top"),
    (("walls", 0, "members", 0, 1), -1, "has a face out of range 0..2"),
    (("walls", 0, "members", 0, 0), True,
     r"is not a \[parent, face\] pair"),
    (("walls", 0, "members", 0), [0, 0, 0],
     r"is not a \[parent, face\] pair"),
    (("graph", "nodes", 0, "gram", 0, 0), "2",
     "gram is not a list of 2 integers per row"),
    (("graph", "nodes", 0, "min_value"), "2", "min_value has the wrong type"),
))
def test_generator_certificates_and_ranges(where, new, problem):
    # A ("graph", ...) field lies in the graph payload.
    (graph_payload, graph_decode), (payload, decode) = _decoders(2, "sl")
    if where[0] == "graph":
        payload, decode, where = graph_payload, graph_decode, where[1:]
    with _mutated(payload, where, new) as bad, \
            pytest.raises(CacheCorrupt, match=problem) as exc:
        decode(bad)
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
    assert doc["schema_version"] == 4
    doc["schema_version"] = 3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(CacheCorrupt, match="delete it or use a fresh "
                                           "--cache-dir"):
        load_payload(path, "graph", 2, "sl")


def test_verdict_files_are_version_two(tmp_path):
    path = save_payload(str(tmp_path / "v.json"), "verdict", 2, "sl",
                        {"x": 1})
    assert json.load(open(path))["schema_version"] == 2


def _slots(node, out):
    """Every (container, key) inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else \
        range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


WRONG_VALUES = (None, True, False, 0, -1, 1.5, "x", "1", "", [], {}, [1],
                [0, -1], {"a": 1}, 10 ** 30, [[1, 0], [0, 1]])


@pytest.fixture(scope="module")
def cache_texts(tmp_path_factory):
    """The texts of the rank-3 gl graph and complex files."""
    cx = cached_complex(3, "gl")
    path = tmp_path_factory.mktemp("fuzz")
    save_payload(str(path / "graph.json"), "graph", 3, "gl",
                 graph_to_payload(cx.graph))
    save_payload(str(path / "complex.json"), "complex", 3, "gl",
                 complex_to_payload(cx, _graph_hash(cx)))
    return {name: (path / name).read_text()
            for name in ("graph.json", "complex.json")}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_load_payload_fuzz(cache_texts, tmp_path_factory, data):
    # Drop keys, swap value types (re-hashed or not) and truncate the
    # text of the graph or the complex file: loading and decoding the
    # complex over the graph it refers to either succeeds or raises
    # CacheCorrupt naming one of the two files.
    where = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(where / name) for name in cache_texts}
    name = data.draw(st.sampled_from(sorted(cache_texts)))
    doc = json.loads(cache_texts[name])
    for _ in range(data.draw(st.integers(0, 3))):
        node, key = data.draw(st.sampled_from(_slots(doc, [])))
        if data.draw(st.booleans()):
            del node[key]
        else:
            # A copy: a later draw may edit inside the inserted value.
            node[key] = copy.deepcopy(
                data.draw(st.sampled_from(WRONG_VALUES)))
    if "payload" in doc and data.draw(st.booleans()):
        doc["hash"] = content_hash(doc["payload"])
    text = canonical_dumps(doc) + "\n"
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    for other, other_text in cache_texts.items():
        with open(paths[other], "w") as fh:
            fh.write(text if other == name else other_text)
    try:
        payload = load_payload(paths["complex.json"], "complex", 3, "gl")
        digest = graph_reference(payload, paths["complex.json"])
        graph = graph_from_payload(load_payload(
            paths["graph.json"], "graph", 3, "gl", digest),
            paths["graph.json"])
        complex_from_payload(payload, graph, paths["complex.json"])
    except CacheCorrupt as exc:
        assert str(exc).startswith(tuple(paths.values()))
