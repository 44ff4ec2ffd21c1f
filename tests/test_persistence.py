import contextlib
import copy
import json

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import (
    cached_complex,
    cached_graph,
    content_hash,
    facet_edges,
    wall_facet,
)

from vorcycle.homology import verify_top_cycle
from vorcycle.persistence import (
    COMPLEX_FIELDS,
    GRAPH_FIELDS,
    NODE_FIELDS,
    ORBIT_FIELDS,
    CacheCorrupt,
    cache_path,
    canonical_dumps,
    complex_from_payload,
    complex_to_payload,
    graph_from_payload,
    graph_to_payload,
    load_payload,
    save_payload,
)


def test_graph_round_trip(tmp_path):
    # A node is stored without its stabilizer or its facets other than
    # one per orbit: the generators and order that form_group derives on
    # load must be the ones the walk found, and so must the facets.
    # The graph has no seed permutation; test_complex_round_trip_is_exact
    # loads the complexes of seeds 0 and 3 over it.
    for n in (2, 3, 4, 5):
        for group in ("gl", "sl"):
            graph = cached_graph(n, group)
            path = save_payload(str(tmp_path / f"g-{n}-{group}.json"),
                                "graph", n, group, graph_to_payload(graph))
            loaded = graph_from_payload(load_payload(path, "graph", n,
                                                     group))
            assert [(a.generators, a.stab_order) for a in loaded.nodes] == \
                [(b.generators, b.stab_order) for b in graph.nodes]
            assert loaded == graph
            # The facets regenerated from one record per orbit, with
            # their orbits and Schreier vectors, are the walk's.
            assert [(a.facets.orbits, a.facets.schreier)
                    for a in loaded.nodes] == \
                [(b.facets.orbits, b.facets.schreier) for b in graph.nodes]


def _save_and_load(tmp_path, cx):
    """Write the graph and complex files of `cx` and load them back: the
    complex of its seed permutation over the graph file, checked against
    the complex file."""
    n, group = cx.n, cx.group_kind
    g_path = save_payload(str(tmp_path / "g.json"), "graph", n, group,
                          graph_to_payload(cx.graph))
    c_path = save_payload(str(tmp_path / "c.json"), "complex", n, group,
                          complex_to_payload(cx))
    graph = graph_from_payload(load_payload(g_path, "graph", n, group),
                               g_path)
    return complex_from_payload(load_payload(c_path, "complex", n, group),
                                graph, cx.seed_perm, c_path)


def test_complex_round_trip(tmp_path):
    cx = cached_complex(2, "sl")
    loaded = _save_and_load(tmp_path, cx)
    assert loaded.kept_tops == cx.kept_tops
    assert loaded.kept_walls == cx.kept_walls
    assert loaded.walls == cx.walls
    assert loaded.differential == cx.differential
    assert verify_top_cycle(loaded).ok


# The ids end in -p3 for seed permutation 3, as its cache file names do.
@pytest.mark.parametrize("n, group, seed_perm", [
    pytest.param(n, group, seed,
                 id=f"{group}-{n}" + (f"-p{seed}" if seed else ""))
    for seed in (0, 3) for group in ("gl", "sl") for n in (2, 3, 4, 5)])
def test_complex_round_trip_is_exact(tmp_path, n, group, seed_perm):
    # A wall is stored as its [parent, face] members; its representative,
    # vectors, stabilizer, oriented basis, kept flag, kind and label,
    # and the kept lists, derived on load, must be the ones the build
    # held.  Seed permutation 3 picks other wall representatives.
    cx = cached_complex(n, group, seed_perm)
    assert _save_and_load(tmp_path, cx) == cx


def test_payload_fields_and_schema_versions(tmp_path):
    # A complex file's rank, group and seed permutation are those of its
    # name, and a node's label is derived from its form: neither file
    # stores them, and the complex file names no graph file.
    cx = cached_complex(3, "gl")
    payload = complex_to_payload(cx)
    assert set(payload) == {"walls", "triplets"}
    for wall in payload["walls"]:
        assert set(wall) == {"members"}
    graph_payload = graph_to_payload(cx.graph)
    assert set(graph_payload) == {"n", "group", "nodes"}
    for node in graph_payload["nodes"]:
        assert set(node) == {"gram", "orbits"}
        for record in node["orbits"]:
            assert set(record) == {"incident", "neighbor", "witness"}
    g_path = save_payload(str(tmp_path / "g.json"), "graph", 3, "gl",
                          graph_payload)
    c_path = save_payload(str(tmp_path / "c.json"), "complex", 3, "gl",
                          payload)
    assert json.load(open(g_path))["schema_version"] == 9
    assert json.load(open(c_path))["schema_version"] == 10


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
    # canonical_dumps is one prebuilt encoder; the bytes must be those
    # of json.dumps with the same arguments.
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
            (complex_to_payload(cx),
             lambda p: complex_from_payload(p, cx.graph, 0, "c.json")))


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_every_missing_field_is_cache_corrupt(n, group):
    names = set()
    for payload, decode in _decoders(n, group):
        keys = [p for p, _ in _paths(payload) if isinstance(p[-1], str)]
        names.update(p[-1] for p in keys)
        for path in keys:
            with _mutated(payload, path, delete=True) as bad, \
                    pytest.raises(CacheCorrupt, match="c.json: payload"):
                decode(bad)
    # Every field of every record was deleted somewhere.
    assert names == set(GRAPH_FIELDS + NODE_FIELDS + ORBIT_FIELDS +
                        COMPLEX_FIELDS + ("members",))


@pytest.mark.parametrize("n, group", ((2, "sl"), (3, "gl")))
def test_mistyped_fields_never_crash(n, group):
    # A replaced value may happen to be valid (a matrix entry -1);
    # anything else must surface as CacheCorrupt, never as another
    # exception.
    rejected = attempts = 0
    for payload, decode in _decoders(n, group):
        for path, _ in list(_paths(payload)):
            for new in ({}, "x", -1, None):
                attempts += 1
                with _mutated(payload, path, new) as bad:
                    try:
                        decode(bad)
                    except CacheCorrupt as exc:
                        assert str(exc).startswith("c.json: payload")
                        rejected += 1
                    else:
                        assert new == -1 and path[-3] in ("gram", "witness")
    # At most ten replacements happen to be valid: the graph payloads
    # hold one record per facet orbit and no label, and the complex
    # payloads no seed permutation or graph hash, so rank 2 sl makes
    # 148 attempts.
    assert attempts >= 148 and rejected >= attempts - 10


def test_missing_field_message_names_the_field():
    cx = cached_complex(2, "sl")
    payload = complex_to_payload(cx)
    del payload["walls"][0]["members"]
    with pytest.raises(CacheCorrupt) as exc:
        complex_from_payload(payload, cx.graph, 0, "complex-n2-sl.json")
    assert str(exc.value) == "complex-n2-sl.json: payload.walls[0] " \
        "differs from the complex derived from the graph"


# A field that older schemas stored and a load now derives is refused,
# not skipped: the file was not written by this version.
@pytest.mark.parametrize("where, key", (
    (("graph", "nodes", 0), "stab_order"),
    (("graph", "nodes", 0), "generators"),
    (("graph", "nodes", 0, "orbits", 0), "edge"),
    (("graph",), "edges"),
    (("walls", 0), "stab_order"),
    (("walls", 0), "orientation_kept"),
    ((), "tops"),
    (("walls", 0), "parent"),
    (("walls", 0), "face_index"),
    (("graph", "nodes", 0), "min_vectors"),
    (("graph", "nodes", 0), "min_value"),
    (("graph", "nodes", 0, "orbits", 0), "normal"),
    (("graph", "nodes", 0), "label"),
    ((), "seed_perm"),
    ((), "graph"),
), ids=("node-order", "node-generators", "facet-edge", "graph-edges",
        "wall-order", "wall-flag", "complex-tops", "wall-parent",
        "wall-face-index", "node-min-vectors", "node-min-value",
        "facet-normal", "node-label", "complex-seed-perm",
        "complex-graph-hash"))
def test_unknown_field_is_named(where, key):
    (graph_payload, graph_decode), (payload, decode) = _decoders(2, "sl")
    if where and where[0] == "graph":
        payload, decode, where = graph_payload, graph_decode, where[1:]
    record = payload
    for part in where:
        record = record[part]
    record[key] = 1
    field = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                    for p in where + (key,))
    problem = f"{field} is not a field of this record"
    if where[:1] == ("walls",):
        # A wall is compared whole with the derived complex's.
        problem = ".walls[0] differs from the complex derived from the graph"
    with pytest.raises(CacheCorrupt) as exc:
        decode(payload)
    assert str(exc.value) == f"c.json: payload{problem}"


SHEAR = [[1, 1], [0, 1]]

# A stored wall that is not the derived complex's wall is named whole.
WALL_DIFF = r"walls\[0\] differs from the complex derived from the graph"


# The first ids are the ones pytest generated for an earlier, longer
# table, kept so that each case keeps its name; new cases are appended
# with ids of their own.
@pytest.mark.parametrize("where, new, problem", (
    pytest.param(("graph", "nodes", 0, "orbits", 0, "neighbor"), 1,
                 "neighbor is out of range", id="where6-1-is out of range"),
    pytest.param(("graph", "nodes", 0, "orbits", 0, "witness"),
                 [[0, 1], [1, 0]], "witness has determinant -1",
                 id="where18-new18-witness has determinant -1"),
    pytest.param(("walls", 0, "members", 0, 0), 3,
                 WALL_DIFF,
                 id="where19-3-has a parent out of range 0..0"),
    pytest.param(("walls", 0, "members", 0, 1), 3,
                 WALL_DIFF,
                 id="where20-3-has a face out of range 0..2"),
    pytest.param(("walls", 0, "members", 0, 1), -1,
                 WALL_DIFF,
                 id="where22--1-has a face out of range 0..2"),
    pytest.param(("walls", 0, "members", 0, 0), True,
                 WALL_DIFF,
                 id=r"where23-True-is not a \[parent, face\] pair"),
    pytest.param(("walls", 0, "members", 0), [0, 0, 0],
                 WALL_DIFF,
                 id=r"where24-new24-is not a \[parent, face\] pair"),
    pytest.param(("graph", "nodes", 0, "gram", 0, 0), "2",
                 "gram is not a list of 2 integers per row",
                 id="where25-2-gram is not a list of 2 integers per row"),
    pytest.param(("graph", "nodes", 0, "orbits", 0, "neighbor"), -1,
                 r"nodes\[0\]\.orbits\[0\]\.neighbor is out of range",
                 id="facet-neighbor-negative"),
    pytest.param(("graph", "nodes", 0, "orbits", 0, "witness"),
                 [[2, 0], [0, 1]], "witness is not unimodular",
                 id="facet-witness-singular"),
    # A Gram matrix whose minimal vectors do not span, one that is not
    # positive definite, and a node with no facet orbits.
    pytest.param(("graph", "nodes", 0, "gram", 0, 0), 4,
                 r"nodes\[0\] is not a form with spanning minimal vectors",
                 id="gram-entry"),
    pytest.param(("graph", "nodes", 0, "gram", 0, 0), 0,
                 r"nodes\[0\] is not a positive definite form",
                 id="gram-not-positive-definite"),
    pytest.param(("graph", "nodes", 0, "orbits"), [],
                 r"nodes\[0\]\.orbits is empty", id="node-without-facets"),
    # Rank 2 sl keeps no wall, so the matrix has no rows.
    pytest.param(("triplets",), [[0, 0, 1]],
                 r"triplets\[0\] differs from the complex derived from "
                 r"the graph",
                 id="triplet-past-kept-walls"),
    # Rank 2 sl has one node, so each member's parent is 0, which
    # 0.0 and False equal as Python values but not as JSON: entries are
    # compared as their canonical encodings.
    pytest.param(("walls", 0, "members", 0, 0), 0.0, WALL_DIFF,
                 id="member-parent-float"),
    pytest.param(("walls", 0, "members", 0, 0), False, WALL_DIFF,
                 id="member-parent-false"),
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
    # Each orbit record carries the edge across its facet, so a decoded
    # graph has one stored edge per facet orbit, aligned with the node's
    # orbits, as enumerated, and derives one edge per (node, facet).
    graph = cached_graph(n, group)
    payload = graph_to_payload(graph)
    assert "edges" not in payload
    loaded = graph_from_payload(payload, "g.json")
    assert [len(edges) for edges in loaded.edges] == \
        [len(node.facets.orbits) for node in loaded.nodes]
    assert loaded.edges == graph.edges
    assert list(facet_edges(loaded)) == list(facet_edges(graph))
    assert sum(1 for _ in facet_edges(loaded)) == \
        sum(len(node.facets) for node in loaded.nodes)


def test_stale_schema_version_names_the_remedy(tmp_path):
    # A schema-8 graph file, which still stored each node's label, and a
    # schema-9 complex file, which still stored its seed permutation and
    # its graph file's hash.
    cx = cached_complex(2, "sl")
    for kind, payload, stale in (
            ("graph", graph_to_payload(cx.graph), 8),
            ("complex", complex_to_payload(cx), 9)):
        path = save_payload(str(tmp_path / f"{kind}.json"), kind, 2, "sl",
                            payload)
        doc = json.load(open(path))
        assert doc["schema_version"] == stale + 1
        doc["schema_version"] = stale
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(CacheCorrupt, match="delete it or use a fresh "
                                               "--cache-dir"):
            load_payload(path, kind, 2, "sl")


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
                 complex_to_payload(cx))
    return {name: (path / name).read_text()
            for name in ("graph.json", "complex.json")}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_load_payload_fuzz(cache_texts, tmp_path_factory, data):
    # Drop keys, swap value types (re-hashed or not) and truncate the
    # text of the graph or the complex file: loading the graph and
    # checking the complex file over it either succeeds or raises
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
        graph = graph_from_payload(load_payload(
            paths["graph.json"], "graph", 3, "gl"), paths["graph.json"])
        complex_from_payload(load_payload(
            paths["complex.json"], "complex", 3, "gl"), graph, 0,
            paths["complex.json"])
    except CacheCorrupt as exc:
        assert str(exc).startswith(tuple(paths.values()))


@pytest.mark.parametrize("incident", ([0], [0, 1, 2]),
                         ids=("one-vector", "every-vector"))
def test_wall_face_must_be_a_facet_off_the_boundary(incident):
    # The face under a wall must be a facet that avoids the boundary:
    # one vector meets the boundary, and every vector is the whole cell.
    # Its orbit record holds no facet then, which the graph load
    # refuses before any wall is derived from it.
    (graph_payload, _), (payload, _) = _decoders(2, "sl")
    parent, face = wall_facet(payload, 0)
    r = cached_graph(2, "sl").nodes[parent].facets.orbit_of[face]
    record = graph_payload["nodes"][parent]["orbits"][r]
    with _mutated(record, ("incident",), incident), \
            pytest.raises(CacheCorrupt) as exc:
        graph_from_payload(graph_payload, "g.json")
    assert str(exc.value) == \
        f"g.json: payload.nodes[{parent}].orbits[{r}].incident is not a " \
        f"facet of the node's domain"


def test_wall_without_members_is_cache_corrupt():
    _, (payload, decode) = _decoders(2, "sl")
    with _mutated(payload, ("walls", 0, "members"), []), \
            pytest.raises(CacheCorrupt) as exc:
        decode(payload)
    assert str(exc.value) == "c.json: payload.walls[0] differs from the " \
        "complex derived from the graph"
