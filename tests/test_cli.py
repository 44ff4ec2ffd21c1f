import json
import os

import pytest

from vorcycle.cli import main


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.delenv("VORCYCLE_CACHE", raising=False)
    return str(tmp_path / "cache")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perfect_rank_three(cache, capsys):
    code, out, _ = run(capsys, "perfect", "--n", "3", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 0
    assert out.startswith("1 class: A3")


def test_perfect_rank_four_two_classes(cache, capsys):
    code, out, _ = run(capsys, "perfect", "--n", "4", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 0
    assert out.startswith("2 classes:")


def test_perfect_rank_out_of_range(cache, capsys):
    code, _, err = run(capsys, "perfect", "--n", "9", "--cache-dir", cache)
    assert code == 2
    code, _, _ = run(capsys, "perfect", "--n", "1", "--cache-dir", cache)
    assert code == 2


def test_long_rank_needs_flag(cache, capsys):
    code, _, err = run(capsys, "perfect", "--n", "6", "--cache-dir", cache)
    assert code == 2
    assert "allow-long" in err


def test_invalid_group_usage_error(cache, capsys):
    code, _, _ = run(capsys, "verify", "--n", "4", "--group",
                     "sl-parity-wrong", "--cache-dir", cache)
    assert code == 2


def test_complex_rank_two_empty_kept_walls(cache, capsys):
    code, out, _ = run(capsys, "complex", "--n", "2", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 0
    assert "wall classes: 1 (kept 0, self 1)" in out


def test_complex_rerun_byte_identical(cache, capsys):
    run(capsys, "complex", "--n", "2", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "complex-n2-sl.json")
    first = open(path).read()
    os.unlink(path)
    run(capsys, "complex", "--n", "2", "--group", "sl", "--cache-dir", cache)
    assert open(path).read() == first


def test_verify_exit_codes(cache, capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 0 and "kernel_dim=1" in out
    code, out, _ = run(capsys, "verify", "--n", "2", "--group", "gl",
                       "--cache-dir", cache)
    assert code == 0 and "kernel_dim=0" in out


def test_verify_uses_cached_graph(cache, capsys):
    run(capsys, "perfect", "--n", "2", "--group", "sl", "--cache-dir", cache)
    code, out, _ = run(capsys, "verify", "--n", "2", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 0
    assert os.path.exists(os.path.join(cache, "verdict-n2-sl.json"))


def test_verify_check_dd(cache, capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--group", "sl",
                       "--check-dd", "--cache-dir", cache)
    assert code == 0
    verdict = json.load(open(os.path.join(cache, "verdict-n3-sl.json")))
    assert verdict["payload"]["details"]["dd_zero"] == "True"


def test_cache_corruption_exit_three(cache, capsys):
    run(capsys, "perfect", "--n", "2", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n2-sl.json")
    doc = json.load(open(path))
    doc["payload"]["n"] = 3
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, _, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                       "--cache-dir", cache)
    assert code == 3
    assert "corruption" in err


def test_tess_gen_and_check_pipe(cache, capsys, tmp_path):
    fan_path = str(tmp_path / "fan.json")
    code, _, _ = run(capsys, "tess", "gen-sector-fan", "5", "--out", fan_path)
    assert code == 0
    code, out, _ = run(capsys, "tess", "check", fan_path)
    assert code == 0
    assert "kernel vector: [1, 1, 1, 1, 1]" in out


def test_tess_check_stdin(capsys, monkeypatch, tmp_path):
    import io
    from vorcycle.tessellation import dumps_instance, sector_fan
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_instance(sector_fan(3))))
    code, out, _ = run(capsys, "tess", "check", "-")
    assert code == 0


def test_tess_malformed_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "tess", "check", str(bad))
    assert code == 2
    assert "malformed" in err


def test_tess_corrupted_instance_falsified(capsys, tmp_path):
    from vorcycle.tessellation import dumps_instance, sector_fan, \
        TessInstance, FacetOrbit
    from fractions import Fraction
    fan = sector_fan(2)
    bad = TessInstance(
        ambient_dim=2, tiles=fan.tiles,
        facet_orbits=(FacetOrbit(1, "non_self",
                                 ((0, Fraction(1)), (1, Fraction(1)))),))
    path = tmp_path / "corrupt.json"
    path.write_text(dumps_instance(bad))
    code, out, _ = run(capsys, "tess", "check", str(path))
    assert code == 1


def test_tess_export_matches_verify(cache, capsys, tmp_path):
    out_path = str(tmp_path / "vor4.json")
    code, _, _ = run(capsys, "tess", "export", "--n", "4", "--group", "sl",
                     "--cache-dir", cache, "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "tess", "check", out_path)
    assert code == 0
    assert "kernel_dim=1" in out


def test_seed_perm_writes_separate_file_same_verdict(cache, capsys):
    code0, out0, _ = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--cache-dir", cache)
    code1, out1, _ = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--seed-perm", "2", "--cache-dir", cache)
    assert code0 == code1 == 0
    assert "kernel_dim=1" in out0 and "kernel_dim=1" in out1
    assert os.path.exists(os.path.join(cache, "verdict-n3-sl.json"))
    assert os.path.exists(os.path.join(cache, "verdict-n3-sl-p2.json"))


def test_env_var_overrides_cache_dir(capsys, tmp_path, monkeypatch):
    env_cache = str(tmp_path / "env-cache")
    monkeypatch.setenv("VORCYCLE_CACHE", env_cache)
    code, _, _ = run(capsys, "perfect", "--n", "2", "--group", "sl",
                     "--cache-dir", str(tmp_path / "ignored"))
    assert code == 0
    assert os.path.exists(os.path.join(env_cache, "graph-n2-sl.json"))
    assert not os.path.exists(str(tmp_path / "ignored"))


def _tamper(path, edit, rehash=True):
    """Rewrite a cache file in its canonical form after `edit(doc)`,
    re-hashing the payload so only the on-load checks can catch the
    change."""
    from conftest import content_hash
    from vorcycle.persistence import canonical_dumps
    doc = json.load(open(path))
    edit(doc)
    if rehash:
        doc["hash"] = content_hash(doc["payload"])
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc) + "\n")


def _verify_after_tamper(capsys, cache, name, edit, rehash=True):
    run(capsys, "verify", "--n", "2", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, name)
    _tamper(path, edit, rehash)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert "Traceback" not in out + err
    assert path in err
    return code, err


def test_missing_field_in_complex_cache_exit_three(cache, capsys):
    def drop_members(doc):
        del doc["payload"]["walls"][0]["members"]
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     drop_members)
    assert code == 3
    assert "payload.walls[0].members is missing" in err


def test_stale_schema_version_exit_three(cache, capsys):
    def stale(doc):
        doc["schema_version"] = 1
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     stale, rehash=False)
    assert code == 3
    assert "delete it or use a fresh --cache-dir" in err


def test_stored_order_in_graph_file_exit_three(cache, capsys):
    # A stored order would decide the verdict (each top class enters the
    # cycle with weight one over it), so a load derives every order and
    # refuses a record with a field it does not hold: no FALSIFIED.  The
    # re-hashed graph file no longer carries the hash the complex file
    # names, so the complex and verdict files go, as after an edit.
    run(capsys, "verify", "--n", "4", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n4-sl.json")

    def add_order(doc):
        doc["payload"]["nodes"][0]["stab_order"] = 1
    _tamper(path, add_order)
    for kind in ("complex", "verdict"):
        os.unlink(os.path.join(cache, f"{kind}-n4-sl.json"))
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "FALSIFIED" not in out
    assert f"{path}: payload.nodes[0].stab_order is not a field of this " \
        "record" in err


@pytest.mark.parametrize("n, group", ((3, "sl"), (4, "gl")))
def test_payload_under_another_header_exit_three(cache, capsys, n, group):
    # Rank-3 sl or rank-4 gl caches re-saved under rank-4 sl headers,
    # the complex still referring to its graph: the payload's own rank
    # or group is not the header's.
    from vorcycle.persistence import load_payload, save_payload
    run(capsys, "verify", "--n", str(n), "--group", group,
        "--cache-dir", cache)
    for kind in ("graph", "complex"):
        payload = load_payload(
            os.path.join(cache, f"{kind}-n{n}-{group}.json"))
        save_payload(os.path.join(cache, f"{kind}-n4-sl.json"), kind, 4,
                     "sl", payload)
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "verified" not in out and "Traceback" not in out + err
    field = "n" if n != 4 else "group"
    assert f"{os.path.join(cache, 'graph-n4-sl.json')}: payload.{field} " \
        "is not" in err
    assert not os.path.exists(os.path.join(cache, "verdict-n4-sl.json"))


def _rank_four_complex(capsys, cache):
    run(capsys, "verify", "--n", "4", "--group", "sl", "--cache-dir", cache)
    return os.path.join(cache, "complex-n4-sl.json")


def test_complex_without_its_graph_file_exit_three(cache, capsys):
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")
    os.unlink(graph)
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "verified" not in out
    assert f"{path}: payload.graph: " in err and graph in err
    assert "No such file" in err
    # Strict: the graph is not rebuilt behind the complex file's back.
    assert not os.path.exists(graph)


def test_complex_with_another_graph_file_exit_three(cache, capsys):
    # Another validly hashed graph file: one label changed, re-hashed.
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")

    def relabel(doc):
        doc["payload"]["nodes"][0]["label"] += "'"
    _tamper(graph, relabel)
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "verified" not in out
    assert f"{path}: payload.graph: {graph}" in err
    assert f"{graph}: expected hash" in err


def _repeat_triplet(doc):
    triplets = doc["payload"]["triplets"]
    triplets.insert(0, triplets[0])


def _extra_zero_triplet(doc):
    # Rank 4 sl has one kept wall and both of its entries are nonzero,
    # so the zero entry sits at the last one's position.
    triplets = doc["payload"]["triplets"]
    triplets.append(triplets[-1][:2] + [0])


@pytest.mark.parametrize("edit, field", (
    (_repeat_triplet, "payload.triplets[1] is not a nonzero"),
    (_extra_zero_triplet, "payload.triplets[2] is not a nonzero"),
    (lambda doc: doc["payload"]["triplets"][1].__setitem__(2, 0),
     "payload.triplets[1] is not a nonzero"),
    (lambda doc: doc["payload"]["triplets"][0].__setitem__(1, 2),
     "payload.triplets[0] is not a nonzero entry in range"),
), ids=("triplet-repeated", "zero-triplet-added", "triplet-value-zeroed",
        "triplet-past-kept-tops"))
def test_kept_lists_and_differential_disagree_exit_three(cache, capsys,
                                                         edit, field):
    path = _rank_four_complex(capsys, cache)
    _tamper(path, edit)
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "FALSIFIED" not in out
    assert f"{path}: {field}" in err


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_wall_face_on_the_boundary_exit_three(cache, capsys, optimize):
    # The facet under a kept wall of rank 4 sl cut down to one vector in
    # a re-hashed graph file, the complex file re-pointed at it: the
    # wall derived from that face is refused, under -O too, and no
    # verdict is printed.
    import subprocess
    import sys
    import vorcycle
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")
    wall = json.load(open(path))["payload"]["walls"][0]
    parent, face = wall["parent"], wall["face_index"]

    def one_vector(doc):
        doc["payload"]["nodes"][parent]["facets"][face]["incident"] = [0]
    _tamper(graph, one_vector)
    digest = json.load(open(graph))["hash"]
    _tamper(path, lambda doc: doc["payload"].update(graph=digest))
    os.unlink(os.path.join(cache, "verdict-n4-sl.json"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    result = subprocess.run(
        [sys.executable, *optimize, "-m", "vorcycle", "verify", "--n", "4",
         "--group", "sl", "--cache-dir", cache],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "FALSIFIED" not in result.stdout
    assert f"{path}: payload.walls[0] is not a wall: face {face} of cell " \
        f"{parent} is not a facet off the boundary" in result.stderr


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_facet_that_is_not_a_facet_exit_three(cache, capsys, optimize):
    # Node 0's facet 0 of a re-hashed rank-3 sl graph file widened to
    # every minimal vector, with no complex file: the cold complex build
    # over that graph finds the node's stabilizer not permuting its
    # facet list and refuses the file, under -O too.
    import subprocess
    import sys
    import vorcycle
    run(capsys, "perfect", "--n", "3", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n3-sl.json")

    def every_vector(doc):
        node = doc["payload"]["nodes"][0]
        node["facets"][0]["incident"] = list(range(len(node["min_vectors"])))
    _tamper(path, every_vector)
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    result = subprocess.run(
        [sys.executable, *optimize, "-m", "vorcycle", "verify", "--n", "3",
         "--group", "sl", "--cache-dir", cache],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "FALSIFIED" not in result.stdout
    assert f"{path}: the faces of node 0 are not its facets" in result.stderr


def test_bad_edge_facet_in_graph_cache_exit_three(cache, capsys):
    run(capsys, "perfect", "--n", "3", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n3-sl.json")

    def bad_neighbor(doc):
        doc["payload"]["nodes"][0]["facets"][0]["neighbor"] = 999
    _tamper(path, bad_neighbor)
    code, out, err = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err
    assert f"{path}: payload.nodes[0].facets[0].neighbor is out of " \
        "range" in err


def _unglue_wall_zero(capsys, cache):
    """Build the rank-2 sl caches, then replace the graph edge at wall
    0's facet by a unimodular shear, which carries the neighbour's
    minimal vectors elsewhere.  Both files are re-hashed and the complex
    file refers to the edited graph file, so only the gluing check can
    catch the change."""
    run(capsys, "verify", "--n", "2", "--group", "sl", "--cache-dir", cache)
    graph = os.path.join(cache, "graph-n2-sl.json")
    path = os.path.join(cache, "complex-n2-sl.json")
    wall = json.load(open(path))["payload"]["walls"][0]

    def shear(doc):
        facet = doc["payload"]["nodes"][wall["parent"]]["facets"][
            wall["face_index"]]
        facet["witness"] = [[1, 1], [0, 1]]
    _tamper(graph, shear)
    digest = json.load(open(graph))["hash"]
    _tamper(path, lambda doc: doc["payload"].update(graph=digest))
    os.unlink(os.path.join(cache, "verdict-n2-sl.json"))
    return path, f"{path}: payload.walls[0] is not glued by the graph " \
        f"edge at node {wall['parent']}, facet {wall['face_index']}"


def test_wall_witness_off_the_graph_edge_exit_three(cache, capsys):
    path, problem = _unglue_wall_zero(capsys, cache)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "verified" not in out
    assert problem in err


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_graph_edge_off_its_wall_without_complex_file_exit_three(
        cache, capsys, optimize):
    # With no complex file the complex is built over the graph file; an
    # edge there that does not glue its wall is that file's corruption,
    # under -O too.
    import subprocess
    import sys
    import vorcycle

    path, _ = _unglue_wall_zero(capsys, cache)
    os.unlink(path)
    graph = os.path.join(cache, "graph-n2-sl.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    result = subprocess.run(
        [sys.executable, *optimize, "-m", "vorcycle", "verify", "--n", "2",
         "--group", "sl", "--cache-dir", cache],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"error: cache corruption: {graph}: walls[0] is not glued by " \
        "the graph edge at node" in result.stderr


@pytest.mark.parametrize("text", (
    "[" * 200000 + "]" * 200000,
    '{"n": ' + "9" * 5000 + "}",
), ids=("arrays-nested-200000-deep", "integer-of-5000-digits"))
def test_undecodable_cache_exit_three(cache, capsys, text):
    os.makedirs(cache)
    path = os.path.join(cache, "complex-n2-sl.json")
    with open(path, "w") as fh:
        fh.write(text)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert f"{path}: not valid JSON" in err
    assert "Traceback" not in out + err


def _indented(data):
    return (json.dumps(json.loads(data), indent=1, sort_keys=True)
            + "\n").encode()


def _flip_payload_digit(data):
    # The first digit after the header lies inside the payload.
    at = data.index(b'"payload":')
    at += next(i for i, b in enumerate(data[at:]) if chr(b).isdigit())
    return data[:at] + str((int(chr(data[at])) + 1) % 10).encode() + \
        data[at + 1:]


@pytest.mark.parametrize("rewrite, problem", (
    (_flip_payload_digit, "content hash mismatch"),
    (_indented, "not in the canonical form"),
), ids=("payload-byte-flipped", "indented"))
def test_hash_is_checked_on_the_stored_bytes(cache, capsys, rewrite,
                                             problem):
    run(capsys, "verify", "--n", "3", "--group", "gl", "--cache-dir", cache)
    path = os.path.join(cache, "complex-n3-gl.json")
    with open(path, "rb") as fh:
        data = fh.read()
    changed = rewrite(data)
    assert changed != data and json.loads(changed) is not None
    with open(path, "wb") as fh:
        fh.write(changed)
    code, out, err = run(capsys, "verify", "--n", "3", "--group", "gl",
                         "--cache-dir", cache)
    assert code == 3
    assert f"{path}: {problem}" in err
    assert "Traceback" not in out + err and "verified" not in out


def test_unexpected_exception_exit_four(cache, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise KeyError((0, 0))
    monkeypatch.setattr("vorcycle.cli.build_complex", crash)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 4
    assert err == "error: unexpected KeyError: (0, 0)\n"
    assert "FALSIFIED" not in out


def test_pipeline_value_error_exit_four(cache, capsys, monkeypatch):
    # Only argument errors are usage errors; a ValueError raised inside
    # the pipeline is a crash.
    def crash(*args, **kwargs):
        raise ValueError("matrix is not square")
    monkeypatch.setattr("vorcycle.cli.build_complex", crash)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 4
    assert err == "error: unexpected ValueError: matrix is not square\n"


def _fan_document(edit):
    from vorcycle.tessellation import sector_fan
    doc = sector_fan(5).to_payload()
    edit(doc)
    return json.dumps(doc)


MALFORMED_INSTANCES = {
    "tiles-not-a-list": (
        lambda d: d.update(tiles=5), "$.tiles:"),
    "facet-orbits-not-a-list": (
        lambda d: d.update(facet_orbits="x"), "$.facet_orbits:"),
    "zero-denominator": (
        lambda d: d["facet_orbits"][3]["incidences"][0].__setitem__(1, "1/0"),
        "$.facet_orbits[3].incidences[0]:"),
    "orientation-as-string": (
        lambda d: d["tiles"][2].update(orientation_kept="false"),
        "$.tiles[2].orientation_kept:"),
    "fractional-tile-index": (
        lambda d: d["facet_orbits"][1]["incidences"][1].__setitem__(0, 1.5),
        "$.facet_orbits[1].incidences[1]:"),
    "boolean-tile-index": (
        lambda d: d["facet_orbits"][0]["incidences"][1].__setitem__(0, True),
        "$.facet_orbits[0].incidences[1]:"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCES))
def test_tess_malformed_field_names_its_path(capsys, tmp_path, name):
    edit, where = MALFORMED_INSTANCES[name]
    path = tmp_path / "bad.json"
    path.write_text(_fan_document(edit))
    code, out, err = run(capsys, "tess", "check", str(path))
    assert code == 2
    assert err.startswith("error: malformed instance: ")
    assert where in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("flip, expected", [(False, 0), (True, 1)])
def test_tess_check_verdict_survives_python_optimize(tmp_path, flip,
                                                     expected):
    # Under -O every assert is stripped; the verdict must not rest on one.
    import subprocess
    import sys
    import vorcycle

    def sign_flip(doc):
        doc["facet_orbits"][0]["incidences"][1][1] = "1"
    path = tmp_path / "fan.json"
    path.write_text(_fan_document(sign_flip if flip else lambda d: None))
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "vorcycle", "tess", "check", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == expected, result.stderr
    assert "kernel_dim=" in result.stdout


def test_wall_witness_off_the_graph_edge_survives_python_optimize(
        cache, capsys):
    # The gluing check is no assert: under -O the ungluing edge is
    # still cache corruption, not a verdict.
    import subprocess
    import sys
    import vorcycle

    path, problem = _unglue_wall_zero(capsys, cache)
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "vorcycle", "verify", "--n", "2",
         "--group", "sl", "--cache-dir", cache],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert problem in result.stderr


# Run in a fresh interpreter: which modules `import vorcycle.cli` loads,
# and what each command adds to them.
_IMPORT_PROBE = """
import json, sys
import vorcycle.cli
seen = {"import": sorted(sys.modules)}
vorcycle.cli.main(["tess", "check", sys.argv[1]])
seen["tess check"] = sorted(sys.modules)
vorcycle.cli.main(["verify", "--n", "3", "--cache-dir", sys.argv[2]])
seen["verify"] = sorted(sys.modules)
print(json.dumps(seen))
"""


def test_imports_stay_lean(tmp_path):
    # Every command is a fresh process, so its imports are paid on every
    # run: records load no dataclasses (with inspect), and OpenSSL comes
    # in only with the first cache file hashed.  The benchmark's tracer
    # reads all nine pipeline modules from sys.modules after the import.
    import subprocess
    import sys
    import vorcycle
    from vorcycle.tessellation import dumps_instance, sector_fan

    fan = tmp_path / "fan.json"
    fan.write_text(dumps_instance(sector_fan(4)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorcycle.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "VORCYCLE_CACHE"}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(fan),
         str(tmp_path / "cache")],
        env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert {"dataclasses", "inspect", "_hashlib"}.isdisjoint(seen["import"])
    assert {f"vorcycle.{m}" for m in (
        "forms", "cones", "isometry", "enumeration", "complexes",
        "homology", "linalg", "tessellation", "persistence")} <= \
        set(seen["import"])
    assert "_hashlib" not in seen["tess check"]
    assert "_hashlib" in seen["verify"]
    assert {"dataclasses", "inspect"}.isdisjoint(seen["verify"])
