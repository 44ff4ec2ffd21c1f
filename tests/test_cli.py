import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from conftest import cached_graph, python_env, run_python, wall_facet
from vorcycle import cli
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


@pytest.mark.parametrize("argv", (
    ("gen-sector-fan", "5"),
    ("export", "--n", "2", "--group", "sl")), ids=("gen-sector-fan",
                                                   "export"))
def test_tess_unwritable_out_exit_two(argv, capsys, tmp_path, monkeypatch):
    # A file that cannot be written is a usage error, as an unreadable
    # `tess check` input is: exit 2, never the crash code 4.
    monkeypatch.setenv("VORCYCLE_CACHE", str(tmp_path / "cache"))
    out_path = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "tess", *argv, "--out", out_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno") and out_path in err


def test_seed_perm_writes_separate_file_same_verdict(cache, capsys):
    code0, out0, _ = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--cache-dir", cache)
    code1, out1, _ = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--seed-perm", "2", "--cache-dir", cache)
    assert code0 == code1 == 0
    assert "kernel_dim=1" in out0 and "kernel_dim=1" in out1
    assert os.path.exists(os.path.join(cache, "verdict-n3-sl.json"))
    assert os.path.exists(os.path.join(cache, "verdict-n3-sl-p2.json"))


def test_complex_over_a_graph_read_back_matches_a_cold_run(
        cache, capsys, tmp_path, monkeypatch):
    # Over the graph file of a seed-0 run, a seed-3 verify loads the
    # graph (no enumeration) and builds its complex over it, with each
    # node's facets decomposed and its transporters read off the loaded
    # edges: its verdict and complex files are those of a cold run.
    cold = str(tmp_path / "cold")
    args = ("verify", "--n", "4", "--group", "sl", "--check-dd")
    assert run(capsys, *args, "--cache-dir", cache)[0] == 0
    with monkeypatch.context() as m:
        m.setattr(cli, "enumerate_perfect_forms", None)
        assert run(capsys, *args, "--seed-perm", "3",
                   "--cache-dir", cache)[0] == 0
    assert run(capsys, *args, "--seed-perm", "3", "--cache-dir", cold)[0] == 0
    for name in ("verdict-n4-sl-p3.json", "complex-n4-sl-p3.json"):
        with open(os.path.join(cache, name), "rb") as warm_file, \
                open(os.path.join(cold, name), "rb") as cold_file:
            assert warm_file.read() == cold_file.read()


def test_env_var_overrides_cache_dir(capsys, tmp_path, monkeypatch):
    env_cache = str(tmp_path / "env-cache")
    monkeypatch.setenv("VORCYCLE_CACHE", env_cache)
    code, _, _ = run(capsys, "perfect", "--n", "2", "--group", "sl",
                     "--cache-dir", str(tmp_path / "ignored"))
    assert code == 0
    assert os.path.exists(os.path.join(env_cache, "graph-n2-sl.json"))
    assert not os.path.exists(str(tmp_path / "ignored"))


# A load derives the complex over its graph and names the first stored
# wall or triplet that is not the derived one.
DIFFERS = "payload.%s differs from the complex derived from the graph"


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
    assert DIFFERS % "walls[0]" in err


def test_stale_schema_version_exit_three(cache, capsys):
    def stale(doc):
        doc["schema_version"] = 1
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     stale, rehash=False)
    assert code == 3
    assert "delete it or use a fresh --cache-dir" in err


def _schema_seven_file(doc):
    """The file as complex schema 7 stored it: each wall with the
    `parent` and `face_index` of the member that the seed permutation
    picks."""
    for i, wall in enumerate(doc["payload"]["walls"]):
        wall["parent"], wall["face_index"] = wall_facet(doc["payload"], i)
    doc["schema_version"] = 7


def _wall_parent(doc):
    doc["payload"]["walls"][0]["parent"] = \
        wall_facet(doc["payload"], 0)[0]


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
@pytest.mark.parametrize("edit, problem", (
    (_schema_seven_file, "schema version 7 != 10; another version of "
                         "vorcycle wrote this file: delete it or use a "
                         "fresh --cache-dir"),
    (_wall_parent, DIFFERS % "walls[0]"),
), ids=("schema-7-file", "wall-parent-in-schema-8"))
def test_complex_file_with_wall_placements_exit_three(cache, capsys,
                                                      optimize, edit,
                                                      problem):
    # A wall's parent and face are the member that the seed permutation
    # picks, derived on load: a file that still stores them is refused,
    # under -O too, and no verdict is printed.
    path = _rank_four_complex(capsys, cache)
    _tamper(path, edit)
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"{path}: {problem}" in result.stderr


def _schema_eight_file(doc):
    """The file as complex schema 8 stored it: each member's face
    numbered in the double description's sorted order, not in the order
    of the node's orbit walk."""
    graph = cached_graph(4, "sl")
    for wall in doc["payload"]["walls"]:
        for member in wall["members"]:
            facets = graph.nodes[member[0]].facets
            member[1] = sorted(facets, key=sorted).index(facets[member[1]])
    doc["schema_version"] = 8


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_schema_eight_complex_file_exit_three(cache, capsys, optimize):
    # Schema 8 numbered a member's face as the double description sorts
    # the facets; read with this numbering its walls would be other
    # faces, so the file is refused with the remedy, under -O too.
    path = _rank_four_complex(capsys, cache)
    before = json.load(open(path))["payload"]["walls"]
    _tamper(path, _schema_eight_file)
    assert json.load(open(path))["payload"]["walls"] != before
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"{path}: schema version 8 != 10; another version of vorcycle " \
        f"wrote this file: delete it or use a fresh --cache-dir" \
        in result.stderr


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_schema_nine_complex_file_exit_three(cache, capsys, optimize):
    # Schema 9 stored the seed permutation and the graph file's hash,
    # which a load took at their word; the file now depends only on its
    # name, so a schema-9 file is refused with the remedy, under -O too.
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")

    def schema_nine(doc):
        doc["payload"].update(seed_perm=0,
                              graph=json.load(open(graph))["hash"])
        doc["schema_version"] = 9
    _tamper(path, schema_nine)
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: cache corruption: {path}: schema " \
        "version 9 != 10; another version of vorcycle wrote this file: " \
        "delete it or use a fresh --cache-dir\n"


def test_stored_order_in_graph_file_exit_three(cache, capsys):
    # A stored order would decide the verdict (each top class enters the
    # cycle with weight one over it), so a load derives every order and
    # refuses a record with a field it does not hold: no FALSIFIED.
    run(capsys, "verify", "--n", "4", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n4-sl.json")

    def add_order(doc):
        doc["payload"]["nodes"][0]["stab_order"] = 1
    _tamper(path, add_order)
    code, out, err = run(capsys, "verify", "--n", "4", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "FALSIFIED" not in out
    assert f"{path}: payload.nodes[0].stab_order is not a field of this " \
        "record" in err


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
@pytest.mark.parametrize("command", ("verify", "perfect"))
def test_label_in_graph_file_exit_three(cache, capsys, command, optimize):
    # A label is derived on load by the walk's rule
    # (`enumeration.class_label`), so a re-hashed graph file whose node
    # 0 claims to be E8 is refused, under -O too: no verdict or class
    # list repeats the claim.
    from vorcycle.persistence import load_payload, save_payload
    run(capsys, "verify", "--n", "4", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n4-sl.json")
    payload = load_payload(path)
    payload["nodes"][0]["label"] = "E8"
    save_payload(path, "graph", 4, "sl", payload)
    for kind in ("complex", "verdict"):
        os.unlink(os.path.join(cache, f"{kind}-n4-sl.json"))
    result = run_python("-m", "vorcycle", command, "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: cache corruption: {path}: " \
        "payload.nodes[0].label is not a field of this record\n"
    assert not os.path.exists(os.path.join(cache, "verdict-n4-sl.json"))


@pytest.mark.parametrize("n, group", ((3, "sl"), (4, "gl")))
def test_payload_under_another_header_exit_three(cache, capsys, n, group):
    # Rank-3 sl or rank-4 gl caches re-saved under rank-4 sl headers:
    # the graph payload's own rank or group is not the header's.
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


def _repeat_triplet(doc):
    triplets = doc["payload"]["triplets"]
    triplets.insert(0, triplets[0])


def _extra_zero_triplet(doc):
    # Rank 4 sl has one kept wall and both of its entries are nonzero,
    # so the zero entry sits at the last one's position.
    triplets = doc["payload"]["triplets"]
    triplets.append(triplets[-1][:2] + [0])


@pytest.mark.parametrize("edit, field", (
    (_repeat_triplet, DIFFERS % "triplets[1]"),
    (_extra_zero_triplet, DIFFERS % "triplets[2]"),
    (lambda doc: doc["payload"]["triplets"][1].__setitem__(2, 0),
     DIFFERS % "triplets[1]"),
    (lambda doc: doc["payload"]["triplets"][0].__setitem__(1, 2),
     DIFFERS % "triplets[0]"),
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


@pytest.fixture(scope="module")
def rank_five_gl_cache(tmp_path_factory):
    """A rank-5 gl cache with its graph and complex files and no verdict
    file, and the bytes of the verdict file of the run that wrote it."""
    cache = str(tmp_path_factory.mktemp("rank-five-gl"))
    result = run_python("-m", "vorcycle", "verify", "--n", "5", "--group",
                        "gl", "--cache-dir", cache)
    assert result.returncode == 0, result.stdout + result.stderr
    verdict = os.path.join(cache, "verdict-n5-gl.json")
    with open(verdict, "rb") as fh:
        cold = fh.read()
    os.unlink(verdict)
    return cache, cold


def _copy_rank_five_gl_cache(rank_five_gl_cache, tmp_path):
    cache = str(tmp_path / "cache")
    shutil.copytree(rank_five_gl_cache[0], cache)
    return cache


def _negate_first_triplet(triplets):
    triplets[0][2] = -triplets[0][2]


def _double_row_zero(triplets):
    row = [t for t in triplets if t[0] == 0]
    assert len(row) == 2
    for t in row:
        t[2] *= 2


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
@pytest.mark.parametrize("edit", (_negate_first_triplet, _double_row_zero),
                         ids=("triplet-negated", "row-doubled"))
def test_differential_off_the_derived_complex_exit_three(
        rank_five_gl_cache, tmp_path, optimize, edit):
    # A re-hashed rank-5 gl complex file whose differential is not the
    # one the graph gives: with one sign flipped its kernel is zero, and
    # with a row doubled it is the same line with wrong row data.  Each
    # is refused, under -O too, with no verdict printed or written.
    from vorcycle.persistence import load_payload, save_payload
    cache = _copy_rank_five_gl_cache(rank_five_gl_cache, tmp_path)
    path = os.path.join(cache, "complex-n5-gl.json")
    payload = load_payload(path)
    edit(payload["triplets"])
    save_payload(path, "complex", 5, "gl", payload)
    result = run_python("-m", "vorcycle", "verify", "--n", "5", "--group",
                        "gl", "--check-dd", "--cache-dir", cache,
                        optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: cache corruption: {path}: " \
        f"{DIFFERS % 'triplets[0]'}\n"
    assert not os.path.exists(os.path.join(cache, "verdict-n5-gl.json"))


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_complex_file_of_another_seed_exit_three(rank_five_gl_cache,
                                                 tmp_path, optimize):
    # A complex file depends only on its name: a seed-0 file copied to
    # the seed-4 name is checked against the seed-4 complex, whose
    # differential differs, and refused, under -O too, with no verdict
    # written under the seed-4 name.
    cache = _copy_rank_five_gl_cache(rank_five_gl_cache, tmp_path)
    path = os.path.join(cache, "complex-n5-gl-p4.json")
    shutil.copyfile(os.path.join(cache, "complex-n5-gl.json"), path)
    result = run_python("-m", "vorcycle", "verify", "--n", "5", "--group",
                        "gl", "--seed-perm", "4", "--cache-dir", cache,
                        optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: cache corruption: {path}: " \
        f"{DIFFERS % 'triplets[0]'}\n"
    assert not os.path.exists(os.path.join(cache, "verdict-n5-gl-p4.json"))


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_complex_file_without_its_graph_file_is_checked(rank_five_gl_cache,
                                                        tmp_path, optimize):
    # A complex file names no graph file: with the graph file gone,
    # verify enumerates the graph again, checks the complex file against
    # the complex derived over it, and writes the cold run's verdict
    # byte for byte, under -O too.
    cache = _copy_rank_five_gl_cache(rank_five_gl_cache, tmp_path)
    graph = os.path.join(cache, "graph-n5-gl.json")
    os.unlink(graph)
    result = run_python("-m", "vorcycle", "verify", "--n", "5", "--group",
                        "gl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 0, result.stdout + result.stderr
    assert os.path.exists(graph)
    with open(os.path.join(cache, "verdict-n5-gl.json"), "rb") as fh:
        assert fh.read() == rank_five_gl_cache[1]


# The rank-4 sl caches of seed permutation 3, then a verify over them
# with every non-representative transporter skewed by a shear outside
# the stabilizer, as in a graph file whose facets the orbit walk
# misnumbers: the complex derived over the loaded graph fails its
# incidence check there, with the complex file kept or deleted.
_SKEWED_LOAD = """
import os, sys
from vorcycle import cones
from vorcycle.cli import main
from vorcycle.forms import GroupElement
cache, kept = sys.argv[1], sys.argv[2] == "kept"
args = ["verify", "--n", "4", "--group", "sl", "--seed-perm", "3",
        "--cache-dir", cache]
assert main(args) == 0
os.unlink(os.path.join(cache, "verdict-n4-sl-p3.json"))
if not kept:
    os.unlink(os.path.join(cache, "complex-n4-sl-p3.json"))
real = cones.transporter
def skewed(generators, schreier, k, n):
    shear = GroupElement.from_matrix(
        [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
         for i in range(n)])
    t = real(generators, schreier, k, n)
    return t if schreier[k] is None else shear * t
cones.transporter = skewed
sys.exit(main(args))
"""


@pytest.mark.parametrize("complex_file", ("kept", "deleted"))
def test_wall_not_glued_over_a_loaded_graph_exit_three(cache, complex_file):
    # A wall that a graph read from a file does not give is that graph
    # file's corruption, whether the complex is compared with a stored
    # file or written anew.
    result = run_python("-c", _SKEWED_LOAD, cache, complex_file)
    graph = os.path.join(cache, "graph-n4-sl.json")
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == f"error: cache corruption: {graph}: the " \
        "transporter does not carry the face class onto a face of node 1\n"
    assert not os.path.exists(os.path.join(cache, "verdict-n4-sl-p3.json"))


@pytest.mark.parametrize("command", ("perfect", "verify"))
def test_closed_stdout_ends_quietly(cache, command):
    # A reader that goes away before the first line ends the run by the
    # default SIGPIPE action: no error line, and not the crash status 4.
    proc = subprocess.Popen(
        [sys.executable, "-m", "vorcycle", command, "--n", "3",
         "--cache-dir", cache], env=python_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_wall_face_on_the_boundary_exit_three(cache, capsys, optimize):
    # The orbit record of the facet under a kept wall of rank 4 sl cut
    # down to one vector in a re-hashed graph file: that record holds no
    # facet, so the graph load refuses it before any wall is derived
    # from it, under -O too, and no verdict is printed.
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")
    parent, face = wall_facet(json.load(open(path))["payload"], 0)
    r = _orbit_of(graph, parent, face)

    def one_vector(doc):
        doc["payload"]["nodes"][parent]["orbits"][r]["incident"] = [0]
    _tamper(graph, one_vector)
    os.unlink(os.path.join(cache, "verdict-n4-sl.json"))
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "FALSIFIED" not in result.stdout
    assert f"{graph}: payload.nodes[{parent}].orbits[{r}].incident is not " \
        "a facet of the node's domain" in result.stderr


def _orbit_of(graph_path, parent, face):
    """The position of the orbit record that facet `face` of node
    `parent` of the graph file at `graph_path` belongs to."""
    from vorcycle.persistence import graph_from_payload, load_payload
    graph = graph_from_payload(load_payload(graph_path))
    return graph.nodes[parent].facets.orbit_of[face]


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_facet_that_is_not_a_facet_exit_three(cache, capsys, optimize):
    # Node 0's first orbit record of a re-hashed rank-3 sl graph file
    # widened to every minimal vector, with no complex file: the load
    # finds no facet there and refuses the file, under -O too.
    run(capsys, "perfect", "--n", "3", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n3-sl.json")

    def every_vector(doc):
        node = doc["payload"]["nodes"][0]
        node["orbits"][0]["incident"] = list(range(6))
    _tamper(path, every_vector)
    result = run_python("-m", "vorcycle", "verify", "--n", "3", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "FALSIFIED" not in result.stdout
    assert f"{path}: payload.nodes[0].orbits[0].incident is not a facet " \
        "of the node's domain" in result.stderr


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_orbit_record_off_its_first_facet_exit_three(cache, capsys,
                                                     optimize):
    # Node 1's first orbit record of a re-hashed rank-4 sl graph file
    # moved to the last facet of its orbit: a facet, so each stored
    # record still holds one, but not the first of its orbit, where the
    # facet indices that the complex file names start.  The load
    # refuses the file, under -O too.
    from vorcycle.persistence import graph_from_payload, load_payload
    run(capsys, "perfect", "--n", "4", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n4-sl.json")
    facets = graph_from_payload(load_payload(path)).nodes[1].facets
    last = sorted(facets[facets.orbits[0][-1]])

    def moved(doc):
        doc["payload"]["nodes"][1]["orbits"][0]["incident"] = last
    _tamper(path, moved)
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"{path}: payload.nodes[1].orbits does not hold the first facet " \
        "of each facet orbit once, in orbit order" in result.stderr


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_shear_witness_on_an_edge_no_wall_uses_exit_three(cache, capsys,
                                                          optimize):
    # Rank 4 sl represents both its wall classes on node 1, so no wall
    # reads the edge of node 0's one facet orbit.  Its witness is the
    # identity (that crossing found class 1); set to a shear of
    # determinant one in a re-hashed graph file, it is refused by the
    # load, which checks the gluing of every stored edge, under -O too.
    path = _rank_four_complex(capsys, cache)
    graph = os.path.join(cache, "graph-n4-sl.json")
    payload = json.load(open(path))["payload"]
    assert {wall_facet(payload, i)[0]
            for i in range(len(payload["walls"]))} == {1}
    identity = [[int(i == j) for j in range(4)] for i in range(4)]

    def shear(doc):
        record = doc["payload"]["nodes"][0]["orbits"][0]
        assert record["witness"] == identity
        record["witness"] = [[int(i == j or (i, j) == (0, 1))
                              for j in range(4)] for i in range(4)]
    _tamper(graph, shear)
    os.unlink(os.path.join(cache, "verdict-n4-sl.json"))
    result = run_python("-m", "vorcycle", "verify", "--n", "4", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"{graph}: payload.nodes[0].orbits[0].witness does not glue " \
        "the facet to its neighbor" in result.stderr


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
@pytest.mark.parametrize("command", ("verify", "complex"))
def test_node_without_facets_exit_three(cache, capsys, command, optimize):
    # Node 0 of a re-hashed rank-3 sl graph file with no facet orbits,
    # and no complex file: every node of rank 2 or more has facets, so
    # the load refuses the file, under -O too.
    run(capsys, "verify", "--n", "3", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n3-sl.json")
    _tamper(path, lambda doc: doc["payload"]["nodes"][0].update(orbits=[]))
    for kind in ("complex", "verdict"):
        os.unlink(os.path.join(cache, f"{kind}-n3-sl.json"))
    result = run_python("-m", "vorcycle", command, "--n", "3", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr == f"error: cache corruption: {path}: " \
        "payload.nodes[0].orbits is empty\n"


def _graph_schema_seven_file(doc):
    """The graph file as schema 7 stored it: each node with every facet
    and the edge across it."""
    from vorcycle.enumeration import facet_edge
    from vorcycle.persistence import graph_from_payload
    graph = graph_from_payload(doc["payload"])
    for i, (node, rec) in enumerate(zip(graph.nodes,
                                        doc["payload"]["nodes"])):
        del rec["orbits"]
        rec["facets"] = [{"incident": sorted(facet),
                          "neighbor": facet_edge(graph, i, k).neighbor,
                          "witness": [list(row) for row in
                                      facet_edge(graph, i, k).witness.rows]}
                         for k, facet in enumerate(node.facets)]
    doc["schema_version"] = 7


def _graph_schema_six_file(doc):
    """The graph file as schema 6 stored it: the schema-7 file with
    each node's minimum and minimal vectors, and each facet's normal."""
    from vorcycle.cones import facet_normal
    from vorcycle.forms import QForm, minimum_and_minimal_vectors
    _graph_schema_seven_file(doc)
    for node in doc["payload"]["nodes"]:
        mv = minimum_and_minimal_vectors(QForm(tuple(map(tuple,
                                                         node["gram"]))))
        node["min_value"] = mv.min_value
        node["min_vectors"] = [list(v) for v in mv.vectors]
        for facet in node["facets"]:
            facet["normal"] = [list(row) for row in facet_normal(
                mv.vectors, frozenset(facet["incident"]))]
    doc["schema_version"] = 6


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_schema_six_graph_file_exit_three(cache, capsys, optimize):
    # A facet's normal is recovered from its rays where the walk
    # crosses it: a graph file that still stores normals, minima and
    # minimal vectors is refused, under -O too, and no verdict is
    # printed.
    _stale_graph_file_exit_three(cache, capsys, optimize,
                                 _graph_schema_six_file, 6)


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_schema_seven_graph_file_exit_three(cache, capsys, optimize):
    # A load regenerates a node's facets from one record per orbit: a
    # graph file that still stores every facet with its edge is
    # refused, under -O too, and no verdict is printed.
    _stale_graph_file_exit_three(cache, capsys, optimize,
                                 _graph_schema_seven_file, 7)


def _stale_graph_file_exit_three(cache, capsys, optimize, edit, version):
    run(capsys, "verify", "--n", "2", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n2-sl.json")
    _tamper(path, edit)
    for kind in ("complex", "verdict"):
        os.unlink(os.path.join(cache, f"{kind}-n2-sl.json"))
    result = run_python("-m", "vorcycle", "verify", "--n", "2", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"{path}: schema version {version} != 9; another version of " \
        "vorcycle wrote this file: delete it or use a fresh --cache-dir" \
        in result.stderr


def test_bad_edge_facet_in_graph_cache_exit_three(cache, capsys):
    run(capsys, "perfect", "--n", "3", "--group", "sl", "--cache-dir", cache)
    path = os.path.join(cache, "graph-n3-sl.json")

    def bad_neighbor(doc):
        doc["payload"]["nodes"][0]["orbits"][0]["neighbor"] = 999
    _tamper(path, bad_neighbor)
    code, out, err = run(capsys, "verify", "--n", "3", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err
    assert f"{path}: payload.nodes[0].orbits[0].neighbor is out of " \
        "range" in err


def _unglue_wall_zero(capsys, cache):
    """Build the rank-2 sl caches, then replace the graph edge at wall
    0's facet orbit by a unimodular shear, which carries the
    neighbour's minimal vectors elsewhere.  The graph file is re-hashed,
    so only the gluing check of the graph load can catch the change."""
    run(capsys, "verify", "--n", "2", "--group", "sl", "--cache-dir", cache)
    graph = os.path.join(cache, "graph-n2-sl.json")
    path = os.path.join(cache, "complex-n2-sl.json")
    parent, face = wall_facet(json.load(open(path))["payload"], 0)
    r = _orbit_of(graph, parent, face)

    def shear(doc):
        doc["payload"]["nodes"][parent]["orbits"][r]["witness"] = \
            [[1, 1], [0, 1]]
    _tamper(graph, shear)
    os.unlink(os.path.join(cache, "verdict-n2-sl.json"))
    return path, f"{graph}: payload.nodes[{parent}].orbits[{r}].witness " \
        "does not glue the facet to its neighbor"


def test_wall_witness_off_the_graph_edge_exit_three(cache, capsys):
    path, problem = _unglue_wall_zero(capsys, cache)
    code, out, err = run(capsys, "verify", "--n", "2", "--group", "sl",
                         "--cache-dir", cache)
    assert code == 3
    assert "Traceback" not in out + err and "verified" not in out
    assert err == f"error: cache corruption: {problem}\n"


@pytest.mark.parametrize("optimize", ((), ("-O",)), ids=("python",
                                                         "python-O"))
def test_graph_edge_off_its_wall_without_complex_file_exit_three(
        cache, capsys, optimize):
    # With no complex file the complex would be built over the graph
    # file; an edge there that does not glue its facet is that file's
    # corruption, refused on load, under -O too.
    path, problem = _unglue_wall_zero(capsys, cache)
    os.unlink(path)
    result = run_python("-m", "vorcycle", "verify", "--n", "2", "--group",
                        "sl", "--cache-dir", cache, optimize=optimize)
    assert result.returncode == 3, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "verified" not in result.stdout
    assert f"error: cache corruption: {problem}\n" == result.stderr


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
    def sign_flip(doc):
        doc["facet_orbits"][0]["incidences"][1][1] = "1"
    path = tmp_path / "fan.json"
    path.write_text(_fan_document(sign_flip if flip else lambda d: None))
    result = run_python("-m", "vorcycle", "tess", "check", str(path),
                        optimize=("-O",))
    assert result.returncode == expected, result.stderr
    assert "kernel_dim=" in result.stdout


def test_wall_witness_off_the_graph_edge_survives_python_optimize(
        cache, capsys):
    # The gluing check is no assert: under -O the ungluing edge is
    # still cache corruption, not a verdict.
    path, problem = _unglue_wall_zero(capsys, cache)
    result = run_python("-m", "vorcycle", "verify", "--n", "2", "--group",
                        "sl", "--cache-dir", cache, optimize=("-O",))
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
    from vorcycle.tessellation import dumps_instance, sector_fan

    fan = tmp_path / "fan.json"
    fan.write_text(dumps_instance(sector_fan(4)))
    result = run_python("-c", _IMPORT_PROBE, str(fan),
                        str(tmp_path / "cache"), timeout=120)
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
