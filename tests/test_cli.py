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
    """Rewrite a cache file after `edit(doc)`, re-hashing the payload so
    only the on-load checks can catch the change."""
    from vorcycle.persistence import content_hash
    doc = json.load(open(path))
    edit(doc)
    if rehash:
        doc["hash"] = content_hash(doc["payload"])
    with open(path, "w") as fh:
        json.dump(doc, fh)


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
    def drop_label(doc):
        del doc["payload"]["tops"][0]["label"]
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     drop_label)
    assert code == 3
    assert "payload.tops[0].label is missing" in err


def test_stale_schema_version_exit_three(cache, capsys):
    def stale(doc):
        doc["schema_version"] = 1
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     stale, rehash=False)
    assert code == 3
    assert "delete it or use a fresh --cache-dir" in err


@pytest.mark.parametrize("record", (("walls", 0), ("graph", "nodes", 0)))
def test_swapped_generator_exit_three(cache, capsys, record):
    def swap(doc):
        rec = doc["payload"]
        for key in record:
            rec = rec[key]
        assert rec["generators"][0] != [["1", "1"], ["0", "1"]]
        rec["generators"][0] = [["1", "1"], ["0", "1"]]
    code, err = _verify_after_tamper(capsys, cache, "complex-n2-sl.json",
                                     swap)
    assert code == 3
    assert "generators[0] does not fix" in err
