"""Byte-identical outputs: `verify --check-dd` reproduces recorded files.

The verdict digests were recorded from the Fraction-leaf, full-closure
isometry engine.  The graph and complex digests were re-recorded when
cache schema 3 replaced each stored generating set by the strong
generating set of its stabilizer chain; the edge and wall witnesses,
which are products of those generators, changed with them, and every
other field of those files is unchanged.  Any change to the search order,
the chosen witnesses or the generating sets shows up here as a changed
graph, complex or verdict file.  A second `verify` from the caches just
written must reproduce the verdict file byte for byte.
"""

import hashlib
import os

import pytest

from vorcycle.cli import main

GOLDEN = {
    (3, "sl"): {
        "graph-n3-sl.json":
            "196c0c58064ce5589f2633b45b0ed38a7c8766261bab155a046d292e2ed23aed",
        "complex-n3-sl.json":
            "7133a98a60d7f3fc71be8abf3d02723e4c64cd7c0253e546d82061abfce7ec3d",
        "verdict-n3-sl.json":
            "bf24efd2440e5a498f8d5d52730017281ea5cb850f6e38a56cdc63d4f6447f82",
    },
    (3, "gl"): {
        "graph-n3-gl.json":
            "9f51391e4f0bc758f75a7650adfb170d1609765e0f1366237a6f2e61f1b8b847",
        "complex-n3-gl.json":
            "64672a02533d57731da65628c24dc65fa29d2f4d73454e4407a200b563b65a59",
        "verdict-n3-gl.json":
            "d53399928dceaf42e61293aea730b20c18e9ea8778e14af90e603042f286cc61",
    },
    (4, "sl"): {
        "graph-n4-sl.json":
            "28facc5eb388c1cbc43126eaec6625d1495b7d43c00e985fb4218a7d9cf18278",
        "complex-n4-sl.json":
            "abf60e39a39d435e2d0c46eb6b650cd5c3a27ce6759a0736484fdacef1bad124",
        "verdict-n4-sl.json":
            "183ced144552da80ebdb6d1ed3472488642ccd3fbed3e023d27bf24be71f2e80",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "8ffc3dfdbb85a0f6bd7d1e1ae074347a2317747e1c3805e65635d740dd19f5c6",
        "complex-n4-gl.json":
            "dbdded72dec05ea49c357267f94351037a6ad1c828ca88eac675192459a85072",
        "verdict-n4-gl.json":
            "0215cfa389d47e78bd81dffd4df39bd0fc91614db1b5a613a84fe34bea40ffed",
    },
}


@pytest.mark.parametrize("n, group", sorted(GOLDEN))
def test_verify_files_are_byte_identical(n, group, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.delenv("VORCYCLE_CACHE", raising=False)
    cache = tmp_path / "cache"
    argv = ["verify", "--n", str(n), "--group", group, "--check-dd",
            "--cache-dir", str(cache)]
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(os.listdir(cache)) == sorted(GOLDEN[n, group])
    for name, digest in GOLDEN[n, group].items():
        data = (cache / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    # Warm run: graph and complex come from the files above.
    verdict = cache / f"verdict-n{n}-{group}.json"
    verdict.unlink()
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(verdict.read_bytes()).hexdigest() == \
        GOLDEN[n, group][verdict.name]
