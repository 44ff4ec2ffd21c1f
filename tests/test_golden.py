"""Byte-identical outputs: `verify --check-dd` reproduces recorded files.

The sha256 digests below were recorded from the Fraction-leaf,
full-closure isometry engine.  Any change to the search order, the
chosen witnesses or the generating sets shows up here as a changed
graph, complex or verdict file.
"""

import hashlib
import os

import pytest

from vorcycle.cli import main

GOLDEN = {
    (3, "sl"): {
        "graph-n3-sl.json":
            "666df674164dc69f4bb1eb903da845b16fa4a8b209e21c2fa430c6200d7e8974",
        "complex-n3-sl.json":
            "d42608cbdfc3a8b4fab29775f43bf6bd85b52b2a95ae2a474ab296e4c0711188",
        "verdict-n3-sl.json":
            "bf24efd2440e5a498f8d5d52730017281ea5cb850f6e38a56cdc63d4f6447f82",
    },
    (3, "gl"): {
        "graph-n3-gl.json":
            "6ece15a3de74fe2c7cb0f28c1e1214c7852670b9d07c1919c780beefe32071ef",
        "complex-n3-gl.json":
            "88d4c80645b55cd2982cf6beb5dd1ac0caae05d43d32a9f6894f0996cf48cd82",
        "verdict-n3-gl.json":
            "d53399928dceaf42e61293aea730b20c18e9ea8778e14af90e603042f286cc61",
    },
    (4, "sl"): {
        "graph-n4-sl.json":
            "6e9866bea8e5f52c20671b4c2bb123c58c39fbc4f17a8b0d0907b4dfc37d85d5",
        "complex-n4-sl.json":
            "a9dc522863436d761ec0b2a453d066fc092be9d06e74bdc66037e7cb103f19c9",
        "verdict-n4-sl.json":
            "183ced144552da80ebdb6d1ed3472488642ccd3fbed3e023d27bf24be71f2e80",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "c98ab4077b996598a1a245d1b9c7a1423aad66f395fa7a0f3085e43242a922df",
        "complex-n4-gl.json":
            "3f7c3811b65f95e6742d768d9d6118753e8acd94863bb382d3f6d1006932d935",
        "verdict-n4-gl.json":
            "0215cfa389d47e78bd81dffd4df39bd0fc91614db1b5a613a84fe34bea40ffed",
    },
}


@pytest.mark.parametrize("n, group", sorted(GOLDEN))
def test_verify_files_are_byte_identical(n, group, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.delenv("VORCYCLE_CACHE", raising=False)
    cache = tmp_path / "cache"
    code = main(["verify", "--n", str(n), "--group", group, "--check-dd",
                 "--cache-dir", str(cache)])
    capsys.readouterr()
    assert code == 0
    assert sorted(os.listdir(cache)) == sorted(GOLDEN[n, group])
    for name, digest in GOLDEN[n, group].items():
        data = (cache / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
