"""Byte-identical outputs: `verify --check-dd` reproduces recorded files.

The verdict digests were recorded from the Fraction-leaf, full-closure
isometry engine.  The graph and complex digests were re-recorded when
cache schema 2 replaced each stored stabilizer element list by its
generating set (the same `small_generating_set` output); every other
field of those files is unchanged.  Any change to the search order,
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
            "f9fc5ed49e1553406b1f9a30be46761e3dd6938b0f77bf2e53e1892492f5a7a5",
        "complex-n3-sl.json":
            "11988220cfef1a52df9c3ac67e446ca1fde8f6f91133db8ddecb3d034836a8a2",
        "verdict-n3-sl.json":
            "bf24efd2440e5a498f8d5d52730017281ea5cb850f6e38a56cdc63d4f6447f82",
    },
    (3, "gl"): {
        "graph-n3-gl.json":
            "1b2bd3810c879815eb9dab6ff587f5774b076d61ae3c007fa6bafe63df34452a",
        "complex-n3-gl.json":
            "f751ea1d9eddf9f41a4304c1c06fe9abe562759355b605e7b3ee6daddd203e7b",
        "verdict-n3-gl.json":
            "d53399928dceaf42e61293aea730b20c18e9ea8778e14af90e603042f286cc61",
    },
    (4, "sl"): {
        "graph-n4-sl.json":
            "451b79ba6bc085dbd55b2b4964e67557d272d0e72e4ae19a9a9c9fb423253c2e",
        "complex-n4-sl.json":
            "8441e82d837213ce23234470588c8c6a7997767f230cf610c265a66903e37038",
        "verdict-n4-sl.json":
            "183ced144552da80ebdb6d1ed3472488642ccd3fbed3e023d27bf24be71f2e80",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "594093649ecbef87c7a2755fea8d96d5b99cde597965328d6ca342bc43036923",
        "complex-n4-gl.json":
            "0b0fee0f01ec3a40e3adaf285a5e214e3d0f3f954e98211c0cfc468dfc76c374",
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
