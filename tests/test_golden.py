"""Byte-identical outputs: `verify --check-dd` reproduces recorded files.

The verdict digests were recorded from the Fraction-leaf, full-closure
isometry engine and have never changed.  The graph and complex digests
were re-recorded twice, each time because only the stored witnesses
changed:

* when cache schema 3 stored the strong generating set of each
  stabilizer chain, the edge and wall witnesses, products of those
  generators, changed with them;
* when the edges came from the crossings recorded by class discovery
  (one walk), an edge witness became the discovery match (the identity
  for the crossing that found a class) moved along its facet orbit, and
  in sl it is made determinant one with a determinant -1 symmetry of
  the neighbour instead of by a second determinant-one search.  This
  changed the 3 sl, 4 gl and 4 sl files; 3 gl kept its witnesses.

Every other field of those files stayed unchanged.  Any change to the
search order, the chosen witnesses or the generating sets shows up here
as a changed graph, complex or verdict file.  A second `verify` from the
caches just written must reproduce the verdict file byte for byte.
"""

import hashlib
import os

import pytest

from vorcycle.cli import main

GOLDEN = {
    (3, "sl"): {
        "graph-n3-sl.json":
            "86c6523bcdcaed549eeff77e38d18ce891f7efb9efe71f5816bfd34128db6886",
        "complex-n3-sl.json":
            "0b1d7941c305a870db8d9bb3c98ea2429394b5bd1d9d822340102de74da216ed",
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
            "05c00be2d67d897e3c6962c0328daca2bf01516dec1835ba99822dffc2a961c6",
        "complex-n4-sl.json":
            "e910bddd0238a5d97f698fdaa3c3d94f9fc3478030fe6e2c30b9631946d1c013",
        "verdict-n4-sl.json":
            "183ced144552da80ebdb6d1ed3472488642ccd3fbed3e023d27bf24be71f2e80",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "520bb1b6debc276097a99febba321ceb5eeefb552f41a71b439e9663fe261a8d",
        "complex-n4-gl.json":
            "9c61f8b3febed721bc01f54b66d39ebfae7b8875d252779e8be879a223ae7814",
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
