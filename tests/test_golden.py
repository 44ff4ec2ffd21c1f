"""Byte-identical outputs: `verify --check-dd` reproduces recorded files.

The verdict payloads were recorded from the Fraction-leaf, full-closure
isometry engine and have never changed; their digests were re-recorded
once, when every file became its canonical encoding (below).  The graph
and complex digests were re-recorded three times.  Twice only the
stored witnesses changed:

* when cache schema 3 stored the strong generating set of each
  stabilizer chain, the edge and wall witnesses, products of those
  generators, changed with them;
* when the edges came from the crossings recorded by class discovery
  (one walk), an edge witness became the discovery match (the identity
  for the crossing that found a class) moved along its facet orbit, and
  in sl it is made determinant one with a determinant -1 symmetry of
  the neighbour instead of by a second determinant-one search.  This
  changed the 3 sl, 4 gl and 4 sl files; 3 gl kept its witnesses.

Every other field of those files stayed unchanged.  The third time only
the encoding changed: cache schema 4 (verdict version 2) writes each
file as one line of canonical JSON, with graph and complex integers as
JSON integers and orbit members as [parent, face].  Decoded, the
verdict payloads are the recorded ones, and the graph and complex
payloads are the schema-3 ones with decimal strings read as integers
and members cut to [parent, face].

Since then only the complex digests were re-recorded, once: complex
schema 5 stores the graph once, in the graph file.  A complex payload
lost its embedded graph and its `n` and `group`, which repeat its file
header and the graph, and refers to the graph file by the hash in that
file's header instead.  Its other fields are the schema-4 ones; the
graph and verdict files, and so their digests, did not change.

Any change to the search order, the chosen witnesses or the generating
sets shows up here as a changed graph, complex or verdict file.  A second `verify` from the
caches just written must reproduce the verdict file byte for byte.
"""

import hashlib
import os

import pytest

from vorcycle.cli import main

GOLDEN = {
    (3, "sl"): {
        "graph-n3-sl.json":
            "df1e58530070dab14bafaa37c5285c1e0c45f250027e9b62f974e966427e453f",
        "complex-n3-sl.json":
            "ae2daa6fc15ba5ecb2cb85f124f4535d1058575507a924199524d9a26499f48d",
        "verdict-n3-sl.json":
            "53514469a3a0e5fcacdf9809bc173d4c6e5b8cf5e8090d94a2bb864045dac997",
    },
    (3, "gl"): {
        "graph-n3-gl.json":
            "0ad56d01b8781b3a29af792ad8c0552582bc9a242411f5a909fa378ef0f713e8",
        "complex-n3-gl.json":
            "e070ec99f0ce3b973bbe9ed152cd5af42ffa42c5c96385a89b4f3d6d610aa58f",
        "verdict-n3-gl.json":
            "a23f09fabc1d98f5970ce934b68c659deddbc6b7a650fef3f9717150a41199a2",
    },
    (4, "sl"): {
        "graph-n4-sl.json":
            "1015d2274bb2c271abbc14b86d618a7a82bce39a4fe88a11b8048b6d76644af9",
        "complex-n4-sl.json":
            "ff73e3e32c8b74366ede8cac3795d131e86fb859ec57a661ac20ec9b046eb0da",
        "verdict-n4-sl.json":
            "36db85c4819198a94d977b86420b3fdfbd2d950d6f8f2f3adb4512417252bba0",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "34c4bad2b220b2e14bc868e833c3583a6c3db01c03c1b52c43a51c821b935bb0",
        "complex-n4-gl.json":
            "85fe20eb93c63274c037761870a831d015a6fc8ab8049b016866c12d16c3c6a4",
        "verdict-n4-gl.json":
            "22cedf4684c60d5857d0272eb219e041c7f55a3607958676995edfd79b0b527c",
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
