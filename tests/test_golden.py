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

Next only the complex digests were re-recorded, once: complex
schema 5 stores the graph once, in the graph file.  A complex payload
lost its embedded graph and its `n` and `group`, which repeat its file
header and the graph, and refers to the graph file by the hash in that
file's header instead.  Its other fields are the schema-4 ones; the
graph and verdict files, and so their digests, did not change.

The graph and complex digests were re-recorded once more, together,
when each fact came to be stored once.  Graph schema 5 stores each edge
on its facet (the facet record carries `neighbor` and `witness`; the
`edges` list, whose `node` and `facet` only repeated the facet's
position, went).  Complex schema 6 keeps only what the graph cannot
give: the seed permutation, the graph hash, each wall's `parent`,
`face_index`, members, generators, order, basis and orientation flag,
and the differential's triplets.  The top classes, the wall vectors,
kinds, witnesses and labels, the kept lists and the differential's
labels are derived on load, as a build derives them.  No value changed;
the verdict files, and so their digests, did not change.

The graph and complex digests were re-recorded again, together, when a
load came to derive what is cheap instead of trusting it.  A stored
stabilizer order and orientation flag decide the verdict (each top
class enters the cycle with weight one over its order, and a wall
survives only if no stabilizer element reverses it), so an edited,
re-hashed file could print a false verdict.  Graph schema 6 drops each
node's generators and order, which a load takes from `form_group` of
the node's form; complex schema 7 drops each wall's generators, order,
basis and orientation flag, which a load derives by the function a
build runs (`complexes.class_record`).  A file is the schema-5 or
schema-6 one with those fields removed, and the complex file names the
new graph file's hash; no other value changed, and the verdict files,
and so their digests, did not change.

The 3 sl and 4 sl graph and complex digests were re-recorded once
more, when the walk came to run in the chosen group.  The sl walk
reduces facets modulo the determinant-one stabilizer and matches each
neighbour to its class by a determinant-one search, so an sl edge
witness is that match moved along a determinant-one facet orbit instead
of a full-group witness corrected by a determinant -1 symmetry.  Only
the `witness` of some facets changed (3 of 6 at rank 3, 45 of 74 at
rank 4), and with it the graph hash that the complex file names; the
gl files and the verdict files, and so their digests, did not change.

Any change to the search order, the chosen witnesses or the generating
sets shows up here as a changed graph, complex or verdict file.  A second
`verify` from the caches just written must reproduce the verdict file
byte for byte.
"""

import hashlib
import os

import pytest

from vorcycle.cli import main

GOLDEN = {
    (3, "sl"): {
        "graph-n3-sl.json":
            "6a6bee70572bc2726d681bfcf33a7d5fecb6b33e518c59d953404ba694f6360a",
        "complex-n3-sl.json":
            "c1ad9891046791d1bcca2f38e711650a4d0d78f65552e9281e188399799a8092",
        "verdict-n3-sl.json":
            "53514469a3a0e5fcacdf9809bc173d4c6e5b8cf5e8090d94a2bb864045dac997",
    },
    (3, "gl"): {
        "graph-n3-gl.json":
            "0405080487c8e1468f6f82d8ca44cd53f8e7cdcef78f983c45f15ceda34802ea",
        "complex-n3-gl.json":
            "a426ee2255dc1bea9c30b8454a87fa0a8430195486282d959464d714113f1462",
        "verdict-n3-gl.json":
            "a23f09fabc1d98f5970ce934b68c659deddbc6b7a650fef3f9717150a41199a2",
    },
    (4, "sl"): {
        "graph-n4-sl.json":
            "3a5228a132790b2d9de6782023522895961ace71d675a7b0c50e752f704c24bb",
        "complex-n4-sl.json":
            "01dace8b4c10a8d0059d91b9ae043567ec6cc52b0f5fb44fe3aae83bc256ec08",
        "verdict-n4-sl.json":
            "36db85c4819198a94d977b86420b3fdfbd2d950d6f8f2f3adb4512417252bba0",
    },
    (4, "gl"): {
        "graph-n4-gl.json":
            "d6e2f386090900f86996ab50483b84591f717a2726cacd9025c9385ccc0130c7",
        "complex-n4-gl.json":
            "0f7b8162feb6836ed6f3a24cc8b96be92f15c55b73d8942fd79d460e79ec3909",
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
