"""On-disk caching of graphs, complexes, and verdicts.

Each file is one line of canonical JSON (sorted keys, no whitespace):
the kind, rank, group and schema version of its payload, and a sha256
of the payload's canonical encoding.  Writes go through a temporary
file and an atomic rename.  The hash is checked on the payload bytes as
stored, so a load encodes nothing again, and a file in any other form
is rejected.  To read one, run `python -m json.tool FILE`.

Graph and complex payloads hold JSON integers, which Python's json
reads and writes exactly; verdict payloads keep the decimal strings of
their reports.  A graph file stores each fact once, and only what is
costly to compute: per node its Gram matrix and one record per facet
orbit, holding the orbit's first facet in sorted order as the indices
of its minimal vectors (`incident`) with the edge across it
(`neighbor`, `witness`).  The rest is derived on load by the code a
build runs: node minima and minimal vectors
(`forms.minimum_and_minimal_vectors`), labels
(`enumeration.class_label`), node stabilizers (`isometry.form_group`),
and the other facets, numbered by one orbit walk from the stored ones,
with their orbits and Schreier vectors (`cones.facet_closure`, the
numbering of `cones.build_cone`).  The completeness of each node's
orbit list (that no facet orbit is left out) is trusted.

A complex file stores per wall its [parent, face] members and the
triplets of its differential; its rank, group and seed permutation are
those of its file name.  A load derives the complex over the graph
(`complexes.build_complex`) with the caller's seed permutation, and
refuses a file whose walls or triplets are not those of the derived
complex, naming the first entry that differs.

On load, a payload's rank and group must be its file header's, each
record must hold exactly its own fields, and each field is checked for
shape, type and range.  A Gram matrix must be symmetric positive
definite with spanning minimal vectors, and a node must have facet
orbits.  Each orbit record must hold a facet (`cones.facet_normal`)
that is the sorted-first of its orbit, and its edge must glue it
(`enumeration.glues`), with a unimodular witness of determinant one in
sl.
"""

import json
import os
import tempfile
from .complexes import build_complex
from .cones import (
    face_vectors,
    facet_closure,
    facet_normal,
    meets_boundary,
    ray_weights,
)
from .enumeration import (
    GROUP_KINDS,
    Edge,
    PerfectFormRep,
    VoronoiGraph,
    class_label,
    glues,
)
from .forms import (
    GroupElement,
    QForm,
    is_positive_definite,
    minimum_and_minimal_vectors,
)
from .isometry import form_group
from .linalg import det_int, mat_transpose

# Version 2 stored stabilizers as generators plus order; version 3
# stores the strong generating sets of their stabilizer chains; version
# 4 stores JSON integers and orbit members as [parent, face]; complex
# version 5 refers to its graph file by hash instead of embedding the
# graph; graph version 5 stores each edge on its facet, and complex
# version 6 only what the graph cannot give; graph version 6 and
# complex version 7 store no stabilizer, order, basis or orientation
# flag; complex version 8 stores a wall as its members only; graph
# version 7 stores no minimum, minimal vectors or facet normal; graph
# version 8 stores one record per facet orbit, at its first facet, and
# a load regenerates the other facets; complex version 9 numbers a
# member's face in the orbit walk's order, no longer in the double
# description's sorted order; graph version 9 stores no label, and
# complex version 10 no seed permutation or graph hash.  Verdict files
# went to version 2 when every file became its canonical encoding.
PAYLOAD_KINDS = {"graph": 9, "complex": 10, "verdict": 2}

# The fields of each record: a record with any other field is refused.
GRAPH_FIELDS = ("n", "group", "nodes")
NODE_FIELDS = ("gram", "orbits")
ORBIT_FIELDS = ("incident", "neighbor", "witness")
COMPLEX_FIELDS = ("walls", "triplets")


class CacheCorrupt(ValueError):
    """A cache file failed its schema, hash or certificate checks."""


def _enc_mat(rows):
    return [list(r) for r in rows]


# The canonical encoding, json.dumps(obj, sort_keys=True,
# separators=(",", ":")), with its encoder built once: json.dumps builds
# a new one per call when given these arguments.
canonical_dumps = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


def _sha256(data):
    # Imported here: hashlib loads OpenSSL, which only the commands that
    # read or write a cache file need.
    import hashlib
    return hashlib.sha256(data).hexdigest()


def graph_to_payload(graph):
    nodes = [{"gram": _enc_mat(node.form.gram),
              "orbits": [{"incident": sorted(node.facets[orbit[0]]),
                          "neighbor": e.neighbor,
                          "witness": _enc_mat(e.witness.rows)}
                         for orbit, e in zip(node.facets.orbits, edges)]}
             for node, edges in zip(graph.nodes, graph.edges)]
    return {"n": graph.n, "group": graph.group_kind, "nodes": nodes}


def _dotted(path):
    out = "payload"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


class _Reader:
    """Typed reads from a decoded payload.

    Every failure raises CacheCorrupt naming the file and the field
    path, so a malformed cache never surfaces as a KeyError or
    TypeError.
    """

    def __init__(self, source):
        self.source = source

    def fail(self, path, problem):
        raise CacheCorrupt(f"{self.source}: {_dotted(path)} {problem}")

    def get(self, rec, path, key, *kinds):
        if type(rec) is not dict:
            self.fail(path, "is not an object")
        if key not in rec:
            self.fail(path + (key,), "is missing")
        value = rec[key]
        if type(value) not in kinds:
            self.fail(path + (key,), "has the wrong type")
        return value

    def fields(self, rec, path, keys):
        """Refuse an object `rec` with a field outside `keys`."""
        if type(rec) is not dict:
            self.fail(path, "is not an object")
        for key in rec:
            if key not in keys:
                self.fail(path + (key,), "is not a field of this record")
        return rec

    def records(self, rec, path, key, keys):
        """(path, record) for each object in the list rec[key], each
        with no field outside `keys`."""
        return [(path + (key, i), self.fields(item, path + (key, i), keys))
                for i, item in enumerate(self.get(rec, path, key, list))]

    def index(self, rec, path, key, bound):
        value = self.get(rec, path, key, int)
        if not 0 <= value < bound:
            self.fail(path + (key,), f"is out of range 0..{bound - 1}")
        return value

    def indices(self, rec, path, key, bound):
        values = self.get(rec, path, key, list)
        for value in values:
            if type(value) is not int or not 0 <= value < bound:
                self.fail(path + (key,),
                          f"is not a list of indices in 0..{bound - 1}")
        return tuple(values)

    def ints(self, value, path, rows, cols):
        """A list of `rows` lists (any count if None) of `cols` JSON
        integers, as a tuple of integer tuples."""
        problem = f"is not a list of {cols} integers per row"
        if type(value) is not list or rows not in (None, len(value)):
            self.fail(path, problem)
        for row in value:
            if type(row) is not list or len(row) != cols:
                self.fail(path, problem)
            for x in row:
                if type(x) is not int:
                    self.fail(path, problem)
        return tuple(map(tuple, value))

    def field_ints(self, rec, path, key, rows, cols):
        return self.ints(self.get(rec, path, key, list), path + (key,),
                         rows, cols)

    def element(self, value, path, n, det_one):
        """An n x n unimodular matrix as a group element, of determinant
        one when `det_one`."""
        rows = self.ints(value, path, n, n)
        det = det_int(rows)
        if det not in (1, -1):
            self.fail(path, "is not unimodular")
        if det_one and det != 1:
            self.fail(path, "has determinant -1 in the determinant-one group")
        return GroupElement(rows=rows, det=det)


def graph_from_payload(payload, source="<payload>"):
    """Decode and check a graph payload read from `source`.

    Each node's minimal vectors, label and stabilizer are those of its
    form, as in the walk.  Each orbit record must hold a facet of the
    node's domain (`cones.facet_normal`), and the stabilizer generators
    carry those facets to the node's facet list (`cones.facet_closure`),
    in which each record must be the sorted-first facet of an orbit of
    its own, in increasing order.  Its edge must glue the facet
    (`enumeration.glues`).
    """
    rd = _Reader(source)
    rd.fields(payload, (), GRAPH_FIELDS)
    n = rd.get(payload, (), "n", int)
    if n < 2:
        rd.fail(("n",), "is not a rank of at least 2")
    group = rd.get(payload, (), "group", str)
    if group not in GROUP_KINDS:
        rd.fail(("group",), f"is not one of {GROUP_KINDS}")
    node_recs = rd.records(payload, (), "nodes", NODE_FIELDS)
    nodes = []
    edges = []
    for i, (path, rec) in enumerate(node_recs):
        form = QForm(gram=rd.field_ints(rec, path, "gram", n, n))
        if mat_transpose(form.gram) != form.gram or \
                not is_positive_definite(form.gram):
            rd.fail(path, "is not a positive definite form")
        # Fincke-Pohst gives the minimal vectors sorted, each pair once,
        # as the facets' indices and form_group's search take them.
        mv = minimum_and_minimal_vectors(form)
        if meets_boundary(mv.vectors):
            rd.fail(path, "is not a form with spanning minimal vectors")
        reps = []
        node_edges = []
        weights = ray_weights(mv.vectors)
        for o_path, o in rd.records(rec, path, "orbits", ORBIT_FIELDS):
            rep = frozenset(rd.indices(o, o_path, "incident",
                                       len(mv.vectors)))
            try:
                facet_normal(mv.vectors, rep, weights)
            except ValueError:
                rd.fail(o_path + ("incident",), "is not a facet of the "
                        "node's domain")
            reps.append(rep)
            node_edges.append(Edge(
                neighbor=rd.index(o, o_path, "neighbor", len(node_recs)),
                witness=rd.element(rd.get(o, o_path, "witness", list),
                                   o_path + ("witness",), n,
                                   group == "sl")))
        if not reps:
            rd.fail(path + ("orbits",), "is empty")
        gens, order = form_group(form, mv.vectors, det_one=group == "sl")
        try:
            facets = facet_closure(mv.vectors, reps, gens)
        except ValueError:
            rd.fail(path + ("orbits",), "does not hold the first facet of "
                    "each facet orbit once, in orbit order")
        edges.append(tuple(node_edges))
        nodes.append(PerfectFormRep(
            form=form, minvecs=mv, facets=facets, generators=gens,
            stab_order=order, label=class_label(form, mv, n, i)))
    for (path, _), node, row in zip(node_recs, nodes, edges):
        vectors = node.minvecs.vectors
        for r, (orbit, e) in enumerate(zip(node.facets.orbits, row)):
            if not glues(vectors, face_vectors(vectors, node.facets[orbit[0]]),
                         e.witness, nodes[e.neighbor].minvecs.vectors):
                rd.fail(path + ("orbits", r, "witness"),
                        "does not glue the facet to its neighbor")
    return VoronoiGraph(n=n, group_kind=group, nodes=tuple(nodes),
                        edges=tuple(edges))


def complex_to_payload(cx):
    return {
        "walls": [{"members": [[p, f] for p, f in w.members]}
                  for w in cx.walls],
        "triplets": [list(t) for t in cx.differential.triplets()],
    }


def complex_from_payload(payload, graph, seed_perm, source="<payload>"):
    """The complex of seed permutation `seed_perm` over `graph`, checked
    against a complex payload read from `source`.

    The complex is built over the graph (`complexes.build_complex`), and
    the stored walls and triplets must be those that
    `complex_to_payload` writes for it.  A WallNotGlued of the build
    propagates: it is the graph's fault, not this file's.
    """
    rd = _Reader(source)
    rd.fields(payload, (), COMPLEX_FIELDS)
    cx = build_complex(graph, seed_perm)
    derived = complex_to_payload(cx)
    for key in COMPLEX_FIELDS:
        stored, want = rd.get(payload, (), key, list), derived[key]
        # Compared as canonical encodings, so that true or 1.0 is not 1.
        for i in range(max(len(stored), len(want))):
            if canonical_dumps(stored[i:i + 1]) != \
                    canonical_dumps(want[i:i + 1]):
                rd.fail((key, i), "differs from the complex derived from "
                        "the graph")
    return cx


def _frame(kind, n, group, digest):
    """The bytes before and after the payload in a cache file: the
    canonical encoding of the document, whose keys sort around it."""
    head = {"group": group, "hash": digest, "kind": kind, "n": n}
    header = canonical_dumps(head)[:-1] + ',"payload":'
    trailer = f',"schema_version":{PAYLOAD_KINDS[kind]}}}\n'
    return header.encode(), trailer.encode()


def save_payload(path, kind, n, group, payload):
    """Write `payload` as `canonical_dumps` of its document plus a
    newline."""
    if kind not in PAYLOAD_KINDS:
        raise ValueError(f"unknown payload kind {kind!r}")
    body = canonical_dumps(payload).encode()
    header, trailer = _frame(kind, n, group, _sha256(body))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + body + trailer)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_payload(path, kind=None, n=None, group=None):
    """The payload of the cache file at `path`.

    The file must be exactly what save_payload writes.  Its header is
    rebuilt from the decoded group, hash, kind and n, and the hash is
    checked on the stored bytes between that header and the trailer:
    the bytes the payload was decoded from.  The header must carry the
    given kind, n and group, and a payload's own n and group must be
    the header's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and integer literals past
        # the interpreter's digit limit; RecursionError, arrays nested
        # past the decoder's depth.
        raise CacheCorrupt(f"{path}: not valid JSON ({exc})") from exc
    if type(doc) is not dict:
        raise CacheCorrupt(f"{path}: not a cache document")
    for key in ("schema_version", "kind", "n", "group", "hash", "payload"):
        if key not in doc:
            raise CacheCorrupt(f"{path}: missing field {key!r}")
    if not isinstance(doc["kind"], str) or doc["kind"] not in PAYLOAD_KINDS:
        raise CacheCorrupt(f"{path}: unknown kind {doc['kind']!r}")
    version = PAYLOAD_KINDS[doc["kind"]]
    if doc["schema_version"] != version:
        raise CacheCorrupt(
            f"{path}: schema version {doc['schema_version']} != {version}; "
            f"another version of vorcycle wrote this file: delete it or "
            f"use a fresh --cache-dir")
    header, trailer = _frame(doc["kind"], doc["n"], doc["group"],
                             doc["hash"])
    if not data.startswith(header) or not data.endswith(trailer):
        raise CacheCorrupt(f"{path}: not in the canonical form that "
                           f"vorcycle writes")
    body = memoryview(data)[len(header):len(data) - len(trailer)]
    if _sha256(body) != doc["hash"]:
        raise CacheCorrupt(f"{path}: content hash mismatch")
    for key, want in (("kind", kind), ("n", n), ("group", group)):
        if want is not None and doc[key] != want:
            raise CacheCorrupt(f"{path}: expected {key} {want!r}")
    payload = doc["payload"]
    for key in ("n", "group"):
        if type(payload) is dict and payload.get(key, doc[key]) != doc[key]:
            raise CacheCorrupt(f"{path}: payload.{key} is not {doc[key]!r}, "
                               f"as in the file header")
    return payload


def cache_path(cache_dir, kind, n, group, seed_perm=0):
    suffix = f"-p{seed_perm}" if seed_perm else ""
    return os.path.join(cache_dir, f"{kind}-n{n}-{group}{suffix}.json")
