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
orbit, holding the orbit's first facet (`cones.face_order`), a bitmask
in memory, as the increasing indices of its minimal vectors
(`incident`) with the edge across it (`neighbor`, `witness`).  The
rest is derived on load by the code a build runs: node minima and
minimal vectors (`forms.minimum_and_minimal_vectors`), labels
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

On load, `documents` decodes the file (no key repeated) and reads the
payload: it is the one reader of every input document.  A payload's
rank and group must be its file header's, each record must hold
exactly its own fields, and each field is checked for shape, type and
range.  A Gram matrix must be symmetric positive
definite with spanning minimal vectors, and a node must have facet
orbits.  Each orbit record must hold a facet (`cones.facet_normal`),
its indices strictly increasing, that is the first of its orbit, and
its edge must glue it (`enumeration.glues`), with a unimodular
witness of determinant one in sl.
"""

import json
import os
import tempfile
from .complexes import build_complex
from .cones import (
    face_indices,
    face_vectors,
    facet_closure,
    facet_normal,
    meets_boundary,
    ray_weights,
)
from .documents import Reader, loads
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

# The schema version of each kind: a file of another version is refused
# with the remedy.  CHANGES.md tells what each version changed.
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
              "orbits": [{"incident": face_indices(node.facets[orbit[0]]),
                          "neighbor": e.neighbor,
                          "witness": _enc_mat(e.witness.rows)}
                         for orbit, e in zip(node.facets.orbits, edges)]}
             for node, edges in zip(graph.nodes, graph.edges)]
    return {"n": graph.n, "group": graph.group_kind, "nodes": nodes}


def _face(rd, rec, path, key, bound):
    """The face rec[key], a strictly increasing list of indices in
    0..bound-1, as a bitmask."""
    face = 0
    for value in rd.get(rec, path, key, list):
        if type(value) is not int or not 0 <= value < bound or \
                face >> value:
            rd.fail(path + (key,), f"is not a strictly increasing "
                    f"list of indices in 0..{bound - 1}")
        face |= 1 << value
    return face


def _matrix(rd, rec, path, key, n):
    """rec[key], a list of n lists of n JSON integers, as a tuple of
    tuples."""
    value = rd.get(rec, path, key, list)
    if len(value) != n or any(
            type(row) is not list or len(row) != n or
            any(type(x) is not int for x in row) for row in value):
        rd.fail(path + (key,), f"is not a list of {n} integers per row")
    return tuple(map(tuple, value))


def _element(rd, rec, path, key, n, det_one):
    """rec[key], an n x n unimodular matrix, as a group element, of
    determinant one when `det_one`."""
    rows = _matrix(rd, rec, path, key, n)
    det = det_int(rows)
    if det not in (1, -1):
        rd.fail(path + (key,), "is not unimodular")
    if det_one and det != 1:
        rd.fail(path + (key,),
                "has determinant -1 in the determinant-one group")
    return GroupElement(rows=rows, det=det)


def graph_from_payload(payload, source="<payload>"):
    """Decode and check a graph payload read from `source`.

    Each node's minimal vectors, label and stabilizer are those of its
    form, as in the walk.  Each orbit record must hold a facet of the
    node's domain (`cones.facet_normal`), and the stabilizer generators
    carry those facets to the node's facet list (`cones.facet_closure`),
    in which each record must be the first facet of an orbit of its own
    (`cones.face_order`), in that order.  Its edge must glue the facet
    (`enumeration.glues`).
    """
    rd = Reader(CacheCorrupt, f"{source}: payload")
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
        form = QForm(gram=_matrix(rd, rec, path, "gram", n))
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
            rep = _face(rd, o, o_path, "incident", len(mv.vectors))
            try:
                facet_normal(mv.vectors, rep, weights)
            except ValueError:
                rd.fail(o_path + ("incident",), "is not a facet of the "
                        "node's domain")
            reps.append(rep)
            neighbor = rd.get(o, o_path, "neighbor", int)
            if not 0 <= neighbor < len(node_recs):
                rd.fail(o_path + ("neighbor",),
                        f"is out of range 0..{len(node_recs) - 1}")
            node_edges.append(Edge(neighbor, _element(
                rd, o, o_path, "witness", n, group == "sl")))
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
    rd = Reader(CacheCorrupt, f"{source}: payload")
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
    the header's.  A file that cannot be opened or read is refused like
    one that fails these checks.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        # A directory at the path, or a file this process may not read.
        raise CacheCorrupt(f"{path}: cannot be read "
                           f"({exc.strerror or exc})") from exc
    try:
        doc = loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8, a repeated key and integer
        # literals past the interpreter's digit limit; RecursionError,
        # arrays nested past the decoder's depth.
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
