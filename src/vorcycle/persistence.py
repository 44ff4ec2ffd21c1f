"""On-disk caching of graphs, complexes, and verdicts.

Each file is one line of canonical JSON (sorted keys, no whitespace):
the kind, rank, group and schema version of its payload, and a sha256
of the payload's canonical encoding.  Writes go through a temporary
file and an atomic rename.  The hash is checked on the payload bytes as
stored, so a load encodes nothing again, and a file in any other form
is rejected.  To read one, run `python -m json.tool FILE`.

Graph and complex payloads hold JSON integers, which Python's json
reads and writes exactly; verdict payloads keep the decimal strings of
their reports.  The graph is stored once: a complex payload names the
hash in its graph file's header, and is read only over a graph file
with that hash.  Every finite group is stored as a generating set plus
its order, and each orbit member of a cell as [parent, face]: its
vectors are derived from the graph.  On load, a payload's rank and
group must be its file header's, graph and complex payloads are
checked field by field, and each stored generator is certified against
its record: node generators fix the Gram matrix, cell generators map
the cell's vectors onto themselves, each stored wall basis must be a
basis of its cell's span, and each wall's stored gluing must be the
graph edge at its parent facet.  The stored orders, the orientation
flags, and whether an edge witness glues its two domains, are trusted.
"""

import json
import os
import tempfile
from .complexes import CellOrbitRec, Differential, VoronoiComplex
from .cones import FacetRec, PolyCone
from .enumeration import GROUP_KINDS, Edge, PerfectFormRep, VoronoiGraph
from .forms import (
    GroupElement,
    MinVecSet,
    QForm,
    apply_to_cell,
    canonical_pair,
    rank_one,
)
from .linalg import (
    det_int,
    mat_mul,
    mat_rank,
    mat_transpose,
    sym_dim,
    sym_flatten,
)

# Version 2 stored stabilizers as generators plus order; version 3
# stores the strong generating sets of their stabilizer chains; version
# 4 stores JSON integers and orbit members as [parent, face]; complex
# version 5 refers to its graph file by hash instead of embedding the
# graph.  Verdict and tess-instance files went to version 2 when every
# file became its canonical encoding.
PAYLOAD_KINDS = {"graph": 4, "complex": 5, "verdict": 2, "tess-instance": 2}


class CacheCorrupt(ValueError):
    """A cache file failed its schema, hash or certificate checks."""


def _enc_mat(rows):
    return [list(r) for r in rows]


# One encoder for every piece: json.dumps builds a new one per call when
# given these arguments.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _holds_objects(value):
    return type(value) is list and any(type(x) is dict for x in value)


def _assemble(obj, out):
    """Append the canonical encoding of `obj` to `out` in pieces."""
    if _holds_objects(obj):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _assemble(item, out)
        out.append("]")
    elif type(obj) is dict and all(type(k) is str for k in obj) and \
            any(_holds_objects(v) for v in obj.values()):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + _dumps(key) + ":")
            _assemble(obj[key], out)
        out.append("}")
    else:
        out.append(_dumps(obj))


def canonical_dumps(obj):
    """`json.dumps(obj, sort_keys=True, separators=(",", ":"))`.

    Lists of objects, and objects with string keys that hold one, are
    assembled here member by member; every other value is one encoder
    call.  The bytes are the same, and the encoder holds the tokens of
    one record at a time instead of those of a whole file.
    """
    out = []
    _assemble(obj, out)
    return "".join(out)


def _sha256(data):
    # Imported here: hashlib loads OpenSSL, which only the commands that
    # read or write a cache file need.
    import hashlib
    return hashlib.sha256(data).hexdigest()


def graph_to_payload(graph):
    nodes = []
    for node in graph.nodes:
        facets = []
        if node.domain is not None:
            facets = [{"normal": _enc_mat(f.normal),
                       "incident": sorted(f.incident)}
                      for f in node.domain.facets]
        nodes.append({
            "gram": _enc_mat(node.form.gram),
            "min_value": node.minvecs.min_value,
            "min_vectors": _enc_mat(node.minvecs.vectors),
            "stab_order": node.stab_order,
            "generators": [_enc_mat(g.rows) for g in node.generators],
            "label": node.label,
            "facets": facets,
        })
    return {
        "n": graph.n,
        "group": graph.group_kind,
        "nodes": nodes,
        "edges": [{"node": e.node, "facet": e.facet,
                   "neighbor": e.neighbor,
                   "witness": _enc_mat(e.witness.rows)}
                  for e in graph.edges],
    }


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

    def records(self, rec, path, key):
        """(path, record) for each object in the list rec[key]."""
        out = []
        for i, item in enumerate(self.get(rec, path, key, list)):
            if type(item) is not dict:
                self.fail(path + (key, i), "is not an object")
            out.append((path + (key, i), item))
        return out

    def order(self, rec, path):
        value = self.get(rec, path, "stab_order", int)
        if value < 1:
            self.fail(path + ("stab_order",), "is not a group order")
        return value

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

    def labels(self, rec, path, key, count):
        values = self.get(rec, path, key, list)
        if len(values) != count or any(type(x) is not str for x in values):
            self.fail(path + (key,), f"is not a list of {count} labels")
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

    def vectors(self, rec, path, key, n):
        """A sorted list of canonical vector pairs (nonzero, first
        nonzero entry positive)."""
        vecs = self.field_ints(rec, path, key, None, n)
        if any(not any(v) or canonical_pair(v) != v for v in vecs) or \
                list(vecs) != sorted(vecs):
            self.fail(path + (key,),
                      "is not a sorted list of canonical vector pairs")
        return vecs

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

    def generators(self, rec, path, n, det_one):
        return tuple(
            self.element(mat, path + ("generators", i), n, det_one)
            for i, mat in enumerate(self.get(rec, path, "generators", list)))


def graph_from_payload(payload, source="<payload>"):
    """Decode and check a graph payload read from `source`.

    Besides the shape of every field, each node generator must fix the
    node's Gram matrix (g^t Q g = Q), there must be exactly one edge
    per (node, facet), and sl witnesses must have determinant one;
    stabilizer orders and whether edge witnesses glue are trusted.
    """
    rd = _Reader(source)
    n = rd.get(payload, (), "n", int)
    if n < 1:
        rd.fail(("n",), "is not a positive rank")
    group = rd.get(payload, (), "group", str)
    if group not in GROUP_KINDS:
        rd.fail(("group",), f"is not one of {GROUP_KINDS}")
    nodes = []
    for path, rec in rd.records(payload, (), "nodes"):
        form = QForm(gram=rd.field_ints(rec, path, "gram", n, n))
        mv = MinVecSet(
            vectors=rd.vectors(rec, path, "min_vectors", n),
            min_value=rd.get(rec, path, "min_value", int))
        gens = rd.generators(rec, path, n, group == "sl")
        for i, g in enumerate(gens):
            if mat_mul(mat_mul(mat_transpose(g.rows), form.gram),
                       g.rows) != form.gram:
                rd.fail(path + ("generators", i),
                        "does not fix the Gram matrix")
        facets = []
        for f_path, f in rd.records(rec, path, "facets"):
            facets.append(FacetRec(
                normal=rd.field_ints(f, f_path, "normal", n, n),
                incident=frozenset(rd.indices(f, f_path, "incident",
                                              len(mv.vectors)))))
        domain = None
        if facets:
            flats = tuple(sym_flatten(rank_one(v)) for v in mv.vectors)
            domain = PolyCone(ambient_dim=sym_dim(n), vectors=mv.vectors,
                              ray_flats=flats, facets=tuple(facets))
        nodes.append(PerfectFormRep(
            form=form, minvecs=mv, domain=domain, generators=gens,
            stab_order=rd.order(rec, path),
            label=rd.get(rec, path, "label", str)))
    edges = []
    seen = set()
    for path, e in rd.records(payload, (), "edges"):
        witness = rd.element(rd.get(e, path, "witness", list),
                             path + ("witness",), n, group == "sl")
        node = rd.index(e, path, "node", len(nodes))
        domain = nodes[node].domain
        facet = rd.index(e, path, "facet",
                         len(domain.facets) if domain else 0)
        if (node, facet) in seen:
            rd.fail(path, f"repeats the edge at node {node}, facet {facet}")
        seen.add((node, facet))
        edges.append(Edge(node=node, facet=facet,
                          neighbor=rd.index(e, path, "neighbor", len(nodes)),
                          witness=witness))
    facet_count = sum(len(node.domain.facets) for node in nodes
                      if node.domain)
    if len(edges) != facet_count:
        rd.fail(("edges",), "does not have one edge per node facet")
    return VoronoiGraph(n=n, group_kind=group, nodes=tuple(nodes),
                        edges=tuple(edges))


def _orbit_to_payload(orbit):
    return {
        "level": orbit.level,
        "vectors": _enc_mat(orbit.vectors),
        "parent": orbit.parent,
        "face_index": orbit.face_index,
        "members": [[p, f] for p, f, _ in orbit.members],
        "generators": [_enc_mat(g.rows) for g in orbit.generators],
        "stab_order": orbit.stab_order,
        "basis": _enc_mat(orbit.basis) if orbit.basis is not None else None,
        "orientation_kept": orbit.orientation_kept,
        "kind": orbit.kind,
        "witness": ({"neighbor": orbit.witness[0],
                     "g": _enc_mat(orbit.witness[1])}
                    if orbit.witness else None),
        "label": orbit.label,
    }


def _members(rd, rec, path, graph, top):
    """(parent, face, vectors) per stored [parent, face] member: a top's
    member is [node, -1] and takes the node's minimal vectors, a wall's
    takes the vectors of facet `face` of its node's domain."""
    out = []
    for i, m in enumerate(rd.get(rec, path, "members", list)):
        at = path + ("members", i)
        if type(m) is not list or len(m) != 2 or \
                type(m[0]) is not int or type(m[1]) is not int:
            rd.fail(at, "is not a [parent, face] pair")
        parent, face = m
        if not 0 <= parent < len(graph.nodes):
            rd.fail(at, f"has a parent out of range "
                        f"0..{len(graph.nodes) - 1}")
        node = graph.nodes[parent]
        if top:
            if face != -1:
                rd.fail(at, "has a face other than -1 on a top")
            out.append((parent, face, node.minvecs.vectors))
            continue
        facets = node.domain.facets if node.domain else ()
        if not 0 <= face < len(facets):
            rd.fail(at, f"has a face out of range 0..{len(facets) - 1}")
        out.append((parent, face, node.domain.facet_vectors(facets[face])))
    return tuple(out)


def _orbit_from_payload(rd, rec, path, graph, top):
    """One cell record; each generator must map its vectors onto
    themselves, and a stored basis must be a basis of the span of the
    cell's rank-one forms."""
    n = graph.n
    vectors = rd.vectors(rec, path, "vectors", n)
    gens = rd.generators(rec, path, n, graph.group_kind == "sl")
    for i, g in enumerate(gens):
        if apply_to_cell(g, vectors) != vectors:
            rd.fail(path + ("generators", i), "does not fix the cell")
    members = _members(rd, rec, path, graph, top)
    basis = rd.get(rec, path, "basis", list, type(None))
    if basis is not None:
        basis = rd.ints(basis, path + ("basis",), None, sym_dim(n))
        flats = [sym_flatten(rank_one(v)) for v in vectors]
        dim = mat_rank(flats)
        if len(basis) != dim or mat_rank(basis) != dim or \
                mat_rank(list(basis) + flats) != dim:
            rd.fail(path + ("basis",), "is not a basis of the cell's span")
    witness = rd.get(rec, path, "witness", dict, type(None))
    if witness is not None:
        w_path = path + ("witness",)
        witness = (rd.get(witness, w_path, "neighbor", int),
                   rd.field_ints(witness, w_path, "g", n, n))
    return CellOrbitRec(
        level=rd.get(rec, path, "level", str), vectors=vectors,
        parent=rd.get(rec, path, "parent", int),
        face_index=rd.get(rec, path, "face_index", int),
        members=members, generators=gens,
        stab_order=rd.order(rec, path), basis=basis,
        orientation_kept=rd.get(rec, path, "orientation_kept", bool),
        kind=rd.get(rec, path, "kind", str), witness=witness or (),
        label=rd.get(rec, path, "label", str))


def complex_to_payload(cx, graph_hash):
    """`graph_hash` is the header hash of the graph file of cx.graph."""
    return {
        "seed_perm": cx.seed_perm,
        "graph": graph_hash,
        "tops": [_orbit_to_payload(t) for t in cx.tops],
        "walls": [_orbit_to_payload(w) for w in cx.walls],
        "kept_tops": list(cx.kept_tops),
        "kept_walls": list(cx.kept_walls),
        "differential": {
            "rows": list(cx.differential.row_labels),
            "cols": list(cx.differential.col_labels),
            "triplets": [list(t) for t in cx.differential.triplets()],
        },
    }


def graph_reference(payload, source="<payload>"):
    """The hash of the graph file a complex payload refers to."""
    return _Reader(source).get(payload, (), "graph", str)


def complex_from_payload(payload, graph, source="<payload>"):
    """Decode and check a complex payload read from `source` over its
    graph, decoded from the graph file whose header hash it names.

    Every top and wall generator must map its cell's vectors onto
    themselves, each wall's witness and kind must agree with the graph
    edge at its (parent, face_index), the kept lists must be the
    increasing indices whose `orientation_kept` is true (those flags are
    trusted), and the triplets must be nonzero and strictly increasing.
    """
    graph_reference(payload, source)
    rd = _Reader(source)
    tops = tuple(_orbit_from_payload(rd, rec, path, graph, True)
                 for path, rec in rd.records(payload, (), "tops"))
    if len(tops) != len(graph.nodes):
        rd.fail(("tops",), "does not have one record per graph node")
    walls = []
    for path, rec in rd.records(payload, (), "walls"):
        walls.append(_orbit_from_payload(rd, rec, path, graph, False))
        parent = rd.index(rec, path, "parent", len(graph.nodes))
        domain = graph.nodes[parent].domain
        edge = graph.edge_at(parent, rd.index(
            rec, path, "face_index", len(domain.facets) if domain else 0))
        if walls[-1].witness != (edge.neighbor, edge.witness.rows):
            rd.fail(path + ("witness",), f"is not the graph edge at node "
                                         f"{parent}, facet {edge.facet}")
        if walls[-1].kind != ("self" if edge.neighbor == parent
                              else "non_self"):
            rd.fail(path + ("kind",), "does not match the wall's neighbor")
    kept_tops = rd.indices(payload, (), "kept_tops", len(tops))
    kept_walls = rd.indices(payload, (), "kept_walls", len(walls))
    for key, kept, cells in (("kept_tops", kept_tops, tops),
                             ("kept_walls", kept_walls, walls)):
        if kept != tuple(i for i, c in enumerate(cells)
                         if c.orientation_kept):
            rd.fail((key,), "is not the increasing list of indices whose "
                            "orientation_kept is true")
    d_path = ("differential",)
    d_rec = rd.get(payload, (), "differential", dict)
    rows = rd.labels(d_rec, d_path, "rows", len(kept_walls))
    cols = rd.labels(d_rec, d_path, "cols", len(kept_tops))
    entries = []
    triplets = rd.field_ints(d_rec, d_path, "triplets", None, 3)
    for i, (r, c, v) in enumerate(triplets):
        if not (0 <= r < len(rows) and 0 <= c < len(cols)) or v == 0 or \
                entries and (r, c) <= entries[-1][0]:
            rd.fail(d_path + ("triplets", i), "is not a nonzero entry in "
                    "range, after the previous one in (row, col) order")
        entries.append(((r, c), v))
    return VoronoiComplex(
        n=graph.n, group_kind=graph.group_kind,
        seed_perm=rd.get(payload, (), "seed_perm", int), graph=graph,
        tops=tops, walls=tuple(walls), kept_tops=kept_tops,
        kept_walls=kept_walls,
        differential=Differential(row_labels=rows, col_labels=cols,
                                  entries=tuple(entries)))


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


def load_payload(path, kind=None, n=None, group=None, digest=None):
    """The payload of the cache file at `path`.

    The file must be exactly what save_payload writes.  Its header is
    rebuilt from the decoded group, hash, kind and n, and the hash is
    checked on the stored bytes between that header and the trailer:
    the bytes the payload was decoded from.  The header must carry the
    given kind, n, group and `digest` (the graph hash a complex payload
    refers to), and a payload's own n and group must be the header's.
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
    for key, want in (("kind", kind), ("n", n), ("group", group),
                      ("hash", digest)):
        if want is not None and doc[key] != want:
            raise CacheCorrupt(f"{path}: expected {key} {want!r}")
    payload = doc["payload"]
    for key in ("n", "group"):
        if type(payload) is dict and payload.get(key, doc[key]) != doc[key]:
            raise CacheCorrupt(f"{path}: payload.{key} is not {doc[key]!r}, "
                               f"as in the file header")
    return payload


def stored_hash(path):
    """The hash in the header of the cache file at `path`, as
    save_payload wrote it: the hash of the payload bytes stored there."""
    with open(path, "rb") as fh:
        head = fh.read(256)
    return json.loads(head[:head.index(b',"kind":')] + b"}")["hash"]


def cache_path(cache_dir, kind, n, group, seed_perm=0):
    suffix = f"-p{seed_perm}" if seed_perm else ""
    return os.path.join(cache_dir, f"{kind}-n{n}-{group}{suffix}.json")
