"""On-disk caching of graphs, complexes, and verdicts.

Files are JSON with every arbitrary-precision integer serialized as a
decimal string and every rational as "p/q", so exactness survives the
round trip and the files stay diffable.  Each file carries a schema
version and a content hash over the canonical payload encoding; writes
go through a temporary file and an atomic rename.

Every finite group is stored as a generating set plus its order.  On
load, graph and complex payloads are checked field by field, and each
stored generator is certified against its record: node generators fix
the Gram matrix, cell generators map the cell's vectors onto
themselves, and each stored wall basis must be a basis of its cell's
span.  The stored orders are trusted.
"""

import hashlib
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
# stores the strong generating sets of their stabilizer chains.
# Verdict and tess-instance payloads did not change, so they keep
# version 1 and their files stay byte-identical.
SCHEMA_VERSION = 3
PAYLOAD_KINDS = {"graph": SCHEMA_VERSION, "complex": SCHEMA_VERSION,
                 "verdict": 1, "tess-instance": 1}


class CacheCorrupt(ValueError):
    """A cache file failed its schema, hash or certificate checks."""


def _enc_mat(rows):
    return [[str(x) for x in r] for r in rows]


def _enc_vecs(vecs):
    return [[str(x) for x in v] for v in vecs]


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(payload):
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


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
            "min_value": str(node.minvecs.min_value),
            "min_vectors": _enc_vecs(node.minvecs.vectors),
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

    def integer(self, value, path):
        """One decimal string as an integer."""
        try:
            if type(value) is not str:
                raise ValueError
            return int(value)
        except ValueError:
            self.fail(path, "is not a decimal integer")

    def ints(self, value, path, rows, cols):
        """A list of `rows` lists (any count if None) of `cols` decimal
        strings, as a tuple of integer tuples."""
        try:
            if type(value) is not list or rows not in (None, len(value)):
                raise ValueError
            out = []
            for row in value:
                if type(row) is not list or len(row) != cols:
                    raise ValueError
                for x in row:
                    if type(x) is not str:
                        raise ValueError
                out.append(tuple(map(int, row)))
        except ValueError:
            self.fail(path, f"is not a list of {cols} integers per row")
        return tuple(out)

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

    def element(self, value, path, n):
        """An n x n unimodular matrix as a group element."""
        rows = self.ints(value, path, n, n)
        det = det_int(rows)
        if det not in (1, -1):
            self.fail(path, "is not unimodular")
        return GroupElement(rows=rows, det=det)

    def generators(self, rec, path, n, det_one):
        """Unimodular generators, of determinant one when `det_one`."""
        out = []
        for i, mat in enumerate(self.get(rec, path, "generators", list)):
            g = self.element(mat, path + ("generators", i), n)
            if det_one and g.det != 1:
                self.fail(path + ("generators", i),
                          "has determinant -1 in the determinant-one group")
            out.append(g)
        return tuple(out)


def graph_from_payload(payload, source="<payload>", at=()):
    """Decode and check a graph payload read from `source`.

    Besides the shape of every field, each node generator must fix the
    node's Gram matrix (g^t Q g = Q), and there must be exactly one edge
    per (node, facet); stabilizer orders and edge witnesses are trusted.
    `at` prefixes the field paths in error messages (a graph stored
    inside a complex payload sits at ("graph",)).
    """
    rd = _Reader(source)
    if type(payload) is not dict:
        rd.fail(at, "is not an object")
    n = rd.get(payload, at, "n", int)
    if n < 1:
        rd.fail(at + ("n",), "is not a positive rank")
    group = rd.get(payload, at, "group", str)
    if group not in GROUP_KINDS:
        rd.fail(at + ("group",), f"is not one of {GROUP_KINDS}")
    nodes = []
    for path, rec in rd.records(payload, at, "nodes"):
        form = QForm(gram=rd.field_ints(rec, path, "gram", n, n))
        mv = MinVecSet(
            vectors=rd.vectors(rec, path, "min_vectors", n),
            min_value=rd.integer(rd.get(rec, path, "min_value", str),
                                 path + ("min_value",)))
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
    for path, e in rd.records(payload, at, "edges"):
        witness = rd.element(rd.get(e, path, "witness", list),
                             path + ("witness",), n)
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
        rd.fail(at + ("edges",), "does not have one edge per node facet")
    return VoronoiGraph(n=n, group_kind=group, nodes=tuple(nodes),
                        edges=tuple(edges))


def _orbit_to_payload(orbit):
    return {
        "level": orbit.level,
        "vectors": _enc_vecs(orbit.vectors),
        "parent": orbit.parent,
        "face_index": orbit.face_index,
        "members": [{"parent": p, "face": f, "vectors": _enc_vecs(v)}
                    for p, f, v in orbit.members],
        "generators": [_enc_mat(g.rows) for g in orbit.generators],
        "stab_order": orbit.stab_order,
        "basis": _enc_vecs(orbit.basis) if orbit.basis is not None else None,
        "orientation_kept": orbit.orientation_kept,
        "kind": orbit.kind,
        "witness": ({"neighbor": orbit.witness[0],
                     "g": _enc_mat(orbit.witness[1])}
                    if orbit.witness else None),
        "label": orbit.label,
    }


def _orbit_from_payload(rd, rec, path, n, det_one):
    """One cell record; each generator must map its vectors onto
    themselves, and a stored basis must be a basis of the span of the
    cell's rank-one forms."""
    vectors = rd.vectors(rec, path, "vectors", n)
    gens = rd.generators(rec, path, n, det_one)
    for i, g in enumerate(gens):
        if apply_to_cell(g, vectors) != vectors:
            rd.fail(path + ("generators", i), "does not fix the cell")
    members = tuple(
        (rd.get(m, m_path, "parent", int), rd.get(m, m_path, "face", int),
         rd.vectors(m, m_path, "vectors", n))
        for m_path, m in rd.records(rec, path, "members"))
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


def complex_to_payload(cx):
    return {
        "n": cx.n,
        "group": cx.group_kind,
        "seed_perm": cx.seed_perm,
        "graph": graph_to_payload(cx.graph),
        "tops": [_orbit_to_payload(t) for t in cx.tops],
        "walls": [_orbit_to_payload(w) for w in cx.walls],
        "kept_tops": list(cx.kept_tops),
        "kept_walls": list(cx.kept_walls),
        "differential": {
            "rows": list(cx.differential.row_labels),
            "cols": list(cx.differential.col_labels),
            "triplets": [[r, c, str(v)]
                         for r, c, v in cx.differential.triplets()],
        },
    }


def complex_from_payload(payload, source="<payload>"):
    """Decode and check a complex payload read from `source`.

    Fields are checked as in graph_from_payload; every top and wall
    generator must map its cell's vectors onto themselves.
    """
    rd = _Reader(source)
    if type(payload) is not dict:
        rd.fail((), "is not an object")
    graph = graph_from_payload(rd.get(payload, (), "graph", dict), source,
                               ("graph",))
    n, det_one = graph.n, graph.group_kind == "sl"
    if rd.get(payload, (), "n", int) != n or \
            rd.get(payload, (), "group", str) != graph.group_kind:
        rd.fail((), "has a rank or group that differs from its graph")
    tops = tuple(_orbit_from_payload(rd, rec, path, n, det_one)
                 for path, rec in rd.records(payload, (), "tops"))
    if len(tops) != len(graph.nodes):
        rd.fail(("tops",), "does not have one record per graph node")
    walls = tuple(_orbit_from_payload(rd, rec, path, n, det_one)
                  for path, rec in rd.records(payload, (), "walls"))
    kept_tops = rd.indices(payload, (), "kept_tops", len(tops))
    kept_walls = rd.indices(payload, (), "kept_walls", len(walls))
    d_path = ("differential",)
    d_rec = rd.get(payload, (), "differential", dict)
    rows = rd.labels(d_rec, d_path, "rows", len(kept_walls))
    cols = rd.labels(d_rec, d_path, "cols", len(kept_tops))
    entries = []
    for i, t in enumerate(rd.get(d_rec, d_path, "triplets", list)):
        at = d_path + ("triplets", i)
        if type(t) is not list or len(t) != 3 or \
                type(t[0]) is not int or not 0 <= t[0] < len(rows) or \
                type(t[1]) is not int or not 0 <= t[1] < len(cols):
            rd.fail(at, "is not a [row, col, value] entry")
        entries.append(((t[0], t[1]), rd.integer(t[2], at)))
    return VoronoiComplex(
        n=n, group_kind=graph.group_kind,
        seed_perm=rd.get(payload, (), "seed_perm", int), graph=graph,
        tops=tops, walls=walls, kept_tops=kept_tops, kept_walls=kept_walls,
        differential=Differential(row_labels=rows, col_labels=cols,
                                  entries=tuple(entries)))


def save_payload(path, kind, n, group, payload):
    if kind not in PAYLOAD_KINDS:
        raise ValueError(f"unknown payload kind {kind!r}")
    doc = {
        "schema_version": PAYLOAD_KINDS[kind],
        "kind": kind,
        "n": n,
        "group": group,
        "hash": content_hash(payload),
        "payload": payload,
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_payload(path, kind=None, n=None, group=None):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    if content_hash(doc["payload"]) != doc["hash"]:
        raise CacheCorrupt(f"{path}: content hash mismatch")
    if kind is not None and doc["kind"] != kind:
        raise CacheCorrupt(f"{path}: expected kind {kind!r}")
    if n is not None and doc["n"] != n:
        raise CacheCorrupt(f"{path}: expected n={n}")
    if group is not None and doc["group"] != group:
        raise CacheCorrupt(f"{path}: expected group {group!r}")
    return doc["payload"]


def cache_path(cache_dir, kind, n, group, seed_perm=0):
    suffix = f"-p{seed_perm}" if seed_perm else ""
    return os.path.join(cache_dir, f"{kind}-n{n}-{group}{suffix}.json")
