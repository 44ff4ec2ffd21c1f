"""The top two degrees of the equivariant cell complex, with signs.

Cells are orbit representatives of faces of the perfect-form domains
whose interiors avoid the boundary of the positive semidefinite cone.
A representative is kept (enters the chain groups) when no element of
its stabilizer reverses the orientation of its linear span.

Orientation bookkeeping follows one convention throughout:

* the span of a top cell is the whole flattened form space and carries
  the standard coordinate orientation;
* each lower representative carries the orientation induced by the cell
  containing it (the sign of representative-basis plus one extra ray of
  the parent, computed inside the parent span, is normalized to +1);
* a translate g.cell carries the pushed-forward basis g.B, which is
  well defined exactly for the kept representatives.

With that convention the transport sign between a representative and
its translates is identically +1, and the incidence number of a parent
cell against a child class is the plain sum of induced-orientation
signs over the parent's faces in the child's orbit.  No case split is
made for self-glued walls; their cancellation falls out of the sum.

Orientation signs are evaluated as integer determinants: a subspace
basis is completed once by standard coordinate vectors, and the sign of
a candidate basis relative to the reference is the ratio of the two
stacked determinants.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from .cones import meets_boundary, subcone_facets
from .forms import apply_to_cell, rank_one
from .isometry import cell_group, cell_invariant, cell_maps, orbit_decompose
from .linalg import (
    det_sign,
    identity_matrix,
    independent_rows,
    mat_mul,
    mat_transpose,
    relative_orientation,
    sym_dim,
    sym_flatten,
    sym_unflatten,
    unit_completion,
)


def top_cell_dimension(n):
    """Dimension of the top cells of the complex in rank n."""
    return sym_dim(n) - 1


def transport_flat(g, flat, n):
    """Push a flattened symmetric matrix forward along v -> g v."""
    mat = sym_unflatten(flat, n)
    return sym_flatten(mat_mul(mat_mul(g.rows, mat), mat_transpose(g.rows)))


def ambient_orientation_sign(g, n):
    """Sign of the determinant of the induced map on flattened form space."""
    return det_sign([transport_flat(g, unit, n)
                     for unit in identity_matrix(sym_dim(n))])


@dataclass(frozen=True)
class CellOrbitRec:
    """One orbit representative at some level of the complex."""

    level: str               # "top", "wall", or "codim2"
    vectors: tuple           # canonical vector pairs of the representative
    parent: int              # index of the containing cell one level up
    face_index: int          # which face of the parent the rep is
    members: tuple           # (parent_index, face_index, vectors) per member
    generators: tuple        # generate the stabilizer in the chosen group
    stab_order: int
    basis: tuple             # oriented basis of the span (None: ambient)
    orientation_kept: bool
    kind: str                # walls: "self" or "non_self"; else ""
    witness: tuple           # walls: group element rows gluing the far side
    label: str


@dataclass(frozen=True)
class Differential:
    """Sparse integer matrix of incidence numbers, rows = child classes."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple           # sorted ((row, col), value) pairs

    def __post_init__(self):
        # Index the rows once; row_entries is called for every row.
        rows = [[] for _ in self.row_labels]
        for (r, c), v in self.entries:
            rows[r].append((c, v))
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    @property
    def row_count(self):
        return len(self.row_labels)

    @property
    def col_count(self):
        return len(self.col_labels)

    def dense_rows(self):
        rows = [[0] * self.col_count for _ in range(self.row_count)]
        for (r, c), v in self.entries:
            rows[r][c] = v
        return rows

    def triplets(self):
        return [(r, c, v) for (r, c), v in self.entries]

    def row_entries(self, r):
        return self._rows[r]


@dataclass(frozen=True)
class VoronoiComplex:
    n: int
    group_kind: str
    seed_perm: int
    graph: object
    tops: tuple              # CellOrbitRec per graph node
    walls: tuple             # CellOrbitRec per codim-1 class
    kept_tops: tuple         # indices into tops
    kept_walls: tuple        # indices into walls
    differential: Differential


class _ParentView:
    """Per-parent data used for face grouping and sign evaluation."""

    def __init__(self, vectors, generators, basis, faces, n):
        self.vectors = vectors
        self.vector_set = set(vectors)
        self.generators = generators
        self.basis = basis
        self.faces = faces
        self.face_positions = {key: i for i, key in enumerate(faces)}
        self.n = n
        if basis is None:
            self.completion = ()
            self.ref_sign = 1
        else:
            self.completion = tuple(unit_completion(basis))
            self.ref_sign = det_sign(list(basis) + list(self.completion))
            assert self.ref_sign != 0

    @cached_property
    def orbits(self):
        """(rep_key, {member_key: transporter}) per stabilizer orbit of
        the faces whose interiors avoid the boundary, decomposed once
        for both the child classes and the incidence numbers."""
        return [(rep_key, members) for rep_key, members
                in orbit_decompose(self.faces, self.generators)
                if not meets_boundary(rep_key)]

    def oriented_sign(self, rows):
        """Orientation of `rows` (inside the parent span) vs the parent."""
        return det_sign(list(rows) + list(self.completion)) * self.ref_sign


def _span_basis(vectors):
    """Greedy basis of the span of the rank-one flats of `vectors`."""
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    return [flats[i] for i in independent_rows(flats, ())]


def _flip(basis):
    return (tuple(-x for x in basis[0]),) + tuple(basis[1:])


def _build_child_level(parents, n, det_one, seed_perm, level_name):
    """Group all non-boundary faces of the parents into classes.

    Faces are first reduced modulo each parent's stabilizer, so the
    group-level matching runs once per local orbit rather than once per
    face.  Returns CellOrbitRec tuples (kind/witness/label left
    generic); the representative of each class is chosen by the seed
    permutation among all concrete members sorted canonically.
    """
    orbit_records = [(rep_key, p_pos, members)
                     for p_pos, view in enumerate(parents)
                     for rep_key, members in view.orbits]
    orbit_records.sort(key=lambda rec: (rec[0], rec[1]))

    invariants = {}
    classes = []
    for rec in orbit_records:
        rep_key = rec[0]
        if rep_key not in invariants:
            invariants[rep_key] = cell_invariant(rep_key)
        inv = invariants[rep_key]
        matched = None
        for cls in classes:
            if cls["inv"] != inv:
                continue
            if cell_maps(cls["orbits"][0][0], rep_key, det_one=det_one,
                         first_only=True):
                matched = cls
                break
        if matched is None:
            classes.append({"inv": inv, "orbits": [rec]})
        else:
            matched["orbits"].append(rec)

    out = []
    for pos, cls in enumerate(classes):
        members = sorted(
            (key, p_pos, parents[p_pos].face_positions[key])
            for _, p_pos, orbit_members in cls["orbits"]
            for key in orbit_members)
        rep_key, rep_parent, rep_face = members[seed_perm % len(members)]
        member_records = tuple((p, f, k) for k, p, f in members)
        gens, order = cell_group(rep_key, det_one=det_one)
        basis = _span_basis(rep_key)
        parent = parents[rep_parent]
        extra = next(v for v in parent.vectors if v not in set(rep_key))
        rows = list(basis) + [sym_flatten(rank_one(extra))]
        sign = parent.oriented_sign(rows)
        assert sign != 0
        if sign < 0:
            basis = list(_flip(tuple(basis)))
        # The transport sign is a character of the stabilizer, so a
        # generating set decides whether anything reverses.
        kept = True
        for g in gens:
            moved = [transport_flat(g, b, n) for b in basis]
            if relative_orientation(basis, moved) < 0:
                kept = False
                break
        out.append(CellOrbitRec(
            level=level_name, vectors=rep_key, parent=rep_parent,
            face_index=rep_face,
            members=member_records,
            generators=gens, stab_order=order, basis=tuple(basis),
            orientation_kept=kept, kind="", witness=(),
            label=f"{level_name[0]}{pos}"))
    return tuple(out)


def induced_sign(parent_view, child_basis, child_vectors, member_vectors,
                 transporter, n):
    """The induced-orientation sign of one face against its parent.

    `transporter` carries the child representative onto the concrete
    face; its pushed-forward basis plus any parent ray off the face
    orients the parent span.
    """
    assert apply_to_cell(transporter, child_vectors) == tuple(member_vectors)
    moved = [transport_flat(transporter, b, n) for b in child_basis]
    member_set = set(member_vectors)
    extra = next(v for v in parent_view.vectors if v not in member_set)
    rows = moved + [sym_flatten(rank_one(extra))]
    return parent_view.oriented_sign(rows)


def _incidence_matrix(parents, kept_parent_positions, children,
                      kept_child_positions, n, det_one,
                      row_labels, col_labels):
    """Incidence numbers of kept parents against kept children."""
    if not kept_child_positions:
        return Differential(row_labels=tuple(row_labels),
                            col_labels=tuple(col_labels), entries=())
    child_inv = [cell_invariant(c.vectors) for c in children]
    entries = {}
    for col, p_pos in enumerate(kept_parent_positions):
        view = parents[p_pos]
        for rep_key, members in view.orbits:
            inv = cell_invariant(rep_key)
            for row, c_pos in enumerate(kept_child_positions):
                child = children[c_pos]
                if child_inv[c_pos] != inv:
                    continue
                link = cell_maps(child.vectors, rep_key, det_one=det_one,
                                 first_only=True)
                if not link:
                    continue
                total = 0
                for member_key, s in members.items():
                    gamma = s * link[0]
                    total += induced_sign(view, child.basis, child.vectors,
                                          member_key, gamma, n)
                if total:
                    entries[(row, col)] = entries.get((row, col), 0) + total
                break
    entries = {k: v for k, v in entries.items() if v != 0}
    return Differential(row_labels=tuple(row_labels),
                        col_labels=tuple(col_labels),
                        entries=tuple(sorted(entries.items())))


def _top_views(graph):
    views = []
    for node in graph.nodes:
        faces = tuple(node.domain.facet_vectors(f) for f in node.domain.facets)
        views.append(_ParentView(vectors=node.minvecs.vectors,
                                 generators=node.generators,
                                 basis=None, faces=faces, n=graph.n))
    return views


def build_complex(graph, seed_perm=0):
    """Top two degrees of the complex for an enumerated walk graph."""
    n = graph.n
    det_one = graph.group_kind == "sl"
    orientation_preserving = det_one or n % 2 == 1

    tops = []
    for i, node in enumerate(graph.nodes):
        if orientation_preserving:
            kept = True
        else:
            # The determinant is a character of the stabilizer, so its
            # generators decide whether any element has determinant -1.
            reversers = [g for g in node.generators if g.det == -1]
            kept = not reversers
            if reversers:
                # The determinant rule is backed by one exact transport.
                assert ambient_orientation_sign(reversers[0], n) == -1
        tops.append(CellOrbitRec(
            level="top", vectors=node.minvecs.vectors, parent=i,
            face_index=-1, members=((i, -1, node.minvecs.vectors),),
            generators=node.generators, stab_order=node.stab_order,
            basis=None, orientation_kept=kept, kind="", witness=(),
            label=node.label))
    tops = tuple(tops)
    kept_tops = tuple(i for i, t in enumerate(tops) if t.orientation_kept)

    if n == 1:
        views = []
        walls = ()
    else:
        views = _top_views(graph)
        walls = _build_child_level(views, n, det_one, seed_perm, "wall")

    classified = []
    for w in walls:
        edge = graph.edge_at(w.parent, w.face_index)
        kind = "self" if edge.neighbor == w.parent else "non_self"
        far = apply_to_cell(edge.witness, graph.nodes[edge.neighbor].minvecs.vectors)
        shared = tuple(sorted(set(graph.nodes[w.parent].minvecs.vectors) & set(far)))
        assert shared == tuple(views[w.parent].faces[w.face_index])
        classified.append(replace(
            w, kind=kind, witness=(edge.neighbor, edge.witness.rows)))
    walls = tuple(classified)
    kept_walls = tuple(i for i, w in enumerate(walls) if w.orientation_kept)

    differential = _incidence_matrix(
        views, kept_tops, walls, kept_walls, n, det_one,
        row_labels=tuple(walls[i].label for i in kept_walls),
        col_labels=tuple(tops[i].label for i in kept_tops))

    return VoronoiComplex(n=n, group_kind=graph.group_kind,
                          seed_perm=seed_perm, graph=graph, tops=tops,
                          walls=walls, kept_tops=kept_tops,
                          kept_walls=kept_walls, differential=differential)


def build_codim2(cx, seed_perm=0):
    """Codim-2 classes and the next differential, for the d.d = 0 check."""
    n = cx.n
    det_one = cx.group_kind == "sl"
    wall_views = []
    for i in cx.kept_walls:
        w = cx.walls[i]
        faces = subcone_facets(w.vectors)
        face_keys = tuple(
            tuple(sorted(w.vectors[j] for j in face)) for face in faces)
        wall_views.append(_ParentView(vectors=w.vectors,
                                      generators=w.generators,
                                      basis=w.basis, faces=face_keys, n=n))
    mids = _build_child_level(wall_views, n, det_one, seed_perm, "codim2")
    kept_mids = tuple(i for i, m in enumerate(mids) if m.orientation_kept)
    differential = _incidence_matrix(
        wall_views, tuple(range(len(wall_views))), mids, kept_mids, n,
        det_one,
        row_labels=tuple(mids[i].label for i in kept_mids),
        col_labels=tuple(cx.walls[i].label for i in cx.kept_walls))
    return mids, kept_mids, differential
