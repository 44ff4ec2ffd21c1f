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
signs over the parent's faces in the child's orbit.  A kept parent's
stabilizer preserves its orientation, so each of its face orbits adds
the orbit size times the sign at the orbit's representative; one pass
per level (`_build_level`) matches every face orbit once and reads
both the classes and these numbers off that matching.  No case split
is made for self-glued walls; their cancellation falls out of the sum.

Orientation signs are evaluated as integer determinants: a subspace
basis is completed once by standard coordinate vectors, and the sign of
a candidate basis relative to the reference is the ratio of the two
stacked determinants.
"""

from typing import NamedTuple

from .cones import meets_boundary, subcone_facets
from .forms import GroupElement, apply_to_cell, rank_one
from .isometry import cell_group, cell_invariant, cell_maps, orbit_decompose
from .linalg import (
    det_sign,
    identity_matrix,
    independent_rows,
    mat_mul,
    mat_transpose,
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


class CellOrbitRec(NamedTuple):
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


class Differential(NamedTuple):
    """Sparse integer matrix of incidence numbers, rows = child classes."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple           # sorted ((row, col), value) pairs

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
        # A scan: a differential has at most a few hundred entries, and
        # each row is read once.
        return tuple((c, v) for (row, c), v in self.entries if row == r)


class VoronoiComplex(NamedTuple):
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

    def __init__(self, vectors, generators, basis, faces, n, cell=""):
        self.cell = cell
        self.vectors = vectors
        self.vector_set = set(vectors)
        self.generators = generators
        self.basis = basis
        self.faces = faces
        self.face_positions = {key: i for i, key in enumerate(faces)}
        self.n = n
        self.dim = sym_dim(n) if basis is None else len(basis)
        if basis is None:
            self.completion = ()
            self.ref_sign = 1
        else:
            self.completion = tuple(unit_completion(basis))
            self.ref_sign = det_sign(list(basis) + list(self.completion))
            assert self.ref_sign != 0

    @property
    def orbits(self):
        """(rep_key, {member_key: transporter}) per stabilizer orbit of
        the faces whose interiors avoid the boundary.  `_build_level`
        reads them once: each orbit is matched to its class, and its
        size weighs the sign at its representative.  Raises
        WallNotGlued when the stabilizer does not permute the faces, so
        they are not the cell's facets."""
        try:
            orbits = orbit_decompose(self.faces, self.generators)
        except ValueError as exc:
            raise WallNotGlued(f"the faces of {self.cell} are not its "
                               f"facets: {exc}") from exc
        return [(rep_key, members) for rep_key, members in orbits
                if not meets_boundary(rep_key)]

    def oriented_sign(self, rows):
        """Orientation of `rows` (inside the parent span) vs the parent."""
        return det_sign(list(rows) + list(self.completion)) * self.ref_sign


class WallNotGlued(ValueError):
    """A wall that the graph does not give: its face is no facet off
    the boundary, or the edge at its facet does not glue it."""


def class_record(view, level, parent, face_index, vectors, members,
                 det_one):
    """The class of face `face_index` (`vectors`) of cell `parent`, seen
    as `view`: its stabilizer, its basis oriented as the parent induces,
    and whether a stabilizer element reverses it.  A build and a cache
    load (`wall_record`) both derive a class here."""
    # The greedy basis of the span of the face's rank-one flats, and
    # one parent ray off the face, which completes it to the parent span.
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    picked = independent_rows(flats, ())
    basis = tuple(flats[i] for i in picked)
    face = set(vectors)
    extra = next((v for v in view.vectors if v not in face), None)
    off = () if extra is None else (sym_flatten(rank_one(extra)),)
    sign = 0 if not off or len(basis) != view.dim - 1 or \
        meets_boundary(vectors) else view.oriented_sign(basis + off)
    if sign == 0:
        raise WallNotGlued(f"face {face_index} of cell {parent} is not a "
                           f"facet off the boundary")
    gens, order = cell_group(vectors, det_one=det_one)
    # The transport sign is a character of the stabilizer, so a
    # generating set decides whether anything reverses.  A generator
    # permutes the face's vectors, so it carries the basis to the flats
    # of the images of the picked vectors; it keeps the orientation when
    # those, with the same ray off the face, orient the parent alike.
    kept = all(view.oriented_sign(tuple(
        sym_flatten(rank_one(g.apply(vectors[i]))) for i in picked) + off)
        == sign for g in gens)
    if sign < 0:
        basis = (tuple(-x for x in basis[0]),) + basis[1:]
    return CellOrbitRec(
        level=level, vectors=vectors, parent=parent, face_index=face_index,
        members=members, generators=gens, stab_order=order, basis=basis,
        orientation_kept=kept, kind="", witness=(), label="")


def wall_record(graph, parent, face, vectors, members):
    """The wall class of facet `face` of node `parent`, as
    `build_complex` derives it."""
    view = _ParentView(vectors=graph.nodes[parent].minvecs.vectors,
                       generators=(), basis=None, faces=(), n=graph.n)
    return class_record(view, "wall", parent, face, vectors, members,
                        graph.group_kind == "sl")


def _build_level(parents, columns, n, det_one, seed_perm, level_name):
    """The classes of the non-boundary faces of `parents`, and their
    incidence numbers.

    Faces are first reduced modulo each parent's stabilizer, so the
    group-level matching runs once per local orbit rather than once per
    face.  The `cell_maps` hit that puts an orbit into its class (the
    identity for the class's first orbit) is kept: it is the transporter
    for the orbit's incidence sign, so no orbit is matched twice.  The
    representative of each class is chosen by the seed permutation
    among all concrete members sorted canonically.

    Returns (classes, kept, entries): CellOrbitRec tuples (kind, witness
    and label left generic), the positions of the kept classes, and the
    sorted ((row, col), value) incidence numbers of the kept classes
    against parents[columns[col]].  Every column parent must be kept.
    """
    orbit_records = [(rep_key, p_pos, members)
                     for p_pos, view in enumerate(parents)
                     for rep_key, members in view.orbits]
    orbit_records.sort(key=lambda rec: (rec[0], rec[1]))

    invariants = {}
    classes = []
    for rep_key, p_pos, members in orbit_records:
        if rep_key not in invariants:
            invariants[rep_key] = cell_invariant(rep_key)
        inv = invariants[rep_key]
        for cls in classes:
            if cls["inv"] != inv:
                continue
            link = cell_maps(cls["orbits"][0][0], rep_key, det_one=det_one,
                             first_only=True)
            if link:
                # link[0] carries the class's first orbit onto this one.
                cls["orbits"].append((rep_key, p_pos, members, link[0]))
                break
        else:
            classes.append({"inv": inv, "orbits": [
                (rep_key, p_pos, members, GroupElement.identity(n))]})

    col_of = {p_pos: col for col, p_pos in enumerate(columns)}
    out = []
    kept_positions = []
    entries = {}
    for pos, cls in enumerate(classes):
        members = sorted(
            (key, p_pos, parents[p_pos].face_positions[key], own)
            for own, (_, p_pos, orbit_members, _) in enumerate(cls["orbits"])
            for key in orbit_members)
        rep_key, rep_parent, rep_face, own = members[seed_perm % len(members)]
        rec = class_record(parents[rep_parent], level_name, rep_parent,
                           rep_face, rep_key,
                           tuple((p, f, k) for k, p, f, _ in members),
                           det_one)
        out.append(rec)
        if not rec.orientation_kept:
            continue
        # Kept parents and a kept class: every face of an orbit induces
        # the same sign under any transporter, here link * (s *
        # own_link)^-1 with s carrying the own orbit onto rep_key.
        row = len(kept_positions)
        kept_positions.append(pos)
        _, _, own_members, own_link = cls["orbits"][own]
        back = (own_members[rep_key] * own_link).inverse()
        for key, p_pos, orbit_members, link in cls["orbits"]:
            if p_pos in col_of:
                cell = (row, col_of[p_pos])
                entries[cell] = entries.get(cell, 0) + len(orbit_members) * \
                    induced_sign(parents[p_pos], rec.basis, rep_key, key,
                                 link * back, n)
    return (tuple(out), tuple(kept_positions),
            tuple(sorted((k, v) for k, v in entries.items() if v != 0)))


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


def is_orientation_preserving(group_kind, n):
    """Whether every group element preserves the orientation of the
    form space: g acts there with determinant det(g)^(n+1)."""
    return group_kind == "sl" or n % 2 == 1


def top_classes(graph):
    """The top cell of every graph node, kept unless its stabilizer
    reverses the orientation of the form space."""
    n = graph.n
    tops = []
    for i, node in enumerate(graph.nodes):
        if is_orientation_preserving(graph.group_kind, n):
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
    return tuple(tops)


def glue_complex(graph, seed_perm, tops, walls, entries):
    """The complex of `tops` and `walls`, with `entries` the incidence
    numbers of its kept walls against its kept tops.

    Each wall is glued by the graph edge at its (parent, face_index),
    which gives its kind and witness; that edge must carry the
    neighbour's minimal vectors onto vectors that meet the parent's
    exactly in the wall.  Raises WallNotGlued otherwise.
    """
    nodes = graph.nodes
    glued = []
    for i, w in enumerate(walls):
        edge = graph.edge_at(w.parent, w.face_index)
        far = apply_to_cell(edge.witness, nodes[edge.neighbor].minvecs.vectors)
        if tuple(sorted(set(nodes[w.parent].minvecs.vectors).intersection(
                far))) != w.vectors:
            raise WallNotGlued(
                f"walls[{i}] is not glued by the graph edge at node "
                f"{w.parent}, facet {w.face_index}")
        glued.append(w._replace(
            kind="self" if edge.neighbor == w.parent else "non_self",
            witness=(edge.neighbor, edge.witness.rows), label=f"w{i}"))
    kept_tops = tuple(i for i, t in enumerate(tops) if t.orientation_kept)
    kept_walls = tuple(i for i, w in enumerate(glued) if w.orientation_kept)
    differential = Differential(
        row_labels=tuple(glued[i].label for i in kept_walls),
        col_labels=tuple(tops[i].label for i in kept_tops), entries=entries)
    return VoronoiComplex(n=graph.n, group_kind=graph.group_kind,
                          seed_perm=seed_perm, graph=graph, tops=tops,
                          walls=tuple(glued), kept_tops=kept_tops,
                          kept_walls=kept_walls, differential=differential)


def build_complex(graph, seed_perm=0):
    """Top two degrees of the complex for an enumerated walk graph."""
    n = graph.n
    tops = top_classes(graph)
    kept_tops = [i for i, t in enumerate(tops) if t.orientation_kept]
    # A rank-1 domain is a single ray: no faces, so no parents.
    views = [] if n == 1 else [
        _ParentView(vectors=node.minvecs.vectors,
                    generators=node.generators, basis=None,
                    faces=tuple(node.domain.facet_vectors(f)
                                for f in node.domain.facets), n=n,
                    cell=f"node {i}")
        for i, node in enumerate(graph.nodes)]
    walls, _, entries = _build_level(views, kept_tops, n,
                                     graph.group_kind == "sl", seed_perm,
                                     "wall")
    return glue_complex(graph, seed_perm, tops, walls, entries)


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
                                      basis=w.basis, faces=face_keys, n=n,
                                      cell=w.label))
    mids, kept_mids, entries = _build_level(
        wall_views, range(len(wall_views)), n, det_one, seed_perm, "codim2")
    mids = tuple(m._replace(label=f"c{i}") for i, m in enumerate(mids))
    differential = Differential(
        row_labels=tuple(mids[i].label for i in kept_mids),
        col_labels=tuple(cx.walls[i].label for i in cx.kept_walls),
        entries=entries)
    return mids, kept_mids, differential
