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

Orientation signs are integer determinants, few of them of form-space
size.  A parent span is completed once by standard coordinate vectors
(its reference sign is one determinant; a top cell needs none), and a
child class is oriented by one more: its basis B plus rows Y, a parent
ray off the face and the parent's completion.  Every other sign is read
off the k normals N of the class's span (k = 1 for a wall, 2 at
codimension two), one kernel per class.  For any k rows Z, det[B; Z]
is a constant times det[<N_i, Z_j>], <.,.> the dot product of
flattened coordinates, and the map Y -> t Y t^T has determinant
det(t)^(n+1) on form space.  So det[t B; Y], the sign of one face under
a transporter t or of a stabilizer generator's kept test, has the sign
of det(t)^(n+1) times the k x k determinant of the pairings
<N_i, t^-1 Y_j>, once the normals are oriented to make the constant
positive.
"""

from operator import mul
from typing import NamedTuple

from .cones import Facets, face_vectors, meets_boundary, subcone_facets
from .enumeration import facet_edge, glues
from .forms import GroupElement, apply_to_cell, rank_one
from .isometry import cell_group, cell_maps
from .linalg import (
    det_sign,
    identity_matrix,
    independent_rows,
    kernel_basis,
    mat_mul,
    mat_transpose,
    sym_dim,
    sym_flatten,
    sym_unflatten,
    unit_completion,
)


def transport_flat(g, flat, n):
    """Push a flattened symmetric matrix forward along v -> g v."""
    mat = sym_unflatten(flat, n)
    return sym_flatten(mat_mul(mat_mul(g.rows, mat), mat_transpose(g.rows)))


def ambient_orientation_sign(g, n):
    """Sign of the determinant of the induced map on flattened form space."""
    return det_sign([transport_flat(g, unit, n)
                     for unit in identity_matrix(sym_dim(n))])


class CellOrbitRec(NamedTuple):
    """One orbit representative of a wall or codim-2 class."""

    vectors: tuple           # canonical vector pairs of the representative
    parent: int              # index of the containing cell one level up
    face_index: int          # which face of the parent the rep is
    members: tuple           # (parent_index, face_index) per member
    generators: tuple        # generate the stabilizer in the chosen group
    stab_order: int
    basis: tuple             # oriented basis of the span
    normals: tuple           # normals of the span, oriented with it
    orientation_kept: bool
    kind: str                # walls: "self" or "non_self"; else ""
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
    graph: object            # its nodes are the top classes
    walls: tuple             # CellOrbitRec per codim-1 class
    kept_tops: tuple         # indices into graph.nodes
    kept_walls: tuple        # indices into walls
    differential: Differential


class _ParentView:
    """One parent cell as `_build_level` reads it: its vectors, its
    `facets` (a `cones.Facets`, certified per orbit of the parent's
    stabilizer), `faces[k]` the sorted vectors of facet k, their
    `orbits` (facet indices, representative first), and
    `transporter(k)`, which carries the representative of facet k's
    orbit onto facet k.  `basis` orients its span (None for a top
    cell)."""

    def __init__(self, vectors, basis, facets=Facets(), cell=""):
        self.cell = cell
        self.vectors = vectors
        self.basis = basis
        self.faces = tuple(face_vectors(vectors, f) for f in facets)
        self.orbits = facets.orbits
        self.transporter = facets.transporter
        self.dim = sym_dim(len(vectors[0])) if basis is None else len(basis)
        if basis is None:
            self.completion = ()
            self.ref_sign = 1
        else:
            # An independent basis and its unit completion are a square
            # matrix of full rank, so the reference sign is never 0.
            self.completion = tuple(unit_completion(basis))
            if len(basis) + len(self.completion) != len(basis[0]):
                raise WallNotGlued(f"the basis of {cell} is not independent")
            self.ref_sign = det_sign(list(basis) + list(self.completion))

    def oriented_sign(self, rows):
        """Orientation of `rows` (inside the parent span) vs the parent."""
        return det_sign(list(rows) + list(self.completion)) * self.ref_sign


class WallNotGlued(ValueError):
    """A wall that the graph does not give: its face is no facet off
    the boundary, or the edge at its facet does not glue it."""


def _pairing_sign(normals, rows):
    """The sign of det[<N_i, Y_j>], for normals N and rows Y of equal
    count, <.,.> the dot product of flattened coordinates."""
    return det_sign([[sum(map(mul, nv, y)) for y in rows] for nv in normals])


def _moved_sign(normals, back, rows, n, cell):
    """The sign of det[t B; rows] for t = back^-1 and the basis B of a
    span with normals `normals`, up to the sign of the constant that
    relates det[B; Z] to det[<N_i, Z_j>] (see the module docstring):
    det(t)^(n+1) times the sign of det[<N_i, back rows_j>].  Raises
    WallNotGlued when that is zero."""
    sign = _pairing_sign(normals, [transport_flat(back, y, n) for y in rows])
    if sign == 0:
        raise WallNotGlued(f"the parent rays off a face of {cell} do not "
                           f"complete its span")
    return -sign if back.det < 0 and n % 2 == 0 else sign


def class_record(view, parent, face_index, vectors, members, det_one):
    """The class of face `face_index` (`vectors`) of cell `parent`, seen
    as `view`: its stabilizer, its basis oriented as the parent induces
    with the normals of its span, and whether a stabilizer element
    reverses it."""
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
    # The normals of the span, and the rows that complete it in the
    # form space: the ray off the face and the parent's completion.
    normals = kernel_basis(list(basis))
    rows = off + view.completion
    at_rep = _pairing_sign(normals, rows)
    # The transport sign is a character of the stabilizer, so a
    # generating set decides whether anything reverses, and g reverses
    # exactly when g^-1 does: when det[g^-1 B; rows] and det[B; rows]
    # differ in sign.
    kept = all(_moved_sign(normals, g, rows, len(vectors[0]), view.cell)
               == at_rep for g in gens)
    if sign < 0:
        basis = (tuple(-x for x in basis[0]),) + basis[1:]
    # Now det[B; rows] has the sign ref_sign; the normals are oriented
    # so that det[<N_i, rows_j>] has it too.
    if at_rep != view.ref_sign:
        normals = [tuple(-x for x in normals[0])] + normals[1:]
    return CellOrbitRec(
        vectors=vectors, parent=parent, face_index=face_index,
        members=members, generators=gens, stab_order=order, basis=basis,
        normals=tuple(normals), orientation_kept=kept, kind="", label="")


def _build_level(parents, columns, n, det_one, seed_perm):
    """The classes of the non-boundary faces of `parents`, and their
    incidence numbers.

    Faces are first reduced modulo each parent's stabilizer, so the
    group-level matching runs once per local orbit rather than once per
    face.  The `cell_maps` hit that puts an orbit into its class,
    carrying the orbit's first face onto the class's first (the
    identity for the class's first orbit), is kept: it gives the
    transporter for the orbit's incidence sign, so no orbit is matched
    twice.  The representative of each class is chosen by the seed
    permutation among all concrete members sorted canonically.

    Returns (classes, kept, entries): CellOrbitRec tuples (kind and
    label left generic), the positions of the kept classes, and the
    sorted ((row, col), value) incidence numbers of the kept classes
    against parents[columns[col]].  Every column parent must be kept.
    """
    orbit_records = [(view.faces[orbit[0]], p_pos, orbit)
                     for p_pos, view in enumerate(parents)
                     for orbit in view.orbits
                     if not meets_boundary(view.faces[orbit[0]])]
    orbit_records.sort(key=lambda rec: (rec[0], rec[1]))

    # Per class, its orbits as (key, p_pos, orbit, link), the first one's
    # link the identity.
    classes = []
    for rep_key, p_pos, orbit in orbit_records:
        for cls in classes:
            link = cell_maps(rep_key, cls[0][0], det_one=det_one,
                             first_only=True)
            if link:
                # link[0] carries this orbit onto the class's first one.
                cls.append((rep_key, p_pos, orbit, link[0]))
                break
        else:
            classes.append([(rep_key, p_pos, orbit,
                             GroupElement.identity(n))])

    col_of = {p_pos: col for col, p_pos in enumerate(columns)}
    out = []
    kept_positions = []
    entries = {}
    for pos, cls in enumerate(classes):
        members = sorted(
            (parents[p_pos].faces[k], p_pos, k, own)
            for own, (_, p_pos, orbit, _) in enumerate(cls)
            for k in orbit)
        rep_key, rep_parent, rep_face, own = members[seed_perm % len(members)]
        rec = class_record(parents[rep_parent], rep_parent, rep_face, rep_key,
                           tuple((p, f) for _, p, f, _ in members), det_one)
        out.append(rec)
        if not rec.orientation_kept:
            continue
        # Kept parents and a kept class: every face of an orbit induces
        # the same sign under any transporter.  Here back * link carries
        # the orbit's first face onto rep_key: link onto the class's
        # first orbit, own_link^-1 on to the own orbit, and the parent's
        # transporter onto rep_key.
        row = len(kept_positions)
        kept_positions.append(pos)
        back = parents[rep_parent].transporter(rep_face) * \
            cls[own][3].inverse()
        for key, p_pos, orbit, link in cls:
            if p_pos in col_of:
                cell = (row, col_of[p_pos])
                entries[cell] = entries.get(cell, 0) + len(orbit) * \
                    induced_sign(parents[p_pos], rec, key, back * link, n)
    return (tuple(out), tuple(kept_positions),
            tuple(sorted((k, v) for k, v in entries.items() if v != 0)))


def induced_sign(parent_view, child, member_vectors, back, n):
    """The induced-orientation sign of one face against its parent.

    `back` carries the concrete face onto the representative of the
    class `child` (WallNotGlued otherwise).  Its inverse pushes the
    representative's basis forward onto the face, and that basis plus a
    parent ray off the face orients the parent span, a sign read off
    the child's normals (see the module docstring).
    """
    if apply_to_cell(back, member_vectors) != child.vectors:
        raise WallNotGlued(f"the transporter does not carry the face "
                           f"class onto a face of {parent_view.cell}")
    member_set = set(member_vectors)
    extra = next(v for v in parent_view.vectors if v not in member_set)
    rows = (sym_flatten(rank_one(extra)),) + parent_view.completion
    return parent_view.ref_sign * _moved_sign(
        child.normals, back, rows, n, parent_view.cell)


def is_orientation_preserving(group_kind, n):
    """Whether every group element preserves the orientation of the
    form space: g acts there with determinant det(g)^(n+1)."""
    return group_kind == "sl" or n % 2 == 1


def kept_top_nodes(graph):
    """The nodes whose top cells are kept: those whose stabilizer does
    not reverse the orientation of the form space."""
    if is_orientation_preserving(graph.group_kind, graph.n):
        return tuple(range(len(graph.nodes)))
    # The determinant is a character of the stabilizer, so its
    # generators decide whether any element has determinant -1.
    return tuple(i for i, node in enumerate(graph.nodes)
                 if all(g.det == 1 for g in node.generators))


def glue_complex(graph, seed_perm, kept_tops, walls, entries):
    """The complex of `graph`'s top classes, of which `kept_tops` are
    kept, and `walls`, with `entries` the incidence numbers of its kept
    walls against its kept tops.

    Each wall is glued by the graph edge at its (parent, face_index),
    derived there (`enumeration.facet_edge`), which gives its kind
    (`enumeration.glues` must hold there).  Raises WallNotGlued
    otherwise.
    """
    glued = []
    for i, w in enumerate(walls):
        edge = facet_edge(graph, w.parent, w.face_index)
        if not glues(graph.nodes[w.parent].minvecs.vectors, w.vectors,
                     edge.witness, graph.nodes[edge.neighbor].minvecs.vectors):
            raise WallNotGlued(
                f"walls[{i}] is not glued by the graph edge at node "
                f"{w.parent}, facet {w.face_index}")
        glued.append(w._replace(
            kind="self" if edge.neighbor == w.parent else "non_self",
            label=f"w{i}"))
    kept_walls = tuple(i for i, w in enumerate(glued) if w.orientation_kept)
    differential = Differential(
        row_labels=tuple(glued[i].label for i in kept_walls),
        col_labels=tuple(graph.nodes[i].label for i in kept_tops),
        entries=entries)
    return VoronoiComplex(n=graph.n, group_kind=graph.group_kind,
                          seed_perm=seed_perm, graph=graph,
                          walls=tuple(glued), kept_tops=kept_tops,
                          kept_walls=kept_walls, differential=differential)


def _node_view(graph, i):
    """Node i of `graph` as a parent, with the facet orbits that the
    walk or the cache load decomposed."""
    node = graph.nodes[i]
    return _ParentView(node.minvecs.vectors, None, node.facets, f"node {i}")


def _wall_view(w):
    """Wall `w` as a parent: its facets, certified per orbit of its
    stabilizer."""
    return _ParentView(w.vectors, w.basis,
                       subcone_facets(w.vectors, w.generators), w.label)


def build_complex(graph, seed_perm=0):
    """Top two degrees of the complex for an enumerated walk graph."""
    kept_tops = kept_top_nodes(graph)
    views = [_node_view(graph, i) for i in range(len(graph.nodes))]
    walls, _, entries = _build_level(views, kept_tops, graph.n,
                                     graph.group_kind == "sl", seed_perm)
    return glue_complex(graph, seed_perm, kept_tops, walls, entries)


def build_codim2(cx):
    """Codim-2 classes and the next differential, for the d.d = 0 check,
    with representatives picked by the complex's seed permutation."""
    n = cx.n
    det_one = cx.group_kind == "sl"
    wall_views = [_wall_view(cx.walls[i]) for i in cx.kept_walls]
    mids, kept_mids, entries = _build_level(
        wall_views, range(len(wall_views)), n, det_one, cx.seed_perm)
    mids = tuple(m._replace(label=f"c{i}") for i, m in enumerate(mids))
    differential = Differential(
        row_labels=tuple(mids[i].label for i in kept_mids),
        col_labels=tuple(cx.walls[i].label for i in cx.kept_walls),
        entries=entries)
    return mids, kept_mids, differential
