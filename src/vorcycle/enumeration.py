"""Enumeration of perfect forms up to equivalence, with the walk graph.

Starting from the form with 2 on the diagonal and -1 next to it, the
facets of each known Voronoi domain are reduced modulo the domain's
stabilizer and one facet per orbit is crossed to the unique contiguous
perfect form on the other side; new forms are reduced modulo
equivalence until no frontier remains.  Connectivity of the resulting
graph makes this traversal a complete enumeration.  Each crossing is
kept with the witness that matched its neighbour to a class, so this
one walk yields the final graph with one edge per facet orbit, each
certified at its representative (`glues`).  The facet orbits are those
`cones.build_cone` certified the facets by, and each node keeps them
with their Schreier vector.  A member's edge is derived only where it
is read (`facet_edge`): the representative's edge moved by the
transporter, a product of stabilizer generators, which carries the
representative facet onto the member's.  A stabilizer element is an
automorphism of the form that permutes the facets, so the moved edge
glues the member.

The crossing itself walks the pencil  h_t = h + t * N  where N is the
inward primitive facet normal, recovered from the facet's minimal
vectors (`cones.facet_normal`) only for the facets the walk crosses:
the facet's minimal vectors keep their value mu for every t, the
remaining minimal vectors of h move up, and the neighbour sits at the
first t > 0 where a new vector reaches value mu.  Candidate vectors
give exact rational roots t_v = (h(v) - mu) / (-N(v)); the walk keeps
the smallest, re-enumerates at that exact t, and stops when the
minimum class strictly grows.  A probe at t = p/q is the integer form
q*h + p*N, whose values are q times those of h_t.  The probe t doubles
from 1 while it stays positive definite with nothing new at mu.  Once a
probe leaves the positive definite cone, the walk bisects between the
last positive definite probe with nothing below mu and the smallest
failing probe; the neighbour lies strictly inside that interval and
strictly before the cone's boundary, so a probe eventually lands
between the two, finds a vector below mu, and jumps to its exact root.

Equivalence classes may be requested for the full unimodular group or
for the determinant-one subgroup.  The walk runs in the chosen group:
stabilizers, facet orbits and the matches of neighbours to known
classes are all taken there, so every edge witness lies in that group.
A full class that splits in two under the determinant-one subgroup is
met by the walk as two classes, like any other pair; no class of ranks
2-7 splits (in odd rank -I has determinant -1, and the walks of ranks 2,
4 and 6 find none).
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .cones import (
    Facets,
    build_cone,
    face_vectors,
    facet_normal,
    meets_boundary,
)
from .forms import (
    GroupElement,
    MinVecSet,
    QForm,
    a_n_gram,
    apply_to_cell,
    bilinear,
    d_n_gram,
    is_perfect,
    is_positive_definite,
    minimum_and_minimal_vectors,
    short_vectors,
)
from .isometry import form_group, form_maps


class BoundaryFacet(ValueError):
    """The facet touches the boundary cone; no contiguous form exists."""


GROUP_KINDS = ("gl", "sl")

# Desk scale: ranks 6 and 7 are possible but slow, so they sit behind a flag.
FREE_MAX_RANK = 5
HARD_MAX_RANK = 7


class EquivWitness(NamedTuple):
    """g maps one form to `scale` times the other under act(g, .)."""

    g: GroupElement
    scale: Fraction


class PerfectFormRep(NamedTuple):
    """A class representative with its full local data."""

    form: QForm
    minvecs: MinVecSet
    facets: Facets          # frozensets of indices into minvecs.vectors
    generators: tuple       # generates the stabilizer in the chosen group kind
    stab_order: int
    label: str


class Edge(NamedTuple):
    """The gluing across one facet of a node."""

    neighbor: int
    witness: GroupElement   # act(witness, rep_neighbor) is the concrete form


class VoronoiGraph(NamedTuple):
    n: int
    group_kind: str
    nodes: tuple
    edges: tuple            # edges[i][r]: the Edge across the
    #                         representative of facet orbit r of node i


def glues(vectors, face, witness, far):
    """Whether `witness` glues the cell of minimal vectors `vectors`
    across its facet `face` to the cell of minimal vectors `far`: it
    carries `far` onto vectors that meet `vectors` exactly in the
    facet."""
    return set(vectors).intersection(apply_to_cell(witness, far)) == \
        set(face)


def facet_edge(graph, i, k):
    """The Edge across facet k of node i of `graph`: the edge across the
    representative of its orbit, moved by the stabilizer element that
    carries the representative onto facet k."""
    facets = graph.nodes[i].facets
    edge = graph.edges[i][facets.orbit_of[k]]
    if facets.schreier[k] is None:
        return edge
    return edge._replace(witness=facets.transporter(k) * edge.witness)


def neighbor_form(form, minvecs, facet):
    """The unique contiguous perfect form across `facet`, a set of
    indices into the minimal vectors, of the form's domain.

    Raises BoundaryFacet when the facet's vectors do not span (its
    interior touches the boundary cone).  The result is normalized; it
    is certified by a fresh minimal-vector run: the facet vectors stay
    minimal, at least one new pair joins them, and the form is perfect.
    """
    face_vecs = face_vectors(minvecs.vectors, facet)
    if meets_boundary(face_vecs):
        raise BoundaryFacet("facet meets the boundary of the cone")
    gram = form.gram
    mu = minvecs.min_value
    normal = facet_normal(minvecs.vectors, facet)
    face_set = set(face_vecs)
    # lo: the last positive definite probe with nothing below mu; hi:
    # the smallest probe known not to be positive definite.
    lo, hi = Fraction(0), None
    t = Fraction(1)
    for _ in range(10000):
        denom = t.denominator
        scaled = tuple(tuple(denom * h + t.numerator * x
                             for h, x in zip(g_row, n_row))
                       for g_row, n_row in zip(gram, normal))
        if not is_positive_definite(scaled):
            hi = t
            t = (lo + hi) / 2
            continue
        hits = short_vectors(scaled, denom * mu)
        below = [(v, val) for v, val in hits if val < denom * mu]
        if below:
            t_new = None
            for v, _ in below:
                nv = bilinear(normal, v, v)
                if nv >= 0:
                    raise RuntimeError("a vector below the minimum has a "
                                       "nonnegative normal value")
                t_v = Fraction(form.evaluate(v) - mu, -nv)
                t_new = t_v if t_new is None else min(t_new, t_v)
            if not lo < t_new < t:
                raise RuntimeError("the root of a vector below the minimum "
                                   "lies outside the probe interval")
            t = t_new
            continue
        at_mu = {v for v, val in hits if val == denom * mu}
        new_pairs = at_mu - face_set
        if new_pairs:
            result = QForm.from_matrix(scaled)
            mv = minimum_and_minimal_vectors(result)
            if not (face_set <= at_mu and face_set <= set(mv.vectors)
                    and set(mv.vectors) - face_set
                    and is_perfect(result, mv)):
                raise RuntimeError("the form across the facet is not a "
                                   "perfect neighbour that keeps the facet")
            return result
        lo = t
        t = 2 * t if hi is None else (lo + hi) / 2
    raise RuntimeError("contiguity walk failed to converge")


def is_equivalent(form_a, minvecs_a, form_b, minvecs_b, det_one=False):
    """Witness with act(g, form_a) = scale * form_b, or None.

    Both forms are normalized by construction, so the scale is 1; the
    field is kept so callers can rely on the exact relation.
    """
    found = form_maps(form_a, minvecs_a.vectors, form_b, minvecs_b.vectors,
                      det_one=det_one, first_only=True)
    if not found:
        return None
    return EquivWitness(g=found[0], scale=Fraction(1))


@cache
def _root_forms(n):
    """The rank-n root forms A_n and (n >= 4) D_n with their labels and
    minimal vectors, built once per rank."""
    out = []
    for name, gram in (("A", a_n_gram(n)),) + (
            (("D", d_n_gram(n)),) if n >= 4 else ()):
        ref = QForm.from_matrix(gram)
        out.append((f"{name}{n}", ref, minimum_and_minimal_vectors(ref)))
    return tuple(out)


def root_label(form, minvecs, n):
    """The label "An" or "Dn" of a form equivalent to A_n or D_n (the
    latter tried for n >= 4 only), else None."""
    for label, ref, ref_mv in _root_forms(n):
        if form_maps(ref, ref_mv.vectors, form, minvecs.vectors,
                     first_only=True):
            return label
    return None


def class_label(form, minvecs, n, i):
    """The label of class i of the rank-n walk: its root lattice name
    (`root_label`), else "Pn.i"."""
    return root_label(form, minvecs, n) or f"P{n}.{i}"


def enumerate_perfect_forms(n, group_kind="gl", allow_long=False,
                            traversal="default"):
    """Complete walk graph of perfect-form classes of rank n.

    Ranks run from 2 (rank 1 has no facets to walk across) to
    HARD_MAX_RANK; those above FREE_MAX_RANK need allow_long=True.  One
    pass visits the classes in the order met, each represented by the
    form where the walk first met it.  Crossing the representative of a
    facet orbit reaches act(w, form_j) (w the identity when the crossing
    creates class j); the node keeps the edge (j, w) for the orbit, and
    a member s * rep has the edge (j, s * w) (`facet_edge`).
    `traversal` reorders facet processing; any order must close on the
    same classes, which the tests exercise.
    """
    if group_kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {group_kind!r}")
    if n < 2:
        raise ValueError("rank must be at least 2")
    if n > HARD_MAX_RANK:
        raise ValueError(f"rank {n} is beyond desk scale")
    if n > FREE_MAX_RANK and not allow_long:
        raise ValueError(
            f"rank {n} is long-running; pass allow_long to proceed")
    det_one = group_kind == "sl"
    start = QForm.from_matrix(a_n_gram(n))
    start_mv = minimum_and_minimal_vectors(start)
    met = [(start, start_mv)]
    nodes, edges = [], []
    for i, (form, mv) in enumerate(met):
        gens, order = form_group(form, mv.vectors, det_one)
        facets = build_cone(mv.vectors, gens)
        orbits = facets.orbits
        positions = range(len(orbits))
        if traversal == "reversed":
            positions = positions[::-1]
        row = [None] * len(orbits)
        for r in positions:
            rep = orbits[r][0]
            nb = neighbor_form(form, mv, facets[rep])
            nb_mv = minimum_and_minimal_vectors(nb)
            for j, (other, other_mv) in enumerate(met):
                found = form_maps(other, other_mv.vectors, nb, nb_mv.vectors,
                                  det_one=det_one, first_only=True)
                if found:
                    w = found[0]
                    break
            else:
                met.append((nb, nb_mv))
                j, w = len(met) - 1, GroupElement.identity(n)
            if not glues(mv.vectors, face_vectors(mv.vectors, facets[rep]),
                         w, met[j][1].vectors):
                raise RuntimeError(f"the crossing at facet {rep} of node "
                                   f"{i} does not glue it")
            row[r] = Edge(neighbor=j, witness=w)
        nodes.append(PerfectFormRep(
            form, mv, facets, gens, order,
            label=class_label(form, mv, n, i)))
        edges.append(tuple(row))

    graph = VoronoiGraph(n=n, group_kind=group_kind, nodes=tuple(nodes),
                         edges=tuple(edges))
    _check_connected(graph)
    return graph


def _check_connected(graph):
    seen = {0}
    frontier = [0]
    while frontier:
        for e in graph.edges[frontier.pop()]:
            if e.neighbor not in seen:
                seen.add(e.neighbor)
                frontier.append(e.neighbor)
    if len(seen) != len(graph.nodes):
        raise RuntimeError("walk graph is disconnected")
