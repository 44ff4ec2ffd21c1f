"""Enumeration of perfect forms up to equivalence, with the walk graph.

Starting from the form with 2 on the diagonal and -1 next to it, the
facets of each known Voronoi domain are reduced modulo the domain's
stabilizer and one facet per orbit is crossed to the unique contiguous
perfect form on the other side; new forms are reduced modulo
equivalence until no frontier remains.  Connectivity of the resulting
graph makes this traversal a complete enumeration.  Each crossing is
kept with the witness that matched its neighbour to a class, and the
stabilizer transporters replicate it to every facet, so this one walk
yields the final graph with one certified edge per facet.

The crossing itself walks the pencil  h_t = h + t * N  where N is the
inward primitive facet normal: the facet's minimal vectors keep their
value mu for every t, the remaining minimal vectors of h move up, and
the neighbour sits at the first t > 0 where a new vector reaches value
mu.  Candidate vectors give exact rational roots t_v = (h(v) - mu) /
(-N(v)); the walk keeps the smallest, re-enumerates at that exact t,
and stops when the minimum class strictly grows.  The probe t doubles
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
from math import gcd
from typing import NamedTuple

from .cones import build_cone, meets_boundary
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
from .isometry import form_group, form_invariant, form_maps, orbit_decompose


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
    domain: object          # PolyCone
    generators: tuple       # generates the stabilizer in the chosen group kind
    stab_order: int
    label: str


class Edge(NamedTuple):
    node: int
    facet: int
    neighbor: int
    witness: GroupElement   # act(witness, rep_neighbor) is the concrete form


class VoronoiGraph(NamedTuple):
    n: int
    group_kind: str
    nodes: tuple
    edges: tuple

    def edge_at(self, node, facet):
        # A scan: a graph has at most a few hundred edges, and each wall
        # asks for one.
        return next(e for e in self.edges
                    if e.node == node and e.facet == facet)


def neighbor_form(form, minvecs, facet):
    """The unique contiguous perfect form across a facet of the domain.

    Raises BoundaryFacet when the facet's vectors do not span (its
    interior touches the boundary cone).  The result is normalized; it
    is certified by a fresh minimal-vector run: the facet vectors stay
    minimal, at least one new pair joins them, and the form is perfect.
    """
    face_vecs = tuple(sorted(minvecs.vectors[i] for i in facet.incident))
    if meets_boundary(face_vecs):
        raise BoundaryFacet("facet meets the boundary of the cone")
    gram = form.gram
    mu = minvecs.min_value
    normal = facet.normal
    n = form.n
    face_set = set(face_vecs)

    def form_at(t):
        rows = [[Fraction(gram[i][j]) + t * normal[i][j] for j in range(n)]
                for i in range(n)]
        denom = 1
        for r in rows:
            for x in r:
                denom = denom * x.denominator // gcd(denom, x.denominator)
        scaled = tuple(tuple(int(x * denom) for x in r) for r in rows)
        return scaled, denom

    # lo: the last positive definite probe with nothing below mu; hi:
    # the smallest probe known not to be positive definite.
    lo, hi = Fraction(0), None
    t = Fraction(1)
    for _ in range(10000):
        scaled, denom = form_at(t)
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
                assert nv < 0
                t_v = Fraction(form.evaluate(v) - mu, -nv)
                t_new = t_v if t_new is None else min(t_new, t_v)
            assert lo < t_new < t
            t = t_new
            continue
        at_mu = {v for v, val in hits if val == denom * mu}
        new_pairs = at_mu - face_set
        if new_pairs:
            assert face_set <= at_mu
            result = QForm.from_matrix(scaled)
            mv = minimum_and_minimal_vectors(result)
            assert face_set <= set(mv.vectors)
            assert set(mv.vectors) - face_set
            assert is_perfect(result, mv)
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


def root_label(form, minvecs, n):
    """The label "An" or "Dn" of a form equivalent to A_n or D_n (the
    latter tried for n >= 4 only), else None."""
    for name, gram in (("A", a_n_gram(n)),) + (
            (("D", d_n_gram(n)),) if n >= 4 else ()):
        ref = QForm.from_matrix(gram)
        ref_mv = minimum_and_minimal_vectors(ref)
        if form_maps(ref, ref_mv.vectors, form, minvecs.vectors,
                     first_only=True):
            return f"{name}{n}"
    return None


def _discover_classes(n, det_one, traversal="default"):
    """Breadth-first closure over the classes of the chosen group,
    recording the walk.

    Facets of each domain are first reduced modulo the class stabilizer
    and only one representative per orbit is crossed; a transported
    facet leads to an equivalent neighbour, so nothing is lost.  Each
    class record keeps the form where the walk first met it ("form",
    "mv"), its domain ("cone"), the strong generators ("gens") and order
    ("order") of its stabilizer in the chosen group, and one crossing
    (members, j, w) per facet orbit: `members` maps each facet key of
    the orbit to a transporter s with s * rep = member, and act(w,
    form_j) is the neighbour across the representative (w is the
    identity when the crossing created class j).
    `traversal` reorders facet processing; any order must close on the
    same classes, which the tests exercise.
    """
    start = QForm.from_matrix(a_n_gram(n))
    start_mv = minimum_and_minimal_vectors(start)
    classes = [{"form": start, "mv": start_mv,
                "inv": form_invariant(start.gram, start_mv.vectors)}]
    queue = [0]
    while queue:
        rep = classes[queue.pop(0)]
        cone = rep["cone"] = build_cone(rep["mv"].vectors)
        rep["gens"], rep["order"] = form_group(rep["form"], rep["mv"].vectors,
                                               det_one)
        facet_of = {cone.facet_vectors(f): f for f in cone.facets}
        orbits = orbit_decompose(list(facet_of), rep["gens"])
        if traversal == "reversed":
            orbits.reverse()
        rep["crossings"] = []
        for rep_key, members in orbits:
            nb = neighbor_form(rep["form"], rep["mv"], facet_of[rep_key])
            nb_mv = minimum_and_minimal_vectors(nb)
            inv = form_invariant(nb.gram, nb_mv.vectors)
            for j, cls in enumerate(classes):
                found = cls["inv"] == inv and form_maps(
                    cls["form"], cls["mv"].vectors, nb, nb_mv.vectors,
                    det_one=det_one, first_only=True)
                if found:
                    w = found[0]
                    break
            else:
                classes.append({"form": nb, "mv": nb_mv, "inv": inv})
                queue.append(len(classes) - 1)
                j, w = len(classes) - 1, GroupElement.identity(n)
            rep["crossings"].append((members, j, w))
    return classes


def enumerate_perfect_forms(n, group_kind="gl", allow_long=False,
                            traversal="default"):
    """Complete walk graph of perfect-form classes of rank n.

    Ranks above FREE_MAX_RANK need allow_long=True.  Rank 1 is the
    degenerate single-node graph.  Each class is represented by the form
    where the walk first met it, and every edge is a crossing recorded
    by the walk, transported along the facet orbit.
    """
    if group_kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {group_kind!r}")
    if n < 1:
        raise ValueError("rank must be positive")
    if n > HARD_MAX_RANK:
        raise ValueError(f"rank {n} is beyond desk scale")
    if n > FREE_MAX_RANK and not allow_long:
        raise ValueError(
            f"rank {n} is long-running; pass allow_long to proceed")
    det_one = group_kind == "sl"
    if n == 1:
        form = QForm.from_matrix(((1,),))
        mv = minimum_and_minimal_vectors(form)
        gens, order = form_group(form, mv.vectors, det_one)
        node = PerfectFormRep(form=form, minvecs=mv, domain=None,
                              generators=gens, stab_order=order, label="A1")
        return VoronoiGraph(n=1, group_kind=group_kind, nodes=(node,),
                            edges=())

    classes = _discover_classes(n, det_one, traversal=traversal)
    nodes = tuple(
        PerfectFormRep(cls["form"], cls["mv"], cls["cone"], cls["gens"],
                       cls["order"],
                       label=root_label(cls["form"], cls["mv"], n)
                       or f"P{n}.{i}")
        for i, cls in enumerate(classes))

    edges = []
    for i, (node, cls) in enumerate(zip(nodes, classes)):
        facet_index = {node.domain.facet_vectors(f): k
                       for k, f in enumerate(node.domain.facets)}
        node_vecs = set(node.minvecs.vectors)
        for members, j, w in cls["crossings"]:
            for key, s in members.items():
                x = s * w
                moved = set(apply_to_cell(x, nodes[j].minvecs.vectors))
                # The two domains must meet exactly in this facet.
                assert node_vecs & moved == set(key)
                edges.append(Edge(node=i, facet=facet_index[key],
                                  neighbor=j, witness=x))
    edges.sort(key=lambda e: (e.node, e.facet))

    graph = VoronoiGraph(n=n, group_kind=group_kind, nodes=nodes,
                         edges=tuple(edges))
    _assert_connected(graph)
    return graph


def _assert_connected(graph):
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for e in graph.edges:
            if e.node == i and e.neighbor not in seen:
                seen.add(e.neighbor)
                frontier.append(e.neighbor)
    assert seen == set(range(len(graph.nodes))), "walk graph is disconnected"
