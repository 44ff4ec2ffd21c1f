"""Enumeration of perfect forms up to equivalence, with the walk graph.

Starting from the form with 2 on the diagonal and -1 next to it, the
facets of each known Voronoi domain are reduced modulo the domain's
stabilizer and one facet per orbit is crossed to the unique contiguous
perfect form on the other side; new forms are reduced modulo
equivalence until no frontier remains.  Connectivity of the resulting
graph makes this traversal a complete enumeration, and the stabilizer
transporters replicate the crossing to every facet, so the final graph
still carries one certified edge per facet.

The crossing itself walks the pencil  h_t = h + t * N  where N is the
inward primitive facet normal: the facet's minimal vectors keep their
value mu for every t, the remaining minimal vectors of h move up, and
the neighbour sits at the first t > 0 where a new vector reaches value
mu.  Candidate vectors give exact rational roots t_v = (h(v) - mu) /
(-N(v)); the walk keeps the smallest, re-enumerates at that exact t,
and stops when the minimum class strictly grows.  If a probe leaves the
positive definite cone, a rational isotropic-or-negative vector from
the failed LDL^t decomposition re-seeds the candidate set, so every
step is certified and terminates.

Equivalence classes may be requested for the full unimodular group or
for the determinant-one subgroup.  The determinant-one classes are
derived from the full classes: a class splits in two exactly when its
stabilizer contains no element of determinant -1.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cones import build_cone, meets_boundary
from .forms import (
    GroupElement,
    MinVecSet,
    QForm,
    a_n_gram,
    act_form,
    apply_to_cell,
    bilinear,
    d_n_gram,
    is_perfect,
    is_positive_definite,
    minimum_and_minimal_vectors,
    nonposdef_witness,
    short_vectors,
)
from .isometry import (
    cell_stabilizer,
    form_automorphisms,
    form_invariant,
    form_maps,
    orbit_decompose,
    small_generating_set,
)


class BoundaryFacet(ValueError):
    """The facet touches the boundary cone; no contiguous form exists."""


GROUP_KINDS = ("gl", "sl")

# Desk scale: ranks 6 and 7 are possible but slow, so they sit behind a flag.
FREE_MAX_RANK = 5
HARD_MAX_RANK = 7


@dataclass(frozen=True)
class EquivWitness:
    """g maps one form to `scale` times the other under act(g, .)."""

    g: GroupElement
    scale: Fraction


@dataclass(frozen=True)
class PerfectFormRep:
    """A class representative with its full local data."""

    form: QForm
    minvecs: MinVecSet
    domain: object          # PolyCone
    generators: tuple       # generates the stabilizer in the chosen group kind
    stab_order: int
    label: str


@dataclass(frozen=True)
class Edge:
    node: int
    facet: int
    neighbor: int
    witness: GroupElement   # act(witness, rep_neighbor) is the concrete form


@dataclass(frozen=True)
class VoronoiGraph:
    n: int
    group_kind: str
    nodes: tuple
    edges: tuple

    def edge_at(self, node, facet):
        return self._edge_index[(node, facet)]

    def __post_init__(self):
        object.__setattr__(
            self, "_edge_index", {(e.node, e.facet): e for e in self.edges})


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

    best = None
    probe = Fraction(1)
    for _ in range(10000):
        t = best if best is not None else probe
        scaled, denom = form_at(t)
        if not is_positive_definite(scaled):
            v = nonposdef_witness(scaled)
            nv = bilinear(normal, v, v)
            assert nv < 0
            t_v = Fraction(form.evaluate(v) - mu, -nv)
            assert 0 < t_v < t
            best = t_v if best is None else min(best, t_v)
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
            assert t_new < t
            best = t_new
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
        assert best is None, "exact candidate root must surface a new vector"
        probe *= 2
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


def stabilizer(form, minvecs, group_kind="gl"):
    """The full finite stabilizer of the form's domain, and its order."""
    if group_kind not in GROUP_KINDS:
        raise ValueError(f"unknown group kind {group_kind!r}")
    elems = form_automorphisms(form, minvecs.vectors,
                               det_one=(group_kind == "sl"))
    return elems, len(elems)


def facet_stabilizer(cell_vectors, group_kind="gl"):
    """Stabilizer of a face given by its vectors, and its order.

    The stabilizer of the face equals the stabilizer of its barycenter
    sum x x^t, which is exactly the group of unimodular maps preserving
    the vector configuration setwise; that group is what the map engine
    enumerates (with the barycenter pairing as its pruning invariant).
    """
    elems = cell_stabilizer(tuple(cell_vectors),
                            det_one=(group_kind == "sl"))
    return elems, len(elems)


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


def _facet_orbit_reps(cone, generators):
    """One facet per orbit of the cell stabilizer, with the full orbits.

    Returns (orbits, key_to_index): each orbit is (rep_facet_index,
    {member_key: transporter}) with transporter * rep = member.
    """
    keys = [cone.facet_vectors(f) for f in cone.facets]
    key_to_index = {key: i for i, key in enumerate(keys)}
    orbits = orbit_decompose(keys, generators, apply_to_cell,
                             GroupElement.identity(cone.n))
    return [(key_to_index[rep], members) for rep, members in orbits], \
        key_to_index


def _discover_classes(n, traversal="default"):
    """Breadth-first closure over full-group classes.

    Facets of each domain are first reduced modulo the class stabilizer
    and only one representative per orbit is crossed; a transported
    facet leads to an equivalent neighbour, so nothing is lost.
    Returns a list of class records carrying the lexicographically
    minimal Gram matrix met by the walk, and the full automorphism group
    of the discovery form ("stab") with its generating set ("gens").
    `traversal` reorders facet processing; any order must close on the
    same classes, which the tests exercise.
    """
    start = QForm.from_matrix(a_n_gram(n))
    start_mv = minimum_and_minimal_vectors(start)
    classes = [{"form": start, "mv": start_mv,
                "inv": form_invariant(start.gram, start_mv.vectors),
                "min_gram": start.gram, "stab": None, "gens": None}]
    queue = [0]
    while queue:
        idx = queue.pop(0)
        rep = classes[idx]
        cone = build_cone(rep["mv"].vectors)
        rep["stab"] = form_automorphisms(rep["form"], rep["mv"].vectors)
        rep["gens"] = small_generating_set(rep["stab"])
        orbit_reps, _ = _facet_orbit_reps(cone, rep["gens"])
        facets = [cone.facets[i] for i, _ in orbit_reps]
        if traversal == "reversed":
            facets.reverse()
        for facet in facets:
            nb = neighbor_form(rep["form"], rep["mv"], facet)
            nb_mv = minimum_and_minimal_vectors(nb)
            inv = form_invariant(nb.gram, nb_mv.vectors)
            matched = None
            for j, cls in enumerate(classes):
                if cls["inv"] != inv:
                    continue
                if form_maps(cls["form"], cls["mv"].vectors, nb,
                             nb_mv.vectors, first_only=True):
                    matched = j
                    break
            if matched is None:
                classes.append({"form": nb, "mv": nb_mv, "inv": inv,
                                "min_gram": nb.gram, "stab": None,
                                "gens": None})
                queue.append(len(classes) - 1)
            else:
                if nb.gram < classes[matched]["min_gram"]:
                    classes[matched]["min_gram"] = nb.gram
    return classes


def enumerate_perfect_forms(n, group_kind="gl", allow_long=False,
                            traversal="default"):
    """Complete walk graph of perfect-form classes of rank n.

    Ranks above FREE_MAX_RANK need allow_long=True.  Rank 1 is the
    degenerate single-node graph.
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
    if n == 1:
        form = QForm.from_matrix(((1,),))
        mv = minimum_and_minimal_vectors(form)
        ident = GroupElement.identity(1)
        neg = GroupElement.from_matrix(((-1,),))
        elems = (ident,) if group_kind == "sl" else tuple(
            sorted((ident, neg), key=lambda g: g.rows))
        node = PerfectFormRep(form=form, minvecs=mv, domain=None,
                              generators=small_generating_set(elems),
                              stab_order=len(elems), label="A1")
        return VoronoiGraph(n=1, group_kind=group_kind, nodes=(node,),
                            edges=())

    classes = _discover_classes(n, traversal=traversal)

    # Final representatives: the lexicographically smallest Gram matrix
    # that the walk produced for each class (the discovery stabilizer and
    # its generators are reused when the representative did not move).
    # Each group is kept as (generators, order) from here on.
    nodes = []
    flip = GroupElement.from_matrix(
        tuple(tuple((-1 if i == j == 0 else int(i == j))
                    for j in range(n)) for i in range(n)))
    for cls in classes:
        form = QForm.from_matrix(cls["min_gram"])
        mv = minimum_and_minimal_vectors(form)
        moved = form.gram != cls["form"].gram
        full = form_automorphisms(form, mv.vectors) if moved else cls["stab"]
        if group_kind == "gl":
            gens = small_generating_set(full) if moved else cls["gens"]
            nodes.append((form, mv, gens, len(full)))
            continue
        sl = tuple(g for g in full if g.det == 1)
        nodes.append((form, mv, small_generating_set(sl), len(sl)))
        if len(sl) == len(full):
            # No determinant -1 symmetry: the class splits in two.
            mirror = act_form(flip, form)
            mirror_mv = minimum_and_minimal_vectors(mirror)
            mirror_sl = tuple(sorted(
                ((flip * g) * flip for g in sl), key=lambda e: e.rows))
            nodes.append((mirror, mirror_mv, small_generating_set(mirror_sl),
                          len(mirror_sl)))

    final = []
    for i, (form, mv, gens, order) in enumerate(nodes):
        final.append(PerfectFormRep(
            form=form, minvecs=mv, domain=build_cone(mv.vectors),
            generators=gens, stab_order=order,
            label=root_label(form, mv, n) or f"P{n}.{i}"))

    det_one = group_kind == "sl"
    edges = []
    for i, node in enumerate(final):
        # One walk per stabilizer orbit of facets; the other edges of
        # the orbit are transported copies, each still verified below.
        orbit_reps, key_to_index = _facet_orbit_reps(node.domain,
                                                     node.generators)
        node_vecs = set(node.minvecs.vectors)
        for rep_f_idx, members in orbit_reps:
            facet = node.domain.facets[rep_f_idx]
            nb = neighbor_form(node.form, node.minvecs, facet)
            nb_mv = minimum_and_minimal_vectors(nb)
            hit = None
            for j, cand in enumerate(final):
                w = is_equivalent(cand.form, cand.minvecs, nb, nb_mv,
                                  det_one=det_one)
                if w is not None:
                    assert hit is None, "neighbour matches two classes"
                    hit = (j, w.g)
            assert hit is not None, "walk left the enumerated classes"
            j, g = hit
            assert set(nb_mv.vectors) == \
                set(apply_to_cell(g, final[j].minvecs.vectors))
            for member_key, s in members.items():
                witness = s * g
                moved = set(apply_to_cell(witness, final[j].minvecs.vectors))
                # The two domains must meet exactly in this facet.
                assert node_vecs & moved == set(member_key)
                edges.append(Edge(node=i, facet=key_to_index[member_key],
                                  neighbor=j, witness=witness))
    edges.sort(key=lambda e: (e.node, e.facet))

    graph = VoronoiGraph(n=n, group_kind=group_kind, nodes=tuple(final),
                         edges=tuple(edges))
    _assert_connected(graph)
    return graph


def _assert_connected(graph):
    if not graph.nodes:
        return
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for e in graph.edges:
            if e.node == i and e.neighbor not in seen:
                seen.add(e.neighbor)
                frontier.append(e.neighbor)
    assert seen == set(range(len(graph.nodes))), "walk graph is disconnected"
