"""Exact polyhedral cones in the space of symmetric matrices.

A cell of the tessellation is the cone spanned by the rank-one matrices
x x^t of its generating vectors (one per antipodal pair).  A face is
the set of rays it contains, an int with bit i set when sorted vector
i is in it.  Facets are enumerated by the double description method
run in exact integer arithmetic: the facets of cone(R) are the active
sets of the extreme rays of the dual cone {y : dot(y, r) >= 0 for all
r in R}, taken under the plain dot product of flattenings (the dual
under the trace pairing differs from it by a positive diagonal change
of coordinates, which keeps every active set), built by inserting the
inequalities one at a time starting from a simplicial subcone.  Two
dual rays are adjacent when no third one is active on every input ray
active on both; with on[i] the bitset of the dual rays active on input
ray i, that is an AND of bitsets over their common active set (Fukuda
and Prodon, "Double description method revisited", LNCS 1120, 1996).
The dual rays' bitsets of active input rays, complete once every
inequality is in, are the facets.

The result is certified, and up to symmetry: the caller passes
generators of a group that should map the cone onto itself (the cell's
stabilizer; none for the trivial group).  They must permute the rays
(`isometry.orbit_decompose` raises otherwise) and the candidate facets:
the orbit walk from the candidates must reach no other face.  A map
that permutes the rays maps the cone onto itself, so it maps facets to
facets and extreme rays to extreme rays; then one rank certificate per
facet orbit and one per ray orbit cover every member.  A non-facet
among the candidates either breaks an orbit or lies in an orbit whose
representative fails its certificate.

The facets are numbered as that walk reaches them, orbit by orbit.
Each orbit's representative is its first facet in the double
description's order (`face_order`), so one walk from the
representatives alone numbers them the same way (`facet_closure`).

A facet's normal is needed only where the walk crosses it, and
`facet_normal` recovers it from the incident rays alone: a symmetric
integer matrix, primitive and inward-pointing, with <N, r> = 0 on
incident rays and > 0 on every other ray of the cone, where <.,.> is
the trace pairing.
"""

from itertools import compress
from operator import mul

from .forms import rank_one
from .isometry import orbit_decompose, transporter, transporter_det
from .linalg import (
    independent_rows,
    kernel_basis,
    mat_rank,
    pairing_weights,
    primitive,
    sym_dim,
    sym_flatten,
    sym_unflatten,
)


class NotFullDim(ValueError):
    """The given rays do not span the ambient space."""


class Facets(tuple):
    """The facets of a cone, each an int bitmask over its sorted
    vectors.  `facets` is the tuple itself, so a reader that takes a
    `build_cone` result as a record with a facet list (as
    vorbench/tracing.py counts it) reads the same facets.

    The facets are numbered as `isometry.orbit_decompose` walks them
    under the n x n matrices `generators` they were certified with:
    `orbits` are ranges of facet indices, one orbit after the other
    with the representative first, and `orbit_of[k]` is the position of
    facet k's orbit.  `schreier` is their Schreier vector (see
    `isometry.orbit_decompose`): `transporter(k)` multiplies out the
    element that carries the representative of facet k's orbit onto
    facet k, and `transporter_det(k)` its determinant, with no matrix
    product.
    """

    def __new__(cls, facets=(), orbits=(), schreier=(), generators=(), n=0):
        self = super().__new__(cls, facets)
        self.orbits = orbits
        self.schreier = schreier
        self.generators = generators
        self.n = n
        self.orbit_of = [r for r, orbit in enumerate(orbits) for _ in orbit]
        return self

    @property
    def facets(self):
        return self

    def transporter(self, k):
        return transporter(self.generators, self.schreier, k, self.n)

    def transporter_det(self, k):
        return transporter_det(self.generators, self.schreier, k)


# The digits of bin() as the bytes 0 and 1, which compress takes.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def face_vectors(vectors, face):
    """The entries of `vectors` at the set bits of `face`, in order."""
    bits = bin(face)[:1:-1].encode().translate(_BIT_BYTES)
    return tuple(compress(vectors, bits))


def face_indices(face):
    """The indices of the set bits of `face`, increasing."""
    return list(face_vectors(range(face.bit_length()), face))


def face_order(face, size):
    """A key that sorts faces over `size` rays, descending, in the order
    of their sorted index lists where no face holds another."""
    return format(face, f"0{size}b")[::-1]


def _dot(u, v):
    return sum(map(mul, u, v))


def _dd_dual_rays(rows):
    """Extreme rays of the dual cone {y : dot(rows[i], y) >= 0 for all
    i} of the cone of `rows`, under the plain dot product.

    Requires the rows to span, so the dual cone is pointed.  Returns
    (y, active) per extreme ray y, with `active` the bitmask of the row
    indices where y vanishes, sorted by active set (`face_order`).  The
    active sets are the cone's facets, whichever inner product the dual
    is taken under.

    Adjacency is the combinatorial test (no third extreme ray's active
    set contains the common one; exact for pointed cones) run on
    incidence bitsets, and constraints are inserted cutting off as few
    rays as possible, which keeps the intermediate ray counts down on
    the larger domains.
    """
    dim = len(rows[0])
    count = len(rows)
    # Simplicial seed: first `dim` independent rays.
    seed = independent_rows(rows, ())
    if len(seed) < dim:
        raise NotFullDim("rays do not span the ambient space")
    # Seed dual ray j is column j of W^-1, W the seed rows: the kernel
    # of [W | -I] has the vector (W^-1 e_j, e_j), up to scale, for its
    # free column dim + j.
    augmented = [list(rows[i]) + [-int(r == j) for j in range(dim)]
                 for r, i in enumerate(seed)]
    seed_face = sum(1 << i for i in seed)
    duals = []
    for j, vec in enumerate(kernel_basis(augmented)):
        scale = 1 if vec[dim + j] > 0 else -1
        duals.append((primitive(tuple(scale * x for x in vec[:dim])),
                      seed_face ^ (1 << seed[j])))
    remaining = face_indices(seed_face ^ ((1 << count) - 1))
    while remaining:
        # Insertion heuristic: cheapest cut first (fewest rays removed).
        scores = []
        for i in remaining:
            w = rows[i]
            cut = sum(1 for y, _ in duals if _dot(w, y) < 0)
            scores.append((cut, i))
        _, idx = min(scores)
        remaining.remove(idx)
        w = rows[idx]
        bit = 1 << idx
        vals = [_dot(w, y) for y, _ in duals]
        if all(v >= 0 for v in vals):
            duals = [(y, act | bit if v == 0 else act)
                     for (y, act), v in zip(duals, vals)]
            continue
        pos = [t for t, v in enumerate(vals) if v > 0]
        zero = [t for t, v in enumerate(vals) if v == 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        # on[i]: the dual rays active on input ray i.  The rays whose
        # active sets contain p's and q's common one are the AND of
        # on[i] over it; p and q are adjacent when that is {p, q}.
        on = [0] * count
        for t, (_, act) in enumerate(duals):
            while act:
                low = act & -act
                on[low.bit_length() - 1] |= 1 << t
                act ^= low
        everything = (1 << len(duals)) - 1
        new = []
        for p in pos:
            yp, ap = duals[p]
            for q in neg:
                yq, aq = duals[q]
                common = ap & aq
                if common.bit_count() < dim - 2:
                    continue
                pair = (1 << p) | (1 << q)
                meet, rest = everything, common
                while rest and meet != pair:
                    low = rest & -rest
                    meet &= on[low.bit_length() - 1]
                    rest ^= low
                if meet != pair:
                    continue
                combo = tuple(vals[p] * b - vals[q] * a
                              for a, b in zip(yp, yq))
                new.append((primitive(combo), common | bit))
        duals = (
            [duals[t] for t in pos]
            + [(duals[t][0], duals[t][1] | bit) for t in zero]
            + new
        )
    # Every row is in, so each tracked active set is complete.
    duals.sort(key=lambda dual: face_order(dual[1], count), reverse=True)
    return duals


def _certified(vectors, rays, duals, dim, generators):
    """The facets of the cone of `rays` (one per sorted vector, in
    dimension `dim`) that the dual rays `duals` describe, certified per
    orbit of `generators`, and one ray index per ray orbit.

    The generators must permute the rays and the facets (ValueError
    otherwise): the orbit walk from the facets must reach no other face.
    A nonzero y pairs to zero with each of its incident rays, so they
    span at most a hyperplane; the certificate, at each orbit's
    representative, is that they span one.
    """
    reached, ray_orbits, _ = orbit_decompose(
        vectors, [1 << i for i in range(len(vectors))], generators)
    facets, orbits, schreier = orbit_decompose(
        vectors, [active for _, active in duals], generators)
    if len(facets) != len(duals):
        raise ValueError("group does not permute the faces")
    heads = {facets[orbit[0]] for orbit in orbits}
    for y, active in duals:
        if active in heads and (not any(y) or mat_rank(
                face_vectors(rays, active), stop=dim - 1) < dim - 1):
            raise ValueError("dual ray does not describe a facet")
    return (Facets(facets, orbits, schreier, generators, len(vectors[0])),
            [reached[orbit[0]].bit_length() - 1 for orbit in ray_orbits])


def build_cone(vectors, generators=()):
    """The facets of the cone spanned by the rank-one matrices of
    `vectors`, as bitmasks over the sorted vectors, numbered by their
    orbits under `generators` (see `Facets`).

    Verifies full dimensionality (NotFullDim otherwise), pointedness,
    and that every listed ray is extreme.
    """
    vectors = tuple(sorted(vectors))
    n = len(vectors[0])
    dim = sym_dim(n)
    ray_flats = [sym_flatten(rank_one(v)) for v in vectors]
    if mat_rank(ray_flats) < dim:
        raise NotFullDim(
            f"rays span a {mat_rank(ray_flats)}-dimensional subspace of "
            f"dimension-{dim} form space")
    duals = _dd_dual_rays(ray_flats)
    facets, ray_reps = _certified(vectors, ray_flats, duals, dim,
                                  generators)
    # Every listed ray must be extreme: the normals of the facets
    # through it span a hyperplane (at most one, as they vanish on the
    # ray).  Pointedness holds because the identity matrix pairs strictly
    # positively with every rank-one ray.
    for i in ray_reps:
        active_normals = [y for y, active in duals if active >> i & 1]
        if mat_rank(active_normals, stop=dim - 1) < dim - 1:
            raise ValueError(f"listed ray {i} is not extreme")
    return facets


def ray_weights(vectors):
    """Per vector v, the flattened w with <v v^t, B> = dot(w, flat(B))
    under the trace pairing."""
    n = len(vectors[0])
    return [pairing_weights(sym_flatten(rank_one(v)), n) for v in vectors]


def facet_normal(vectors, facet, weights=None):
    """The primitive inward normal of `facet`, a bitmask over the sorted
    `vectors` of a full-dimensional cone.

    The normal spans the kernel of the incident rays' pairings (their
    `ray_weights`, which a caller reading several facets of one cone
    passes once computed), which must be a line; oriented inward, it
    must pair positively with every other ray (ValueError otherwise).
    """
    n = len(vectors[0])
    if weights is None:
        weights = ray_weights(vectors)
    kernel = kernel_basis(face_vectors(weights, facet), ncols=sym_dim(n))
    if len(kernel) == 1:
        y = kernel[0]
        others = face_vectors(weights, facet ^ ((1 << len(weights)) - 1))
        signs = {(v > 0) - (v < 0) for v in (_dot(w, y) for w in others)}
        if len(signs) == 1 and 0 not in signs:
            sign = signs.pop()
            return sym_unflatten(tuple(sign * x for x in y), n)
    raise ValueError("the rays do not describe a facet of the cone")


def facet_closure(vectors, representatives, generators):
    """The facets that `generators` carry the facets `representatives`
    to, numbered by one orbit walk from the representatives (see
    `Facets`), which is the numbering of `build_cone` when each
    representative is the first facet of its orbit in the double
    description's order (`face_order`), and the representatives come
    in that order.  Raises ValueError unless they do.

    When the representatives are facets of the cone of the sorted
    `vectors` and the generators permute those vectors, every face
    listed is a facet; whether the list is complete is the caller's to
    know.
    """
    facets, orbits, schreier = orbit_decompose(vectors, representatives,
                                               generators)
    keys = [face_order(facet, len(vectors)) for facet in facets]
    heads = [max(keys[orbit.start:orbit.stop]) for orbit in orbits]
    if len(orbits) != len(representatives) or heads != sorted(
            heads, reverse=True) or heads != [keys[o[0]] for o in orbits]:
        raise ValueError("the representatives are not the first facets of "
                         "their orbits, in order")
    return Facets(facets, orbits, schreier, generators, len(vectors[0]))


def subcone_facets(vectors, generators=()):
    """Facets of the cone of `vectors` inside its own linear span.

    Used for faces of positive codimension: the rays are written in
    coordinates of a basis of their span and the double description is
    run there.  Returns the facets as bitmasks of incident rays, with
    their orbits under `generators`, certified as `build_cone`
    certifies its facets.
    """
    vectors = tuple(sorted(vectors))
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    basis = [flats[i] for i in independent_rows(flats, ())]
    dim = len(basis)
    if dim == 1:
        return Facets()
    # Local coordinates: with the basis as columns, then the flats, the
    # kernel has the vector (-coords_i, e_i), up to scale, for its free
    # column dim + i.
    columns = basis + flats
    matrix = [[col[r] for col in columns] for r in range(len(flats[0]))]
    local = []
    for i, vec in enumerate(kernel_basis(matrix)):
        scale = -1 if vec[dim + i] > 0 else 1
        local.append(primitive(tuple(scale * x for x in vec[:dim])))
    duals = _dd_dual_rays(local)
    return _certified(vectors, local, duals, dim, generators)[0]


def meets_boundary(vectors):
    """True iff the face touches the boundary of the closed cone.

    A face with interior point sum lambda_x x x^t (all lambda_x > 0) is
    positive definite exactly when the vectors span, so the face avoids
    the boundary iff its vectors span Q^n.
    """
    vectors = tuple(vectors)
    if not vectors:
        return True
    n = len(vectors[0])
    return mat_rank(vectors) < n
