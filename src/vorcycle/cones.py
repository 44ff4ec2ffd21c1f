"""Exact polyhedral cones in the space of symmetric matrices.

A cell of the tessellation is the cone spanned by the rank-one matrices
x x^t of its generating vectors (one per antipodal pair).  Facets are
enumerated by the double description method run in exact integer
arithmetic: the facet normals of cone(R) are the extreme rays of the
dual cone {y : <y, r> >= 0 for all r in R}, built by inserting the
inequalities one at a time starting from a simplicial subcone, with the
rank-based adjacency test.

Facet normals are symmetric integer matrices, primitive and
inward-pointing: <N, r> = 0 on incident rays and > 0 on every other ray
of the cone, where <.,.> is the trace pairing.
"""

from typing import NamedTuple

from .forms import rank_one
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


class FacetRec(NamedTuple):
    """One facet: inward primitive normal plus incident ray indices."""

    normal: tuple            # symmetric integer matrix
    incident: frozenset      # indices into the cone's ray list


class PolyCone(NamedTuple):
    """A pointed full-dimensional cone spanned by rank-one matrices."""

    ambient_dim: int
    vectors: tuple           # canonical generating vectors, sorted
    ray_flats: tuple         # flattened x x^t, aligned with `vectors`
    facets: tuple            # FacetRec list, canonically ordered

    @property
    def n(self):
        return len(self.vectors[0])

    def facet_vectors(self, facet):
        return tuple(sorted(self.vectors[i] for i in facet.incident))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _dd_dual_rays(rows, weights):
    """Extreme rays of {y : dot(weights[i], y) >= 0 for all i}.

    `rows` are the primal rays (used for the independence test of the
    simplicial seed); `weights[i]` is the linear functional of ray i in
    the coordinates of the dual vectors.  Requires the rows to span, so
    the dual cone is pointed.  Returns (dual_rays, active_sets) with
    active sets over all ray indices.

    Active sets are kept as bitmasks, adjacency is the combinatorial
    test (no third extreme ray's active set contains the common one;
    exact for pointed cones), and constraints are inserted cutting off
    as few rays as possible, which keeps the intermediate ray counts
    down on the larger domains.
    """
    dim = len(rows[0])
    count = len(rows)
    # Simplicial seed: first `dim` independent rays.
    seed = independent_rows(rows, ())
    if len(seed) < dim:
        raise NotFullDim("rays do not span the ambient space")
    # Seed dual ray j is column j of W^-1, W the seed weights: the kernel
    # of [W | -I] has the vector (W^-1 e_j, e_j), up to scale, for its
    # free column dim + j.
    augmented = [list(weights[i]) + [-int(r == j) for j in range(dim)]
                 for r, i in enumerate(seed)]
    duals = []
    for j, vec in enumerate(kernel_basis(augmented)):
        scale = 1 if vec[dim + j] > 0 else -1
        active = 0
        for t in range(dim):
            if t != j:
                active |= 1 << seed[t]
        duals.append((primitive(tuple(scale * x for x in vec[:dim])),
                      active))
    remaining = [i for i in range(count) if i not in set(seed)]
    while remaining:
        # Insertion heuristic: cheapest cut first (fewest rays removed).
        scores = []
        for i in remaining:
            w = weights[i]
            cut = sum(1 for y, _ in duals if _dot(w, y) < 0)
            scores.append((cut, i))
        _, idx = min(scores)
        remaining.remove(idx)
        w = weights[idx]
        bit = 1 << idx
        vals = [_dot(w, y) for y, _ in duals]
        if all(v >= 0 for v in vals):
            duals = [(y, act | bit if v == 0 else act)
                     for (y, act), v in zip(duals, vals)]
            continue
        pos = [t for t, v in enumerate(vals) if v > 0]
        zero = [t for t, v in enumerate(vals) if v == 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        masks = [act for _, act in duals]
        new = []
        for p in pos:
            yp, ap = duals[p]
            for q in neg:
                yq, aq = duals[q]
                common = ap & aq
                if common.bit_count() < dim - 2:
                    continue
                if any(t != p and t != q and common & masks[t] == common
                       for t in range(len(masks))):
                    continue
                combo = tuple(vals[p] * b - vals[q] * a
                              for a, b in zip(yp, yq))
                new.append((primitive(combo), common | bit))
        duals = (
            [duals[t] for t in pos]
            + [(duals[t][0], duals[t][1] | bit) for t in zero]
            + new
        )
    # Recompute full active sets and deduplicate.
    out = {}
    for y, _ in duals:
        full = frozenset(i for i in range(count) if _dot(weights[i], y) == 0)
        out[y] = full
    return sorted(out.items(), key=lambda item: (tuple(sorted(item[1])), item[0]))


def build_cone(vectors):
    """Cone spanned by the rank-one matrices of `vectors`, with facets.

    Verifies full dimensionality (NotFullDim otherwise), pointedness,
    and that every listed ray is extreme.
    """
    vectors = tuple(sorted(vectors))
    n = len(vectors[0])
    dim = sym_dim(n)
    ray_mats = [rank_one(v) for v in vectors]
    ray_flats = [sym_flatten(m) for m in ray_mats]
    if mat_rank(ray_flats) < dim:
        raise NotFullDim(
            f"rays span a {mat_rank(ray_flats)}-dimensional subspace of "
            f"dimension-{dim} form space")
    weights = [pairing_weights(f, n) for f in ray_flats]
    duals = _dd_dual_rays(ray_flats, weights)
    facets = []
    for y, active in duals:
        if mat_rank([ray_flats[i] for i in active]) != dim - 1:
            raise ValueError("dual ray does not describe a facet")
        facets.append(FacetRec(normal=sym_unflatten(y, n),
                               incident=active))
    # Every listed ray must be extreme: the facets through it span a
    # hyperplane.  (Pointedness holds because the identity matrix pairs
    # strictly positively with every rank-one ray.)
    for i in range(len(vectors)):
        active_normals = [sym_flatten(f.normal) for f in facets
                          if i in f.incident]
        if mat_rank(active_normals) != dim - 1:
            raise ValueError(f"listed ray {i} is not extreme")
    return PolyCone(ambient_dim=dim, vectors=vectors,
                    ray_flats=tuple(ray_flats), facets=tuple(facets))


def subcone_facets(vectors):
    """Facets of the cone of `vectors` inside its own linear span.

    Used for faces of positive codimension: the rays are written in
    coordinates of a basis of their span and the double description is
    run there.  Returns the facets as sets of incident ray indices.
    """
    vectors = tuple(sorted(vectors))
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    basis = [flats[i] for i in independent_rows(flats, ())]
    dim = len(basis)
    if dim == 1:
        return []
    # Local coordinates: with the basis as columns, then the flats, the
    # kernel has the vector (-coords_i, e_i), up to scale, for its free
    # column dim + i.
    columns = basis + flats
    matrix = [[col[r] for col in columns] for r in range(len(flats[0]))]
    local = []
    for i, vec in enumerate(kernel_basis(matrix)):
        scale = -1 if vec[dim + i] > 0 else 1
        local.append(primitive(tuple(scale * x for x in vec[:dim])))
    # In local coordinates the pairing is the plain dot product.
    duals = _dd_dual_rays(local, local)
    out = []
    for _, active in duals:
        if mat_rank([local[i] for i in active]) == dim - 1:
            out.append(frozenset(active))
    return sorted(set(out), key=lambda s: tuple(sorted(s)))


def faces_of_codim(cone, k):
    """Faces of codimension k, as frozensets of incident ray indices.

    Computed by iterated intersection with facets; k = 0 is the cone
    itself and k = 1 its facet list.
    """
    if k < 0 or k > cone.ambient_dim:
        raise ValueError("codimension out of range")
    if k == 0:
        return [frozenset(range(len(cone.vectors)))]
    current = {f.incident for f in cone.facets}
    for codim in range(2, k + 1):
        nxt = set()
        for face in current:
            for f in cone.facets:
                cand = face & f.incident
                if cand == face:
                    continue
                if mat_rank([cone.ray_flats[i] for i in cand]) == \
                        cone.ambient_dim - codim:
                    nxt.add(cand)
        current = nxt
    return sorted(current, key=lambda s: tuple(sorted(s)))


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
