import hashlib
import itertools
import random
import types
from fractions import Fraction
from functools import lru_cache

import pytest

from vorcycle import complexes, cones, enumeration, forms, isometry
from vorcycle.complexes import build_complex, transport_flat
from vorcycle.enumeration import enumerate_perfect_forms
from vorcycle.forms import (
    GroupElement,
    apply_to_cell,
    canonical_pair,
    rank_one,
)
from vorcycle.isometry import cell_maps
from vorcycle.persistence import canonical_dumps
from vorcycle.tessellation import TessVerdict, _same_line, weighted_boundary
from vorcycle.linalg import (
    kernel_basis,
    mat_mul,
    mat_rank,
    pairing_weights,
    relative_orientation,
    sym_dim,
    sym_flatten,
)


# The pipeline's functions as imported, so the session-wide caches below
# can refuse to build, or hand out, a result while a test has one
# of them monkeypatched.
PIPELINE_FUNCTIONS = {
    (module, name): value
    for module in (enumeration, complexes, isometry, cones, forms)
    for name, value in vars(module).items()
    if isinstance(value, types.FunctionType)}


def _require_unpatched():
    patched = [f"{module.__name__}.{name}"
               for (module, name), value in PIPELINE_FUNCTIONS.items()
               if getattr(module, name, None) is not value]
    if patched:
        raise RuntimeError("the session-wide graph and complex caches are "
                           f"shared by every test; {', '.join(patched)} "
                           "is patched")


@lru_cache(maxsize=None)
def _cached_graph(n, group, traversal):
    return enumerate_perfect_forms(n, group, traversal=traversal)


@lru_cache(maxsize=None)
def _cached_complex(n, group, seed_perm):
    return build_complex(cached_graph(n, group), seed_perm=seed_perm)


def cached_graph(n, group, traversal="default"):
    _require_unpatched()
    return _cached_graph(n, group, traversal)


def cached_complex(n, group, seed_perm=0):
    _require_unpatched()
    return _cached_complex(n, group, seed_perm)


@pytest.fixture(scope="session")
def graph_sl2():
    return cached_graph(2, "sl")


@pytest.fixture(scope="session")
def graph_sl3():
    return cached_graph(3, "sl")


@pytest.fixture(scope="session")
def graph_sl4():
    return cached_graph(4, "sl")


@pytest.fixture(scope="session")
def graph_gl2():
    return cached_graph(2, "gl")


@pytest.fixture(scope="session")
def graph_gl3():
    return cached_graph(3, "gl")


@pytest.fixture(scope="session")
def graph_gl4():
    return cached_graph(4, "gl")


@pytest.fixture(scope="session")
def complex_sl2():
    return cached_complex(2, "sl")


@pytest.fixture(scope="session")
def complex_sl3():
    return cached_complex(3, "sl")


@pytest.fixture(scope="session")
def complex_sl4():
    return cached_complex(4, "sl")


@pytest.fixture(scope="session")
def complex_gl2():
    return cached_complex(2, "gl")


@pytest.fixture(scope="session")
def complex_gl3():
    return cached_complex(3, "gl")


@pytest.fixture(scope="session")
def complex_gl4():
    return cached_complex(4, "gl")


def content_hash(payload):
    """The hash that a cache file's header carries for `payload`."""
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def random_unimodular(n, rng, steps=8):
    """Product of random elementary shears, swaps, and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]

    def shear(i, j, c):
        for k in range(n):
            m[i][k] += c * m[j][k]

    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            shear(i, j, rng.choice((-2, -1, 1, 2)))
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return GroupElement.from_matrix(m)


def brute_min_vectors(gram, box):
    """Oracle: exhaustive minimum over the integer box [-box, box]^n."""
    n = len(gram)
    best = None
    hits = set()
    for x in itertools.product(range(-box, box + 1), repeat=n):
        if not any(x):
            continue
        v = sum(x[i] * sum(gram[i][j] * x[j] for j in range(n))
                for i in range(n))
        if best is None or v < best:
            best, hits = v, set()
        if v == best:
            hits.add(canonical_pair(x))
    return best, hits


def brute_facets(vectors):
    """Oracle: facet search over all hyperplane-spanning ray subsets."""
    n = len(vectors[0])
    dim = sym_dim(n)
    flats = [sym_flatten(rank_one(v)) for v in vectors]
    weights = [pairing_weights(f, n) for f in flats]
    found = {}
    for sub in itertools.combinations(range(len(vectors)), dim - 1):
        rows = [flats[i] for i in sub]
        if mat_rank(rows) != dim - 1:
            continue
        ker = kernel_basis([weights[i] for i in sub])
        if len(ker) != 1:
            continue
        y = ker[0]
        vals = [sum(a * b for a, b in zip(weights[i], y))
                for i in range(len(vectors))]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            y = tuple(-t for t in y)
            vals = [-t for t in vals]
        else:
            continue
        found[frozenset(i for i, v in enumerate(vals) if v == 0)] = y
    return found


def brute_stabilizer_2x2(gram, bound=2):
    """Oracle: all unimodular 2x2 matrices with entries in [-bound, bound]
    preserving the form."""
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=4):
        m = ((entries[0], entries[1]), (entries[2], entries[3]))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det not in (1, -1):
            continue
        gt = tuple(zip(*m))
        if mat_mul(mat_mul(gt, gram), m) == gram:
            out.append(m)
    return sorted(out)


@lru_cache(maxsize=None)
def closure(generators, n):
    """Oracle: every element of the group generated by `generators`,
    sorted by rows, by breadth-first multiplication."""
    ident = GroupElement.identity(n)
    elems = {ident.rows: ident}
    frontier = [ident]
    for h in frontier:
        for g in generators:
            prod = g * h
            if prod.rows not in elems:
                elems[prod.rows] = prod
                frontier.append(prod)
    return tuple(sorted(elems.values(), key=lambda e: e.rows))


def pair_swap_elements(cell_a, cell_b, det_one=False):
    """Reference: the elements exchanging two cells (g * a = b and
    g * b = a setwise), sorted by rows."""
    a = tuple(sorted(cell_a))
    b = tuple(sorted(cell_b))
    out = [g for g in cell_maps(a, b, det_one=det_one)
           if apply_to_cell(g, b) == a]
    return tuple(sorted(out, key=lambda g: g.rows))


class WitnessMismatch(ValueError):
    """The claimed group element does not map the cell to the translate."""


def transport_sign(child, translate_vectors, translate_basis, witness, n):
    """Reference: orientation carried by a witness from a representative
    to a translate; raises WitnessMismatch if the witness does not map
    the representative onto the translate."""
    if apply_to_cell(witness, child.vectors) != \
            tuple(sorted(translate_vectors)):
        raise WitnessMismatch("witness does not carry the cell to the "
                              "translate")
    moved = [transport_flat(witness, b, n) for b in child.basis]
    return relative_orientation(list(translate_basis), moved)


def matrix_orbit_decompose(keys, generators, apply, identity):
    """Reference: orbits of `keys` with transporters, moving every key
    by the matrix action `apply`; raises ValueError when an image
    leaves `keys`."""
    key_set = set(keys)
    assigned = set()
    orbits = []
    for key in keys:
        if key in assigned:
            continue
        members = {key: identity}
        frontier = [key]
        for current in frontier:
            s = members[current]
            for g in generators:
                img = apply(g, current)
                if img not in key_set:
                    raise ValueError("group does not permute the keys")
                if img not in members:
                    members[img] = g * s
                    frontier.append(img)
        orbits.append((key, members))
        assigned.update(members)
    return orbits


def differential_kernel(cx):
    """Reference: primitive integer basis of the kernel of the top
    differential, by dense elimination."""
    diff = cx.differential
    return kernel_basis(diff.dense_rows(), ncols=diff.col_count)


def dense_components(instance):
    """Reference: connected components of the kept-tile graph via wall
    incidences, by union-find, sorted."""
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    parent = list(range(len(kept)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in instance.facet_orbits:
        touched = [pos[t] for t, v in f.incidences if v != 0 and t in pos]
        for a, b in zip(touched, touched[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for i, t in enumerate(kept):
        groups.setdefault(find(i), []).append(t)
    return sorted(groups.values())


def dense_check_rigidity(instance):
    """Reference: the rigidity verdict by dense elimination of the whole
    wall-by-kept-tile matrix, and of each component's columns when the
    instance is disconnected."""
    instance.validate()
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    rows = []
    for f in instance.facet_orbits:
        row = [Fraction(0)] * len(kept)
        for t, v in f.incidences:
            if v != 0 and t in pos:
                row[pos[t]] += Fraction(v)
        rows.append(row)
    canonical = [Fraction(1, instance.tiles[t].stab_order) for t in kept]
    if not kept:
        return TessVerdict(connected=True, kernel_dim=0,
                           canonical_in_kernel=True,
                           kernel_spanned_by_canonical=True, ok=True)
    kernel = kernel_basis(rows, ncols=len(kept))
    boundary = weighted_boundary(instance, canonical)
    in_kernel = all(x == 0 for x in boundary)
    spanned = len(kernel) == 1 and _same_line(kernel[0], canonical)
    components = dense_components(instance)
    connected = len(components) <= 1
    per_component = ()
    if not connected:
        reports = []
        for tiles in components:
            sub_pos = [kept.index(t) for t in tiles]
            sub_rows = [[row[i] for i in sub_pos] for row in rows]
            sub_kernel = kernel_basis(sub_rows, ncols=len(sub_pos))
            sub_canon = [canonical[i] for i in sub_pos]
            comp_ok = len(sub_kernel) == 1 and _same_line(sub_kernel[0],
                                                          sub_canon)
            reports.append((tuple(tiles), len(sub_kernel), comp_ok))
        per_component = tuple(reports)
    ok = connected and in_kernel and spanned
    return TessVerdict(connected=connected, kernel_dim=len(kernel),
                       canonical_in_kernel=in_kernel,
                       kernel_spanned_by_canonical=spanned, ok=ok,
                       kernel_vectors=tuple(tuple(v) for v in kernel),
                       canonical=tuple(canonical),
                       per_component=per_component)


@pytest.fixture
def rng():
    return random.Random(20240817)
