"""Abstract group-tessellation instances and the weighted-boundary check.

The cancellation mechanism of the top cycle does not depend on the
perfect-form machinery: any locally finite tessellation of an open
convex cone by finitely many tile orbits with finite stabilizers,
where every interior wall is shared by exactly two tiles and the group
preserves orientation, admits the same rigidity.  This module hosts
that combinatorial skeleton: tile orbits with stabilizer orders, wall
orbits with signed incidence numbers, and the exact linear check that
a weight vector annihilates the boundary if and only if it is a scalar
multiple of the inverse-stabilizer-order weights.

Walls lying in the boundary of the cone are excluded from the data
(they are not shared by two tiles), and the uniqueness direction of the
check requires the tile-orbit graph to be connected; disconnected
instances get a per-component report instead.

Because a wall is shared by at most two tiles (`TessInstance.validate`
enforces it), every boundary equation has at most two nonzero entries
once incidences on one tile are summed and tiles that are not kept are
dropped.  A two-entry row a*x_i + b*x_j = 0 fixes x_j = -(a/b)*x_i, so
on a connected component of the kept-tile graph every kernel vector is
fixed by its value at one tile: the component's kernel is either zero
or a single line that is nonzero on every tile of the component.  The
whole kernel is therefore spanned by the lines of the consistent
components (those whose rows all vanish on the walked weights), found
by one breadth-first walk (`boundary_kernel`) with no elimination: the
walk and the row test each touch every incidence once.  Each line is reported as a
primitive integer vector with its first nonzero entry positive, and the
lines are ordered by the largest kept-tile position in their component.
That position is the free column a fraction-free elimination of the
whole wall-by-tile matrix would pick for the component (the only
column that is a combination of earlier ones), so the basis is the one
such an elimination returns.
"""

import json
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .linalg import clear_denominators, sym_dim


class InvariantViolation(ValueError):
    """The instance data violates a structural hypothesis."""


class IndexOutOfRange(InvariantViolation):
    """A weight or incidence refers to a missing tile."""


FACET_KINDS = ("self", "non_self")


class TileOrbit(NamedTuple):
    stab_order: int
    orientation_kept: bool = True
    label: str = ""


class FacetOrbit(NamedTuple):
    stab_order: int
    kind: str
    incidences: tuple        # ((tile_index, Fraction), ...)
    label: str = ""


def _fail(path, msg):
    raise InvariantViolation(f"{path}: {msg}")


def _expect(value, kind, path, what):
    if not isinstance(value, kind):
        _fail(path, f"expected {what}")
    return value


def _parse(value, path, parse, what):
    """`parse(value)` for a JSON integer or string, never for a float or
    a boolean (JSON `true` must not read as 1)."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return parse(value)
        except (ValueError, ZeroDivisionError):
            pass
    _fail(path, f"missing or not {what}")


class TessInstance(NamedTuple):
    ambient_dim: int
    tiles: tuple
    facet_orbits: tuple

    def validate(self):
        if self.ambient_dim < 1:
            raise InvariantViolation("ambient dimension must be positive")
        for t in self.tiles:
            if t.stab_order < 1:
                raise InvariantViolation("tile stabilizer order must be >= 1")
        for f in self.facet_orbits:
            if f.stab_order < 1:
                raise InvariantViolation("facet stabilizer order must be >= 1")
            if f.kind not in FACET_KINDS:
                raise InvariantViolation(f"unknown facet kind {f.kind!r}")
            nonzero = [(t, v) for t, v in f.incidences if v != 0]
            for t, _ in f.incidences:
                if not 0 <= t < len(self.tiles):
                    raise IndexOutOfRange(f"incidence tile index {t}")
            if len(nonzero) > 2:
                raise InvariantViolation(
                    "a wall is shared by at most two tiles")

    def kept_tiles(self):
        return [i for i, t in enumerate(self.tiles) if t.orientation_kept]

    def to_payload(self):
        return {
            "kind": "tess-instance",
            "ambient_dim": self.ambient_dim,
            "tiles": [
                {"stab_order": str(t.stab_order),
                 "orientation_kept": t.orientation_kept,
                 "label": t.label}
                for t in self.tiles],
            "facet_orbits": [
                {"stab_order": str(f.stab_order),
                 "kind": f.kind,
                 "incidences": [[t, str(v)] for t, v in f.incidences],
                 "label": f.label}
                for f in self.facet_orbits],
        }

    @classmethod
    def from_payload(cls, payload):
        """Read an instance document; every defect raises
        InvariantViolation naming its JSON path."""
        _expect(payload, dict, "$", "an object")
        if payload.get("kind") != "tess-instance":
            _fail("$.kind", "expected 'tess-instance'")
        ambient = _parse(payload.get("ambient_dim"), "$.ambient_dim", int,
                         "an integer")
        tiles = []
        tiles_in = _expect(payload.get("tiles", []), list, "$.tiles", "a list")
        for i, t in enumerate(tiles_in):
            path = f"$.tiles[{i}]"
            _expect(t, dict, path, "an object")
            kept = t.get("orientation_kept", True)
            if not isinstance(kept, bool):
                _fail(f"{path}.orientation_kept", "expected true or false")
            tiles.append(TileOrbit(
                stab_order=_parse(t.get("stab_order"), f"{path}.stab_order",
                                  int, "an integer"),
                orientation_kept=kept,
                label=str(t.get("label", f"t{i}"))))
        facets = []
        orbits = _expect(payload.get("facet_orbits", []), list,
                         "$.facet_orbits", "a list")
        for i, f in enumerate(orbits):
            path = f"$.facet_orbits[{i}]"
            _expect(f, dict, path, "an object")
            inc = []
            pairs = _expect(f.get("incidences", []), list,
                            f"{path}.incidences", "a list")
            for k, pair in enumerate(pairs):
                where = f"{path}.incidences[{k}]"
                if not isinstance(pair, list) or len(pair) != 2:
                    _fail(where, "expected [tile index, value]")
                inc.append((_parse(pair[0], where, int, "a tile index"),
                            _parse(pair[1], where, Fraction, "a rational")))
            facets.append(FacetOrbit(
                stab_order=_parse(f.get("stab_order"), f"{path}.stab_order",
                                  int, "an integer"),
                kind=_expect(f.get("kind"), str, f"{path}.kind", "a string"),
                incidences=tuple(inc),
                label=str(f.get("label", f"w{i}"))))
        inst = cls(ambient_dim=ambient, tiles=tuple(tiles),
                   facet_orbits=tuple(facets))
        inst.validate()
        return inst


class TessVerdict(NamedTuple):
    connected: bool
    kernel_dim: int
    canonical_in_kernel: bool
    kernel_spanned_by_canonical: bool
    ok: bool
    kernel_vectors: tuple = ()
    canonical: tuple = ()
    per_component: tuple = ()

    def to_payload(self):
        return {
            "connected": self.connected,
            "kernel_dim": self.kernel_dim,
            "canonical_in_kernel": self.canonical_in_kernel,
            "kernel_spanned_by_canonical": self.kernel_spanned_by_canonical,
            "ok": self.ok,
            "kernel_vectors": [[str(x) for x in v]
                               for v in self.kernel_vectors],
            "canonical": [str(x) for x in self.canonical],
            "per_component": [
                {"tiles": list(tiles), "kernel_dim": dim, "ok": comp_ok}
                for tiles, dim, comp_ok in self.per_component],
        }


def weighted_boundary(instance, weights):
    """Coefficient of every facet orbit under a tile weighting.

    `weights` maps kept-tile positions (or a full list) to rationals;
    indices outside the tile list raise IndexOutOfRange.
    """
    instance.validate()
    kept = instance.kept_tiles()
    if isinstance(weights, dict):
        for t in weights:
            if not 0 <= t < len(instance.tiles):
                raise IndexOutOfRange(f"weight index {t}")
        w = {t: Fraction(v) for t, v in weights.items()}
    else:
        if len(weights) != len(kept):
            raise IndexOutOfRange("weight vector length mismatch")
        w = {t: Fraction(v) for t, v in zip(kept, weights)}
    out = []
    for f in instance.facet_orbits:
        out.append(sum((Fraction(v) * w.get(t, Fraction(0))
                        for t, v in f.incidences), Fraction(0)))
    return out


# One component of the kept-tile graph: its kept-tile positions in
# increasing order, and the weights of its kernel line on them (1 on the
# first position), or None when its rows admit only zero.
Component = namedtuple("Component", "positions line")


def boundary_kernel(instance):
    """Components of the kept-tile graph and the boundary kernel.

    Returns (components, kernel).  `components` lists every component
    in order of its smallest position; `kernel` is the primitive integer
    basis of the boundary kernel over the kept tiles, one vector per
    component with a line, ordered by the component's largest position
    (see the module docstring for why this is the whole kernel).
    """
    instance.validate()
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    rows = []
    rows_at = [[] for _ in kept]
    for f in instance.facet_orbits:
        summed = {}
        for t, v in f.incidences:
            if v != 0 and t in pos:
                summed[pos[t]] = summed.get(pos[t], 0) + Fraction(v)
        row = [(i, v) for i, v in summed.items() if v != 0]
        if row:
            rows.append(row)
            for i, _ in row:
                rows_at[i].append(row)

    # Breadth-first from the smallest unvisited position, with root
    # weight 1: x_j = -(a/b) * x_i along each row a*x_i + b*x_j.
    weight = [None] * len(kept)
    comp_of = [None] * len(kept)
    members = []
    for root in range(len(kept)):
        if weight[root] is not None:
            continue
        weight[root] = Fraction(1)
        comp_of[root] = len(members)
        walk = [root]
        for i in walk:
            for row in rows_at[i]:
                if len(row) < 2:
                    continue
                (p, a), (q, b) = row if row[0][0] == i else row[::-1]
                if weight[q] is None:
                    weight[q] = -a * weight[p] / b
                    comp_of[q] = comp_of[root]
                    walk.append(q)
        members.append(sorted(walk))

    # A component is consistent exactly when all of its rows vanish.
    consistent = [True] * len(members)
    for row in rows:
        if sum(v * weight[i] for i, v in row) != 0:
            consistent[comp_of[row[0][0]]] = False

    components = [
        Component(tuple(m), tuple(weight[i] for i in m) if ok else None)
        for m, ok in zip(members, consistent)]
    kernel = []
    for comp in sorted(components, key=lambda c: c.positions[-1]):
        if comp.line is not None:
            vec = [0] * len(kept)
            for i, x in zip(comp.positions, clear_denominators(comp.line)):
                vec[i] = x
            kernel.append(tuple(vec))
    return components, kernel


def check_rigidity(instance):
    """Exact verdict: boundary kernel = the inverse-stabilizer-order line.

    The kernel comes from `boundary_kernel`: one line per consistent
    component of the kept-tile graph.  A component is ok when it has a
    line and the canonical weights 1/|stabilizer| lie on it.  The
    canonical weights annihilate the boundary exactly when every
    component is ok (they are nonzero on every tile, and a row only
    involves tiles of one component); the kernel is spanned by them
    exactly when there is one component and it is ok.  The verdict
    holds iff the graph is connected and both are true.  Disconnected
    instances also report one (tiles, kernel dimension, ok) per
    component, in order of smallest tile.
    """
    kept = instance.kept_tiles()
    components, kernel = boundary_kernel(instance)
    if not kept:
        return TessVerdict(connected=True, kernel_dim=0,
                           canonical_in_kernel=True,
                           kernel_spanned_by_canonical=True, ok=True)
    canonical = tuple(Fraction(1, instance.tiles[t].stab_order)
                      for t in kept)
    comp_ok = [c.line is not None and _same_line(
        c.line, [canonical[i] for i in c.positions]) for c in components]
    connected = len(components) == 1
    in_kernel = all(comp_ok)
    spanned = connected and comp_ok[0]
    per_component = ()
    if not connected:
        per_component = tuple(
            (tuple(kept[i] for i in c.positions), int(c.line is not None),
             ok)
            for c, ok in zip(components, comp_ok))
    return TessVerdict(connected=connected, kernel_dim=len(kernel),
                       canonical_in_kernel=in_kernel,
                       kernel_spanned_by_canonical=spanned,
                       ok=connected and in_kernel and spanned,
                       kernel_vectors=tuple(kernel),
                       canonical=canonical,
                       per_component=per_component)


def _same_line(vec_a, vec_b):
    """True iff both vectors are nonzero and on one line through 0.

    Tested against the first nonzero entry p of `vec_a`: b[p] must be
    nonzero and every a[i] * b[p] must equal b[i] * a[p].
    """
    if len(vec_a) != len(vec_b):
        return False
    p = next((i for i, x in enumerate(vec_a) if x != 0), None)
    if p is None or vec_b[p] == 0:
        return False
    a_p, b_p = vec_a[p], vec_b[p]
    return all(a * b_p == b * a_p for a, b in zip(vec_a, vec_b))


def sector_fan(k):
    """The open planar quadrant cut into k sectors by k+1 rays.

    Trivial group, so every stabilizer order is 1; the two extreme rays
    lie in the boundary of the quadrant and are therefore not walls.
    Adjacent sectors induce opposite signs on each interior ray.
    """
    if k < 2:
        raise ValueError("a sector fan needs at least two sectors")
    tiles = tuple(TileOrbit(stab_order=1, label=f"s{i}") for i in range(k))
    facets = tuple(
        FacetOrbit(stab_order=1, kind="non_self",
                   incidences=((i, Fraction(1)), (i + 1, Fraction(-1))),
                   label=f"r{i + 1}")
        for i in range(k - 1))
    inst = TessInstance(ambient_dim=2, tiles=tiles, facet_orbits=facets)
    inst.validate()
    return inst


def from_voronoi(cx):
    """Faithful translation of a built complex into an instance.

    Tiles are the kept top classes; facet orbits are the kept wall
    classes with their exact incidence numbers (self-glued walls come
    through with their zero rows).
    """
    tiles = tuple(
        TileOrbit(stab_order=cx.tops[i].stab_order, orientation_kept=True,
                  label=cx.tops[i].label)
        for i in cx.kept_tops)
    diff = cx.differential
    facets = []
    for r, wall_idx in enumerate(cx.kept_walls):
        w = cx.walls[wall_idx]
        inc = tuple((c, Fraction(v)) for c, v in diff.row_entries(r))
        facets.append(FacetOrbit(stab_order=w.stab_order, kind=w.kind,
                                 incidences=inc, label=w.label))
    inst = TessInstance(ambient_dim=sym_dim(cx.n), tiles=tiles,
                        facet_orbits=tuple(facets))
    inst.validate()
    return inst


def dumps_instance(instance):
    return json.dumps(instance.to_payload(), indent=2, sort_keys=True) + "\n"


def loads_instance(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvariantViolation(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Integers beyond the interpreter's digit limit, or nesting
        # deeper than the decoder's recursion limit.
        raise InvariantViolation(f"$: unreadable JSON ({exc})") from exc
    return TessInstance.from_payload(payload)
