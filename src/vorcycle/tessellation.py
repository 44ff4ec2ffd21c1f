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
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import kernel_basis, sym_dim


class InvariantViolation(ValueError):
    """The instance data violates a structural hypothesis."""


class IndexOutOfRange(InvariantViolation):
    """A weight or incidence refers to a missing tile."""


FACET_KINDS = ("self", "non_self")


@dataclass(frozen=True)
class TileOrbit:
    stab_order: int
    orientation_kept: bool = True
    label: str = ""


@dataclass(frozen=True)
class FacetOrbit:
    stab_order: int
    kind: str
    incidences: tuple        # ((tile_index, Fraction), ...)
    label: str = ""


@dataclass(frozen=True)
class TessInstance:
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

    def components(self):
        """Connected components of the kept-tile graph via wall incidences."""
        kept = self.kept_tiles()
        pos = {t: i for i, t in enumerate(kept)}
        parent = list(range(len(kept)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for f in self.facet_orbits:
            touched = [pos[t] for t, v in f.incidences
                       if v != 0 and t in pos]
            for a, b in zip(touched, touched[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        groups = {}
        for i, t in enumerate(kept):
            groups.setdefault(find(i), []).append(t)
        return sorted(groups.values())

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
        def fail(path, msg):
            raise InvariantViolation(f"{path}: {msg}")

        if not isinstance(payload, dict):
            fail("$", "instance document must be an object")
        if payload.get("kind") != "tess-instance":
            fail("$.kind", "expected 'tess-instance'")
        try:
            ambient = int(payload["ambient_dim"])
        except (KeyError, TypeError, ValueError):
            fail("$.ambient_dim", "missing or not an integer")
        tiles = []
        for i, t in enumerate(payload.get("tiles", [])):
            try:
                tiles.append(TileOrbit(
                    stab_order=int(t["stab_order"]),
                    orientation_kept=bool(t.get("orientation_kept", True)),
                    label=str(t.get("label", f"t{i}"))))
            except (KeyError, TypeError, ValueError):
                fail(f"$.tiles[{i}]", "bad tile record")
        facets = []
        for i, f in enumerate(payload.get("facet_orbits", [])):
            try:
                inc = tuple((int(t), Fraction(v))
                            for t, v in f.get("incidences", []))
                facets.append(FacetOrbit(
                    stab_order=int(f["stab_order"]),
                    kind=str(f["kind"]),
                    incidences=inc,
                    label=str(f.get("label", f"w{i}"))))
            except (KeyError, TypeError, ValueError):
                fail(f"$.facet_orbits[{i}]", "bad facet record")
        inst = cls(ambient_dim=ambient, tiles=tuple(tiles),
                   facet_orbits=tuple(facets))
        inst.validate()
        return inst


@dataclass
class TessVerdict:
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


def _incidence_rows(instance):
    kept = instance.kept_tiles()
    pos = {t: i for i, t in enumerate(kept)}
    rows = []
    for f in instance.facet_orbits:
        row = [Fraction(0)] * len(kept)
        for t, v in f.incidences:
            if v != 0 and t in pos:
                row[pos[t]] += Fraction(v)
        rows.append(row)
    return rows, kept


def check_rigidity(instance):
    """Exact verdict: boundary kernel = the inverse-stabilizer-order line.

    For a connected kept-tile graph the verdict holds iff the canonical
    weights annihilate every facet coefficient and the kernel is
    one-dimensional.  Disconnected instances report per-component
    results and an overall failure of uniqueness.
    """
    instance.validate()
    rows, kept = _incidence_rows(instance)
    canonical = [Fraction(1, instance.tiles[t].stab_order) for t in kept]
    if not kept:
        return TessVerdict(connected=True, kernel_dim=0,
                           canonical_in_kernel=True,
                           kernel_spanned_by_canonical=True, ok=True)
    kernel = kernel_basis(rows, ncols=len(kept))
    boundary = weighted_boundary(instance, canonical)
    in_kernel = all(x == 0 for x in boundary)
    spanned = len(kernel) == 1 and _same_line(kernel[0], canonical)
    components = instance.components()
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
    return TessInstance.from_payload(payload)
