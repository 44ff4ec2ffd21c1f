"""Seeded generator of `vorcycle tess check` instances with known verdicts.

Every instance is written in the documented instance format and comes
with the verdict it was built to have:

* sector fans: the planar quadrant cut into k sectors (trivial group),
  with tiles and walls listed in a seed-chosen order;
* weighted tessellations: a random connected tile graph whose tiles
  carry stabilizer orders s_i.  A wall between tiles i and j carries the
  incidences (i, a*s_i), (j, -a*s_j), so the inverse-order weights
  1/s_i cancel on every wall and the kernel is exactly their line.
  About one wall in ten is self-glued, with two cancelling incidences on
  one tile (a zero row);
* disconnected weighted tessellations: several such graphs side by side.
  `tess check` must exit 1 and report one kernel dimension per component.
"""

import json
import math
import random

STAB_ORDERS = (1, 2, 4, 6, 8, 12, 24, 48)
SCALES = (1, 2, 3)

# (kind, tiles, walls per tile, components) of one pass; the seed picks
# only the structure, so every seed does about the same amount of work.
PASS_SHAPE = (
    ("fan", 140, 1, 1),
    ("weighted", 100, 2, 1),
    ("weighted", 100, 2, 1),
    ("disconnected", 102, 2, 3),
    ("fan", 140, 1, 1),
    ("weighted", 100, 2, 1),
    ("weighted", 100, 2, 1),
    ("weighted", 100, 2, 1),
)


def _payload(tiles, walls):
    return {
        "kind": "tess-instance",
        "ambient_dim": 2,
        "tiles": [{"stab_order": str(s), "orientation_kept": True,
                   "label": f"t{i}"} for i, s in enumerate(tiles)],
        "facet_orbits": [
            {"stab_order": str(order), "kind": kind,
             "incidences": [[t, str(v)] for t, v in inc],
             "label": f"w{i}"}
            for i, (order, kind, inc) in enumerate(walls)],
    }


def sector_fan(rng, k):
    """k sectors in a random tile order; walls between sectors i, i+1."""
    place = list(range(k))
    rng.shuffle(place)
    walls = [(1, "non_self", [(place[i], 1), (place[i + 1], -1)])
             for i in range(k - 1)]
    rng.shuffle(walls)
    return [1] * k, walls


def _weighted_component(rng, tiles, offset, stabs, walls, wall_count):
    stabs.extend(rng.choice(STAB_ORDERS) for _ in range(tiles))
    edges = [(i, rng.randrange(i)) for i in range(1, tiles)]
    while len(edges) < wall_count:
        i, j = rng.randrange(tiles), rng.randrange(tiles)
        if i != j:
            edges.append((i, j))
    for i, j in edges:
        i, j = i + offset, j + offset
        a = rng.choice(SCALES) * rng.choice((1, -1))
        if rng.random() < 0.1:
            walls.append((2, "self", [(i, a * stabs[i]), (i, -a * stabs[i])]))
        walls.append((rng.choice((1, 2)), "non_self",
                      [(i, a * stabs[i]), (j, -a * stabs[j])]))


def weighted(rng, tiles, walls_per_tile, components=1):
    stabs, walls = [], []
    size = tiles // components
    for c in range(components):
        _weighted_component(rng, size, c * size, stabs, walls,
                            size * walls_per_tile)
    rng.shuffle(walls)
    return stabs, walls


def generate(seed):
    """The instances of one pass: [(name, text, expected), ...].

    `expected` holds the exit code, kernel dimension, connectedness and
    the stabilizer orders, whose inverses span the kernel of each
    component.
    """
    rng = random.Random(f"tess-fans:{seed}")
    out = []
    for index, (kind, tiles, per_tile, comps) in enumerate(PASS_SHAPE):
        if kind == "fan":
            stabs, walls = sector_fan(rng, tiles)
        else:
            stabs, walls = weighted(rng, tiles, per_tile, comps)
        text = json.dumps(_payload(stabs, walls), indent=1, sort_keys=True)
        expected = {"exit": 0 if comps == 1 else 1, "kernel_dim": comps,
                    "connected": comps == 1, "stab_orders": stabs}
        out.append((f"{index:02d}-{kind}-{tiles}", text + "\n", expected))
    return out


def canonical_line(stab_orders):
    """The primitive integer vector on the line of the weights 1/s_i."""
    ints = [math.lcm(*stab_orders) // s for s in stab_orders]
    g = math.gcd(*ints)
    return [x // g for x in ints]
