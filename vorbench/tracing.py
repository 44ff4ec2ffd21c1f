"""Traced ops: spans around calls into each vorcycle module.

Run as a script, this is the launcher of one traced op:

    python vorbench/tracing.py SPANS_FILE OP_ID -- VORCYCLE_ARGS...

It wraps the module-boundary functions listed in TRACED, rebinding each
wrapper in every vorcycle module that imported the name, then calls
`vorcycle.cli.main(VORCYCLE_ARGS)` and exits with its return code.  Spans
(name, start, end, parent) and counters stay in memory and are written
to SPANS_FILE as JSON lines when the op ends.  Leaf helpers such as
`bilinear` or `mat_rank` are never wrapped.

Imported as a module, it turns span files into per-op figures: self
time per function (its duration minus the part its child spans cover),
call counts and counters.
"""

import functools
import json
import os
import sys
import time

# Public functions wrapped in a traced op, as "module.function".
TRACED = (
    "forms.minimum_and_minimal_vectors",
    "forms.short_vectors",
    "cones.build_cone",
    "cones.subcone_facets",
    "isometry.form_maps",
    "isometry.cell_maps",
    "isometry.form_automorphisms",
    "isometry.cell_stabilizer",
    "isometry.small_generating_set",
    "isometry.orbit_decompose",
    "enumeration.enumerate_perfect_forms",
    "enumeration.neighbor_form",
    "enumeration.is_equivalent",
    "complexes.build_complex",
    "complexes.build_codim2",
    "homology.verify_top_cycle",
    "homology.verify_gl_even_vanishing",
    "homology.dd_sanity",
    "linalg.kernel_basis",
    "tessellation.loads_instance",
    "tessellation.check_rigidity",
    "persistence.load_payload",
    "persistence.graph_from_payload",
    "persistence.complex_from_payload",
    "persistence.save_payload",
    "persistence.graph_to_payload",
    "persistence.complex_to_payload",
)

LAYERS = ("forms", "cones", "isometry", "enumeration", "complexes",
          "homology", "linalg", "tessellation", "persistence")

HIT_FUNCS = ("isometry.form_maps", "isometry.cell_maps",
             "enumeration.is_equivalent")


def _counts(name, args, kwargs, result):
    """Counters for one call: {counter name: increment}."""
    if name in HIT_FUNCS:
        return {f"{name}.hits": 1 if result else 0}
    if name in ("isometry.form_automorphisms", "isometry.cell_stabilizer"):
        return {"isometry.elements_listed": len(result)}
    if name == "isometry.small_generating_set":
        return {f"{name}.elements_in": len(args[0])}
    if name == "linalg.kernel_basis":
        rows = args[0]
        cols = len(rows[0]) if rows else kwargs.get("ncols", 0)
        return {f"{name}.entries": len(rows) * cols}
    if name == "cones.build_cone":
        return {"cones.facets_built": len(result.facets)}
    if name == "persistence.load_payload":
        return {"persistence.bytes_read": os.path.getsize(args[0])}
    if name == "persistence.save_payload":
        return {"persistence.bytes_written": os.path.getsize(result)}
    return {}


class Recorder:
    """Spans and counters of one op, kept in memory until `write`."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counters = {}
        self._stack = []

    def wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for key, k in _counts(name, args, kwargs, result).items():
                self.counters[key] = self.counters.get(key, 0) + k
            return result
        return traced

    def install(self):
        """Wrap every TRACED function and rebind it wherever imported."""
        import vorcycle.cli  # noqa: F401  (imports every module)
        modules = [m for key, m in sys.modules.items()
                   if key == "vorcycle" or key.startswith("vorcycle.")]
        for dotted in TRACED:
            mod_name, func_name = dotted.split(".")
            original = getattr(sys.modules[f"vorcycle.{mod_name}"], func_name)
            wrapper = self.wrap(dotted, original)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)

    def write(self, path, op_id):
        start = time.perf_counter()
        lines = [json.dumps({"op": op_id, "counters": self.counters})]
        lines += [json.dumps(s) for s in self.spans]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.write(json.dumps(
                {"flush_s": time.perf_counter() - start}) + "\n")


def read_spans(path):
    """(header, spans, flush_s) of a span file."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[0], lines[1:-1], lines[-1]["flush_s"]


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its children cover inside it."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def op_figures(path, wall_s):
    """Per-op figures from a span file and the op's wall time: calls and
    self time per traced function, counters, and the residual time
    outside every top-level span (interpreter start, import, argument
    parsing, printing), excluding the time spent writing the spans."""
    header, spans, flush_s = read_spans(path)
    figures = dict(header["counters"])
    for (name, _, _, _), self_s in zip(spans, self_times(spans)):
        figures[f"{name}.calls"] = figures.get(f"{name}.calls", 0) + 1
        figures[f"{name}.self_s"] = figures.get(f"{name}.self_s", 0.0) + self_s
    top = sum(end - start for _, start, end, parent in spans
              if parent is None)
    figures["cli.residual_s"] = wall_s - top - flush_s
    return figures


def main(argv):
    spans_path, op_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE OP_ID -- ARGS...")
    recorder = Recorder()
    recorder.install()
    import vorcycle.cli
    try:
        code = vorcycle.cli.main(args)
    finally:
        recorder.write(spans_path, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
