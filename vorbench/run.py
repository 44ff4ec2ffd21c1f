"""The vorcycle benchmark.

    python3 vorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run the three in turn.

Run from the root of a source checkout.  The package is used from
`src/` (byte-compiled during set-up); nothing is installed.  Each op is
one fresh `python -m vorcycle ...` subprocess, run one at a time from
this one benchmark process (a closed loop with one client).  Every op's
exit code, stdout and verdict are checked against `oracle.py`.

Workloads (the seed picks `--seed-perm` values and tess instances):

  cold-survey  `verify --check-dd` for ranks 2-4 x {sl, gl} and rank 5 sl,
               each against an empty cache directory: the paper's whole
               computation, dominated by enumeration and the isometry
               search.  (The rank-5 gl build from nothing is warm-replay's
               set-up.)
  warm-replay  set-up builds the rank-5 gl caches; the ops are `verify`
               against them: dominated by decoding the cache files.
  tess-fans    `tess check` on generated sector fans and weighted
               tessellations (one in eight disconnected): dominated by the
               exact kernel.

A run repeats whole passes over the workload's op list until --seconds
have passed (at least one pass).  With --trace 0 it prints the end-to-end
metrics that BENCHMARK.json bounds: total_s (wall time of one pass,
median over passes), peak_rss_mb (largest peak resident set of any
timed op) and setup_s (median of five build-and-input set-ups, plus the
rank-5 cache build on warm-replay).  It also prints, unbounded,
fail_frac, cache_bytes (zero on tess-fans), op_p50_s (a median of unlike
ops on cold-survey) and op_tail_s (the highest percentile with ten ops
beyond it, from twenty ops up).  With --trace 1 it alternates untraced
passes with passes whose ops run under `tracing.py`, and prints the
per-layer metrics of one traced pass.  Counts must repeat exactly
between traced passes and between traced runs of one seed; a difference
is reported as an error.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The run also writes it, with the seed,
Python version and CPU count, under vorbench/_work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import oracle
import tessgen
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 5
WARM_OPS_PER_PASS = 3
WORKLOADS = ("cold-survey", "warm-replay", "tess-fans")

END_TO_END = (("total_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
COLD_OPS = ((2, "sl"), (2, "gl"), (3, "sl"), (3, "gl"), (4, "sl"), (4, "gl"),
            (5, "sl"))

# Per-layer metrics of the traced run, with units.  Counts must repeat
# exactly between runs of one seed.
PER_LAYER = (
    [(f"isometry.{f}.{k}", u)
     for f in ("form_maps", "cell_maps")
     for k, u in (("calls", "count"), ("self_s", "s"),
                  ("hit_ratio", "ratio"))]
    + [("isometry.form_automorphisms.calls", "count"),
       ("isometry.cell_stabilizer.calls", "count"),
       ("isometry.elements_listed", "count"),
       ("isometry.small_generating_set.calls", "count"),
       ("isometry.small_generating_set.self_s", "s"),
       ("isometry.small_generating_set.elements_in", "count"),
       ("isometry.orbit_decompose.calls", "count"),
       ("isometry.orbit_decompose.self_s", "s")]
    + [(f"{f}.{k}", u)
       for f in ("forms.minimum_and_minimal_vectors", "forms.short_vectors",
                 "cones.build_cone", "cones.subcone_facets",
                 "enumeration.neighbor_form")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("cones.facets_built", "count"),
       ("enumeration.is_equivalent.calls", "count"),
       ("enumeration.is_equivalent.hit_ratio", "ratio"),
       ("enumeration.enumerate_perfect_forms.self_s", "s")]
    + [(f"{f}.self_s", "s")
       for f in ("complexes.build_complex", "complexes.build_codim2",
                 "homology.verify_top_cycle",
                 "homology.verify_gl_even_vanishing", "homology.dd_sanity",
                 "persistence.load_payload", "persistence.graph_from_payload",
                 "persistence.complex_from_payload",
                 "persistence.save_payload", "persistence.graph_to_payload",
                 "persistence.complex_to_payload")]
    + [("persistence.bytes_read", "bytes"),
       ("persistence.bytes_written", "bytes"),
       ("linalg.kernel_basis.calls", "count"),
       ("linalg.kernel_basis.self_s", "s"),
       ("linalg.kernel_basis.entries", "count"),
       ("tessellation.loads_instance.self_s", "s"),
       ("tessellation.check_rigidity.self_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in tracing.LAYERS]
    + [("cli.residual_s", "s"), ("trace.overhead_frac", "ratio")]
)

DECODE = ("persistence.load_payload", "persistence.graph_from_payload",
          "persistence.complex_from_payload")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Op:
    """One subprocess run of the vorcycle command line."""

    def __init__(self, label, args, check, cache_dir=None):
        self.label = label
        self.args = [str(a) for a in args]
        self.check = check          # (exit, stdout, stderr) -> problems
        self.cache_dir = cache_dir


def _env():
    env = dict(os.environ)
    env.pop("VORCYCLE_CACHE", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_op(op, op_dir, deadline, spans_path=None):
    """Run one op and return its record: wall time, peak RSS, problems,
    and the traced figures when `spans_path` is given."""
    if time.monotonic() >= deadline:
        raise BenchError("the run is past its time limit")
    os.makedirs(op_dir, exist_ok=True)
    if spans_path is None:
        argv = [sys.executable, "-m", "vorcycle"] + op.args
    else:
        argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                spans_path, op.label, "--"] + op.args
    out_path = os.path.join(op_dir, "stdout")
    err_path = os.path.join(op_dir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                                cwd=op_dir)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    problems = op.check(code, stdout, stderr)
    record = {"label": op.label, "wall_s": wall,
              "rss_mb": usage.ru_maxrss / 1024.0, "problems": problems,
              "cache_bytes": _dir_bytes(op.cache_dir)}
    if spans_path is not None and not problems:
        record["figures"] = tracing.op_figures(spans_path, wall)
    return record


def _dir_bytes(path):
    if path is None or not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def _verify_op(label, n, group, perm, cache_dir, check_dd, writes_cache=True):
    args = ["verify", "--n", n, "--group", group, "--seed-perm", perm,
            "--cache-dir", cache_dir] + (["--check-dd"] if check_dd else [])
    verdict = os.path.join(cache_dir, f"verdict-n{n}-{group}-p{perm}.json")

    def check(code, stdout, stderr):
        return oracle.check_verify(n, group, check_dd, code, stdout, stderr,
                                   verdict)
    return Op(label, args, check, cache_dir if writes_cache else None)


def _tess_op(label, path, expected):
    def check(code, stdout, stderr):
        return oracle.check_tess(expected, code, stdout, stderr)
    return Op(label, ["tess", "check", path], check)


class Workload:
    """Seeded inputs of one workload and the op list of one pass."""

    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        rng = random.Random(f"{name}:{seed}")
        self.setup_ops = []
        if name == "cold-survey":
            self.perms = {op: rng.randrange(1, 1000) for op in COLD_OPS}
        elif name == "warm-replay":
            self.perm = rng.randrange(1, 1000)
            self.cache = os.path.join(work, "cache")
            self.setup_ops = [_verify_op("build-n5-gl", 5, "gl", self.perm,
                                         self.cache, False)]
        else:
            self.instances = tessgen.generate(seed)

    def make_inputs(self, directory):
        """Write the workload's input files; the timed part of set-up."""
        if self.name != "tess-fans":
            return
        os.makedirs(directory, exist_ok=True)
        for name, text, _ in self.instances:
            with open(os.path.join(directory, name + ".json"), "w") as fh:
                fh.write(text)

    def pass_ops(self, pass_dir):
        if self.name == "cold-survey":
            return [_verify_op(f"n{n}-{g}", n, g, perm,
                               os.path.join(pass_dir, f"n{n}-{g}"), True)
                    for (n, g), perm in self.perms.items()]
        if self.name == "warm-replay":
            return [_verify_op(f"warm{i}", 5, "gl", self.perm, self.cache,
                               False, writes_cache=False)
                    for i in range(WARM_OPS_PER_PASS)]
        inputs = os.path.join(self.work, "inputs")
        return [_tess_op(name, os.path.join(inputs, name + ".json"), exp)
                for name, _, exp in self.instances]


def build_and_preflight():
    """Byte-compile the package and import it in a fresh interpreter."""
    code = ("import compileall, sys\n"
            f"ok = compileall.compile_dir({os.path.join(SRC, 'vorcycle')!r}, "
            "quiet=1, force=True)\n"
            "import vorcycle.cli\n"
            "print(vorcycle.cli.__file__)\n"
            "sys.exit(0 if ok else 1)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    where = os.path.realpath(proc.stdout.strip() or "?")
    if proc.returncode != 0 or not where.startswith(os.path.realpath(SRC)):
        raise BenchError(f"cannot build vorcycle from {SRC}: "
                         f"{proc.stderr.strip()[-500:]}")


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "vorcycle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def setup(workload, deadline):
    """Set-up before the timed phase; returns (setup_s, checked records)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        build_and_preflight()
        workload.make_inputs(os.path.join(workload.work, "inputs"))
        times.append(time.perf_counter() - start)
    records = [run_op(op, os.path.join(workload.work, "setup", op.label),
                      deadline) for op in workload.setup_ops]
    return statistics.median(times) + sum(r["wall_s"] for r in records), \
        records


def timed_phase(workload, seconds, trace, deadline):
    """Whole passes until `seconds` have passed; with `trace`, untraced
    and traced passes alternate.  Returns [(traced, wall_s, records)]."""
    passes = []
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    longest = 0.0
    while True:
        for traced in kinds:
            index = len(passes)
            pass_dir = os.path.join(workload.work, f"pass{index}")
            pass_start = time.perf_counter()
            records = []
            for op in workload.pass_ops(pass_dir):
                spans = (os.path.join(workload.work, f"spans-{index}-"
                                      f"{op.label}.jsonl")
                         if traced else None)
                records.append(run_op(op, os.path.join(pass_dir, op.label),
                                      deadline, spans))
            wall = time.perf_counter() - pass_start
            passes.append((traced, wall, records))
            longest = max(longest, wall)
            if workload.name == "cold-survey":
                shutil.rmtree(pass_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or \
                time.monotonic() + longest * len(kinds) > deadline:
            return passes


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    values beyond it, or None below twenty values."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(passes, setup_s, setup_records):
    walls = [w for traced, w, _ in passes if not traced]
    ops = [r for traced, _, recs in passes if not traced for r in recs]
    cache_bytes = sum(r["cache_bytes"] for r in setup_records) + \
        statistics.median(sum(r["cache_bytes"] for r in recs)
                          for traced, _, recs in passes if not traced)
    metrics = {
        "total_s": statistics.median(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in ops),
        "setup_s": setup_s,
    }
    op_tail = tail([r["wall_s"] for r in ops])
    extras = {"cache_bytes": cache_bytes,
              "op_p50_s": statistics.median(r["wall_s"] for r in ops),
              "op_tail_s": None if op_tail is None else op_tail[1],
              "op_tail_pct": None if op_tail is None else op_tail[0],
              "ops": len(ops), "passes": len(walls), "pass_s": walls}
    return metrics, extras


def pass_figures(records):
    """Sum of the traced figures of one pass's ops."""
    total = {}
    for r in records:
        for key, value in r.get("figures", {}).items():
            total[key] = total.get(key, 0) + value
    return total


def per_layer(passes):
    """Per-layer metrics and the list of counts that did not repeat."""
    traced = [pass_figures(recs) for t, _, recs in passes if t]
    untraced_walls = [w for t, w, _ in passes if not t]
    traced_walls = [w for t, w, _ in passes if t]
    for figs in traced:
        for layer in tracing.LAYERS:
            figs[f"{layer}.self_s"] = sum((
                v for k, v in figs.items()
                if k.startswith(layer + ".") and k.endswith(".self_s")
                and k.count(".") == 2), 0.0)
    metrics, counts, mismatched = {}, {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = (statistics.median(traced_walls)
                             / statistics.median(untraced_walls) - 1.0)
        elif name.endswith(".hit_ratio"):
            stem = name[:-len(".hit_ratio")]
            calls = traced[0].get(f"{stem}.calls", 0)
            metrics[name] = traced[0].get(f"{stem}.hits", 0) / calls \
                if calls else 0.0
        elif unit == "s":
            metrics[name] = statistics.median(f.get(name, 0.0)
                                              for f in traced)
        else:
            values = {f.get(name, 0) for f in traced}
            if len(values) > 1:
                mismatched.append(f"{name} differs between traced passes: "
                                  f"{sorted(values)}")
            metrics[name] = counts[name] = traced[0].get(name, 0)
    for stem in tracing.HIT_FUNCS:
        counts[f"{stem}.hits"] = traced[0].get(f"{stem}.hits", 0)
    return metrics, counts, mismatched


def compare_counts(workload, seed, counts):
    """Compare with the counts of an earlier traced run of this seed and
    source tree; returns the differences found."""
    path = os.path.join(WORK, "counts",
                        f"{workload}-{seed}-{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return [f"{k} was {before.get(k)} in an earlier traced run, now "
                f"{counts.get(k)}" for k in sorted(set(before) | set(counts))
                if before.get(k) != counts.get(k)]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


def predictions(name, metrics):
    """The layer each workload is predicted to spend most self time in,
    checked against the traced figures."""
    layers = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
    layers["cli"] = metrics["cli.residual_s"]
    if name == "cold-survey":
        claim = "isometry"
    elif name == "warm-replay":
        claim = "persistence decode"
        decode = sum(metrics[f"{f}.self_s"] for f in DECODE)
        layers["persistence"] -= decode
        layers["persistence encode"] = layers.pop("persistence")
        layers[claim] = decode
    else:
        claim = "linalg.kernel_basis + tessellation"
        layers[claim] = (metrics["linalg.kernel_basis.self_s"]
                         + layers.pop("tessellation"))
        layers["linalg"] -= metrics["linalg.kernel_basis.self_s"]
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    verdict = "holds" if ranked[0][0] == claim else "FAILS"
    shown = ", ".join(f"{k} {v:.3f} s" for k, v in ranked[:4])
    return f"prediction: largest self time on {name} is {claim}: " \
           f"{verdict} ({shown})"


def run_workload(name, seed, seconds, trace):
    """One run of one workload: set-up, timed phase, checks and report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(name, seed, work)
    try:
        setup_s, setup_records = setup(workload, deadline)
        passes = timed_phase(workload, seconds, trace, deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = setup_records + [r for _, _, recs in passes for r in recs]
    failed = [r for r in records if r["problems"]]
    errors = [f"{r['label']}: {'; '.join(r['problems'])}" for r in failed]
    print(f"workload {name} seed {seed} "
          f"python {platform.python_version()} nproc {os.cpu_count()} "
          f"trace {trace}")
    if trace:
        metrics, counts, mismatched = per_layer(passes)
        if not failed:
            errors += mismatched + compare_counts(name, seed, counts)
        print(predictions(name, metrics))
        units = dict(PER_LAYER)
        extras = {}
    else:
        metrics, extras = end_to_end(passes, setup_s, setup_records)
        units = dict(END_TO_END)
        print(f"passes {extras['passes']} ops {extras['ops']}")
        extras["fail_frac"] = len(failed) / len(records)
        print(f"fail_frac {extras['fail_frac']} ratio "
              f"({len(failed)} of {len(records)} ops)")
        print(f"cache_bytes {extras['cache_bytes']} bytes")
        print(f"op_p50_s {extras['op_p50_s']} s")
        if extras["op_tail_s"] is None:
            print("op_tail_s n/a s (fewer than 20 ops)")
        else:
            print(f"op_tail_s {extras['op_tail_s']} s "
                  f"(p{extras['op_tail_pct']:.1f} of {extras['ops']} ops)")
    for metric, value in metrics.items():
        print(f"{metric} {value} {units[metric]}")
    for line in errors:
        print(f"error: {line}")
    result = {"correct": not errors, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(dict(result, seed=seed, workload=name,
                       python=platform.python_version(),
                       nproc=os.cpu_count(), errors=errors,
                       unbounded=extras), fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vorcycle", "cli.py")):
        print(f"error: no vorcycle sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run_workload(name, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
