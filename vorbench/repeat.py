"""Run the benchmark once per seed and summarise each metric.

    python3 vorbench/repeat.py --workload NAME --seeds 1-10 [--seconds 20]
                               [--trace 0|1] [--out FILE]

For every metric it prints the median, the quartiles and the spread
(distance between the quartiles over the median, as
`statistics.quantiles(values, n=4)` gives them).  With --out it also
writes the runs, the summary and the medians of the unbounded figures
(fail_frac, cache_bytes, op_p50_s, ...) as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (median, median, median)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = os.path.join(BENCH_DIR, "_work", "results",
                              f"{args.workload}-seed{seed}-trace{args.trace}"
                              ".json")
        with open(record) as fh:
            unbounded = json.load(fh)["unbounded"]
        results.append(dict(result, seed=seed, unbounded=unbounded))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              flush=True)
    summary = summarise(results)
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g} {s['unit']} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    unbounded = {k: statistics.median(r["unbounded"][k] for r in results)
                 for k in results[0]["unbounded"]
                 if all(isinstance(r["unbounded"][k], (int, float))
                        for r in results)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": results,
                       "summary": summary, "unbounded_medians": unbounded},
                      fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
