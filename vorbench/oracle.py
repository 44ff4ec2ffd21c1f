"""Expected outputs of every benchmark op, and the checks against them.

The fixed points of `vorcycle verify` were transcribed from runs of the
package at the commit that introduced this benchmark.  They do not
depend on `--seed-perm`.  A check returns a list of problems; an empty
list means the op's output is correct.
"""

import json
import re

from tessgen import canonical_line

# (n, group) -> the fields of the verdict file that are fixed points.
# `details` lists only keys present for every flag combination; `dd_zero`
# is added when the op passes --check-dd.
VERDICTS = {
    (2, "sl"): {"kernel_dim": 1, "ok": True, "top_labels": ["A2"],
                "stab_orders": ["6"], "kernel_vectors": [["1"]],
                "details": {"classes": "1", "kept_tops": "1",
                            "wall_classes": "1", "kept_walls": "0",
                            "self_walls": "1"}},
    (2, "gl"): {"kernel_dim": 0, "ok": True, "top_labels": [],
                "stab_orders": [], "kernel_vectors": [],
                "details": {"classes": "1", "kept_tops": "0",
                            "kept_iff_in_det_one": "True",
                            "root_classes_excluded": "True"}},
    (3, "sl"): {"kernel_dim": 1, "ok": True, "top_labels": ["A3"],
                "stab_orders": ["24"], "kernel_vectors": [["1"]],
                "details": {"classes": "1", "kept_tops": "1",
                            "wall_classes": "1", "kept_walls": "0",
                            "self_walls": "1"}},
    (3, "gl"): {"kernel_dim": 1, "ok": True, "top_labels": ["A3"],
                "stab_orders": ["48"], "kernel_vectors": [["1"]],
                "details": {"classes": "1", "kept_tops": "1",
                            "wall_classes": "1", "kept_walls": "0",
                            "self_walls": "1"}},
    (4, "sl"): {"kernel_dim": 1, "ok": True, "top_labels": ["A4", "D4"],
                "stab_orders": ["120", "576"],
                "kernel_vectors": [["24", "5"]],
                "details": {"classes": "2", "kept_tops": "2",
                            "wall_classes": "2", "kept_walls": "1",
                            "self_walls": "1"}},
    (4, "gl"): {"kernel_dim": 0, "ok": True, "top_labels": [],
                "stab_orders": [], "kernel_vectors": [],
                "details": {"classes": "2", "kept_tops": "0",
                            "kept_iff_in_det_one": "True",
                            "root_classes_excluded": "True"}},
    (5, "sl"): {"kernel_dim": 1, "ok": True,
                "top_labels": ["A5", "D5", "P5.2"],
                "stab_orders": ["720", "1920", "720"],
                "kernel_vectors": [["8", "3", "8"]],
                "details": {"classes": "3", "kept_tops": "3",
                            "wall_classes": "4", "kept_walls": "2",
                            "self_walls": "2"}},
    (5, "gl"): {"kernel_dim": 1, "ok": True,
                "top_labels": ["A5", "D5", "P5.2"],
                "stab_orders": ["1440", "3840", "1440"],
                "kernel_vectors": [["8", "3", "8"]],
                "details": {"classes": "3", "kept_tops": "3",
                            "wall_classes": "4", "kept_walls": "2",
                            "self_walls": "2"}},
}

VERIFY_LINE = re.compile(
    r"^n=(\d+) group=(\w+): kernel_dim=(\d+) (verified|FALSIFIED)$")
TESS_LINE = re.compile(
    r"^connected=(True|False) kernel_dim=(\d+) "
    r"canonical_in_kernel=(True|False) spanned=(True|False)$")


def check_verify(n, group, check_dd, exit_code, stdout, stderr, verdict_path,
                 expected=None):
    """Problems with one `vorcycle verify` op, judged against VERDICTS."""
    exp = expected if expected is not None else VERDICTS[(n, group)]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    lines = stdout.splitlines()
    m = VERIFY_LINE.match(lines[0]) if lines else None
    if m is None:
        problems.append(f"unexpected first stdout line {lines[:1]}")
    elif (int(m[1]), m[2], int(m[3]), m[4]) != (n, group, exp["kernel_dim"],
                                                 "verified"):
        problems.append(f"stdout says {m[0]!r}")
    try:
        with open(verdict_path) as fh:
            payload = json.load(fh)["payload"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"verdict file unreadable: {exc}"]
    for key in ("kernel_dim", "ok", "top_labels", "stab_orders",
                "kernel_vectors"):
        if payload.get(key) != exp[key]:
            problems.append(f"{key} = {payload.get(key)!r}, "
                            f"expected {exp[key]!r}")
    details = payload.get("details", {})
    want = dict(exp["details"], **({"dd_zero": "True"} if check_dd else {}))
    for key, value in want.items():
        if details.get(key) != value:
            problems.append(f"details.{key} = {details.get(key)!r}, "
                            f"expected {value!r}")
    return problems


def check_tess(expected, exit_code, stdout, stderr):
    """Problems with one `vorcycle tess check` op, judged against the
    verdict the generator built into the instance."""
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    lines = stdout.splitlines()
    m = TESS_LINE.match(lines[0]) if lines else None
    if m is None:
        return problems + [f"unexpected first stdout line {lines[:1]}"]
    connected, kernel_dim = m[1] == "True", int(m[2])
    if connected != expected["connected"]:
        problems.append(f"connected={connected}")
    if kernel_dim != expected["kernel_dim"]:
        problems.append(f"kernel_dim={kernel_dim}, "
                        f"expected {expected['kernel_dim']}")
    if m[3] != "True":
        problems.append("canonical weights not in the kernel")
    if m[4] != str(expected["connected"]):
        problems.append(f"spanned={m[4]}")
    vectors = [line for line in lines[1:] if line.startswith("kernel vector:")]
    if len(vectors) != kernel_dim:
        problems.append(f"{len(vectors)} kernel vectors printed")
    if expected["connected"] and len(vectors) == 1:
        printed = [int(x) for x in re.findall(r"-?\d+", vectors[0])]
        if printed != canonical_line(expected["stab_orders"]):
            problems.append("kernel vector is not the inverse-order line")
    return problems
