"""Tests of the benchmark itself: python3 -m pytest vorbench"""

import json
import os
import random
import sys

import pytest

import oracle
import run
import tessgen
import tracing

sys.path.insert(0, run.SRC)

from vorcycle import cli  # noqa: E402
from vorcycle.tessellation import check_rigidity, loads_instance  # noqa: E402


def test_generation_is_deterministic_per_seed():
    assert tessgen.generate(5) == tessgen.generate(5)
    assert tessgen.generate(5) != tessgen.generate(6)
    for name in run.WORKLOADS:
        a = run.Workload(name, 5, "w")
        b = run.Workload(name, 5, "w")
        assert [op.args for op in a.pass_ops("p")] == \
            [op.args for op in b.pass_ops("p")]
        assert [op.args for op in a.setup_ops] == \
            [op.args for op in b.setup_ops]


@pytest.mark.parametrize("seed", range(6))
def test_expected_verdicts_agree_with_check_rigidity(seed):
    rng = random.Random(seed)
    shapes = [tessgen.sector_fan(rng, 7), tessgen.weighted(rng, 12, 2),
              tessgen.weighted(rng, 12, 2, components=3)]
    for (stabs, walls), comps in zip(shapes, (1, 1, 3)):
        text = json.dumps(tessgen._payload(stabs, walls))
        verdict = check_rigidity(loads_instance(text))
        assert verdict.kernel_dim == comps
        assert verdict.connected == (comps == 1) == verdict.ok
        assert verdict.canonical_in_kernel
        if comps == 1:
            assert list(verdict.kernel_vectors[0]) == \
                tessgen.canonical_line(stabs)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],       # overlaps a: the union counts once
        ["c", 8.0, 9.5, 0],
        ["other", 11.0, 12.0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - (6.0 - 1.0) - 1.5, 2.0, 1.0, 2.5, 1.5, 1.0])


def test_op_figures_sum_self_times_and_subtract_top_level(tmp_path):
    path = tmp_path / "spans.jsonl"
    lines = [{"op": "x", "counters": {"isometry.elements_listed": 7}},
             ["isometry.form_maps", 1.0, 3.0, None],
             ["linalg.kernel_basis", 1.5, 2.0, 0],
             ["isometry.form_maps", 4.0, 4.5, None],
             {"flush_s": 0.25}]
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    figures = tracing.op_figures(str(path), wall_s=5.0)
    assert figures["isometry.form_maps.calls"] == 2
    assert figures["isometry.form_maps.self_s"] == pytest.approx(2.0)
    assert figures["linalg.kernel_basis.self_s"] == pytest.approx(0.5)
    assert figures["isometry.elements_listed"] == 7
    assert figures["cli.residual_s"] == pytest.approx(5.0 - 2.5 - 0.25)


def _verify(tmp_path, capsys, n, group):
    code = cli.main(["verify", "--n", str(n), "--group", group,
                     "--seed-perm", "3", "--check-dd",
                     "--cache-dir", str(tmp_path)])
    out = capsys.readouterr()
    verdict = os.path.join(tmp_path, f"verdict-n{n}-{group}-p3.json")
    return code, out.out, out.err, verdict


@pytest.mark.parametrize("n,group", [(2, "sl"), (2, "gl"), (3, "gl")])
def test_oracle_accepts_the_real_output(tmp_path, capsys, n, group):
    code, out, err, verdict = _verify(tmp_path, capsys, n, group)
    assert oracle.check_verify(n, group, True, code, out, err, verdict) == []


def test_oracle_flags_a_wrong_expected_value(tmp_path, capsys):
    code, out, err, verdict = _verify(tmp_path, capsys, 3, "sl")
    wrong = json.loads(json.dumps(oracle.VERDICTS[(3, "sl")]))
    wrong["stab_orders"] = ["48"]
    problems = oracle.check_verify(3, "sl", True, code, out, err, verdict,
                                   expected=wrong)
    assert problems and "stab_orders" in problems[0]
    wrong = dict(oracle.VERDICTS[(3, "sl")], kernel_dim=0)
    assert oracle.check_verify(3, "sl", True, code, out, err, verdict,
                               expected=wrong)


def test_oracle_flags_a_wrong_tess_verdict():
    stabs, walls = tessgen.weighted(random.Random(1), 10, 2, components=2)
    verdict = check_rigidity(loads_instance(json.dumps(
        tessgen._payload(stabs, walls))))
    stdout = (f"connected={verdict.connected} kernel_dim={verdict.kernel_dim}"
              f" canonical_in_kernel={verdict.canonical_in_kernel} "
              f"spanned={verdict.kernel_spanned_by_canonical}\n"
              + "kernel vector: [1]\n" * verdict.kernel_dim)
    expected = {"exit": 1, "kernel_dim": 2, "connected": False,
                "stab_orders": stabs}
    assert oracle.check_tess(expected, 1, stdout, "") == []
    assert oracle.check_tess(dict(expected, kernel_dim=1), 1, stdout, "")
    assert oracle.check_tess(expected, 0, stdout, "")


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
