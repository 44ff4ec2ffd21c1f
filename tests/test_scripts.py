import importlib.util
import os
import subprocess
import sys

from conftest import cached_graph

from vorcycle.homology import TheoremReport

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_survey_exit_status(monkeypatch, capsys):
    survey = _load("run_survey")
    monkeypatch.setattr(sys, "argv", ["run_survey.py", "--max-n", "3"])
    assert survey.main() == 0
    assert capsys.readouterr().out.count(" generator ") == 3

    def falsified(cx):
        return TheoremReport(n=cx.n, group_kind=cx.group_kind, kernel_dim=2,
                             canonical_in_kernel=True,
                             kernel_spanned_by_canonical=False, ok=False,
                             details={})

    monkeypatch.setattr(survey, "verify", falsified)
    monkeypatch.setattr(sys, "argv", ["run_survey.py", "--max-n", "2",
                                      "--groups", "sl"])
    assert survey.main() == 1
    assert "kernel_dim=2 UNEXPECTED" in capsys.readouterr().out


def test_run_survey_runs_from_another_directory(tmp_path):
    script = os.path.abspath(os.path.join(SCRIPTS, "run_survey.py"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, script, "--max-n", "2"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "UNEXPECTED" not in done.stdout


def test_probe_long_ranks_prints_each_class_with_its_facets(monkeypatch,
                                                           capsys):
    # The rank-4 sl graph stands in for a long enumeration: the probe
    # prints one line per class once the enumeration ends, with its
    # count of facets.
    graph = cached_graph(4, "sl")
    probe = _load("probe_long_ranks")
    monkeypatch.setattr(probe.enumeration, "enumerate_perfect_forms",
                        lambda n, group, allow_long: graph)
    monkeypatch.setattr(sys, "argv", ["probe_long_ranks.py",
                                      "--enumerate-only"])
    probe.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("classes: 2 (A4, D4) [")
    assert lines[1:] == [
        f"  [{i}] {node.label}: |m|={node.minvecs.vector_count} "
        f"stab_order={node.stab_order} facets={len(node.facets)}"
        for i, node in enumerate(graph.nodes)]
    assert sum(len(node.facets) for node in graph.nodes) == 74
