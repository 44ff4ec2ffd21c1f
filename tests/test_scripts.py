import importlib.util
import os
import sys

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
                             kernel_spanned_by_canonical=False, ok=False)

    monkeypatch.setattr(survey, "verify", falsified)
    monkeypatch.setattr(sys, "argv", ["run_survey.py", "--max-n", "2",
                                      "--groups", "sl"])
    assert survey.main() == 1
    assert "kernel_dim=2 UNEXPECTED" in capsys.readouterr().out
