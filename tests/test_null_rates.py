"""Smoke test of tools/null_rates.py, the pass rates of one mc-verify
configuration over a range of seeds."""

import importlib.util
import json
from pathlib import Path

import pytest

from cescov.mc_verify import verify_target

_spec = importlib.util.spec_from_file_location("null_rates", Path(__file__).parents[1] / "tools" / "null_rates.py")
null_rates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(null_rates)

THM3 = ["--target", "thm3", "--dist", "gaussian", "--n", "10", "--p", "2", "--reps", "256", "--seeds", "1:5"]


def run(capsys, argv):
    record = null_rates.main(argv)
    assert json.loads(capsys.readouterr().out) == record
    return record


def test_counts_the_runs_of_verify_target(capsys):
    record = run(capsys, THM3)
    assert record["runs"] == 5
    assert record["passed"] == sum(verify_target("thm3", "gaussian", 10, 2, "identity", 256, s).passed
                                   for s in range(1, 6))
    assert list(record["checks"]) == ["var_dev_se", "tau1_z", "tau2_z", "mse_z"]
    assert list(record["z"]) == ["tau1_z", "tau2_z", "mse_z"]
    assert record["checks"]["tau1_z"]["limit"] == pytest.approx(3.5878, abs=1e-4)
    assert record["machine"]["cpu_count"] >= 1
    lo, hi = record["wilson95"]
    assert lo <= record["passed"] / 5 <= hi


def test_a_scaled_closed_form_fails_every_run(capsys):
    record = run(capsys, [*THM3, "--perturb", "tau1=10"])
    assert record["passed"] == 0
    assert record["checks"]["tau1_z"]["over"] == 5
    assert record["z"]["tau1_z"]["beyond"] == 1.0
    assert record["z_failed"] == 5
    assert record["config"]["perturb"] == {"tau1": 10.0}


def test_other_targets_run_verify_target(capsys):
    argv = ["--target", "oracle", "--dist", "k:0.5", "--n", "10", "--p", "2", "--reps", "2000", "--seeds", "3:4"]
    record = run(capsys, argv)
    assert record["runs"] == 2
    assert record["z"] == {}
    with pytest.raises(SystemExit):
        null_rates.main([*argv, "--perturb", "mse=2"])


def test_wilson_interval():
    assert null_rates.wilson(0, 300)[0] == pytest.approx(0.0, abs=1e-12)
    assert null_rates.wilson(0, 300)[1] == pytest.approx(0.0126, abs=1e-4)
    lo, hi = null_rates.wilson(150, 300)
    assert lo == pytest.approx(1 - hi, rel=1e-12)
