"""Smoke test of tools/null_rates.py, the pass rates of one mc-verify
configuration over a range of seeds."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cescov import mc_verify, theory
from cescov.ces_sampler import CESModel, parse_family
from cescov.errors import InvalidFamily
from cescov.mc_verify import (MCConfig, compare_to_theory, empirical_moments, radial_estimate_from_moments,
                              verify_target)

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


def test_an_unperturbed_run_wraps_nothing(capsys, monkeypatch):
    def refused(factors):
        raise AssertionError("an unperturbed run entered perturbed()")

    monkeypatch.setattr(null_rates, "perturbed", refused)
    assert run(capsys, THM3)["config"]["perturb"] == {}


def test_a_scaled_closed_form_fails_every_run(capsys):
    record = run(capsys, [*THM3, "--perturb", "tau1=10"])
    assert record["passed"] == 0
    assert record["checks"]["tau1_z"]["over"] == 5
    assert record["z"]["tau1_z"]["beyond"] == 1.0
    assert record["z_failed"] == 5
    assert record["config"]["perturb"] == {"tau1": 10.0}


def test_perturb_scales_the_closed_forms_that_verify_target_reads(capsys, monkeypatch):
    reports = []
    verify = mc_verify.verify_target
    monkeypatch.setattr(mc_verify, "verify_target", lambda *a: reports.append(verify(*a)) or reports[-1])
    factors = {"tau1": 1.02, "tau2": 0.9, "mse": 1.05}
    argv = ["--target", "thm3", "--dist", "k:0.5", "--n", "10", "--p", "2", "--reps", "512", "--seeds", "1:3"]
    run(capsys, [*argv, *(a for name, f in factors.items() for a in ("--perturb", f"{name}={f}"))])
    # the reference: compare_to_theory on the closed forms scaled by hand
    model = CESModel(np.zeros(2, dtype=np.complex128), np.eye(2, dtype=np.complex128), parse_family("k:0.5"))
    struct = theory.scm_radial_structure(10, model.kappa, 2)
    struct = replace(struct, tau1=factors["tau1"] * struct.tau1, tau2=factors["tau2"] * struct.tau2)
    pair = theory.affine_equivariant_var(model.cov, struct)
    mse_t = factors["mse"] * theory.mse_scm(model.cov, 10, model.kappa)[0]
    assert len(reports) == 3
    for seed, got in zip(range(1, 4), reports):
        emp = empirical_moments(MCConfig(512, 10, model, "scm", seed))
        want = compare_to_theory(emp, pair, mse_theory=mse_t, radial_theory=struct,
                                 radial_estimate=radial_estimate_from_moments(emp))
        assert got.to_dict() == want.to_dict()


def test_perturb_kappa_evaluates_the_closed_forms_at_a_scaled_kurtosis(capsys, monkeypatch):
    # t:10 data (kappa 1/3) checked with t:12's kurtosis, 1/4
    reports = []
    verify = mc_verify.verify_target
    monkeypatch.setattr(mc_verify, "verify_target", lambda *a: reports.append(verify(*a)) or reports[-1])
    argv = ["--target", "thm3", "--dist", "t:10", "--n", "10", "--p", "2", "--reps", "512", "--seeds", "1:2"]
    record = run(capsys, [*argv, "--perturb", "kappa=0.75"])
    assert record["config"]["perturb"] == {"kappa": 0.75}
    model = CESModel(np.zeros(2, dtype=np.complex128), np.eye(2, dtype=np.complex128), parse_family("t:10"))
    kappa = 0.75 * model.kappa
    assert kappa == 0.25
    struct = theory.scm_radial_structure(10, kappa, 2)
    pair = theory.affine_equivariant_var(model.cov, struct)
    mse_t = theory.mse_scm(model.cov, 10, kappa)[0]
    assert len(reports) == 2
    for seed, got in zip(range(1, 3), reports):
        emp = empirical_moments(MCConfig(512, 10, model, "scm", seed))
        want = compare_to_theory(emp, pair, mse_theory=mse_t, radial_theory=struct,
                                 radial_estimate=radial_estimate_from_moments(emp))
        assert got.to_dict() == want.to_dict()


def test_perturb_puts_the_closed_forms_back(capsys):
    run(capsys, [*THM3, "--perturb", "mse=2"])
    assert mc_verify.scm_radial_structure is theory.scm_radial_structure
    assert mc_verify.mse_scm is theory.mse_scm
    t6 = [("t:6" if a == "gaussian" else a) for a in THM3]  # t:6 has no finite E r^8
    with pytest.raises(InvalidFamily):
        null_rates.main([*t6, "--perturb", "tau1=2"])
    assert mc_verify.scm_radial_structure is theory.scm_radial_structure
    assert mc_verify.mse_scm is theory.mse_scm


def test_a_sphere_run(capsys):
    argv = ["--target", "sphere", "--dist", "gaussian", "--n", "10", "--p", "3", "--reps", "10000", "--seeds", "1:2"]
    record = run(capsys, argv)
    assert record["runs"] == 2
    assert list(record["checks"]) == ["nonzero_dev_se", "vanishing_dev_se"]
    assert record["checks"]["vanishing_dev_se"]["limit"] == 4.0
    assert record["z"] == {}


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
