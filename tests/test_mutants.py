"""Named wrong programs that the transport check must fail.

Each mutant replaces, for one test, a name that ``verify_target`` reads from
``mc_verify``: a closed form (a wrong theory) or the draw (wrong data).  The
configuration is criterion 3's: Gaussian data, n = 10, p = 3 and the complex
HPD matrix M of seed 203, here as a ``--cov`` file, since every ``--cov``
preset is real and a real M cannot tell M from its transpose.  At
R = 2 * 10^4 a run takes 20-30 ms on a 2-CPU VM, and the unmutated run
passes on the same seed.  Two mutants need another run: tau1 x 1.02 is
caught at R = 2 * 10^5 (0.2 s a run), and the kurtosis of the neighbouring
family t:12 (kappa = 1/4) in place of t:10's (1/3) is checked on t:10 data.
"""

from dataclasses import replace

import numpy as np
import pytest

from cescov import mc_verify, theory
from cescov.ces_sampler import CESModel, _draw_ces
from cescov.lin_core import save_complex_matrix
from cescov.mc_verify import verify_target

from util import random_hpd

SEED = 103


@pytest.fixture(scope="module")
def cov_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutants") / "m.csv"
    save_complex_matrix(str(path), random_hpd(np.random.default_rng(203), 3))
    return str(path)


def run(cov_path, dist="gaussian", reps=20_000):
    return verify_target("transport", dist, 10, 3, cov_path, reps, SEED)


@pytest.fixture(scope="module")
def unmutated(cov_path):
    report = run(cov_path)
    assert report.passed, report.to_dict()
    return report


def failed(report):
    return {name for name, check in report.checks.items() if not check.value < check.limit}


def test_transposed_transport(monkeypatch, cov_path, unmutated):
    real = mc_verify.affine_equivariant_var
    monkeypatch.setattr(mc_verify, "affine_equivariant_var", lambda m, s: real(m.T, s))
    report = run(cov_path)
    assert failed(report) == {"var_dev_se"}
    # the MSE is the trace of the covariance, the same for M and its transpose
    assert report.checks["mse_z"] == unmutated.checks["mse_z"]


def use_constants(monkeypatch, structure):
    """Make ``verify_target`` read the constants of ``structure(n, kappa, p)``
    and the MSE tau1 tr(M)^2 + tau2 tr(M^2) built from them."""
    def mse(m, n, kappa):
        s = structure(n, kappa, m.shape[0])
        fro2 = np.vdot(m, m).real
        value = s.tau1 * np.trace(m).real ** 2 + s.tau2 * fro2
        return value, value / fro2

    monkeypatch.setattr(mc_verify, "scm_radial_structure", structure)
    monkeypatch.setattr(mc_verify, "mse_scm", mse)


def test_known_location_constants(monkeypatch, cov_path, unmutated):
    # the SCM's constants as if the mean were known: tau1 = (1 + kappa)/n, tau2 = kappa/n
    use_constants(monkeypatch, lambda n, kappa, p: theory.RadialStructure(1.0, (1.0 + kappa) / n, kappa / n, p))
    assert failed(run(cov_path)) == {"var_dev_se", "mse_z"}


def test_tau1_two_percent_high(monkeypatch, cov_path):
    # tau1 x 1.02 in the covariance and in the MSE, caught at R = 2 * 10^5
    reps = 200_000
    assert run(cov_path, reps=reps).passed

    def structure(n, kappa, p):
        s = theory.scm_radial_structure(n, kappa, p)
        return replace(s, tau1=1.02 * s.tau1)

    use_constants(monkeypatch, structure)
    assert failed(run(cov_path, reps=reps)) == {"var_dev_se", "mse_z"}


def test_neighbouring_family_kurtosis(monkeypatch, cov_path):
    # t:10 data checked with the kurtosis of t:12, 1/4 in place of 1/3
    assert run(cov_path, "t:10").passed
    structure, mse = mc_verify.scm_radial_structure, mc_verify.mse_scm
    monkeypatch.setattr(mc_verify, "scm_radial_structure", lambda n, kappa, p: structure(n, 0.75 * kappa, p))
    monkeypatch.setattr(mc_verify, "mse_scm", lambda m, n, kappa: mse(m, n, 0.75 * kappa))
    assert failed(run(cov_path, "t:10")) == {"var_dev_se", "mse_z"}


def test_non_circular_data(monkeypatch, cov_path, unmutated):
    def real_parts(model, rng, y):
        x = _draw_ces(model, rng, y)
        x.imag = 0.0
        return x

    monkeypatch.setattr(mc_verify, "_draw_ces", real_parts)
    assert failed(run(cov_path)) == {"var_dev_se", "mse_z"}


def test_wrong_root(monkeypatch, cov_path, unmutated):
    # data multiplied by M, not by its Hermitian square root: their covariance is M^2
    def squared(model, rng, y):
        return _draw_ces(CESModel(model.mu, model.cov @ model.cov, model.family), rng, y)

    monkeypatch.setattr(mc_verify, "_draw_ces", squared)
    assert failed(run(cov_path)) == {"var_dev_se", "mse_z"}
