"""Named wrong programs that the transport check must fail.

Each mutant replaces, for one test, a name that ``verify_target`` reads from
``mc_verify``: a closed form (a wrong theory) or the draw (wrong data).  The
configuration is criterion 3's: Gaussian data, n = 10, p = 3 and the complex
HPD matrix M of seed 203, here as a ``--cov`` file, since every ``--cov``
preset is real and a real M cannot tell M from its transpose.  At
R = 2 * 10^4 a run takes 20-30 ms on a 2-CPU VM, and the unmutated run
passes on the same seed.
"""

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


def run(cov_path):
    return verify_target("transport", "gaussian", 10, 3, cov_path, 20_000, SEED)


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


def test_known_location_constants(monkeypatch, cov_path, unmutated):
    # the SCM's constants as if the mean were known: tau1 = (1 + kappa)/n, tau2 = kappa/n
    def structure(n, kappa, p):
        return theory.RadialStructure(1.0, (1.0 + kappa) / n, kappa / n, p)

    def mse(m, n, kappa):
        s = structure(n, kappa, m.shape[0])
        fro2 = np.vdot(m, m).real
        value = s.tau1 * np.trace(m).real ** 2 + s.tau2 * fro2
        return value, value / fro2

    monkeypatch.setattr(mc_verify, "scm_radial_structure", structure)
    monkeypatch.setattr(mc_verify, "mse_scm", mse)
    assert failed(run(cov_path)) == {"var_dev_se", "mse_z"}


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
