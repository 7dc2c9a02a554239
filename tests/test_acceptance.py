"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a PASS line
with the measured quantities.  The Monte Carlo runs are shared through
module-scope fixtures so the determinism criterion can re-verify the same
configurations at a different worker count.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cescov.ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    sample_modular,
)
from cescov.cli import main as cli_main
from cescov.estimators import scm
from cescov.lin_core import commutation_matrix, hermitian_sqrt, spiked_covariance, vec
from cescov.mc_verify import (
    MCConfig,
    Tolerances,
    compare_to_theory,
    empirical_moments,
    radial_estimate_from_moments,
    verify_oracle_efficiency,
    verify_sphere_moments,
)
from cescov.theory import (
    RadialStructure,
    affine_equivariant_var,
    beta_opt,
    beta_opt_univariate,
    mse_scm,
    nmse_from_sphericity,
    radial_var_structure,
    scm_radial_structure,
    shrinkage_curve,
)

from util import mc_se, random_complex, random_hpd


def spherical(p, family):
    return CESModel(np.zeros(p), np.eye(p), family)


@pytest.fixture(scope="module")
def run_gaussian():
    """Criterion 1 configuration: Gaussian, p=2, n=10, R=2e5."""
    cfg = MCConfig(replications=200_000, n=10, model=spherical(2, Gaussian()), seed=101)
    t0 = time.perf_counter()
    emp = empirical_moments(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, emp, elapsed


@pytest.fixture(scope="module")
def run_heavy():
    """Criterion 2 configuration: k:0.5 (kappa = 2), p=2, n=10, R=5e5."""
    cfg = MCConfig(
        replications=500_000, n=10, model=spherical(2, CompoundGaussianK(0.5)), seed=102
    )
    return cfg, empirical_moments(cfg)


@pytest.fixture(scope="module")
def transport_matrix():
    return random_hpd(np.random.default_rng(203), 3)


@pytest.fixture(scope="module")
def run_transport(transport_matrix):
    """Criterion 3 configuration: Gaussian at a general PD matrix, p=3, R=2e5."""
    model = CESModel(np.zeros(3), transport_matrix, Gaussian())
    cfg = MCConfig(replications=200_000, n=10, model=model, seed=103)
    return cfg, empirical_moments(cfg)


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion 6 configurations: spiked gamma=2, p=4, n=10, both families."""
    cov = spiked_covariance(4, 2.0)
    out = {}
    for key, family, reps, seed in (
        ("gaussian", Gaussian(), 200_000, 106),
        ("k05", CompoundGaussianK(0.5), 500_000, 107),
    ):
        cfg = MCConfig(replications=reps, n=10, model=CESModel(np.zeros(4), cov, family), seed=seed)
        out[key] = (cfg, verify_oracle_efficiency(cfg))
    return cov, out


@pytest.fixture(scope="module")
def sphere_runs():
    """Criterion 7 configurations: p in {2, 4, 8}, 1e6 draws each."""
    return {p: verify_sphere_moments(p, 10**6, seed=108 + p) for p in (2, 4, 8)}


def test_01_gaussian_scm_constants(run_gaussian):
    cfg, emp, elapsed = run_gaussian
    est = radial_estimate_from_moments(emp)
    assert est.tau1 == pytest.approx(1 / 9, rel=0.02)
    assert abs(est.tau2) < 4 * est.se_tau2
    assert elapsed < 60.0
    print(
        f"PASS 1: var(s12)={est.tau1:.6f} vs 1/9 "
        f"(rel err {abs(est.tau1 * 9 - 1):.4f}), |cov(s11,s22)|={abs(est.tau2):.2e} "
        f"< 4 SE = {4 * est.se_tau2:.2e}, runtime {elapsed:.1f}s"
    )


def test_02_heavy_tail_scm_constants(run_heavy):
    # confirm kappa = 2 for k:0.5 by the modular-variate oracle first
    p = 2
    r = sample_modular(CompoundGaussianK(0.5), p, RngStream(302), size=10**6)
    terms = r**4 / (p * (p + 1))
    kappa_mc = terms.mean() - 1.0
    assert abs(kappa_mc - 2.0) < 3 * mc_se(terms)

    cfg, emp = run_heavy
    est = radial_estimate_from_moments(emp)
    tau1_ref = 1 / 9 + 0.2
    assert est.tau1 == pytest.approx(tau1_ref, rel=0.05)
    assert est.tau2 == pytest.approx(0.2, rel=0.05)
    print(
        f"PASS 2: kappa_mc={kappa_mc:.4f}; tau1={est.tau1:.6f} vs {tau1_ref:.6f} "
        f"(rel {abs(est.tau1 / tau1_ref - 1):.4f}); tau2={est.tau2:.6f} vs 0.2 "
        f"(rel {abs(est.tau2 / 0.2 - 1):.4f})"
    )


def test_03_transport_full_matrices(run_transport, transport_matrix):
    cfg, emp = run_transport
    struct = scm_radial_structure(10, 0.0, 3)
    pair = affine_equivariant_var(transport_matrix, struct)
    report = compare_to_theory(emp, pair, Tolerances())
    assert report.passed
    dev_var = report.checks["var_dev_se"].value
    assert dev_var <= 4.0
    dev_pvar = (np.abs(emp.pvar_emp - pair.pvar) / np.maximum(emp.se_pvar, 1e-300)).max()
    assert dev_pvar <= 4.0

    wrong = affine_equivariant_var(
        transport_matrix, RadialStructure(1.0, 2 * struct.tau1, struct.tau2, 3)
    )
    control = compare_to_theory(emp, wrong, Tolerances())
    assert not control.passed
    print(
        f"PASS 3: 9x9 var dev {dev_var:.2f} SE, "
        f"pvar dev {dev_pvar:.2f} SE; negative control dev "
        f"{control.checks['var_dev_se'].value:.1f} SE (fails)"
    )


def test_04_mse_formula(run_gaussian, run_heavy, transport_matrix):
    _, emp_g, _ = run_gaussian
    mse_g, _ = mse_scm(np.eye(2), 10, 0.0)
    rel_g = abs(emp_g.mse_emp - mse_g) / mse_g
    assert rel_g < 0.02

    _, emp_k = run_heavy
    mse_k, _ = mse_scm(np.eye(2), 10, 2.0)
    rel_k = abs(emp_k.mse_emp - mse_k) / mse_k
    assert rel_k < 0.05

    # closed-form identity, no Monte Carlo: MSE equals tr(var(S))
    for kappa in (0.0, 0.5, 2.0):
        m = transport_matrix
        mse, _ = mse_scm(m, 10, kappa)
        pair = affine_equivariant_var(m, scm_radial_structure(10, kappa, 3))
        assert mse == pytest.approx(np.trace(pair.var).real, rel=1e-12)
    print(
        f"PASS 4: MSE rel err gaussian {rel_g:.4f} (<2%), k:0.5 {rel_k:.4f} (<5%); "
        f"trace identity at 1e-12"
    )


def test_05_shrinkage_curve(capsys):
    code = cli_main(["curve"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 41
    betas = [b for _, b in rows]
    assert all(a > b for a, b in zip(betas, betas[1:]))
    assert rows[0][1] == pytest.approx(0.66622, abs=1e-5)
    assert rows[-1][1] == pytest.approx(0.29801, abs=1e-5)

    # kappa = 0 is not a lattice point of the default grid; evaluate the same
    # expression on an explicit grid through those kurtosis values
    series = shrinkage_curve(10, 10, 2.0, [-1 / 11, 0.0, 3.0])
    for (_, beta), expected in zip(series, (0.66622, 0.642857, 0.29801)):
        assert beta == pytest.approx(expected, abs=1e-5)
    with capsys.disabled():
        print(
            f"\nPASS 5: curve endpoints ({rows[0][1]:.6f}, {rows[-1][1]:.6f}), "
            f"beta(0)={series[1][1]:.6f}, monotone over 41 rows"
        )


def test_06_oracle_efficiency(oracle_runs):
    cov, runs = oracle_runs
    lines = []
    for key in ("gaussian", "k05"):
        cfg, report = runs[key]
        assert report.passed
        assert report.details["ratio"] < 1.0
        assert report.details["ratio_dev_se"] <= 3.0
        lines.append(
            f"{key}: ratio {report.details['ratio']:.5f} vs beta_o "
            f"{report.details['beta_oracle']:.5f} ({report.details['ratio_dev_se']:.2f} SE)"
        )
    # algebraic expansion collapses to beta * MSE
    for kappa in (0.0, 2.0):
        mse, nmse = mse_scm(cov, 10, kappa)
        beta = beta_opt(nmse)
        fro2 = mse / nmse
        assert beta**2 * mse + (1 - beta) ** 2 * fro2 == pytest.approx(beta * mse, rel=1e-12)
    print("PASS 6: " + "; ".join(lines) + "; identity chain at 1e-12")


def test_07_sphere_moments(sphere_runs):
    for p, report in sphere_runs.items():
        assert report.passed, f"sphere moments failed at p={p}"
        assert report.checks["nonzero_dev_se"].value <= 4.0
        assert report.checks["vanishing_dev_se"].value <= 4.0
    devs = ", ".join(
        f"p={p}: {r.checks['nonzero_dev_se'].value:.2f}/{r.checks['vanishing_dev_se'].value:.2f} SE"
        for p, r in sphere_runs.items()
    )
    print(f"PASS 7: targets/vanishing devs {devs}")


def test_08_exactness_properties():
    gen = np.random.default_rng(400)
    # affine equivariance of the SCM at 1e-10 relative
    x = random_complex(gen, 20, 4)
    a = random_complex(gen, 4, 4)
    shift = random_complex(gen, 4)
    lhs = scm(x @ a.T + shift).s
    rhs = a @ scm(x).s @ a.conj().T
    rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
    assert rel < 1e-10

    # commutation matrix identity, exhaustive over p <= 6
    for p in range(1, 7):
        b = random_complex(gen, p, p)
        np.testing.assert_array_equal(commutation_matrix(p) @ vec(b), vec(b.T))

    # Hermitian square root reconstruction at 1e-10
    for p in (2, 3, 5, 8):
        m = random_hpd(gen, p)
        r = hermitian_sqrt(m)
        assert np.linalg.norm(r @ r - m) / np.linalg.norm(m) < 1e-10

    # determinant identity of the radial form for p <= 4
    for p in (2, 3, 4):
        tau1 = float(gen.uniform(0.3, 1.5))
        tau2 = float(gen.uniform(-tau1 / p, 0.8))
        pair = radial_var_structure(tau1, tau2, p)
        closed = (tau1 + tau2 * p) * tau1 ** (p * p - 1)
        assert np.linalg.det(pair.var).real == pytest.approx(closed, rel=1e-9)
    print(f"PASS 8: SCM equivariance rel {rel:.1e}; K_p, sqrt, determinant identities hold")


def test_09_univariate_case():
    for n in range(2, 51):
        assert beta_opt_univariate(n, 0.0) == (n - 1) / n
    for n in (2, 3, 7, 20, 50):
        for kurt in (-0.99, -0.5, 0.0, 0.7, 3.0, 12.0):
            uni = beta_opt_univariate(n, kurt)
            multi = beta_opt(nmse_from_sphericity(n, 1, 1.0, kurt / 2))
            assert uni == pytest.approx(multi, rel=1e-12)
    print("PASS 9: univariate shrinkage exact for n in 2..50 and equivalent to p=1 formula")


def test_10_determinism_across_workers(
    run_gaussian, run_heavy, run_transport, oracle_runs, sphere_runs
):
    checked = []
    for name, (cfg, emp) in (
        ("run1", (run_gaussian[0], run_gaussian[1])),
        ("run2", run_heavy),
        ("run3", run_transport),
    ):
        redo = empirical_moments(replace(cfg, workers=4))
        np.testing.assert_array_equal(emp.var_emp, redo.var_emp)
        np.testing.assert_array_equal(emp.pvar_emp, redo.pvar_emp)
        np.testing.assert_array_equal(emp.mean_stat, redo.mean_stat)
        assert emp.mse_emp == redo.mse_emp
        assert emp.se_scale == redo.se_scale
        checked.append(name)

    _, runs = oracle_runs
    for key, (cfg, report) in runs.items():
        redo = verify_oracle_efficiency(replace(cfg, workers=4))
        assert report.details["ratio"] == redo.details["ratio"]
        assert report.details["mse_emp"] == redo.details["mse_emp"]
        checked.append(f"oracle-{key}")

    for p, report in sphere_runs.items():
        redo = verify_sphere_moments(p, 10**6, seed=108 + p, workers=4)
        assert report.checks["nonzero_dev_se"] == redo.checks["nonzero_dev_se"]
        assert report.checks["vanishing_dev_se"] == redo.checks["vanishing_dev_se"]
        checked.append(f"sphere-p{p}")

    print(f"PASS 10: bit-identical at workers in {{1,4}} for {', '.join(checked)}")
