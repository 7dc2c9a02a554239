import numpy as np
import pytest

from cescov.lin_core import commutation_matrix, hermitian_sqrt, kron
from cescov.errors import ZeroTrace
from cescov.theory import (
    CovariancePair,
    RadialStructure,
    affine_equivariant_var,
    beta_opt,
    beta_opt_univariate,
    empirical_structure_pair,
    mse_scm,
    nmse_from_sphericity,
    oracle_mse,
    radial_var_structure,
    scm_radial_structure,
    shrinkage_curve,
    shrinkage_report,
)

from util import random_hpd


class TestRadialStructure:
    def test_validation(self):
        RadialStructure(1.0, 0.5, -0.25, dim=2)  # boundary tau2 = -tau1/p allowed
        with pytest.raises(ValueError):
            RadialStructure(1.0, -0.1, 0.0, dim=2)
        with pytest.raises(ValueError):
            RadialStructure(1.0, 0.5, -0.3, dim=2)

    def test_identity_and_commutation_parts(self):
        pair = radial_var_structure(1.0, 0.0, 2)
        np.testing.assert_array_equal(pair.var, np.eye(4).astype(complex))
        np.testing.assert_array_equal(pair.pvar, commutation_matrix(2).astype(complex))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_determinant_identity(self, p):
        gen = np.random.default_rng(70 + p)
        tau1 = float(gen.uniform(0.2, 2.0))
        tau2 = float(gen.uniform(-tau1 / p, 1.0))
        pair = radial_var_structure(tau1, tau2, p)
        closed = (tau1 + tau2 * p) * tau1 ** (p * p - 1)
        dense = np.linalg.det(pair.var).real
        assert dense == pytest.approx(closed, rel=1e-9)

    def test_psd_boundary_has_zero_eigenvalue(self):
        tau1 = 0.8
        pair = radial_var_structure(tau1, -tau1 / 3, 3)
        eigs = np.linalg.eigvalsh(pair.var)
        assert abs(eigs.min()) < 1e-12
        assert eigs.max() > 0

    def test_rejects_constraint_violations(self):
        with pytest.raises(ValueError):
            radial_var_structure(-1.0, 0.0, 2)
        with pytest.raises(ValueError):
            radial_var_structure(1.0, -0.6, 2)

    def test_empirical_pair_skips_constraints(self):
        pair = empirical_structure_pair(1.0, -0.7, 2)
        assert isinstance(pair, CovariancePair)


class TestAffineEquivariantVar:
    def test_identity_reduces_to_radial_structure(self):
        s = RadialStructure(1.0, 0.3, 0.1, dim=3)
        got = affine_equivariant_var(np.eye(3), s)
        want = radial_var_structure(0.3, 0.1, 3)
        np.testing.assert_allclose(got.var, want.var, atol=1e-14)
        np.testing.assert_allclose(got.pvar, want.pvar, atol=1e-14)

    def test_trace_identity(self):
        gen = np.random.default_rng(75)
        m = random_hpd(gen, 4)
        s = RadialStructure(1.0, 0.7, 0.2, dim=4)
        tr = np.trace(m).real
        tr2 = np.trace(m @ m).real
        got = np.trace(affine_equivariant_var(m, s).var).real
        assert got == pytest.approx(s.tau1 * tr**2 + s.tau2 * tr2, rel=1e-12)

    def test_congruence_transport(self):
        gen = np.random.default_rng(76)
        m = random_hpd(gen, 3)
        s = RadialStructure(1.0, 0.4, 0.05, dim=3)
        r = hermitian_sqrt(m)
        g = kron(r.conj(), r)
        at_identity = radial_var_structure(s.tau1, s.tau2, 3)
        transported = g @ at_identity.var @ g
        direct = affine_equivariant_var(m, s).var
        np.testing.assert_allclose(transported, direct, rtol=0, atol=1e-10 * np.abs(direct).max())

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_pvar_equals_var_commutation(self, p):
        gen = np.random.default_rng(77 + p)
        m = random_hpd(gen, p)
        s = RadialStructure(1.0, 0.6, 0.15, dim=p)
        pair = affine_equivariant_var(m, s)
        np.testing.assert_array_equal(pair.pvar, pair.var @ commutation_matrix(p))

    def test_var_is_hermitian_psd(self):
        gen = np.random.default_rng(78)
        for p in (2, 4):
            m = random_hpd(gen, p)
            tau1 = 0.9
            for tau2 in (0.2, 0.0, -tau1 / p):
                pair = affine_equivariant_var(m, RadialStructure(1.0, tau1, tau2, dim=p))
                np.testing.assert_allclose(pair.var, pair.var.conj().T, atol=1e-12)
                eigs = np.linalg.eigvalsh(pair.var)
                assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            affine_equivariant_var(np.eye(3), RadialStructure(1.0, 1.0, 0.0, dim=2))


class TestScmRadialStructure:
    def test_gaussian_n10(self):
        s = scm_radial_structure(10, 0.0, p=2)
        assert (s.sigma, s.tau1, s.tau2) == (1.0, pytest.approx(1 / 9), 0.0)

    def test_kappa2_n10(self):
        s = scm_radial_structure(10, 2.0, p=2)
        assert s.tau1 == pytest.approx(1 / 9 + 0.2, rel=1e-12)
        assert s.tau2 == pytest.approx(0.2, rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            scm_radial_structure(1, 0.0, p=2)

    def test_rejects_kappa_below_bound(self):
        with pytest.raises(ValueError):
            scm_radial_structure(10, -0.5, p=4)


class TestMseScm:
    def test_gaussian_identity(self):
        mse, nmse = mse_scm(np.eye(4), 10, 0.0)
        assert mse == pytest.approx(16 / 9, rel=1e-12)
        assert nmse == pytest.approx(4 / 9, rel=1e-12)

    def test_nmse_at_unit_sphericity(self):
        p, n, kappa = 3, 8, 0.7
        _, nmse = mse_scm(np.eye(p), n, kappa)
        expected = p * (1 / (n - 1) + kappa / n) + kappa / n
        assert nmse == pytest.approx(expected, rel=1e-12)

    def test_matches_trace_of_variance(self):
        gen = np.random.default_rng(80)
        for kappa in (0.0, 0.5, 2.0):
            m = random_hpd(gen, 3)
            n = 12
            mse, _ = mse_scm(m, n, kappa)
            pair = affine_equivariant_var(m, scm_radial_structure(n, kappa, 3))
            assert mse == pytest.approx(np.trace(pair.var).real, rel=1e-12)

    def test_monotone_in_n_and_kappa(self):
        gen = np.random.default_rng(81)
        m = random_hpd(gen, 3)
        mses_n = [mse_scm(m, n, 0.5)[0] for n in range(5, 40, 5)]
        assert all(a > b for a, b in zip(mses_n, mses_n[1:]))
        mses_k = [mse_scm(m, 10, k)[0] for k in np.linspace(-0.2, 3.0, 9)]
        assert all(a < b for a, b in zip(mses_k, mses_k[1:]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroTrace):
            mse_scm(np.zeros((2, 2)), 10, 0.0)


class TestBetaOpt:
    def test_gaussian_closed_form(self):
        for n, p, gamma in ((10, 10, 2.0), (25, 4, 1.5), (7, 3, 3.0)):
            beta = beta_opt(nmse_from_sphericity(n, p, gamma, 0.0))
            assert beta == pytest.approx((n - 1) / (n - 1 + p / gamma), rel=1e-12)

    def test_figure_configuration_kappa0(self):
        beta = beta_opt(nmse_from_sphericity(10, 10, 2.0, 0.0))
        assert beta == pytest.approx(9 / 14, rel=1e-12)

    def test_figure_configuration_kappa3(self):
        beta = beta_opt(nmse_from_sphericity(10, 10, 2.0, 3.0))
        assert beta == pytest.approx(45 / 151, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta_opt(0.0)

    def test_scale_invariance(self):
        gen = np.random.default_rng(82)
        m = random_hpd(gen, 4)
        n, kappa = 9, 0.8
        b1 = beta_opt(mse_scm(m, n, kappa)[1])
        b2 = beta_opt(mse_scm(5.5 * m, n, kappa)[1])
        assert b1 == pytest.approx(b2, rel=1e-12)


class TestOracleMse:
    def test_identity(self):
        assert oracle_mse(9 / 14, 16 / 9) == pytest.approx(9 / 14 * 16 / 9, rel=1e-14)

    def test_strictly_below_mse(self):
        assert oracle_mse(0.7, 3.0) < 3.0

    def test_expansion_chain(self):
        # beta^2 MSE + (1 - beta)^2 ||M||_F^2 collapses to beta * MSE
        gen = np.random.default_rng(83)
        for kappa in (0.0, 1.5):
            m = random_hpd(gen, 4)
            mse, nmse = mse_scm(m, 11, kappa)
            fro2 = mse / nmse
            beta = beta_opt(nmse)
            lhs = beta**2 * mse + (1 - beta) ** 2 * fro2
            assert lhs == pytest.approx(beta * mse, rel=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            oracle_mse(1.0, 2.0)
        with pytest.raises(ValueError):
            oracle_mse(0.5, 0.0)


class TestBetaOptUnivariate:
    def test_gaussian_value(self):
        assert beta_opt_univariate(10, 0.0) == pytest.approx(0.9)

    def test_gaussian_exact_over_n(self):
        for n in range(2, 51):
            assert beta_opt_univariate(n, 0.0) == (n - 1) / n

    def test_large_kurtosis(self):
        assert beta_opt_univariate(5, 20.0) == pytest.approx(20 / 105, rel=1e-12)

    def test_matches_multivariate_at_p1(self):
        for n in (2, 5, 10, 40):
            for kurt in (-0.9, 0.0, 1.0, 8.0):
                uni = beta_opt_univariate(n, kurt)
                multi = beta_opt(nmse_from_sphericity(n, 1, 1.0, kurt / 2))
                assert uni == pytest.approx(multi, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_opt_univariate(1, 0.0)
        with pytest.raises(ValueError):
            beta_opt_univariate(10, -1.5)


class TestShrinkageCurve:
    def test_figure_endpoints(self):
        series = shrinkage_curve(10, 10, 2.0, [-1 / 11, 0.0, 3.0])
        assert series[0][1] == pytest.approx(495 / 743, rel=1e-12)
        assert series[1][1] == pytest.approx(9 / 14, rel=1e-12)
        assert series[2][1] == pytest.approx(45 / 151, rel=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(-1 / 11, 3.0, 41)
        series = shrinkage_curve(10, 10, 2.0, grid)
        betas = [b for _, b in series]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_rejects_kappa_below_bound(self):
        with pytest.raises(ValueError):
            shrinkage_curve(10, 10, 2.0, [-0.2])

    def test_rejects_bad_sphericity(self):
        with pytest.raises(ValueError):
            shrinkage_curve(10, 10, 11.0, [0.0])


class TestShrinkageReport:
    def test_gamma_and_cov_paths_agree(self):
        # a covariance with tr(M) = p so that eta = 1 matches the gamma path
        m = np.diag([0.5, 1.5]).astype(complex)
        _, gamma = 1.0, 2 * np.trace(m @ m).real / np.trace(m).real ** 2
        via_cov = shrinkage_report(10, 2, 0.5, cov=m)
        via_gamma = shrinkage_report(10, 2, 0.5, gamma=gamma)
        assert via_cov.eta == pytest.approx(1.0)
        for fld in ("gamma", "mse", "nmse", "beta_o", "oracle_mse"):
            assert getattr(via_cov, fld) == pytest.approx(getattr(via_gamma, fld), rel=1e-12)

    def test_fields_and_identities(self):
        rep = shrinkage_report(10, 4, 0.0, gamma=2.0)
        assert set(rep.to_dict()) == {
            "eta", "gamma", "kappa", "n", "p", "mse", "nmse", "beta_o", "oracle_mse",
        }
        assert 0.0 < rep.beta_o < 1.0
        assert rep.oracle_mse == pytest.approx(rep.beta_o * rep.mse, rel=1e-14)

    def test_requires_exactly_one_of_cov_gamma(self):
        with pytest.raises(ValueError):
            shrinkage_report(10, 2, 0.0)
        with pytest.raises(ValueError):
            shrinkage_report(10, 2, 0.0, cov=np.eye(2), gamma=1.0)
