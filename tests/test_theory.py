import re
import tracemalloc

import numpy as np
import pytest

from cescov import lin_core, theory
from cescov.lin_core import commutation_matrix, hermitian_sqrt, hermitize, vec
from cescov.errors import NotHermitian, NotPositiveDefinite, ZeroTrace
from cescov.theory import (
    CovariancePair,
    RadialStructure,
    ShrinkageReport,
    _scm_constants,
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

    def test_peak_memory_in_p4_units(self):
        # built by the blocked two-constant builder at M = I: the complex
        # result is two real p^2 x p^2 units, and besides it only a block of
        # rows and numpy's ufunc buffers are alive (2.54 units at p = 16; a
        # dense real expression with a complex cast peaks at 3.01)
        p = 16
        radial_var_structure(0.37, -0.011, p)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair = radial_var_structure(0.37, -0.011, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pair.var.shape == (p * p, p * p)
        assert peak <= 2.75 * 8 * p**4, peak / (8 * p**4)


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
        g = np.kron(r.conj(), r)
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

    @pytest.mark.parametrize("p", [10, 16])
    @pytest.mark.parametrize("tau2", [0.2, 0.0, -0.011])
    def test_bits_of_the_plain_expression(self, p, tau2):
        # built in place a block of rows at a time, with the bits of the
        # whole-array expression
        m = random_hpd(np.random.default_rng(80 + p), p)
        s = RadialStructure(1.0, 0.37, tau2, dim=p)
        mh = hermitize(m)
        vm = vec(mh)
        want = s.tau1 * np.kron(mh.conj(), mh) + s.tau2 * np.outer(vm, vm.conj())
        got = affine_equivariant_var(m, s).var
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_memory_in_p4_units(self):
        # the complex result is two real p^2 x p^2 units; besides it only a
        # block of rows and numpy's ufunc buffers are alive (2.54 units at
        # p = 16; the whole-array expression peaked at 4.53)
        p = 16
        m = random_hpd(np.random.default_rng(96), p)
        s = RadialStructure(1.0, 0.37, -0.011, dim=p)
        affine_equivariant_var(m, s)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair = affine_equivariant_var(m, s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pair.var.shape == (p * p, p * p)
        assert peak <= 3 * 8 * p**4, peak / (8 * p**4)


@pytest.mark.parametrize("build, message", [
    (lambda: RadialStructure(1.0, 0.5, 0.0, dim=0), "dim must be >= 1, got 0"),
    (lambda: RadialStructure(1.0, np.nan, 0.0, dim=2), "tau constants must be finite"),
    (lambda: empirical_structure_pair(0.5, 0.0, 0), "p must be >= 1, got 0"),
], ids=["radial-dim0", "radial-nan-tau", "empirical-p0"])
def test_structures_refuse_a_bad_dimension_or_tau(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {kappa}$"):
            scm_radial_structure(10, kappa, 2)


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

    def test_indefinite_matrix_beyond_sphericity_p_rejected(self):
        # tr(M) = 0.5 and tr(M^2) = 1.25: sphericity 10, above p = 2, but the
        # covariance check refuses the indefinite M before the sphericity is
        # looked at
        with pytest.raises(NotPositiveDefinite, match=r"^matrix is not positive definite: min eigenvalue -5\.000e-01 "):
            mse_scm(np.diag([1.0, -0.5]), 10, 0.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroTrace):
            mse_scm(np.zeros((2, 2)), 10, 0.0)

    def test_hermitizes_the_covariance_once(self, monkeypatch):
        calls = []

        def counted(a, name="matrix"):
            calls.append(name)
            return hermitize(a, name)

        # every module that reaches hermitize by its global name
        for module in (lin_core, theory):
            monkeypatch.setattr(module, "hermitize", counted)
        m = random_hpd(np.random.default_rng(82), 4)
        mse = mse_scm(m, 10, 0.5)
        assert len(calls) == 1
        monkeypatch.undo()
        assert mse == mse_scm(m, 10, 0.5)

    @pytest.mark.parametrize("m, error", [
        (np.zeros((2, 2)), ZeroTrace),
        # sphericity 1.67 lies in [1, 3]: only the definiteness check refuses it
        (np.diag([1.0, 1.0, -0.1]), NotPositiveDefinite),
        (np.diag([1.0, -0.5]), NotPositiveDefinite),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), NotHermitian),
    ])
    def test_refuses_a_covariance_as_shrinkage_report_does(self, m, error):
        with pytest.raises(error):
            mse_scm(m, 10, 0.0)
        with pytest.raises(error):
            shrinkage_report(10, m.shape[0], 0.0, cov=m)


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

    @pytest.mark.parametrize("kurt", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_kurtosis(self, kurt):
        # NaN slips past the check kurt >= -1, and inf would give 0.0
        with pytest.raises(ValueError, match=f"^kurt must be finite, got {kurt}$"):
            beta_opt_univariate(10, kurt)


class TestScmConstants:
    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    @pytest.mark.parametrize("p", [1, 4])
    def test_bits_of_the_written_expressions(self, n, p):
        grid = np.linspace(-1 / (p + 1), 3.0, 29)
        for kappa in [*grid.tolist(), grid]:
            tau1, tau2 = _scm_constants(n, p, kappa)
            ref1, ref2 = 1.0 / (n - 1) + kappa / n, kappa / n
            assert np.array_equal(np.asarray(tau1).view(np.uint64), np.asarray(ref1).view(np.uint64))
            assert np.array_equal(np.asarray(tau2).view(np.uint64), np.asarray(ref2).view(np.uint64))
            assert type(tau1) is type(ref1) and type(tau2) is type(ref2)

    def test_scm_radial_structure_and_nmse_share_them(self):
        tau1, tau2 = _scm_constants(10, 3, 0.7)
        s = scm_radial_structure(10, 0.7, 3)
        assert (s.tau1, s.tau2) == (tau1, tau2)
        assert nmse_from_sphericity(10, 3, 1.5, 0.7) == (3 / 1.5) * tau1 + tau2


class TestNmseFromSphericity:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
            nmse_from_sphericity(1, 2, 1.5, 0.0)

    def test_names_kappa_below_the_bound_before_the_sphericity(self):
        # the sphericity 5 lies above p = 2 as well
        with pytest.raises(ValueError, match=r"^kappa = -0\.5 is below the lower bound -1/\(p\+1\) = -0\.3333333333333333$"):
            nmse_from_sphericity(10, 2, 5.0, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_rejects_non_finite_kappa(self, bad, shape):
        # named before the bounds are checked: the array's other kappa is
        # below -1/(p+1) and the sphericity above p
        kappa = bad if shape == "scalar" else np.array([0.5, bad, -5.0])
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {bad}$"):
            nmse_from_sphericity(10, 2, 1.5, kappa)
        with pytest.raises(ValueError, match=f"^kappa must be finite, got {bad}$"):
            nmse_from_sphericity(10, 2, 3.0, kappa)


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
        # eta = 1 and gamma = 1.25 exactly, and both paths share every later
        # operation
        assert via_cov.to_dict() == via_gamma.to_dict()
        assert (via_cov.eta, via_cov.gamma) == (1.0, 1.25)

    def test_fields_and_identities(self):
        rep = shrinkage_report(10, 4, 0.0, gamma=2.0)
        assert set(rep.to_dict()) == {
            "eta", "gamma", "kappa", "n", "p", "mse", "nmse", "beta_o", "oracle_mse",
        }
        assert 0.0 < rep.beta_o < 1.0
        assert rep.oracle_mse == pytest.approx(rep.beta_o * rep.mse, rel=1e-14)

    @pytest.mark.parametrize("beta_o", [0.0, 1.0])
    def test_report_refuses_beta_outside_the_open_unit_interval(self, beta_o):
        message = f"beta_o must lie in (0, 1), got {beta_o}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShrinkageReport(1.0, 1.0, 0.0, 10, 2, mse=1.0, nmse=0.5, beta_o=beta_o, oracle_mse=beta_o)

    def test_rejects_a_cov_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"^cov is 3 x 3, expected p = 2$"):
            shrinkage_report(10, 2, 0.0, cov=np.eye(3))

    def test_requires_exactly_one_of_cov_gamma(self):
        with pytest.raises(ValueError):
            shrinkage_report(10, 2, 0.0)
        with pytest.raises(ValueError):
            shrinkage_report(10, 2, 0.0, cov=np.eye(2), gamma=1.0)
