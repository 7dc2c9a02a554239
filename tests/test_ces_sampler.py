import re
import time

import numpy as np
import pytest

from cescov import ces_sampler
from cescov.ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    StudentT,
    _draw_ces,
    elliptical_kurtosis,
    kurtosis_lower_bound,
    parse_family,
    sample_ces,
    sample_modular,
    sample_sphere,
)
from cescov.errors import InvalidFamily, NotPositiveDefinite
from cescov.lin_core import spiked_covariance

from util import mc_se, random_hpd, random_unitary


# ---------------------------------------------------------------------------
# Independent Monte Carlo oracle for the elliptical kurtosis.  The r^2 draws
# are built directly from numpy chi-square / gamma generators, not through
# the library sampler, so the closed forms are confirmed before being used.
# ---------------------------------------------------------------------------


def _oracle_texture(gen, family, n):
    """Unit-mean texture tau of r^2 = tau * chi^2_{2p} / 2, as an (n,) array,
    from numpy's generators alone (the K texture by numpy's gamma at every
    shape), so that the oracle does not share the sampler's algorithm."""
    if isinstance(family, Gaussian):
        return np.ones(n)
    if isinstance(family, StudentT):
        return (family.dof - 2.0) / gen.chisquare(family.dof, size=n)
    return gen.gamma(family.shape, 1.0 / family.shape, size=n)


def _oracle_r2(gen, family, p, n):
    return 0.5 * gen.chisquare(2 * p, size=n) * _oracle_texture(gen, family, n)


def oracle_kurtosis(family, p, n=10**6, seed=1234):
    """MC estimate of E[r^4]/(p(p+1)) - 1 with its empirical standard error."""
    gen = np.random.default_rng(seed)
    terms = _oracle_r2(gen, family, p, n) ** 2 / (p * (p + 1))
    return terms.mean() - 1.0, mc_se(terms)


def _texture_by_hand(gen, family, n):
    """The texture as stream contract 4 draws it: below shape 1 a K texture
    is Gamma(a + 1) * U^(1/a) / a, with the uniforms drawn after the gammas."""
    if isinstance(family, CompoundGaussianK) and family.shape < 1.0:
        a = family.shape
        return gen.standard_gamma(a + 1.0, size=n) * gen.random(n) ** (1.0 / a) * (1.0 / a)
    return _oracle_texture(gen, family, n)


FAMILIES = [Gaussian(), StudentT(6.0), StudentT(12.0), CompoundGaussianK(0.5)]
DRAW_MU = np.array([1.0 - 2j, 0.5, -1j])


class TestFamilies:
    def test_parse(self):
        assert parse_family("gaussian") == Gaussian()
        assert parse_family("t:8") == StudentT(8.0)
        assert parse_family("k:0.5") == CompoundGaussianK(0.5)

    def test_parse_rejects(self):
        for bad in ("normal", "t:abc", "t:4", "k:0", "k:-1"):
            with pytest.raises(InvalidFamily):
                parse_family(bad)

    def test_cli_labels(self):
        assert str(Gaussian()) == "gaussian"
        assert str(StudentT(8)) == "t:8"
        assert str(CompoundGaussianK(0.5)) == "k:0.5"

    @pytest.mark.parametrize("text", ["t:inf", "k:inf"])
    def test_infinite_parameter_names_the_gaussian_limit(self, text):
        with pytest.raises(InvalidFamily, match="finite.*gaussian"):
            parse_family(text)

    @pytest.mark.parametrize("text", ["k:1e-300", "k:0.04"])
    def test_k_shape_whose_texture_underflows_is_refused(self, text):
        # U^(1/a) rounds to 0 with probability 2^(-1075 a), above 2^-53 for a < 53/1075
        with pytest.raises(InvalidFamily, match="53/1075"):
            parse_family(text)

    def test_k_shape_from_the_underflow_bound_is_accepted(self):
        assert parse_family("k:0.05") == CompoundGaussianK(0.05)
        CompoundGaussianK(53 / 1075)  # boundary is closed

    def test_t_needs_finite_fourth_moments(self):
        with pytest.raises(InvalidFamily):
            StudentT(4.0)
        StudentT(4.0 + 1e-6)  # boundary is open


class TestEllipticalKurtosis:
    def test_gaussian_zero(self):
        assert elliptical_kurtosis(Gaussian()) == 0.0

    def test_t6_confirmed_by_oracle(self):
        est, se = oracle_kurtosis(StudentT(6.0), p=4, n=2 * 10**6)
        assert abs(est - 1.0) < 3 * se
        assert elliptical_kurtosis(StudentT(6.0)) == pytest.approx(1.0)

    def test_k4_confirmed_by_oracle(self):
        est, se = oracle_kurtosis(CompoundGaussianK(4.0), p=4)
        assert abs(est - 0.25) < 3 * se
        assert elliptical_kurtosis(CompoundGaussianK(4.0)) == pytest.approx(0.25)

    def test_lower_bound_satisfied(self):
        for p in (1, 2, 4, 8):
            for fam in (Gaussian(), StudentT(5.0), CompoundGaussianK(0.25)):
                assert elliptical_kurtosis(fam) >= kurtosis_lower_bound(p)

    def test_rejects_an_unknown_family(self):
        family = object()
        with pytest.raises(InvalidFamily, match=f"^unsupported family {re.escape(repr(family))}$"):
            elliptical_kurtosis(family)


class TestSampleSphere:
    def test_unit_norm(self):
        u = sample_sphere(5, RngStream(3), size=1000)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)

    def test_single_draw_shape(self):
        u = sample_sphere(4, RngStream(3))
        assert u.shape == (4,)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-14

    def test_p1_deterministic_modulus(self):
        u = sample_sphere(1, RngStream(5), size=100)
        np.testing.assert_allclose(np.abs(u), 1.0, atol=1e-14)

    def test_moments(self):
        p, n = 4, 10**6
        u = sample_sphere(p, RngStream(11), size=n)
        a2 = np.abs(u) ** 2
        # E|u_q|^2 = 1/p
        for q in range(p):
            se = mc_se(a2[:, q])
            assert abs(a2[:, q].mean() - 1 / p) < 3 * se
        # E|u_q|^4 = 2/(p(p+1))
        a4 = a2**2
        for q in range(p):
            se = mc_se(a4[:, q])
            assert abs(a4[:, q].mean() - 2 / (p * (p + 1))) < 3 * se
        # E|u_q|^2 |u_r|^2 = 1/(p(p+1)) for q != r
        cross = a2[:, 0] * a2[:, 1]
        assert abs(cross.mean() - 1 / (p * (p + 1))) < 3 * mc_se(cross)

    def test_rejects_p0(self):
        with pytest.raises(ValueError):
            sample_sphere(0, RngStream(1))


class TestSampleModular:
    def test_gaussian_second_and_fourth_moment(self):
        p, n = 4, 10**6
        r = sample_modular(Gaussian(), p, RngStream(21), size=n)
        r2, r4 = r**2, r**4
        assert abs(r2.mean() - p) < 3 * mc_se(r2)
        assert abs(r4.mean() - p * (p + 1)) < 3 * mc_se(r4)

    def test_t8_fourth_moment(self):
        p = 4
        r = sample_modular(StudentT(8.0), p, RngStream(22), size=2 * 10**6)
        terms = r**4 / (p * (p + 1))
        assert abs(terms.mean() - 1.0 - 0.5) < 3 * mc_se(terms)

    def test_k2_kurtosis(self):
        p = 4
        r = sample_modular(CompoundGaussianK(2.0), p, RngStream(23), size=10**6)
        terms = r**4 / (p * (p + 1))
        assert abs(terms.mean() - 1.0 - 0.5) < 3 * mc_se(terms)

    def test_scalar_draw(self):
        r = sample_modular(Gaussian(), 3, RngStream(2))
        assert isinstance(r, float) and r > 0

    def test_rejects_p0(self):
        with pytest.raises(ValueError, match="^p must be >= 1, got 0$"):
            sample_modular(Gaussian(), 0, RngStream(1))

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_draw_order(self, family):
        # the chi-square factor of r^2 first, then the texture
        p, n = 3, 101
        r = sample_modular(family, p, RngStream(25, 2), size=n)
        gen = RngStream(25, 2).generator()
        q = 0.5 * gen.chisquare(2 * p, size=n)
        np.testing.assert_array_equal(r, np.sqrt(q * _texture_by_hand(gen, family, n)))

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "family", [Gaussian(), StudentT(12.0), CompoundGaussianK(2.0)]
    )
    def test_kurtosis_matches_family_all_dims(self, p, family):
        r = sample_modular(family, p, RngStream(24), size=5 * 10**5)
        terms = r**4 / (p * (p + 1))
        kappa = elliptical_kurtosis(family)
        assert abs(terms.mean() - 1.0 - kappa) < 3.5 * mc_se(terms)


class TestCESModel:
    def test_kappa_cached(self):
        m = CESModel(np.zeros(3), np.eye(3), StudentT(8.0))
        assert m.kappa == pytest.approx(0.5)
        assert m.dim == 3

    def test_sqrt_cached(self):
        gen = np.random.default_rng(30)
        cov = random_hpd(gen, 3)
        m = CESModel(np.zeros(3), cov, Gaussian())
        np.testing.assert_allclose(m.sqrt_cov @ m.sqrt_cov, cov, atol=1e-10)

    def test_rejects_indefinite_cov(self):
        with pytest.raises(NotPositiveDefinite):
            CESModel(np.zeros(2), np.diag([1.0, -1.0]), Gaussian())

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CESModel(np.zeros(3), np.eye(2), Gaussian())

    @pytest.mark.parametrize(
        "mu, message",
        [
            (np.zeros((2, 1)), "mu must be a 1-D vector, got shape (2, 1)"),
            (np.array([0.0, np.nan]), "mu contains non-finite entries"),
        ],
    )
    def test_rejects_a_bad_mu(self, mu, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CESModel(mu, np.eye(2), Gaussian())


class TestSampleCes:
    def test_identity_gaussian_covariance(self):
        model = CESModel(np.zeros(2), np.eye(2), Gaussian())
        x = sample_ces(model, 10**6, RngStream(31))
        emp = x.conj().T @ x / x.shape[0]
        # per-entry tolerance ~4 SE; entries of z z^H have unit-scale variance
        assert np.abs(emp - np.eye(2)).max() < 4.5 / np.sqrt(x.shape[0])

    def test_general_covariance_and_mean(self):
        gen = np.random.default_rng(32)
        cov = random_hpd(gen, 3)
        mu = np.array([1.0 + 1j, -2.0, 0.5j])
        model = CESModel(mu, cov, CompoundGaussianK(1.0))
        x = sample_ces(model, 4 * 10**5, RngStream(33))
        xbar = x.mean(axis=0)
        np.testing.assert_allclose(xbar, mu, atol=6e-2)
        dev = x - xbar
        emp = dev.T @ dev.conj() / (x.shape[0] - 1)
        scale = np.abs(np.diag(cov)).max()
        assert np.abs(emp - cov).max() < 0.05 * scale

    def test_deterministic(self):
        model = CESModel(np.zeros(4), np.eye(4), StudentT(6.0))
        a = sample_ces(model, 50, RngStream(34, 7))
        b = sample_ces(model, 50, RngStream(34, 7))
        c = sample_ces(model, 50, RngStream(34, 8))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unitary_invariance_of_spherical_moments(self):
        p, n = 3, 2 * 10**5
        model = CESModel(np.zeros(p), np.eye(p), CompoundGaussianK(1.0))
        z = sample_ces(model, n, RngStream(35))
        q = random_unitary(np.random.default_rng(36), p)
        zq = z @ q.T
        for data in (z, zq):
            assert np.abs(data.mean(axis=0)).max() < 4 / np.sqrt(n)
            cov = data.conj().T @ data / n
            assert np.abs(cov - np.eye(p)).max() < 4 * 2.0 / np.sqrt(n)
        # fourth moments of single coordinates agree between z and Qz
        m4 = (np.abs(z) ** 4).mean(axis=0)
        m4q = (np.abs(zq) ** 4).mean(axis=0)
        se = mc_se(np.abs(z[:, 0]) ** 4) + mc_se(np.abs(zq[:, 0]) ** 4)
        assert np.abs(m4 - m4q).max() < 4 * se

    def test_modulus_direction_independence(self):
        p, n = 4, 2 * 10**5
        model = CESModel(np.zeros(p), np.eye(p), StudentT(6.0))
        x = sample_ces(model, n, RngStream(37))
        r2 = np.sum(np.abs(x) ** 2, axis=1)
        u2 = np.abs(x) ** 2 / r2[:, None]
        for q in range(p):
            c = np.corrcoef(r2, u2[:, q])[0, 1]
            assert abs(c) < 4 / np.sqrt(n)

    def test_rejects_nonpositive_n(self):
        model = CESModel(np.zeros(2), np.eye(2), Gaussian())
        with pytest.raises(ValueError):
            sample_ces(model, 0, RngStream(1))

    @pytest.mark.parametrize(
        "family, cov, mu",
        [pytest.param(f, None, DRAW_MU, id=str(f)) for f in FAMILIES]
        + [
            pytest.param(Gaussian(), np.eye(3), np.zeros(3), id="identity-zero-mu"),
            pytest.param(CompoundGaussianK(0.5), np.eye(3), DRAW_MU, id="identity-mu"),
            pytest.param(CompoundGaussianK(0.5), None, np.zeros(3), id="cov-zero-mu"),
        ],
    )
    def test_compound_gaussian_draw(self, family, cov, mu):
        # stream contract 4: one complex normal row z, then one texture tau per row;
        # the sampler skips the product with an identity C and the sum with a zero
        # mu, and must still give the bits of the full expression
        if cov is None:
            cov = random_hpd(np.random.default_rng(40), 3)
        model = CESModel(mu, cov, family)
        n = 257
        x = sample_ces(model, n, RngStream(41, 5))
        ref_gen = RngStream(41, 5).generator()
        z = ref_gen.standard_normal((n, 6)).view(np.complex128)
        tau = _texture_by_hand(ref_gen, family, n)
        ref = mu + (np.sqrt(tau / 2)[:, None] * z) @ model.sqrt_cov.T
        np.testing.assert_array_equal(x, ref)

    @pytest.mark.parametrize(
        "family, cov, mu",
        [
            pytest.param(CompoundGaussianK(0.5), None, DRAW_MU, id="k:0.5-cov-mu"),
            pytest.param(StudentT(10.0), None, np.zeros(3), id="t:10-cov"),
            pytest.param(CompoundGaussianK(0.5), np.eye(3), DRAW_MU, id="identity-mu"),
        ],
    )
    def test_draw_into_reused_buffers(self, family, cov, mu):
        # the Monte Carlo chunks draw into prefixes of workspace buffers that
        # hold NaN or an earlier draw: the bits are those of sample_ces, the
        # data are the prefix itself, whatever the root, and nothing past the
        # prefix is written
        if cov is None:
            cov = random_hpd(np.random.default_rng(44), 3)
        model = CESModel(mu, cov, family)
        n = 257
        y = np.full(2 * n * 6, np.nan)
        for stream in (5, 6):
            prefix = y[: n * 6].reshape(n, 6)
            x = _draw_ces(model, RngStream(45, stream), prefix)
            np.testing.assert_array_equal(x, sample_ces(model, n, RngStream(45, stream)))
            assert np.shares_memory(x, prefix)
            assert np.isnan(y[n * 6 :]).all()

    @pytest.mark.parametrize("root", ["random", "spiked"])
    def test_blocked_root_product_has_the_bits_of_one_gemm(self, root):
        # the root multiplies the rows in place a block at a time; the data
        # keep the bits of one (N, p) @ (p, p) product into a fresh array at
        # and around the block boundaries, where a lone row would go to gemv
        p = 4
        cov = random_hpd(np.random.default_rng(46), p) if root == "random" else spiked_covariance(p, 2.0)
        model = CESModel(np.array([1.0 - 2j, 0.5, -1j, 2.0]), cov, CompoundGaussianK(0.5))
        assert not model._identity_sqrt
        block = max(2, ces_sampler._ROOT_BLOCK_BYTES // (16 * p))
        for n in (1, block - 1, block, block + 1, 2 * block + 1, 3 * block + 7):
            gen = RngStream(47, n).generator()
            y = gen.standard_normal((n, 2 * p))
            y *= np.sqrt(0.5 * _texture_by_hand(gen, model.family, n))[:, None]
            ref = y.view(np.complex128) @ model.sqrt_cov.T
            ref += model.mu
            np.testing.assert_array_equal(sample_ces(model, n, RngStream(47, n)), ref, err_msg=f"N = {n}")

    @pytest.mark.parametrize(
        "family",
        [Gaussian(), StudentT(12.0), CompoundGaussianK(2.0), CompoundGaussianK(0.5), CompoundGaussianK(0.3)],
        ids=str,
    )
    def test_law_at_general_covariance(self, family):
        # whitened rows w = C^{-1}(x - mu) = r u: E r^2 = p, E r^4 = p(p+1)(1 + kappa),
        # and u uniform on the sphere, E|u_q|^4 = 2/(p(p+1)); t:12 keeps E r^8 finite,
        # and k:0.5 and k:0.3 take the boosted gamma texture
        p, n = 3, 4 * 10**5
        cov = random_hpd(np.random.default_rng(42), p)
        mu = np.array([2.0, -1j, 0.5 + 0.5j])
        model = CESModel(mu, cov, family)
        x = sample_ces(model, n, RngStream(43))
        w = np.linalg.solve(model.sqrt_cov, (x - mu).T).T
        r2 = np.sum(np.abs(w) ** 2, axis=1)
        assert abs(r2.mean() - p) < 4 * mc_se(r2)
        terms = r2**2 / (p * (p + 1))
        assert abs(terms.mean() - 1.0 - elliptical_kurtosis(family)) < 4 * mc_se(terms)
        u4 = np.abs(w) ** 4 / r2[:, None] ** 2
        for q in range(p):
            assert abs(u4[:, q].mean() - 2 / (p * (p + 1))) < 4 * mc_se(u4[:, q])


class TestRngStream:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_repeatable(self):
        a = RngStream(5, 9).generator().standard_normal(8)
        b = RngStream(5, 9).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (5, 9), (2**64 - 1, 3)])
    def test_is_sfc64_seeded_by_the_pair(self, seed, stream_id):
        # stream contract 4: SFC64 seeded by SeedSequence((seed, stream_id))
        gen = RngStream(seed, stream_id).generator()
        ref = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, stream_id))))
        assert isinstance(gen.bit_generator, np.random.SFC64)
        np.testing.assert_array_equal(gen.standard_normal(16), ref.standard_normal(16))
        np.testing.assert_array_equal(gen.random(16), ref.random(16))

    def test_draw_speed_does_not_depend_on_a_preceding_gemm(self):
        # OpenBLAS's complex GEMM can leave the upper halves of the vector
        # registers dirty, and numpy's SSE random code then ran 2-4x slower;
        # generator() clears that state, so a draw right after `m @ m` takes
        # as long as one after a plain float add
        model = CESModel(np.zeros(4), np.eye(4), CompoundGaussianK(0.5))
        m = random_hpd(np.random.default_rng(46), 4)
        a = np.ones(64)
        times = {"clean": [], "after_gemm": []}
        for _ in range(15):  # interleaved, so that both see the same load
            for name, before in (("clean", lambda: np.add(a, a)), ("after_gemm", lambda: m @ m)):
                before()
                t0 = time.perf_counter()
                sample_ces(model, 5120, RngStream(47))
                times[name].append(time.perf_counter() - t0)
        clean, after_gemm = min(times["clean"]), min(times["after_gemm"])
        assert after_gemm <= 1.5 * clean, (after_gemm, clean)
