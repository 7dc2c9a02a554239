import sys

import numpy as np
import pytest

from cescov import lin_core
from cescov.ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    StudentT,
    kurtosis_lower_bound,
    sample_ces,
)
from cescov.errors import DegenerateCoordinate, SingularSCM, TooFewObservations
from cescov.estimators import (
    _GRAM_BLOCK_BYTES,
    _gram_coords,
    _scm_stack,
    _weighted_scm_stack,
    estimate_kurtosis,
    require_dataset,
    sample_mean,
    sample_variance,
    scm,
    weighted_scm,
)
from cescov.lin_core import _hermitian_coords, _Workspace, centering_matrix

from util import random_complex, random_hpd, random_unitary, rows_of, stack_of


@pytest.mark.parametrize(
    "estimate",
    [
        scm,
        lambda x: weighted_scm(x, np.ones_like),
        lambda x: weighted_scm(x, lambda d: d),
        estimate_kurtosis,
    ],
    ids=["scm", "wscm:one", "wscm:fobi", "kurtosis"],
)
def test_estimators_leave_the_callers_data_unchanged(estimate):
    # a C-contiguous complex128 dataset reaches the stacked cores without a
    # copy from require_dataset or from the public functions
    x = random_complex(np.random.default_rng(57), 12, 3)
    assert require_dataset(x) is x
    before = x.tobytes()
    estimate(x)
    assert x.tobytes() == before


class TestScmStack:
    """The stacked SCM of the rows of an (m, n, p) stack against a direct
    complex computation, one dataset at a time."""

    N = 30  # above every p, so that weighted_scm is defined

    @pytest.fixture(scope="class", params=[1, 2, 4, 10, 24], ids=lambda p: f"p{p}")
    def p(self, request):
        return request.param

    @pytest.fixture(scope="class", params=[1, 3, 512], ids=lambda m: f"m{m}")
    def stack(self, request, p):
        gen = np.random.default_rng(1000 * p + request.param)
        x = random_complex(gen, request.param, self.N, p) + random_complex(gen, 1, 1, p)
        rows = rows_of(x)
        h, xbar = _scm_stack(rows, _Workspace())
        return x, h.copy(), xbar.copy(), rows

    def test_coordinates_match_the_complex_definition(self, stack):
        x, h, _, _ = stack
        m, n, p = x.shape
        d = x - x.mean(axis=1, keepdims=True)
        coords = _hermitian_coords(p)
        for i in range(m):
            ref = d[i].T @ d[i].conj() / (n - 1)  # sum_k d_k d_k^H / (n - 1)
            got = coords.to_matrix(h[i])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_matrices_are_exactly_hermitian(self, stack):
        s = _hermitian_coords(stack[0].shape[-1]).to_matrix(stack[1])
        np.testing.assert_array_equal(s, s.conj().swapaxes(-1, -2))

    def test_means_keep_the_bits_of_numpy_mean(self, stack):
        x, _, xbar, _ = stack
        for i in range(len(x)):
            np.testing.assert_array_equal(xbar[i], x[i].mean(axis=0))

    def test_rows_are_the_deviations_observation_major(self, stack):
        x, _, xbar, rows = stack
        np.testing.assert_array_equal(stack_of(rows), x - xbar[:, None, :])

    def test_public_estimators_leave_the_callers_data_unchanged(self, p):
        x = random_complex(np.random.default_rng(p), self.N, p)
        before = x.tobytes()
        scm(x)
        weighted_scm(x, lambda d: d)
        estimate_kurtosis(x)
        assert x.tobytes() == before


@pytest.mark.parametrize("p", [1, 2, 4, 10])
@pytest.mark.parametrize(
    "core",
    [lambda rows, ws: _scm_stack(rows, ws), lambda rows, ws: _weighted_scm_stack(rows, lambda d: d, ws)],
    ids=["scm", "wscm:fobi"],
)
def test_stacked_cores_centre_the_rows_they_are_given(core, p):
    x = random_complex(np.random.default_rng(70 + p), 5, 30, p) + 1.0 - 0.5j
    rows = rows_of(x)
    core(rows, _Workspace())
    xbar = np.stack([d.mean(axis=0) for d in x])  # numpy's mean of each dataset
    np.testing.assert_array_equal(stack_of(rows).view(np.uint64), (x - xbar[:, None]).view(np.uint64))


@pytest.mark.parametrize("p", [1, 2, 4, 10, 24])
def test_unit_weights_give_the_unweighted_coordinates(p):
    # two full blocks of Grams and a ragged one of 3 replications
    n = 10
    m = 2 * (_GRAM_BLOCK_BYTES // (8 * 2 * p * (2 * p + n))) + 3
    rows = np.random.default_rng(95 + p).standard_normal((n, m, 2 * p))
    plain = _gram_coords(rows, None, 0.25, _Workspace())
    unit = _gram_coords(rows, np.ones((m, n)), 0.25, _Workspace())
    np.testing.assert_array_equal(unit.view(np.uint64), plain.view(np.uint64))


@pytest.mark.parametrize(
    "weight_fn",
    [
        lambda d: d + 0j,
        lambda d: d.astype(str),
        lambda d: -d,
        lambda d: np.full_like(d, np.nan),
        lambda d: d[:-1],
    ],
    ids=["complex", "string", "negative", "nan", "shape"],
)
def test_weighted_scm_refuses_weights_that_are_not_finite_nonnegative_reals(weight_fn):
    x = random_complex(np.random.default_rng(96), 20, 3)
    with pytest.raises(ValueError, match="^weight function must map d >= 0 to finite nonnegative weights$"):
        weighted_scm(x, weight_fn)


class TestPooledWorkspaces:
    """The public estimators borrow their workspace from the pool of
    ``lin_core`` and return results that own their memory."""

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_results_survive_later_calls(self, monkeypatch, p):
        monkeypatch.setattr(lin_core, "_IDLE", [])
        gen = np.random.default_rng(80 + p)
        x = random_complex(gen, 40, p) + 1.0
        first = scm(x), weighted_scm(x, lambda d: d)
        want = first[0].s.copy(), first[0].xbar.copy(), first[1].copy()
        (ws,) = lin_core._IDLE  # one workspace served both calls
        for a in (first[0].s, first[0].xbar, first[1]):
            assert not any(np.shares_memory(a, buf) for buf in ws.buffers.values())
        for _ in range(3):  # other data of the same shape fills the same buffers
            y = random_complex(gen, 40, p) - 2.0
            scm(y), weighted_scm(y, np.ones_like), estimate_kurtosis(y)
        for got, ref in zip((first[0].s, first[0].xbar, first[1]), want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_fortran_ordered_data_gives_the_same_bits(self, p):
        x = random_complex(np.random.default_rng(90 + p), 50, p) + 0.5
        f = np.asfortranarray(x)
        assert p == 1 or not f.flags.c_contiguous
        c, r = scm(x), scm(f)
        np.testing.assert_array_equal(r.s, c.s)
        np.testing.assert_array_equal(r.xbar, c.xbar)
        for w in (np.ones_like, lambda d: d):
            np.testing.assert_array_equal(weighted_scm(f, w), weighted_scm(x, w))
        assert estimate_kurtosis(f) == estimate_kurtosis(x)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts the minor page faults of Linux")
    @pytest.mark.parametrize("estimate", [scm, estimate_kurtosis], ids=["scm", "kurtosis"])
    def test_warm_call_takes_few_page_faults(self, monkeypatch, estimate):
        # a warm call reuses a pooled workspace; with a fresh workspace per
        # call each took 593 minor faults on Linux (10^4 x 8)
        import resource

        monkeypatch.setattr(lin_core, "_IDLE", [])
        x = random_complex(np.random.default_rng(95), 10_000, 8)
        estimate(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate(x)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50


def test_require_dataset_rejects_a_1d_array():
    with pytest.raises(ValueError, match=r"^dataset must be 2-D, got shape \(3,\)$"):
        require_dataset(np.ones(3))


class TestSampleMean:
    def test_single_row(self):
        x = np.array([[1.0 + 2j, 3.0]])
        np.testing.assert_array_equal(sample_mean(x), x[0])

    def test_scalar_case(self):
        x = np.array([[1.0 + 1j], [3.0 - 1j]])
        assert sample_mean(x)[0] == pytest.approx(2.0)

    def test_affine_linearity(self):
        gen = np.random.default_rng(50)
        x = random_complex(gen, 20, 3)
        a = random_complex(gen, 3, 3)
        shift = random_complex(gen, 3)
        lhs = sample_mean(x @ a.T + shift)
        rhs = a @ sample_mean(x) + shift
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestScm:
    def test_identical_rows_give_zero(self):
        x = np.tile(np.array([1.0 + 1j, 2.0]), (5, 1))
        np.testing.assert_allclose(scm(x).s, 0.0, atol=1e-14)

    def test_scalar_example(self):
        assert scm(np.array([[0.0], [2.0]])).s[0, 0] == pytest.approx(2.0)

    def test_affine_equivariance(self):
        gen = np.random.default_rng(51)
        x = random_complex(gen, 30, 4)
        a = random_complex(gen, 4, 4)  # invertible with probability one
        shift = random_complex(gen, 4)
        lhs = scm(x @ a.T + shift).s
        rhs = a @ scm(x).s @ a.conj().T
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12

    def test_translation_invariance(self):
        gen = np.random.default_rng(52)
        x = random_complex(gen, 25, 3)
        shift = random_complex(gen, 3)
        s0, s1 = scm(x).s, scm(x + shift).s
        assert np.abs(s0 - s1).max() / np.abs(s0).max() < 1e-12

    def test_centering_matrix_form_agrees(self):
        gen = np.random.default_rng(53)
        x = random_complex(gen, 12, 4)
        n = x.shape[0]
        via_h = x.T @ centering_matrix(n) @ x.conj() / (n - 1)
        s = scm(x).s
        assert np.abs(s - via_h).max() / np.abs(s).max() < 1e-12

    def test_psd_and_hermitian(self):
        gen = np.random.default_rng(54)
        for n, p in ((5, 3), (3, 5), (50, 2)):
            s = scm(random_complex(gen, n, p)).s
            np.testing.assert_array_equal(s, s.conj().T)
            assert np.linalg.eigvalsh(s).min() >= -1e-12 * np.abs(s).max()

    def test_unbiasedness_monte_carlo(self):
        gen = np.random.default_rng(55)
        cov = random_hpd(gen, 2)
        model = CESModel(np.zeros(2), cov, CompoundGaussianK(1.0))
        reps, n = 20_000, 10
        acc = np.zeros((2, 2), dtype=complex)
        sq = np.zeros((2, 2))
        for r in range(reps):
            s = scm(sample_ces(model, n, RngStream(56, r))).s
            acc += s
            sq += np.abs(s) ** 2
        mean = acc / reps
        se = np.sqrt(np.maximum(sq / reps - np.abs(mean) ** 2, 0) / reps)
        assert (np.abs(mean - cov) < 4 * se).all()

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            scm(np.array([[1.0, 2.0]]))


class TestSampleVariance:
    def test_constant_vector(self):
        assert sample_variance(np.full(6, 2.0 + 1j)) == 0.0

    def test_two_points(self):
        assert sample_variance(np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_fourth_roots(self):
        x = np.array([1.0, 1j, -1.0, -1j])
        assert sample_variance(x) == pytest.approx(4.0 / 3.0)

    def test_matches_scm_p1(self):
        gen = np.random.default_rng(57)
        x = random_complex(gen, 9)
        assert sample_variance(x) == pytest.approx(scm(x[:, None]).s[0, 0].real, rel=1e-14)

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            sample_variance(np.array([1.0]))

    def test_rejects_a_2d_sample(self):
        with pytest.raises(ValueError, match=r"^expected a 1-D sample, got shape \(3, 2\)$"):
            sample_variance(np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_sample_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            sample_variance(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("n", [2, 3, 9, 100])
    def test_bits_of_the_scm_p1(self, n):
        x = random_complex(np.random.default_rng(n), n)
        assert sample_variance(x) == scm(x[:, None]).s[0, 0].real


class TestWeightedScm:
    def test_constant_weight_recovers_scaled_scm(self):
        gen = np.random.default_rng(58)
        x = random_complex(gen, 15, 3)
        n = x.shape[0]
        r = weighted_scm(x, lambda d: np.ones_like(d))
        np.testing.assert_allclose(r, (n - 1) / n * scm(x).s, rtol=1e-13, atol=1e-15)

    def test_affine_equivariance(self):
        gen = np.random.default_rng(59)
        x = random_complex(gen, 20, 3)
        a = random_complex(gen, 3, 3)
        shift = random_complex(gen, 3)
        lhs = weighted_scm(x @ a.T + shift, lambda d: d)
        rhs = a @ weighted_scm(x, lambda d: d) @ a.conj().T
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-10

    def test_fobi_mean_is_isotropic_at_spherical_gaussian(self):
        # E[R] proportional to the identity at a spherical model
        p, n, reps = 2, 12, 4000
        model = CESModel(np.zeros(p), np.eye(p), Gaussian())
        acc = np.zeros((p, p), dtype=complex)
        sq = np.zeros((p, p))
        for r in range(reps):
            w = weighted_scm(sample_ces(model, n, RngStream(60, r)), lambda d: d)
            acc += w
            sq += np.abs(w) ** 2
        mean = acc / reps
        se = np.sqrt(np.maximum(sq / reps - np.abs(mean) ** 2, 0) / reps)
        sigma = np.diag(mean).real.mean()
        assert (np.abs(mean - sigma * np.eye(p)) < 4 * se).all()

    def test_singular_when_too_few_rows(self):
        gen = np.random.default_rng(61)
        with pytest.raises(SingularSCM):
            weighted_scm(random_complex(gen, 3, 4), lambda d: d)

    def test_singular_when_rank_deficient(self):
        gen = np.random.default_rng(62)
        col = random_complex(gen, 8)
        x = np.stack([col, 2 * col], axis=1)  # rank-one data
        with pytest.raises(SingularSCM):
            weighted_scm(x, lambda d: d)


class TestEstimateKurtosis:
    def test_gaussian_large_sample(self):
        model = CESModel(np.zeros(4), np.eye(4), Gaussian())
        x = sample_ces(model, 10**5, RngStream(63))
        assert abs(estimate_kurtosis(x)) < 0.02

    def test_student_t8_large_sample(self):
        # eighth moments are marginal at dof 8, so the tolerance is loose
        model = CESModel(np.zeros(4), np.eye(4), StudentT(8.0))
        x = sample_ces(model, 4 * 10**5, RngStream(64))
        assert estimate_kurtosis(x) == pytest.approx(0.5, abs=0.1)

    def test_k_family_with_general_covariance(self):
        gen = np.random.default_rng(65)
        cov = random_hpd(gen, 3)
        model = CESModel(np.zeros(3), cov, CompoundGaussianK(1.0))
        x = sample_ces(model, 4 * 10**5, RngStream(66))
        assert estimate_kurtosis(x) == pytest.approx(1.0, abs=0.12)

    def test_clipping_at_lower_bound(self):
        # unit-modulus coordinates have per-coordinate excess kurtosis -1,
        # so the raw estimate -0.5 sits below -1/(p+1) and is clipped
        phases = np.exp(2j * np.pi * np.arange(8) / 8)
        x = np.stack([phases, np.roll(phases, 3)], axis=1)
        est = estimate_kurtosis(x)
        assert est == pytest.approx(kurtosis_lower_bound(2) + 1e-6)

    def test_degenerate_coordinate(self):
        x = np.ones((10, 2), dtype=complex)
        x[:, 0] = np.arange(10)
        with pytest.raises(DegenerateCoordinate):
            estimate_kurtosis(x)

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            estimate_kurtosis(np.ones((3, 2)) + 0j)

    def test_scaling_invariance(self):
        gen = np.random.default_rng(67)
        x = random_complex(gen, 500, 3)
        scales = np.array([0.1, 3.0, 42.0])
        a = estimate_kurtosis(x)
        b = estimate_kurtosis(x * scales)
        assert a == pytest.approx(b, rel=1e-10)

    def test_rotation_invariance_in_expectation(self):
        model = CESModel(np.zeros(3), np.eye(3), CompoundGaussianK(2.0))
        x = sample_ces(model, 2 * 10**5, RngStream(68))
        q = random_unitary(np.random.default_rng(69), 3)
        a = estimate_kurtosis(x)
        b = estimate_kurtosis(x @ q.T)
        assert a == pytest.approx(b, abs=0.05)
