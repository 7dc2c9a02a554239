import argparse
import functools
import math
import operator
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cescov
from cescov import lin_core
from cescov.ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    StudentT,
    sample_ces,
)
from cescov.cli import build_parser
from cescov.errors import InvalidFamily, SingularSCM
from cescov import mc_verify
from cescov.estimators import _scm_stack, _weighted_scm_stack, estimate_kurtosis, scm, weighted_scm
from cescov.lin_core import (
    _hermitian_coords,
    _vec_transpose_index,
    _Workspace,
    scale_and_sphericity,
    spiked_covariance,
    vec,
)
from cescov.mc_verify import (
    CHUNK,
    STREAM_CONTRACT,
    STATISTICS,
    TARGETS,
    EmpiricalMoments,
    MCConfig,
    Tolerances,
    compare_to_theory,
    empirical_moments,
    radial_estimate_from_moments,
    verify_oracle_efficiency,
    verify_sphere_moments,
    verify_target,
    _chunk_kernel,
    _chunk_size,
    _draw_chunk,
    _mean_and_se,
    _merge,
    _moment_sums,
    _moments_from_sums,
    _oracle_sums,
    _plugin_beta,
    _reduce_chunks,
    _sidak_limit,
    _sphere_kernel,
    _STATISTICS,
)
from cescov.theory import (
    CovariancePair,
    affine_equivariant_var,
    beta_opt,
    nmse_from_sphericity,
    radial_var_structure,
    scm_radial_structure,
)

from util import random_hpd, report_digests, rows_of, stack_of


def spherical_model(p, family=None):
    return CESModel(np.zeros(p), np.eye(p), family or Gaussian())


@pytest.fixture(scope="module")
def gaussian_run():
    """Shared medium-size spherical Gaussian run: p=2, n=10, R=50k."""
    cfg = MCConfig(replications=50_000, n=10, model=spherical_model(2), seed=123)
    return cfg, empirical_moments(cfg)


class TestMCConfig:
    def test_validation(self):
        model = spherical_model(2)
        with pytest.raises(ValueError):
            MCConfig(replications=1, n=10, model=model)
        with pytest.raises(ValueError):
            MCConfig(replications=10, n=1, model=model)
        with pytest.raises(ValueError):
            MCConfig(replications=10, n=10, model=model, workers=0)
        with pytest.raises(ValueError):
            MCConfig(replications=10, n=10, model=model, statistic="median")

    @pytest.mark.parametrize("name", ["wscm:two", "wscm:", "scm:one"])
    def test_refuses_unknown_statistics(self, name):
        with pytest.raises(ValueError) as err:
            MCConfig(replications=10, n=10, model=spherical_model(2), statistic=name)
        assert str(err.value) == f"unknown statistic {name!r}; expected one of {STATISTICS}"

    def test_verify_target_refuses_an_unknown_target(self):
        with pytest.raises(ValueError) as err:
            verify_target("nope", "gaussian", 10, 2, "identity", 10, 1)
        assert str(err.value) == f"unknown target 'nope'; expected one of {TARGETS}"

    def test_cli_offers_every_statistic(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (stat,) = [a for a in sub.choices["mc-verify"]._actions if a.dest == "stat"]
        assert tuple(stat.choices) == STATISTICS

    @pytest.mark.parametrize("dof", [6.0, 8.0])
    def test_refuses_infinite_eighth_moment(self, dof):
        # the SEs of var entries, the MSE and the oracle ratio are eighth order in x
        with pytest.raises(InvalidFamily, match=rf"t:{dof:g} has infinite E\[r\^8\]"):
            MCConfig(replications=10, n=10, model=spherical_model(2, StudentT(dof)))

    def test_accepts_finite_eighth_moment(self):
        MCConfig(replications=10, n=10, model=spherical_model(2, StudentT(8.5)))


def test_readme_names_the_stream_contract():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Determinism", 1)[1].split("\n## ", 1)[0]
    assert f"stream contract {STREAM_CONTRACT}" in " ".join(section.split())


def test_readme_lists_the_checks_of_each_target():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## JSON schemas", 1)[1].split("\n## ", 1)[0]
    listed = {target: re.findall(r"`(\w+)`", names)
              for target, names in re.findall(r"^ +\* `(\w+)`: (.*)$", section, re.M)}
    assert set(listed) == set(TARGETS)
    dists = {"thm3": "k:0.5", "oracle": "k:0.5"}
    for target in TARGETS:
        report = verify_target(target, dists.get(target, "gaussian"), 10, 2, "diag:1,3", 10**4, 1)
        assert list(report.to_dict()["checks"]) == listed[target], target


class TestEmpiricalMoments:
    def test_degenerate_two_replications(self):
        cfg = MCConfig(replications=2, n=5, model=spherical_model(2), seed=1)
        emp = empirical_moments(cfg)
        assert np.isfinite(emp.var_emp).all()
        assert emp.se_scale > 0.01  # hopeless precision, but well defined

    def test_mean_matches_covariance(self, gaussian_run):
        _, emp = gaussian_run
        dev = np.abs(emp.mean_stat - np.eye(2))
        assert (dev < 4 * emp.se_mean).all()

    def test_var_entry_at_offdiagonal_matches_tau1(self, gaussian_run):
        _, emp = gaussian_run
        est = radial_estimate_from_moments(emp)
        assert est.tau1 == pytest.approx(1 / 9, rel=0.03)
        assert abs(est.tau2) < 4 * est.se_tau2
        assert est.sigma == pytest.approx(1.0, abs=4 * est.se_sigma)

    def test_var_emp_hermitian_psd(self, gaussian_run):
        _, emp = gaussian_run
        np.testing.assert_array_equal(emp.var_emp, emp.var_emp.conj().T)
        eigs = np.linalg.eigvalsh(emp.var_emp)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_mse_consistency_identity(self, gaussian_run):
        cfg, emp = gaussian_run
        r = emp.replications
        recon = np.trace(emp.var_emp).real * (r - 1) / r + np.sum(
            np.abs(emp.mean_stat - cfg.model.cov) ** 2
        )
        assert recon == pytest.approx(emp.mse_emp, rel=1e-10)

    def test_pvar_equals_var_commutation_empirically(self, gaussian_run):
        # the derived pvar_emp (var K_p) equals the pseudo-covariance
        # sum_r w_r w_r^T / (R - 1) of the centred vec(T_r), built here from
        # the same chunks; a row permutation K var would give its conjugate
        cfg, emp = gaussian_run
        r, chunk = cfg.replications, _chunk_size(cfg.n, cfg.model.dim)
        stat = _STATISTICS[cfg.statistic]
        t = _hermitian_coords(cfg.model.dim).to_matrix(np.concatenate(
            [stat(_draw_chunk(cfg, c, min(chunk, r - lo), _Workspace()), _Workspace())
             for c, lo in enumerate(range(0, r, chunk))]
        ))
        w = t.swapaxes(-1, -2).reshape(r, -1)  # row r is vec(T_r)
        w = w - w.mean(axis=0)
        np.testing.assert_allclose(emp.pvar_emp, w.T @ w / (r - 1), rtol=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("statistic", ["scm", "wscm:one", "wscm:fobi"])
    def test_matches_direct_complex_accumulation(self, statistic, p):
        # moments accumulated on the real coordinates equal those of the
        # complex vec(T_r) summed directly; a chunk and 7 replications end
        # in a ragged chunk, and p = 1 has no off-diagonal coordinate
        chunk = _chunk_size(8, p)
        r = chunk + 7
        cov = random_hpd(np.random.default_rng(40 + p), p)
        model = CESModel(np.zeros(p), cov, CompoundGaussianK(0.5))
        cfg = MCConfig(replications=r, n=8, model=model, statistic=statistic, seed=41)
        emp = empirical_moments(cfg)
        single = {
            "scm": lambda x: scm(x).s,
            "wscm:one": lambda x: weighted_scm(x, np.ones_like),
            "wscm:fobi": lambda x: weighted_scm(x, lambda d: d),
        }[statistic]
        t = np.stack([
            single(x)
            for c, lo in enumerate(range(0, r, chunk))
            for x in stack_of(_draw_chunk(cfg, c, min(chunk, r - lo), _Workspace()))
        ])
        w = t.swapaxes(-1, -2).reshape(r, -1) - vec(cov)  # row r is vec(T_r - M)
        mean_w = w.mean(axis=0)
        var = (w.T @ w.conj() - r * np.outer(mean_w, mean_w.conj())) / (r - 1)
        a2 = np.abs(w) ** 2
        se_var = np.sqrt(np.maximum(a2.T @ a2 / r - np.abs(var) ** 2, 0.0) / r)
        sq = a2.sum(axis=1)
        np.testing.assert_allclose(emp.var_emp, var, rtol=1e-12)
        np.testing.assert_allclose(emp.se_var, se_var, rtol=1e-12)
        np.testing.assert_allclose(emp.mean_stat, t.mean(axis=0), rtol=1e-12)
        assert emp.mse_emp == pytest.approx(sq.mean(), rel=1e-12)
        assert emp.se_mse == pytest.approx(np.sqrt((sq @ sq / r - sq.mean() ** 2) / r), rel=1e-12)
        # vec(T^T) = vec(T)[t] and T^T = conj(T): exact on the rebuilt covariance
        t_idx = _vec_transpose_index(p)
        np.testing.assert_array_equal(emp.var_emp[t_idx][:, t_idx], emp.var_emp.conj())

    def test_determinism_across_workers(self):
        # ten chunks, more than the workers, and two chunks; 7 replications
        # end each grid in a ragged chunk
        chunk = _chunk_size(8, 2)
        for replications, workers_list in ((9 * chunk + 7, (4, 16)), (2 * chunk + 7, (2,))):
            cfg = MCConfig(replications=replications, n=8, model=spherical_model(2), seed=7)
            base = empirical_moments(cfg)
            for workers in workers_list:
                other = empirical_moments(replace(cfg, workers=workers))
                np.testing.assert_array_equal(base.var_emp, other.var_emp)
                np.testing.assert_array_equal(base.pvar_emp, other.pvar_emp)
                np.testing.assert_array_equal(base.mean_stat, other.mean_stat)
                assert base.mse_emp == other.mse_emp
                assert base.se_scale == other.se_scale

    def test_se_scales_with_replications(self):
        model = spherical_model(2)
        full = empirical_moments(MCConfig(replications=8192, n=10, model=model, seed=9))
        half = empirical_moments(MCConfig(replications=4096, n=10, model=model, seed=9))
        ratio = half.se_scale / full.se_scale
        assert 1.2 <= ratio <= 1.7

    def test_weighted_constant_is_exactly_scaled_scm(self):
        # u(d) = 1 gives (n-1)/n * S replication by replication, hence
        # exactly scaled moments on identical streams
        n = 10
        cfg_s = MCConfig(replications=3000, n=n, model=spherical_model(2), seed=11)
        cfg_w = MCConfig(
            replications=3000, n=n, model=spherical_model(2), seed=11, statistic="wscm:one"
        )
        est_s = radial_estimate_from_moments(empirical_moments(cfg_s))
        est_w = radial_estimate_from_moments(empirical_moments(cfg_w))
        c = (n - 1) / n
        assert est_w.sigma == pytest.approx(c * est_s.sigma, rel=1e-12)
        assert est_w.tau1 == pytest.approx(c**2 * est_s.tau1, rel=1e-12)
        assert est_w.tau2 == pytest.approx(c**2 * est_s.tau2, rel=1e-9, abs=1e-14)

    def test_fobi_statistic_runs(self):
        cfg = MCConfig(
            replications=2000, n=12, model=spherical_model(2), seed=13, statistic="wscm:fobi"
        )
        est = radial_estimate_from_moments(empirical_moments(cfg))
        assert est.tau1 > 0


def _spiked_sums(p, r):
    """Merged partial moment sums of r transport replications (k:0.5,
    spiked gamma = 2, n = 10) at dimension p, and the shift they are taken at."""
    cov = spiked_covariance(p, 2.0)
    cfg = MCConfig(replications=r, n=10, model=CESModel(np.zeros(p), cov, CompoundGaussianK(0.5)), seed=61)
    ref = _hermitian_coords(p).from_matrix(cov)
    kernel = partial(_chunk_kernel, cfg=cfg, sums=partial(_moment_sums, ref=ref))
    return _reduce_chunks(kernel, r, _chunk_size(10, p), 1), ref


class TestMomentsFromSums:
    """The step after the chunk reduce, which builds the p^2 x p^2 results."""

    @pytest.mark.parametrize("p", [10, 16])
    def test_bits_of_the_plain_expressions(self, p):
        r = CHUNK + 7
        tot, ref = _spiked_sums(p, r)
        assert set(tot) == {"s1", "s2", "f2", "b2", "bt"}
        coords = _hermitian_coords(p)
        # the expressions as written before the results were built in place
        mean_h = tot["s1"] / r
        a = (tot["s2"] - r * np.outer(mean_h, mean_h)) / (r - 1)
        re, im, s = coords.re, coords.im, coords.sign
        var = np.empty(a.shape, dtype=np.complex128)
        var.real = a[np.ix_(re, re)] + np.outer(s, s) * a[np.ix_(im, im)]
        var.imag = s[:, None] * a[np.ix_(im, re)] - s * a[np.ix_(re, im)]
        g2 = tot["f2"][np.ix_(re, re)] / r
        se_var = np.sqrt(np.maximum(g2 - np.abs(var) ** 2, 0.0) / r)

        emp = _moments_from_sums({k: np.copy(v) for k, v in tot.items()}, r, p, ref)
        bits = lambda x: np.ascontiguousarray(x).view(np.uint64)
        np.testing.assert_array_equal(bits(emp.var_emp), bits(var))
        np.testing.assert_array_equal(bits(emp.se_var), bits(se_var))
        assert emp.se_scale == float(se_var.max())

    def test_peak_memory_in_p4_units(self):
        # var_emp (complex) and se_var are the only p^2 x p^2 results; besides
        # them at most one real p^2 x p^2 temporary is alive at a time, so the
        # peak stays near three real p^4 arrays (it was above six)
        p, r = 16, CHUNK
        tot, ref = _spiked_sums(p, r)
        _moments_from_sums({k: np.copy(v) for k, v in tot.items()}, r, p, ref)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emp = _moments_from_sums(tot, r, p, ref)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert emp.var_emp.shape == (p * p, p * p)
        assert peak <= 4 * 8 * p**4, peak / (8 * p**4)


class TestRadialSums:
    """The sums of the per-replication scalars t = tr(T - M), A = sum_{i<j}
    |d_ij|^2 and B = sum_{i<j} d_ii d_jj (d = T - M) behind the radial
    estimate, and the estimate and its SEs taken from them."""

    @staticmethod
    def replications(cfg, single):
        """The statistics (R, p, p) of the run cfg, one dataset at a time."""
        chunk, r = _chunk_size(cfg.n, cfg.model.dim), cfg.replications
        return np.stack([
            single(x)
            for c, lo in enumerate(range(0, r, chunk))
            for x in stack_of(_draw_chunk(cfg, c, min(chunk, r - lo), _Workspace()))
        ])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_the_sums_over_the_replications(self, workers):
        # three chunks, the last one ragged, at a general covariance
        p, n = 3, 8
        cov = random_hpd(np.random.default_rng(70), p)
        r = 2 * _chunk_size(n, p) + 7
        cfg = MCConfig(r, n, CESModel(np.zeros(p), cov, CompoundGaussianK(0.5)), seed=71, workers=workers)
        d = self.replications(cfg, lambda x: scm(x).s) - cov
        diag, (i, j) = d.diagonal(axis1=1, axis2=2).real, np.triu_indices(p, 1)
        t = diag.sum(axis=1)
        a = (np.abs(d[:, i, j]) ** 2).sum(axis=1)
        b = (diag[:, i] * diag[:, j]).sum(axis=1)
        want = [t.sum(), t @ t, a.sum(), a @ a, b.sum(), b @ b, b @ t]
        np.testing.assert_allclose(empirical_moments(cfg).radial_sums, want, rtol=1e-12)

    def test_estimate_is_the_mean_of_the_centred_scalars(self):
        # FOBI's sigma is near 3, so centring at the estimated diagonal, not
        # at the reference 1, decides tau2 and its SE
        p, r = 3, 1000
        cfg = MCConfig(r, 12, spherical_model(p), "wscm:fobi", seed=72)
        est = radial_estimate_from_moments(empirical_moments(cfg))
        stats = self.replications(cfg, lambda x: weighted_scm(x, lambda d: d))
        diag, (i, j) = stats.diagonal(axis1=1, axis2=2).real, np.triu_indices(p, 1)
        s = diag.mean()
        a = (np.abs(stats[:, i, j]) ** 2).mean(axis=1)
        y = ((diag[:, i] - s) * (diag[:, j] - s)).mean(axis=1)
        assert est.sigma == pytest.approx(s, rel=1e-12)
        for value, scalar in ((est.tau1, a), (est.tau2, y)):
            assert value == pytest.approx(scalar.mean(), rel=1e-9)
        for se, scalar in ((est.se_sigma, diag.mean(axis=1)), (est.se_tau1, a), (est.se_tau2, y)):
            assert se == pytest.approx(scalar.std() / np.sqrt(r), rel=1e-9)

    def test_tau2_se_matches_the_spread_over_seeds(self):
        # the SE of tau2 tracks the seed-to-seed sd also where sigma lies far
        # from the reference 1 (FOBI at the Gaussian: near 3)
        cfgs = [MCConfig(2048, 12, spherical_model(3), "wscm:fobi", seed) for seed in range(1, 41)]
        ests = [radial_estimate_from_moments(empirical_moments(cfg)) for cfg in cfgs]
        ratio = np.std([e.tau2 for e in ests], ddof=1) / np.mean([e.se_tau2 for e in ests])
        assert 0.7 <= ratio <= 1.4, ratio


class TestStackedKernels:
    """A chunk's statistics, computed on the rows of all its datasets at
    once, equal the single-dataset estimators applied to each of them."""

    @pytest.fixture(scope="class")
    def cfg(self):
        cov = random_hpd(np.random.default_rng(30), 3)
        model = CESModel(np.zeros(3), cov, CompoundGaussianK(0.5))
        return MCConfig(replications=3 * CHUNK, n=10, model=model, seed=31)

    @pytest.fixture(scope="class")
    def chunk(self, cfg):
        return stack_of(_draw_chunk(cfg, 2, 200, _Workspace()))  # the (m, n, p) stack

    def test_chunk_draws_from_one_stream(self, cfg, chunk):
        # stream contract 5: chunk c draws its m * n rows from the stream
        # (seed, c), observation-major
        ref = sample_ces(cfg.model, 200 * cfg.n, RngStream(cfg.seed, 2))
        np.testing.assert_array_equal(chunk, ref.reshape(cfg.n, 200, 3).swapaxes(0, 1))

    @pytest.mark.parametrize(
        "name, single",
        [
            ("scm", lambda x: scm(x).s),
            ("wscm:one", lambda x: weighted_scm(x, np.ones_like)),
            ("wscm:fobi", lambda x: weighted_scm(x, lambda d: d)),
        ],
    )
    def test_statistic_matches_single_dataset(self, chunk, name, single):
        stacked = _hermitian_coords(3).to_matrix(_STATISTICS[name](rows_of(chunk), _Workspace()))
        assert stacked.shape == (len(chunk), 3, 3)
        for i, x in enumerate(chunk):
            np.testing.assert_array_equal(stacked[i], single(x))

    def test_plugin_beta_matches_single_dataset(self, chunk):
        n, p = chunk.shape[1:]
        ws = _Workspace()
        rows = rows_of(chunk)
        h, _ = _scm_stack(rows, ws)  # centres the rows
        stacked = _plugin_beta(rows, h, ws)
        for i, x in enumerate(chunk):
            _, gamma = scale_and_sphericity(scm(x).s)
            kappa = estimate_kurtosis(x)
            assert stacked[i] == beta_opt(nmse_from_sphericity(n, p, gamma, kappa))


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("root", ["identity", "general"])
def test_chunk_rows_hold_the_bits_of_sample_ces(m, root):
    # stream contract 5: the chunk's data are sample_ces of m * n rows read
    # observation-major, row i * m + j being observation i of dataset j,
    # drawn into the workspace's rows and multiplied by the root there in
    # place; the block boundaries of that product are pinned in
    # test_ces_sampler against one gemm
    p, n = 3, 10
    cov = np.eye(p) if root == "identity" else random_hpd(np.random.default_rng(74), p)
    for mu in (np.zeros(p), np.array([1.0, -0.5j, 2.0 + 1.0j])):
        cfg = MCConfig(4 * CHUNK, n, CESModel(mu, cov, StudentT(10.0)), seed=75)
        ws = _Workspace()
        rows = _draw_chunk(cfg, 3, m, ws)
        assert rows.shape == (n, m, 2 * p)
        assert np.shares_memory(rows, ws.take("rows", (n, m, 2 * p)))
        ref = sample_ces(cfg.model, m * n, RngStream(cfg.seed, 3))
        np.testing.assert_array_equal(stack_of(rows), ref.reshape(n, m, p).swapaxes(0, 1))


@pytest.mark.parametrize("n, p, m", [(10, 2, 2560), (10, 4, 1280), (10, 10, 512), (10, 24, 512)])
def test_chunk_size_follows_the_data_volume(n, p, m):
    # at least CHUNK replications, and as many values as CHUNK datasets of n = p = 10
    assert _chunk_size(n, p) == m


def test_small_p_grid_is_bit_identical_across_workers():
    # p = 2, n = 10: two chunks of 2560 replications and a ragged one of 7
    cfg = MCConfig(2 * 2560 + 7, 10, spherical_model(2, CompoundGaussianK(0.5)), seed=79)
    want = empirical_moments(cfg)
    for workers in (2, 4):
        got = empirical_moments(replace(cfg, workers=workers))
        for key, value in vars(want).items():
            np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)


@pytest.mark.parametrize("p", [1, 2, 10])
@pytest.mark.parametrize("root", ["identity", "general"])
def test_cores_centre_their_own_rows_with_the_bits_of_a_copy(p, root):
    # a chunk drawn into the core's own workspace is centred in place; a
    # copy of its rows, centred with another workspace, gives the same results
    cov = np.eye(p) if root == "identity" else random_hpd(np.random.default_rng(76 + p), p)
    cfg = MCConfig(2 * CHUNK, 12, CESModel(np.full(p, 0.5 - 1.0j), cov, CompoundGaussianK(0.5)), seed=77)
    cores = {
        "scm": _scm_stack,
        "wscm:fobi": lambda rows, ws: (_weighted_scm_stack(rows, lambda d: d, ws),),
    }
    for name, core in cores.items():
        ws = _Workspace()
        rows = _draw_chunk(cfg, 1, 300, ws)
        copy = rows.copy()
        own = [a.tobytes() for a in core(rows, ws)]
        fresh = [a.tobytes() for a in core(copy, _Workspace())]
        assert own == fresh, name
    ws = _Workspace()
    rows = _draw_chunk(cfg, 1, 300, ws)
    want = np.ascontiguousarray(stack_of(rows)).mean(axis=1)  # numpy's mean of each dataset as sample_ces lays it out
    np.testing.assert_array_equal(_scm_stack(rows, ws)[1], want)


class TestMerge:
    @staticmethod
    def in_order(values):
        """The left-to-right sum, one Python number at a time, that starts
        from the first value."""
        return functools.reduce(operator.add, values)

    @staticmethod
    def columns():
        """Columns with 1e16 and 1e100 cancellations, signed zeros and a
        denormal, then random values over 40 decades."""
        gen = np.random.default_rng(43)
        cols = [[1e16, 1.0, -1e16, 3.0], [1.0, 1e100, 1.0, -1e100], [-0.0, 0.0, -0.0, 5e-324]]
        return cols + (gen.standard_normal((5, 4)) * 10.0 ** gen.integers(-20, 20, (5, 4))).tolist()

    def test_merge_sums_each_real_component(self):
        # four partials of complex, matrix and 0-d scalar entries: each real
        # and each imaginary part is the in-order sum, an integer entry is
        # summed as float64, and a -0.0 in every partial stays -0.0 (a sum
        # that started from +0.0 would give +0.0)
        cols = np.array(self.columns())  # (8, 4): 8 components over 4 partials
        parts = [
            {
                "vec": np.array([complex(cols[i, k], cols[i + 3, k]) for i in range(3)]),
                "mat": cols[:, k].reshape(2, 4),
                "real": cols[6, k],
                "cplx": complex(cols[7, k], cols[0, k]),
                "int": k,
                "negzero": -0.0,
            }
            for k in range(cols.shape[1])
        ]
        tot = _merge(parts)
        want = {
            "vec": np.array([complex(self.in_order(cols[i]), self.in_order(cols[i + 3])) for i in range(3)]),
            "mat": np.array([self.in_order(col) for col in cols]).reshape(2, 4),
            "real": np.float64(self.in_order(cols[6])),
            "cplx": np.complex128(complex(self.in_order(cols[7]), self.in_order(cols[0]))),
            "int": np.float64(6.0),
            "negzero": np.float64(-0.0),
        }
        assert list(tot) == list(want)
        for key, value in want.items():
            assert type(tot[key]) is type(value), key
            assert tot[key].shape == value.shape and tot[key].dtype == value.dtype, key
            bits = [np.atleast_1d(v).view(np.uint64) for v in (tot[key], value)]
            np.testing.assert_array_equal(*bits, err_msg=key)


class TestReduceChunks:
    def test_threads_match_serial_with_a_closure_kernel(self):
        seed = 41

        def kernel(c, m):  # a closure, which a process pool could not pickle
            x = np.random.default_rng([seed, c]).standard_normal((m, 3))
            return {"s1": x.sum(axis=0), "s2": x.T @ x, "n": float(m)}

        serial = _reduce_chunks(kernel, 20 * 64 + 5, 64, workers=1)
        threaded = _reduce_chunks(kernel, 20 * 64 + 5, 64, workers=2)
        assert serial.keys() == threaded.keys()
        for key in serial:
            np.testing.assert_array_equal(serial[key], threaded[key])

    def test_a_one_chunk_run_hands_no_chunk_to_the_pool(self, monkeypatch):
        # thm3 at p = 2, R = 2048 is one chunk: it runs on the calling thread
        # at any worker count, with the bits of workers = 1
        cfg = MCConfig(2048, 10, spherical_model(2), seed=82)
        want = empirical_moments(cfg)

        def no_pool(workers):
            raise AssertionError("a one-chunk run asked for the pool")

        monkeypatch.setattr(mc_verify, "_worker_pool", no_pool)
        got = empirical_moments(replace(cfg, workers=2))
        for key, value in vars(want).items():
            np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)
        threads = []
        kernel = lambda c, m: threads.append(threading.current_thread()) or {"n": float(m)}
        assert _reduce_chunks(kernel, 7, 8, workers=4)["n"] == 7.0
        assert threads == [threading.current_thread()]

    def test_runs_reuse_the_pool_threads(self):
        threads = set()

        def kernel(c, m):
            threads.add(threading.current_thread())  # the object: an ident can be reused
            time.sleep(0.001)
            return {"n": float(m)}

        _reduce_chunks(kernel, 64, 8, workers=2)  # the pool exists from here on
        threads_before = threading.active_count()
        for _ in range(20):
            assert _reduce_chunks(kernel, 64, 8, workers=2)["n"] == 64.0
        assert 1 <= len(threads) <= 2
        assert threading.current_thread() not in threads
        assert threading.active_count() <= threads_before
        assert all(t.name.startswith("cescov-mc") and t.is_alive() for t in threads)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_caps_the_running_chunks(self, workers):
        lock = threading.Lock()
        running, peak = [0], [0]

        def kernel(c, m):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            return {"n": float(m)}

        assert _reduce_chunks(kernel, 8 * 4 * workers, 8, workers)["n"] == 8 * 4 * workers
        assert peak[0] == workers

    def test_kernel_error_cancels_the_queued_chunks(self, monkeypatch):
        monkeypatch.setattr(lin_core, "_IDLE", [])
        calls, ended, lent = [], [], []

        def kernel(c, m):
            with lin_core._borrowed_workspace() as ws:
                ws.take("x", (m,))
                calls.append(c)
                lent.append(ws)
                if c == 0:
                    raise ValueError("chunk 0 failed")
                time.sleep(0.01)
                ended.append(c)
                return {"n": float(m)}

        with pytest.raises(ValueError, match="chunk 0 failed"):
            _reduce_chunks(kernel, 64 * 8, 8, workers=2)
        ran = len(calls)
        assert ran < 64
        assert sorted(ended) == sorted(calls)[1:]  # every chunk that started has ended
        time.sleep(0.05)
        assert len(calls) == ran  # and no queued one starts later
        # every workspace lent to a chunk came back
        assert {id(ws) for ws in lin_core._IDLE} == {id(ws) for ws in lent}

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        mc_verify._worker_pool.cache_clear()  # as in a fresh process, where no pool exists

        def kernel(c, m):
            return {"n": float(m)}

        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            _reduce_chunks(kernel, 10, 5, workers)
        assert _reduce_chunks(kernel, 10, 5, 2)["n"] == 10

    def test_a_rejected_worker_count_keeps_the_pool(self):
        # a count below 1 is refused before the pool is touched, so the
        # pool keeps working
        def kernel(c, m):
            return {"n": float(m)}

        assert _reduce_chunks(kernel, 64, 8, workers=2)["n"] == 64
        with pytest.raises(ValueError):
            _reduce_chunks(kernel, 64, 8, workers=-1)
        assert _reduce_chunks(kernel, 64, 8, workers=2)["n"] == 64

    def test_concurrent_runs_share_or_replace_the_pool(self):
        # callers with equal counts share the pool; a caller with another
        # count replaces it while chunks of the others are still queued there
        def kernel(c, m):
            time.sleep(0.001)
            return {"c": float(c), "n": float(m)}

        want = _reduce_chunks(kernel, 8 * 12, 8, workers=1)
        got, errors = [], []

        def caller(workers):
            try:
                for _ in range(5):
                    got.append(_reduce_chunks(kernel, 8 * 12, 8, workers))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        callers = [threading.Thread(target=caller, args=(w,)) for w in (2, 2, 3, 3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert got == [want] * 20

    def test_a_replaced_pool_s_threads_end(self):
        # an evicted pool is never shut down: its idle threads end once no
        # run holds it, so only the last pool's threads stay
        def kernel(c, m):
            time.sleep(0.001)
            return {"n": float(m)}

        for workers in (2, 3, 2):
            assert _reduce_chunks(kernel, 8 * 12, 8, workers)["n"] == 8 * 12
        pool_threads = lambda: [t for t in threading.enumerate() if t.name.startswith("cescov-mc")]
        deadline = time.monotonic() + 10.0
        while len(pool_threads()) > 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(pool_threads()) == 2

    def test_switching_worker_counts_changes_no_bit(self):
        want = report_digests()
        for workers in (2, 4, 2):
            _reduce_chunks(lambda c, m: {"n": float(m)}, 64, 8, workers)
            assert report_digests() == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_its_own_pool(self):
        # three chunks, so both runs go through the pool
        model = spherical_model(3, CompoundGaussianK(0.5))
        cfg = MCConfig(2 * _chunk_size(10, 3) + 7, 10, model, seed=71, workers=2)
        want = empirical_moments(cfg).var_emp  # the parent's pool threads exist at the fork
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python >= 3.12 warns that forking a process with threads may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: send the bits of the same run (1.3 kB, within a pipe buffer), then leave
            try:
                os.close(read)
                with os.fdopen(write, "wb") as out:
                    out.write(empirical_moments(cfg).var_emp.tobytes())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as inp:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its workers=2 run in 60 s")
            got = inp.read()
        assert os.waitstatus_to_exitcode(status) == 0
        assert got == want.tobytes()


class TestWorkspaces:
    """Each running chunk borrows a workspace from ``lin_core._IDLE`` and
    returns it when it ends; the workspaces, and the data they hold, outlive
    the run."""

    def test_warm_pool_matches_a_fresh_interpreter(self):
        # buffers left by larger chunks (p = 10), by the plug-in kurtosis and
        # by the weighted SCM change no bit of a following run
        transport = CESModel(np.zeros(10), spiked_covariance(10, 2.0), CompoundGaussianK(0.5))
        empirical_moments(MCConfig(4 * CHUNK, 10, transport, seed=61, workers=2))
        oracle = CESModel(np.zeros(4), spiked_covariance(4, 2.0), CompoundGaussianK(0.5))
        verify_oracle_efficiency(
            MCConfig(4 * _chunk_size(10, 4), 10, oracle, seed=62, workers=2), include_plugin=True
        )
        fobi = MCConfig(2 * _chunk_size(12, 3), 12, spherical_model(3), "wscm:fobi", seed=63, workers=2)
        empirical_moments(fobi)
        warm = report_digests()
        paths = [str(Path(cescov.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        fresh = subprocess.run(
            [sys.executable, "-c", "import util; print(*util.report_digests())"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        assert warm == fresh

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_partials_share_no_memory_with_a_workspace(self, monkeypatch, statistic):
        monkeypatch.setattr(lin_core, "_IDLE", [])
        model = CESModel(np.zeros(3), random_hpd(np.random.default_rng(64), 3), CompoundGaussianK(0.5))
        cfg = MCConfig(CHUNK, 10, model, statistic, seed=65)
        ref = _hermitian_coords(3).from_matrix(model.cov)
        for sums in (
            partial(_moment_sums, ref=ref),
            partial(_oracle_sums, ref=ref, beta=0.5, plugin=True),
        ):
            part = _chunk_kernel(0, CHUNK, cfg, sums)
            (ws,) = lin_core._IDLE
            assert ws.buffers
            for key, value in part.items():
                assert not any(np.shares_memory(value, buf) for buf in ws.buffers.values()), key

    def test_a_raising_kernel_gives_its_workspace_back(self, monkeypatch):
        monkeypatch.setattr(lin_core, "_IDLE", [])
        good = MCConfig(3 * _chunk_size(12, 3) + 7, 12, spherical_model(3), "wscm:fobi", seed=66)
        want = empirical_moments(good)
        assert len(lin_core._IDLE) == 1
        with pytest.raises(SingularSCM):
            empirical_moments(replace(good, n=3))  # n <= p: every weighted SCM is singular
        assert len(lin_core._IDLE) == 1
        for workers in (1, 2):
            got = empirical_moments(replace(good, workers=workers))
            for key, value in vars(want).items():
                np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)

    def test_idle_list_holds_one_workspace_per_concurrent_chunk(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows:
        # a workspace lent twice would change the sums, one lost or appended
        # twice would show in the list
        monkeypatch.setattr(lin_core, "_IDLE", [])
        cfg = MCConfig(16 * _chunk_size(10, 3), 10, spherical_model(3, CompoundGaussianK(0.5)), seed=67)
        want = empirical_moments(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 4, 8):
                got = empirical_moments(replace(cfg, workers=workers))
                np.testing.assert_array_equal(got.var_emp, want.var_emp)
                assert got.mse_emp == want.mse_emp
                idle = lin_core._IDLE
                assert 1 <= len(idle) <= workers
                assert len({id(ws) for ws in idle}) == len(idle)
        finally:
            sys.setswitchinterval(interval)


    @pytest.mark.parametrize("target, p, mb", [("transport", 10, 2.7), ("transport", 24, 6.5), ("oracle", 4, 2.79)])
    def test_a_chunk_workspace_holds_one_copy_of_the_data_and_a_block_of_grams(self, monkeypatch, target, p, mb):
        # after one run at n = 10: transport 1.92 MB at p = 10 and 5.14 MB at
        # p = 24, oracle --plugin 1.89 MB at p = 4, against 3.19, 9.49 and
        # 2.79 MB with a second copy of the data for the draw, the Gram's
        # twin and the kurtosis, and a copy of the coordinates for their squares
        monkeypatch.setattr(lin_core, "_IDLE", [])
        m = _chunk_size(10, p)
        verify_target(target, "k:0.5", 10, p, "spiked:gamma=2", m, 1, plugin=target == "oracle")
        (ws,) = lin_core._IDLE
        assert ws.nbytes <= mb * 1e6
        data = 10 * m * 2 * p * 8  # the chunk's data, in bytes
        assert ws.buffers["rows", np.dtype(np.float64)].nbytes == data
        # besides the rows, only the m p^2 coordinates "h" may be as large
        # (they are larger from p > 2n on)
        others = {key[0]: buf.nbytes for key, buf in ws.buffers.items() if key[0] not in ("rows", "h")}
        assert max(others.values()) < data, others

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_no_buffer_holds_a_whole_chunks_grams(self, monkeypatch, statistic):
        monkeypatch.setattr(lin_core, "_IDLE", [])
        p = 10
        model = CESModel(np.zeros(p), spiked_covariance(p, 2.0), CompoundGaussianK(0.5))
        empirical_moments(MCConfig(CHUNK, 12, model, statistic, seed=78))
        (ws,) = lin_core._IDLE
        assert max(buf.size for buf in ws.buffers.values()) < CHUNK * (2 * p) ** 2

    def test_idle_list_keeps_at_most_the_cap(self, monkeypatch):
        # the four chunks of a p = 24, n = 80 run draw at once, each into a
        # workspace of 18.8 MB: three fit below the 67.1 MB cap together,
        # and the last one back is dropped
        made = []

        class Counted(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        all_lent = threading.Barrier(4, timeout=60)
        draw = mc_verify._draw_chunk

        def draw_once_all_are_lent(*args):
            all_lent.wait()
            return draw(*args)

        monkeypatch.setattr(lin_core, "_IDLE", [])
        monkeypatch.setattr(lin_core, "_Workspace", Counted)
        monkeypatch.setattr(mc_verify, "_draw_chunk", draw_once_all_are_lent)
        model = CESModel(np.zeros(24), spiked_covariance(24, 2.0), CompoundGaussianK(0.5))
        empirical_moments(MCConfig(4 * CHUNK, 80, model, seed=69, workers=4))
        idle = lin_core._IDLE
        assert len(made) == 4 and sum(ws.nbytes for ws in made) > lin_core._IDLE_CAP
        assert len(idle) == 3 and sum(ws.nbytes for ws in idle) <= lin_core._IDLE_CAP
        for ws in idle:
            assert ws.nbytes == sum(buf.nbytes for buf in ws.buffers.values())

    def test_workspace_counts_the_bytes_of_its_buffers(self):
        ws = _Workspace()
        ws.take("a", (4, 3))
        ws.take("a", (2, 2))  # a prefix of the buffer: nothing grows
        ws.take("b", (5,), np.complex128)
        ws.take("a", (20,))  # replaces the 12-value buffer
        assert ws.nbytes == 20 * 8 + 5 * 16 == sum(buf.nbytes for buf in ws.buffers.values())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts the minor page faults of Linux")
def test_warm_sphere_call_takes_few_page_faults(monkeypatch):
    # a warm call reuses the workspace of the first; with fresh per-chunk
    # arrays this call (4 chunks) took 14,784 minor faults on Linux
    import resource

    monkeypatch.setattr(lin_core, "_IDLE", [])
    verify_sphere_moments(3, 200_000, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    verify_sphere_moments(3, 200_000, seed=1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 200


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts the minor page faults of Linux")
def test_warm_oracle_call_takes_few_page_faults():
    # a warm run reuses the workspace of the first; with fresh per-chunk
    # arrays this call took 837 minor faults on Linux
    import resource

    model = CESModel(np.zeros(4), spiked_covariance(4, 2.0), CompoundGaussianK(0.5))
    cfg = MCConfig(4 * CHUNK, 10, model, seed=68)
    verify_oracle_efficiency(cfg, include_plugin=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    verify_oracle_efficiency(cfg, include_plugin=True)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 100


class TestEstimateRadialStructure:
    def test_requires_p2(self):
        cfg = MCConfig(replications=100, n=10, model=spherical_model(1), seed=1)
        with pytest.raises(ValueError):
            radial_estimate_from_moments(empirical_moments(cfg))

    def test_matches_closed_form(self):
        cfg = MCConfig(replications=30_000, n=10, model=spherical_model(2), seed=15)
        est = radial_estimate_from_moments(empirical_moments(cfg))
        s = scm_radial_structure(10, 0.0, 2)
        assert abs(est.tau1 - s.tau1) < 4 * est.se_tau1
        assert abs(est.tau2 - s.tau2) < 4 * est.se_tau2


class TestCompareToTheory:
    def test_gaussian_scm_passes(self, gaussian_run):
        cfg, emp = gaussian_run
        est = radial_estimate_from_moments(emp)
        struct = scm_radial_structure(10, 0.0, 2)
        pair = radial_var_structure(struct.tau1, struct.tau2, 2)
        report = compare_to_theory(
            emp,
            pair,
            Tolerances.for_family(cfg.model.family),
            radial_theory=struct,
            radial_estimate=est,
            mse_theory=4 / 9,
        )
        assert report.passed
        # tau2 = 0 at the Gaussian is checked as any other tau, by its z-score
        assert list(report.checks) == ["var_dev_se", "tau1_z", "tau2_z", "mse_z"]
        assert report.checks["var_dev_se"].value <= 4.0
        for name in ("tau1_z", "tau2_z", "mse_z"):
            assert report.checks[name].limit == _sidak_limit(3)
            assert report.checks[name].value < report.checks[name].limit

    def test_gaussian_thm3_checks_tau2_by_its_z_score(self):
        report = verify_target("thm3", "gaussian", 10, 2, "identity", 2048, 1)
        assert list(report.checks) == ["var_dev_se", "tau1_z", "tau2_z", "mse_z"]
        assert report.details["tau2_theory"] == 0.0

    def test_scalar_limits_are_sidak_at_alpha(self):
        assert mc_verify.ALPHA == 1e-3
        assert _sidak_limit(1) == pytest.approx(3.2905, abs=1e-4)
        assert _sidak_limit(3) == pytest.approx(3.5878, abs=1e-4)
        report = verify_target("transport", "gaussian", 10, 2, "diag:1,3", 2048, 1)
        assert report.checks["mse_z"].limit == _sidak_limit(1)

    def test_wrong_tau1_fails_its_z_check(self):
        emp = empirical_moments(MCConfig(replications=20_000, n=10, model=spherical_model(2), seed=19))
        struct = scm_radial_structure(10, 0.0, 2)
        pair = radial_var_structure(struct.tau1, struct.tau2, 2)
        right = compare_to_theory(emp, pair, radial_theory=struct, radial_estimate=radial_estimate_from_moments(emp))
        wrong = compare_to_theory(emp, pair, radial_theory=replace(struct, tau1=1.5 * struct.tau1),
                                  radial_estimate=radial_estimate_from_moments(emp))
        assert right.passed
        assert not wrong.passed
        assert wrong.checks["tau1_z"].value > wrong.checks["tau1_z"].limit
        assert wrong.checks["tau2_z"].value == right.checks["tau2_z"].value

    def test_negative_control_fails(self, gaussian_run):
        cfg, emp = gaussian_run
        struct = scm_radial_structure(10, 0.0, 2)
        wrong = radial_var_structure(2 * struct.tau1, struct.tau2, 2)
        report = compare_to_theory(emp, wrong, Tolerances())
        assert not report.passed
        assert report.checks["var_dev_se"].value > 4.0

    def test_shape_mismatch(self, gaussian_run):
        _, emp = gaussian_run
        with pytest.raises(ValueError):
            compare_to_theory(emp, radial_var_structure(1.0, 0.0, 3))

    def test_transport_at_general_covariance(self):
        gen = np.random.default_rng(16)
        m = random_hpd(gen, 2)
        model = CESModel(np.zeros(2), m, Gaussian())
        cfg = MCConfig(replications=40_000, n=10, model=model, seed=17)
        emp = empirical_moments(cfg)
        pair = affine_equivariant_var(m, scm_radial_structure(10, 0.0, 2))
        report = compare_to_theory(emp, pair, Tolerances())
        assert report.passed
        # pvar = var K_p on both sides: one deviation, checked once
        dev_pvar = (np.abs(emp.pvar_emp - pair.pvar) / np.maximum(emp.se_pvar, 1e-300)).max()
        assert dev_pvar == report.checks["var_dev_se"].value

    @staticmethod
    def random_moments(p, seed):
        """Moments with random complex var_emp and se_var (some zero), and a
        theory pair near them."""
        gen, q = np.random.default_rng(seed), p * p
        var = gen.standard_normal((q, q)) + 1j * gen.standard_normal((q, q))
        se = np.abs(gen.standard_normal((q, q)))
        se[gen.random((q, q)) < 0.01] = 0.0
        emp = EmpiricalMoments(np.eye(p), var, np.eye(p), se, 1.0, 1.0, 1.0, 100, np.zeros(7))
        return emp, CovariancePair(var=var + 1e-3 * gen.standard_normal((q, q)))

    @pytest.mark.parametrize("p", [10, 16])
    def test_deviation_has_the_bits_of_the_plain_expression(self, p):
        # taken a block of rows at a time; a NaN still makes the deviation NaN
        emp, theo = self.random_moments(p, 81 + p)
        want = float((np.abs(emp.var_emp - theo.var) / np.maximum(emp.se_var, 1e-300)).max())
        got = compare_to_theory(emp, theo).checks["var_dev_se"].value
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
        emp.var_emp[-1, 3] = np.nan
        report = compare_to_theory(emp, theo)
        assert np.isnan(report.checks["var_dev_se"].value)
        assert report.passed is False

    def test_deviation_peak_memory_in_p4_units(self):
        # the whole-array expression held a complex and two real p^2 x p^2
        # arrays (3.0 units at p = 16); by blocks of rows it holds 0.19
        p = 16
        emp, theo = self.random_moments(p, 97)
        compare_to_theory(emp, theo)  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            compare_to_theory(emp, theo)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * p**4, peak / (8 * p**4)

    def test_tolerances_per_family(self):
        # one limit for every family: for_family is kept for bench/workloads.py
        for family in (Gaussian(), CompoundGaussianK(0.5), StudentT(10.0)):
            assert Tolerances.for_family(family) == Tolerances()


class TestVerifySphereMoments:
    def test_passes_moderate_draws(self):
        report = verify_sphere_moments(4, 10**5, seed=18)
        assert report.passed
        assert report.checks["nonzero_dev_se"].value <= 4.0
        assert report.checks["vanishing_dev_se"].value <= 4.0

    def test_deterministic_across_workers(self):
        r1 = verify_sphere_moments(3, 2 * 10**5, seed=19, workers=1)
        r4 = verify_sphere_moments(3, 2 * 10**5, seed=19, workers=4)
        assert r1.checks["nonzero_dev_se"] == r4.checks["nonzero_dev_se"]
        assert r1.checks["vanishing_dev_se"] == r4.checks["vanishing_dev_se"]

    def test_sums_hold_each_moment_once(self):
        # E|u_q|^2, E|u_q|^4 and E|u_q|^8 are read from the diagonals of c2,
        # m22 and m44, so no sum of their own is kept
        tot = _reduce_chunks(partial(_sphere_kernel, p=3, seed=1), 10**4, mc_verify.SPHERE_CHUNK, 1)
        assert set(tot) == {"m1", "m6", "m22", "m44", "c2", "cp", "c4", "m3"}

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            verify_sphere_moments(1, 10**5, seed=1)

    def test_rejects_too_few_draws(self):
        with pytest.raises(ValueError):
            verify_sphere_moments(4, 5000, seed=1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        want = verify_sphere_moments(3, 10**4, seed=1, workers=2)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            verify_sphere_moments(3, 10**4, seed=1, workers=workers)
        got = verify_sphere_moments(3, 10**4, seed=1, workers=2)  # the pool still takes work
        assert got.to_dict() == want.to_dict()


class TestMeanAndSe:
    def test_plain_expressions(self):
        # a float, a real array and a complex array of per-replication values
        gen = np.random.default_rng(95)
        r = 37
        z = gen.standard_normal((r, 3)) + 1j * gen.standard_normal((r, 3))
        for values in (gen.standard_normal(r), gen.standard_normal((r, 4)), z):
            total, total_sq = values.sum(axis=0), (np.abs(values) ** 2).sum(axis=0)
            mean, se = _mean_and_se(total, total_sq, r)
            np.testing.assert_array_equal(mean, total / r)
            np.testing.assert_allclose(se, values.std(axis=0) / math.sqrt(r), rtol=1e-12)

    def test_se_is_zero_where_rounding_makes_the_variance_negative(self):
        total, total_sq = 0.1 + 0.1 + 0.1, 0.1 * 0.1 + 0.1 * 0.1 + 0.1 * 0.1  # three values 0.1
        assert total_sq / 3 - (total / 3) ** 2 < 0
        assert _mean_and_se(total, total_sq, 3)[1] == 0.0
        _, se = _mean_and_se(np.array([total, 3.0]), np.array([total_sq, 5.0]), 3)
        assert se[0] == 0.0 and se[1] == pytest.approx(math.sqrt(2 / 9), rel=1e-15)  # values 0, 1, 2


class TestVerifyOracleEfficiency:
    def test_se_ratio_is_the_delta_method_se(self, monkeypatch):
        model = CESModel(np.zeros(4), spiked_covariance(4, 2.0), CompoundGaussianK(0.5))
        cfg = MCConfig(2 * _chunk_size(10, 4) + 7, 10, model, seed=96)
        merged = []
        reduce = mc_verify._reduce_chunks
        monkeypatch.setattr(mc_verify, "_reduce_chunks", lambda *a: merged.append(reduce(*a)) or merged[-1])
        report = verify_oracle_efficiency(cfg, include_plugin=True)
        (tot,) = merged
        r, b = cfg.replications, report.details["beta_used"]
        mean1, mean2 = float(tot["e1"]) / r, float(tot["e2"]) / r
        ratio = mean2 / mean1
        v11 = float(tot["e11"]) / r - mean1**2
        v22 = float(tot["e22"]) / r - mean2**2
        c12 = float(tot["e12"]) / r - mean1 * mean2
        want = math.sqrt(v22 + ratio**2 * v11 - 2 * ratio * c12) / (math.sqrt(r) * mean1)
        assert report.details["se_ratio"] == pytest.approx(want, rel=1e-12)
        assert report.details["ratio_dev_se"] == abs(report.details["ratio"] - b) / report.details["se_ratio"]
        # the parent expressions of the ratios and the MSE, bit for bit
        assert report.details["ratio"] == mean2 / mean1
        assert report.details["mse_emp"] == mean1
        assert report.details["plugin_ratio"] == float(tot["e3"]) / r / mean1

    @pytest.mark.parametrize("plugin", [False, True])
    def test_partial_sums(self, plugin):
        cfg = MCConfig(CHUNK, 10, spherical_model(3), seed=97)
        ref = _hermitian_coords(3).from_matrix(cfg.model.cov)
        part = _chunk_kernel(0, CHUNK, cfg, partial(_oracle_sums, ref=ref, beta=0.6, plugin=plugin))
        assert set(part) == {"e1", "e2", "e11", "e22", "e12"} | ({"e3"} if plugin else set())

    def test_sums_of_each_replication(self):
        model = CESModel(np.zeros(3), random_hpd(np.random.default_rng(98), 3), CompoundGaussianK(0.5))
        coords = _hermitian_coords(3)
        ref, beta, seen = coords.from_matrix(model.cov), 0.6, []

        def recorded(h, rows, ws):
            seen.append(h.copy())
            return _oracle_sums(h, rows, ws, ref, beta, False)

        part = _chunk_kernel(0, CHUNK, MCConfig(CHUNK, 10, model, seed=99), recorded)
        (h,) = seen
        e1, e2 = coords.sq_norm(h - ref), coords.sq_norm(beta * h - ref)
        want = {"e1": e1.sum(), "e2": e2.sum(), "e11": e1 @ e1, "e22": e2 @ e2, "e12": e1 @ e2}
        assert part == pytest.approx(want, rel=1e-12)

    def test_beta_one_control_ratio_is_exactly_one(self):
        cfg = MCConfig(replications=500, n=10, model=spherical_model(2), seed=20)
        report = verify_oracle_efficiency(cfg, beta=1.0)
        assert report.details["ratio"] == 1.0
        assert not report.passed  # no strict improvement at beta = 1

    def test_oracle_ratio_matches(self):
        gen = np.random.default_rng(21)
        m = random_hpd(gen, 2)
        model = CESModel(np.zeros(2), m, Gaussian())
        cfg = MCConfig(replications=30_000, n=10, model=model, seed=22)
        report = verify_oracle_efficiency(cfg)
        assert report.passed
        assert report.details["ratio"] < 1.0
        assert report.details["ratio_dev_se"] <= 3.0

    def test_plugin_ratio_reported(self):
        cfg = MCConfig(replications=2000, n=10, model=spherical_model(4), seed=23)
        report = verify_oracle_efficiency(cfg, include_plugin=True)
        assert "plugin_ratio" in report.details
        assert report.details["plugin_ratio"] > 0

    def test_deterministic_across_workers(self):
        cfg = MCConfig(replications=4000, n=10, model=spherical_model(2), seed=24)
        r1 = verify_oracle_efficiency(cfg)
        r4 = verify_oracle_efficiency(replace(cfg, workers=4))
        assert r1.details["ratio"] == r4.details["ratio"]
        assert r1.details["mse_emp"] == r4.details["mse_emp"]

    @pytest.mark.parametrize("statistic", [s for s in STATISTICS if s != "scm"])
    def test_refuses_a_statistic_other_than_the_scm(self, statistic):
        # the closed forms it compares with are the SCM's
        cfg = MCConfig(replications=500, n=10, model=spherical_model(2), statistic=statistic, seed=26)
        with pytest.raises(ValueError, match=re.escape(repr(statistic))):
            verify_oracle_efficiency(cfg, include_plugin=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("check", ["moments", "oracle"])
def test_each_chunk_is_drawn_and_reduced_to_its_statistic_once(monkeypatch, check, workers):
    # p = 2, n = 10: two chunks of 2560 replications and a ragged one of 7
    draws, statistics = [], []
    draw = mc_verify._draw_chunk

    def counted_draw(cfg, c, m, ws):
        draws.append((c, m))
        return draw(cfg, c, m, ws)

    def counted(core):
        def stat(rows, ws):
            statistics.append(rows.shape[1])
            return core(rows, ws)
        return stat

    monkeypatch.setattr(mc_verify, "_draw_chunk", counted_draw)
    monkeypatch.setattr(mc_verify, "_STATISTICS", {k: counted(v) for k, v in _STATISTICS.items()})
    cfg = MCConfig(2 * 2560 + 7, 10, spherical_model(2, CompoundGaussianK(0.5)), seed=80, workers=workers)
    if check == "moments":
        empirical_moments(cfg)
    else:
        verify_oracle_efficiency(cfg, include_plugin=True)
    assert sorted(draws) == [(0, 2560), (1, 2560), (2, 7)]
    assert sorted(statistics) == [7, 2560, 2560]


class TestReportSerialization:
    def test_to_dict_round_trip_keys(self):
        report = verify_sphere_moments(2, 10**4, seed=25)
        d = report.to_dict()
        assert set(d) == {"pass", "checks", "details"}
        assert set(d["checks"]) == {"nonzero_dev_se", "vanishing_dev_se"}
        assert isinstance(d["pass"], bool)
