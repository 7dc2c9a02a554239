import functools
import operator
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cescov
from cescov import mc_verify
from cescov.ces_sampler import (
    CESModel,
    CompoundGaussianK,
    Gaussian,
    RngStream,
    StudentT,
    sample_ces,
)
from cescov.errors import InvalidFamily, SingularSCM
from cescov.estimators import _scm_stack, estimate_kurtosis, scm, weighted_scm
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
    MCConfig,
    Tolerances,
    compare_to_theory,
    empirical_moments,
    radial_estimate_from_moments,
    verify_oracle_efficiency,
    verify_sphere_moments,
    _draw_chunk,
    _merge,
    _moment_kernel,
    _oracle_kernel,
    _plugin_beta,
    _reduce_chunks,
    _statistic_fn,
)
from cescov.theory import (
    affine_equivariant_var,
    beta_opt,
    nmse_from_sphericity,
    radial_var_structure,
    scm_radial_structure,
)

from util import random_hpd, report_digests


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
        r = cfg.replications
        stat = _statistic_fn(cfg.statistic)
        t = _hermitian_coords(cfg.model.dim).to_matrix(np.concatenate(
            [stat(_draw_chunk(cfg, c, min(CHUNK, r - lo), _Workspace()), _Workspace())
             for c, lo in enumerate(range(0, r, CHUNK))]
        ))
        w = t.swapaxes(-1, -2).reshape(r, -1)  # row r is vec(T_r)
        w = w - w.mean(axis=0)
        np.testing.assert_allclose(emp.pvar_emp, w.T @ w / (r - 1), rtol=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("statistic", ["scm", "wscm:one", "wscm:fobi"])
    def test_matches_direct_complex_accumulation(self, statistic, p):
        # moments accumulated on the real coordinates equal those of the
        # complex vec(T_r) summed directly; 3 * CHUNK + 7 replications end
        # in a ragged chunk, and p = 1 has no off-diagonal coordinate
        r = 3 * CHUNK + 7
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
            for c, lo in enumerate(range(0, r, CHUNK))
            for x in _draw_chunk(cfg, c, min(CHUNK, r - lo), _Workspace())
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
        # 3 * CHUNK + 7 replications end in a ragged chunk
        for replications, workers_list in ((5000, (4, 16)), (3 * CHUNK + 7, (2,))):
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


class TestStackedKernels:
    """A chunk's statistics, computed on the whole (m, n, p) stack, equal
    the single-dataset estimators applied to each of its datasets."""

    @pytest.fixture(scope="class")
    def cfg(self):
        cov = random_hpd(np.random.default_rng(30), 3)
        model = CESModel(np.zeros(3), cov, CompoundGaussianK(0.5))
        return MCConfig(replications=3 * CHUNK, n=10, model=model, seed=31)

    @pytest.fixture(scope="class")
    def chunk(self, cfg):
        return _draw_chunk(cfg, 2, 200, _Workspace())

    def test_chunk_draws_from_one_stream(self, cfg, chunk):
        # stream contract 3: chunk c draws its m * n rows from the stream (seed, c)
        ref = sample_ces(cfg.model, 200 * cfg.n, RngStream(cfg.seed, 2))
        np.testing.assert_array_equal(chunk, ref.reshape(chunk.shape))

    @pytest.mark.parametrize(
        "name, single",
        [
            ("scm", lambda x: scm(x).s),
            ("wscm:one", lambda x: weighted_scm(x, np.ones_like)),
            ("wscm:fobi", lambda x: weighted_scm(x, lambda d: d)),
        ],
    )
    def test_statistic_matches_single_dataset(self, chunk, name, single):
        stacked = _hermitian_coords(3).to_matrix(_statistic_fn(name)(chunk.copy(), _Workspace()))
        assert stacked.shape == (len(chunk), 3, 3)
        for i, x in enumerate(chunk):
            np.testing.assert_array_equal(stacked[i], single(x))

    def test_plugin_beta_matches_single_dataset(self, chunk):
        n, p = chunk.shape[1:]
        ws = _Workspace()
        h, _, rows = _scm_stack(chunk.copy(), ws)  # rows: the centred data, observation-major
        stacked = _plugin_beta(rows, h, ws)
        for i, x in enumerate(chunk):
            _, gamma = scale_and_sphericity(scm(x).s)
            kappa = estimate_kurtosis(x)
            assert stacked[i] == beta_opt(nmse_from_sphericity(n, p, gamma, kappa))


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
        monkeypatch.setattr(mc_verify, "_IDLE", [])
        calls, ended, lent = [], [], []

        def kernel(c, m):
            with mc_verify._borrowed_workspace() as ws:
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
        assert {id(ws) for ws in mc_verify._IDLE} == {id(ws) for ws in lent}

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

    def test_switching_worker_counts_changes_no_bit(self):
        want = report_digests()
        for workers in (2, 4, 2):
            _reduce_chunks(lambda c, m: {"n": float(m)}, 64, 8, workers)
            assert report_digests() == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_its_own_pool(self):
        cfg = MCConfig(3 * CHUNK + 7, 10, spherical_model(3, CompoundGaussianK(0.5)), seed=71, workers=2)
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
    """Each running chunk borrows a workspace from ``mc_verify._IDLE`` and
    returns it when it ends; the workspaces, and the data they hold, outlive
    the run."""

    def test_warm_pool_matches_a_fresh_interpreter(self):
        # buffers left by larger chunks (p = 10), by the plug-in kurtosis and
        # by the weighted SCM change no bit of a following run
        transport = CESModel(np.zeros(10), spiked_covariance(10, 2.0), CompoundGaussianK(0.5))
        empirical_moments(MCConfig(4 * CHUNK, 10, transport, seed=61, workers=2))
        oracle = CESModel(np.zeros(4), spiked_covariance(4, 2.0), CompoundGaussianK(0.5))
        verify_oracle_efficiency(MCConfig(4 * CHUNK, 10, oracle, seed=62, workers=2), include_plugin=True)
        empirical_moments(MCConfig(2 * CHUNK, 12, spherical_model(3), "wscm:fobi", seed=63, workers=2))
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
        monkeypatch.setattr(mc_verify, "_IDLE", [])
        model = CESModel(np.zeros(3), random_hpd(np.random.default_rng(64), 3), CompoundGaussianK(0.5))
        cfg = MCConfig(CHUNK, 10, model, statistic, seed=65)
        ref = _hermitian_coords(3).from_matrix(model.cov)
        for kernel in (
            partial(_moment_kernel, cfg=cfg, ref=ref),
            partial(_oracle_kernel, cfg=cfg, ref=ref, beta=0.5, plugin=True),
        ):
            part = kernel(0, CHUNK)
            (ws,) = mc_verify._IDLE
            assert ws.buffers
            for key, value in part.items():
                assert not any(np.shares_memory(value, buf) for buf in ws.buffers.values()), key

    def test_a_raising_kernel_gives_its_workspace_back(self, monkeypatch):
        monkeypatch.setattr(mc_verify, "_IDLE", [])
        good = MCConfig(3 * CHUNK + 7, 12, spherical_model(3), "wscm:fobi", seed=66)
        want = empirical_moments(good)
        assert len(mc_verify._IDLE) == 1
        with pytest.raises(SingularSCM):
            empirical_moments(replace(good, n=3))  # n <= p: every weighted SCM is singular
        assert len(mc_verify._IDLE) == 1
        for workers in (1, 2):
            got = empirical_moments(replace(good, workers=workers))
            for key, value in vars(want).items():
                np.testing.assert_array_equal(getattr(got, key), value, err_msg=key)

    def test_idle_list_holds_one_workspace_per_concurrent_chunk(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter allows:
        # a workspace lent twice would change the sums, one lost or appended
        # twice would show in the list
        monkeypatch.setattr(mc_verify, "_IDLE", [])
        cfg = MCConfig(16 * CHUNK, 10, spherical_model(3, CompoundGaussianK(0.5)), seed=67)
        want = empirical_moments(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 4, 8):
                got = empirical_moments(replace(cfg, workers=workers))
                np.testing.assert_array_equal(got.var_emp, want.var_emp)
                assert got.mse_emp == want.mse_emp
                idle = mc_verify._IDLE
                assert 1 <= len(idle) <= workers
                assert len({id(ws) for ws in idle}) == len(idle)
        finally:
            sys.setswitchinterval(interval)


    def test_idle_list_keeps_at_most_the_cap(self, monkeypatch):
        # four workspaces of a p = 24, n = 30 run hold 137.6 MB together
        monkeypatch.setattr(mc_verify, "_IDLE", [])
        model = CESModel(np.zeros(24), spiked_covariance(24, 2.0), CompoundGaussianK(0.5))
        empirical_moments(MCConfig(4 * CHUNK, 30, model, seed=69, workers=4))
        idle = mc_verify._IDLE
        assert idle and sum(ws.nbytes for ws in idle) <= mc_verify._IDLE_CAP
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
        assert report.max_abs_dev_var <= 4.0
        assert report.rel_err_tau1 <= 0.02
        assert report.rel_err_tau2 is None  # zero reference checked in SE units
        assert report.rel_err_mse <= 0.02

    def test_negative_control_fails(self, gaussian_run):
        cfg, emp = gaussian_run
        struct = scm_radial_structure(10, 0.0, 2)
        wrong = radial_var_structure(2 * struct.tau1, struct.tau2, 2)
        report = compare_to_theory(emp, wrong, Tolerances())
        assert not report.passed
        assert report.max_abs_dev_var > 4.0

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
        # pvar = var K_p on both sides: one deviation, reported twice
        assert report.max_abs_dev_pvar == report.max_abs_dev_var

    def test_tolerances_per_family(self):
        assert Tolerances.for_family(Gaussian()).rel_tau == 0.02
        assert Tolerances.for_family(CompoundGaussianK(0.5)).rel_tau == 0.05


class TestVerifySphereMoments:
    def test_passes_moderate_draws(self):
        report = verify_sphere_moments(4, 10**5, seed=18)
        assert report.passed
        assert report.max_abs_dev_var <= 4.0
        assert report.max_abs_dev_pvar <= 4.0

    def test_deterministic_across_workers(self):
        r1 = verify_sphere_moments(3, 2 * 10**5, seed=19, workers=1)
        r4 = verify_sphere_moments(3, 2 * 10**5, seed=19, workers=4)
        assert r1.max_abs_dev_var == r4.max_abs_dev_var
        assert r1.max_abs_dev_pvar == r4.max_abs_dev_pvar

    def test_rejects_p1(self):
        with pytest.raises(ValueError):
            verify_sphere_moments(1, 10**5, seed=1)

    def test_rejects_too_few_draws(self):
        with pytest.raises(ValueError):
            verify_sphere_moments(4, 5000, seed=1)


class TestVerifyOracleEfficiency:
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


class TestReportSerialization:
    def test_to_dict_round_trip_keys(self):
        report = verify_sphere_moments(2, 10**4, seed=25)
        d = report.to_dict()
        assert {"pass", "tolerances", "max_abs_dev_var", "max_abs_dev_pvar", "details"} <= set(d)
        assert isinstance(d["pass"], bool)
