"""Monte Carlo harness: empirical moments of matrix statistics and pass/fail
comparisons against the closed-form second-order theory.  ``verify_target``
is the check that ``cescov mc-verify`` runs for each of its ``TARGETS``: it
picks the model, the closed form, the MSE and the tolerances of the target.

Stream contract 3 (``STREAM_CONTRACT``): the replications of a run are cut
into a fixed grid of chunks of ``CHUNK`` replications (``SPHERE_CHUNK``
draws for the sphere check), the last chunk holding the remainder.  Chunk
``c`` draws all of its data from the single random stream ``(seed, c)`` as
one ``(m, n, p)`` tensor, computes the statistic for the whole stack at
once and reduces it to partial sums.  The partial sums are merged in chunk
order as they arrive, each real component by a plain left-to-right sum that
starts from chunk 0's partial.  Results are therefore bit-identical for a
fixed seed regardless of the worker count.  A recursive sum of k partials is
off by at most (k - 1) u sum |x_i| (u = 2^-53), far below the percent-level
Monte Carlo standard errors it is compared against.  Contract 3 draws each
chunk's CES data in compound-Gaussian form (``sample_ces``).

The moments of a Hermitian p x p statistic accumulate on its p^2 real
coordinates (``lin_core._hermitian_coords``): the diagonal and the real and
imaginary parts of the upper triangle, taken from one real Gram of the
chunk.  A run rebuilds the complex p^2 x p^2 covariance and its standard
errors from them once, by an exact index map.  Reports therefore differ from
those of the complex accumulation by rounding only, under the same stream
contract 3.

Each running chunk borrows a workspace (``lin_core._Workspace``) from the
idle list ``_IDLE`` and gives it back when it ends, also when it raises.  The
chunk draws its data into the workspace's buffers and keeps its statistic and
temporaries there, so a warm run allocates no chunk-sized array and takes no
page faults for them (a warm p = 4 oracle call took 830-900 minor faults
with fresh arrays).  Workspaces outlive a run: the list keeps one per chunk
that ever ran concurrently, each holding the buffers of the largest chunk it
served, about 1.5-1.8 MB at p = 4 and 5.4 MB at p = 10 (n = 10).  A
workspace handed back is dropped, and its memory freed, if keeping it would
take the idle list above ``_IDLE_CAP`` (64 MiB) of buffers: one p = 24,
n = 30 run at ``workers=4`` would otherwise leave four workspaces of 137.6 MB
together.  Runs that large therefore allocate afresh in the chunks that get
no idle workspace.  No result bit depends on them: every partial sum a
kernel returns is a new array, and the row means taken in a workspace have
the bits of numpy's ``mean``.

``workers > 1`` runs the chunks on that many threads of the calling process
(numpy releases the GIL in the kernels that dominate a chunk), over the same
chunk grid, so the worker count changes no bit of a result.  The threads
belong to one pool that lives as long as the process: it is started by the
first run that asks for them, waits idle between runs, and is shared by
concurrent runs with the same worker count.  A run that asks for another
count replaces it, so at most one pool exists.  A child made by ``os.fork``
starts without it and makes its own.  Chunk code should use ufunc and BLAS
calls, which release the GIL for their work: on two threads of a 2-CPU VM,
centring a chunk with ``einsum`` ran 1.0-1.5x as fast as on one, against
1.5-1.75x with the ufunc ``mean``.  Run BLAS single-threaded
(``OPENBLAS_NUM_THREADS=1`` / ``OMP_NUM_THREADS=1``) with ``workers > 1`` so
that the two levels of threads do not oversubscribe the CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .ces_sampler import (CESModel, RngStream, StudentT, _draw_ces, elliptical_kurtosis, parse_family,
                          sample_sphere)
from .errors import InvalidFamily, TooFewObservations
from .estimators import _kurtosis_stack, _scm_stack, _weighted_scm_stack
from .lin_core import (_hermitian_coords, _scale_and_sphericity_stack, _Workspace, covariance_preset, unvec,
                       vec_index)
from .theory import (CovariancePair, RadialStructure, _var_times_commutation, affine_equivariant_var,
                     beta_opt, empirical_structure_pair, mse_scm, nmse_from_sphericity, scm_radial_structure)

__all__ = [
    "CHUNK",
    "STREAM_CONTRACT",
    "STATISTICS",
    "TARGETS",
    "MCConfig",
    "EmpiricalMoments",
    "RadialEstimate",
    "Tolerances",
    "ComparisonReport",
    "empirical_moments",
    "radial_estimate_from_moments",
    "compare_to_theory",
    "verify_sphere_moments",
    "verify_oracle_efficiency",
    "verify_target",
]

# Version of the mapping from (seed, replication) to random streams and data.
STREAM_CONTRACT = 3

# Fixed chunk sizes: the chunk grid (and with it every random stream and
# every accumulation order) must not depend on the worker count.  CHUNK
# bounds the per-chunk tensors, and with them the peak memory of a run.
CHUNK = 512
SPHERE_CHUNK = 65536

STATISTICS = ("scm", "wscm:one", "wscm:fobi")

_WEIGHTS = {
    "one": lambda d: np.ones_like(d),
    "fobi": lambda d: d,
}


def _statistic_fn(name: str):
    """The named statistic on a stack: (m, n, p) data and a workspace to the
    Hermitian coordinates (m, p^2) of its m matrices, in a buffer of that
    workspace.  Overwrites the data."""
    if name == "scm":
        return lambda x, ws: _scm_stack(x, ws)[0]
    if name.startswith("wscm:"):
        wid = name.split(":", 1)[1]
        if wid in _WEIGHTS:
            w = _WEIGHTS[wid]
            return lambda x, ws: _weighted_scm_stack(x, w, ws)
    raise ValueError(f"unknown statistic {name!r}; expected one of {STATISTICS}")


@dataclass(frozen=True, eq=False)
class MCConfig:
    """One Monte Carlo run: R replications of an n-observation statistic."""

    replications: int
    n: int
    model: CESModel
    statistic: str = "scm"
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError(f"need at least 2 replications, got {self.replications}")
        if self.n < 2:
            raise ValueError(f"need at least 2 observations per replication, got {self.n}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        _statistic_fn(self.statistic)
        family = self.model.family  # every MC standard error is eighth order in x
        if isinstance(family, StudentT) and family.dof <= 8.0:
            raise InvalidFamily(f"{family} has infinite E[r^8] (needs dof > 8), so the Monte Carlo "
                                "standard errors, eighth-order moments of the data, do not exist")


# The worker threads of runs with workers > 1: one pool of exactly _POOL_SIZE
# threads, made on first use and kept between runs.  _POOL_LOCK guards the
# pair and the submission of a run's chunks.
_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of exactly ``workers`` threads.  A pool of another
    size is replaced, and shut down without waiting: the chunks already
    queued on it still run.  Call with ``_POOL_LOCK`` held."""
    global _POOL, _POOL_SIZE
    if _POOL_SIZE != workers:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL, _POOL_SIZE = ThreadPoolExecutor(workers, thread_name_prefix="cescov-mc"), workers
    return _POOL


def _reduce_chunks(kernel, total: int, chunk: int, workers: int) -> dict:
    """Sums of the partials ``kernel(c, m)`` over the fixed grid of ``total``
    items in chunks of ``chunk`` (chunk ``c`` holds ``m`` items).

    Partials are dicts of arrays or scalars.  Each is merged in chunk order
    as soon as it arrives, so a run holds only the partials that finished
    ahead of their turn, never the whole list.  With ``workers > 1`` every
    chunk is queued on the process's pool of that many threads, which caps
    how many run at once, over the same grid, so the sums are bit-identical
    at any worker count.  An exception in a kernel cancels the chunks not yet
    started and is raised here once the running ones have ended.  Kernels
    must not call ``_reduce_chunks``: a chunk that waits for chunks queued
    behind it on the same pool can deadlock.
    """
    sizes = [min(chunk, total - lo) for lo in range(0, total, chunk)]
    if workers == 1:
        return _merge(map(kernel, range(len(sizes)), sizes))
    with _POOL_LOCK:
        pool = _worker_pool(workers)
        pending = deque(pool.submit(kernel, c, m) for c, m in enumerate(sizes))
    try:
        return _merge(pending.popleft().result() for _ in sizes)
    except BaseException:
        for future in pending:
            future.cancel()
        wait(pending)
        raise


def _merge(parts) -> dict:
    """Sums of partial dicts taken in order, with the keys and shapes of the
    first and its dtypes promoted to at least float64.  The sum starts from a
    copy of the first partial and adds each later one in place, so every real
    component (a complex entry's real and imaginary parts) is the plain
    left-to-right sum of its values."""
    parts = iter(parts)
    out = {key: np.array(v, np.result_type(v, np.float64)) for key, v in next(parts).items()}
    for part in parts:
        for key, value in out.items():
            value += part[key]
    return {key: value[()] if value.ndim == 0 else value for key, value in out.items()}


# Workspaces not lent to a running chunk.  No two running chunks share one,
# and the list never holds more than the largest number of chunks that ran
# at once, nor more than _IDLE_CAP bytes of buffers together.
_IDLE: list[_Workspace] = []
_IDLE_CAP = 64 * 2**20
_IDLE_LOCK = threading.Lock()


@contextmanager
def _borrowed_workspace():
    """An idle workspace, or a new one, lent for the body of the block.  It
    goes back to the idle list if the list stays within _IDLE_CAP bytes, and
    is dropped otherwise."""
    with _IDLE_LOCK:
        ws = _IDLE.pop() if _IDLE else _Workspace()
    try:
        yield ws
    finally:
        with _IDLE_LOCK:
            if ws.nbytes + sum(idle.nbytes for idle in _IDLE) <= _IDLE_CAP:
                _IDLE.append(ws)


def _forget_threads():
    """In a child made by ``os.fork``: drop the parent's pool, whose threads
    do not exist here, and renew the locks, which a thread of the parent may
    have held at the fork."""
    global _POOL, _POOL_SIZE, _POOL_LOCK, _IDLE_LOCK
    _POOL, _POOL_SIZE = None, 0
    _POOL_LOCK, _IDLE_LOCK = threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads)


def _draw_chunk(cfg: MCConfig, c: int, m: int, ws: _Workspace) -> np.ndarray:
    """The (m, n, p) data of chunk c, drawn from the single stream (seed, c)
    into buffers of the workspace."""
    rows, p = m * cfg.n, cfg.model.dim
    y, out = ws.take("draw", (rows, 2 * p)), ws.take("draw_x", (rows, p), np.complex128)
    return _draw_ces(cfg.model, RngStream(cfg.seed, c), y, out).reshape(m, cfg.n, p)


def _moment_kernel(c: int, m: int, cfg: MCConfig, ref: np.ndarray) -> dict:
    """Partial moment sums of chunk c, on the Hermitian coordinates of its
    statistics shifted by the coordinates ref."""
    coords = _hermitian_coords(cfg.model.dim)
    with _borrowed_workspace() as ws:
        h = _statistic_fn(cfg.statistic)(_draw_chunk(cfg, c, m, ws), ws)
        h -= ref
        sq = coords.sq_norm(h)  # per-replication ||T - M_ref||_F^2
        a2 = np.multiply(h, h, out=ws.take("h2", h.shape))
        u = a2[:, : coords.q]
        u[:, coords.p :] += a2[:, coords.q :]  # |T_ij - M_ij|^2 over the q unique entries
        # every partial is a new array: the workspace serves the next chunk
        return {
            "s1": h.sum(axis=0),
            "s2": h.T @ h,
            "f2": u.T @ u,
            "sq1": sq.sum(),
            "sq2": sq @ sq,
        }


@dataclass(frozen=True, eq=False)
class EmpiricalMoments:
    """Empirical mean, covariance and pseudo-covariance of a vectorized
    statistic over R replications, with per-entry Monte Carlo standard errors.

    The statistic is Hermitian, so its pseudo-covariance and that SE are
    derived from ``var_emp`` and ``se_var`` as var K_p, not stored.  The
    moments accumulate on the p^2 real coordinates of the statistic, and
    ``var_emp`` and ``se_var`` are rebuilt from them by an exact index map:
    ``var_emp`` is exactly Hermitian.
    ``mse_emp`` is the direct average of the squared Frobenius distance of
    the statistic from the model covariance matrix.
    """

    mean_stat: np.ndarray
    var_emp: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    se_scale: float
    mse_emp: float
    se_mse: float
    replications: int

    @property
    def pvar_emp(self) -> np.ndarray:
        return _var_times_commutation(self.var_emp)

    @property
    def se_pvar(self) -> np.ndarray:
        return _var_times_commutation(self.se_var)


def empirical_moments(cfg: MCConfig) -> EmpiricalMoments:
    """Estimate mean/covariance/pseudo-covariance of the configured statistic.

    The covariance and pseudo-covariance are centered at the empirical mean
    with divisor R - 1.  Deterministic for a fixed seed at any worker count.
    """
    p = cfg.model.dim
    coords = _hermitian_coords(p)
    ref = coords.from_matrix(cfg.model.cov)
    kernel = partial(_moment_kernel, cfg=cfg, ref=ref)
    tot = _reduce_chunks(kernel, cfg.replications, CHUNK, cfg.workers)

    r = cfg.replications
    mean_h = tot["s1"] / r
    var = coords.vec_cov((tot["s2"] - r * np.outer(mean_h, mean_h)) / (r - 1))
    mean_mat = coords.to_matrix(ref + mean_h)

    uniq = coords.re  # vec entry -> unique entry
    g2 = tot["f2"][np.ix_(uniq, uniq)] / r  # E |w_a w_b|^2, per entry
    se_var = np.sqrt(np.maximum(g2 - np.abs(var) ** 2, 0.0) / r)
    se_mean = unvec(np.sqrt(np.maximum(np.diag(var).real, 0.0) / r), p)

    mse_emp = float(tot["sq1"]) / r
    mse_sq = float(tot["sq2"]) / r
    se_mse = math.sqrt(max(mse_sq - mse_emp**2, 0.0) / r)

    return EmpiricalMoments(
        mean_stat=mean_mat,
        var_emp=var,
        se_mean=se_mean,
        se_var=se_var,
        se_scale=float(se_var.max()),
        mse_emp=mse_emp,
        se_mse=se_mse,
        replications=r,
    )


@dataclass(frozen=True)
class RadialEstimate:
    """Empirical (sigma, tau1, tau2) with standard errors.

    Unlike :class:`~cescov.theory.RadialStructure`, the values are raw
    estimates and are not forced to satisfy the theoretical constraints.
    """

    sigma: float
    tau1: float
    tau2: float
    se_sigma: float
    se_tau1: float
    se_tau2: float


def radial_estimate_from_moments(emp: EmpiricalMoments) -> RadialEstimate:
    """Extract radial constants from moments estimated at a spherical model."""
    p = emp.mean_stat.shape[0]
    if p < 2:
        raise ValueError("radial constants need p >= 2 (no off-diagonal pair)")
    # the p(p-1) off-diagonal pairs (i, j) in row-major order
    i, j = np.divmod(np.arange(p * p), p)
    i, j = i[i != j], j[i != j]
    ij, ii, jj = vec_index(i, j, p), vec_index(i, i, p), vec_index(j, j, p)
    return RadialEstimate(
        sigma=float(np.diag(emp.mean_stat).real.mean()),
        tau1=float(emp.var_emp[ij, ij].real.mean()),
        tau2=float(emp.var_emp[ii, jj].real.mean()),
        se_sigma=float(np.diag(emp.se_mean).mean()),
        se_tau1=float(emp.se_var[ij, ij].mean()),
        se_tau2=float(emp.se_var[ii, jj].mean()),
    )


@dataclass(frozen=True)
class Tolerances:
    """Pass/fail thresholds: entrywise deviations in SE units, relative
    errors for the radial constants and the MSE."""

    se_mult: float = 4.0
    rel_tau: float = 0.02
    rel_mse: float = 0.02

    @staticmethod
    def for_family(family) -> "Tolerances":
        # heavy tails inflate the estimator variance; allow 5% instead of 2%
        rel = 0.05 if elliptical_kurtosis(family) > 0 else 0.02
        return Tolerances(rel_tau=rel, rel_mse=rel)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of one empirical-vs-theory comparison.

    ``max_abs_dev_var`` / ``max_abs_dev_pvar`` are entrywise deviations in
    per-entry SE units.  ``passed`` is True iff every deviation that was
    computed lies within its stated tolerance.  (Serialized under the JSON
    key "pass".)
    """

    passed: bool
    tolerances: Tolerances
    max_abs_dev_var: float | None = None
    max_abs_dev_pvar: float | None = None
    rel_err_tau1: float | None = None
    rel_err_tau2: float | None = None
    rel_err_mse: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        return {"pass": d.pop("passed"), **d}


_ZERO_REF = 1e-12


def compare_to_theory(
    emp: EmpiricalMoments,
    theo: CovariancePair,
    tolerances: Tolerances | None = None,
    *,
    radial_theory: RadialStructure | None = None,
    radial_estimate: RadialEstimate | None = None,
    mse_theory: float | None = None,
) -> ComparisonReport:
    """Compare empirical moments against a theoretical covariance pair.

    Entrywise deviations are normalized by the per-entry MC standard error.
    The pseudo-covariance is a column permutation of the covariance on both
    sides (pvar = var K_p), so its deviation equals the covariance's and is
    reported under both ``max_abs_dev_var`` and ``max_abs_dev_pvar``.
    If a theoretical radial structure (with its estimate) or an MSE value is
    supplied, relative errors for tau1/tau2/MSE are checked as well; a tau
    reference of zero is checked in SE units instead of relatively.
    """
    if emp.var_emp.shape != theo.var.shape:
        raise ValueError(
            f"shape mismatch: empirical {emp.var_emp.shape} vs theory {theo.var.shape}"
        )
    tol = tolerances or Tolerances()
    checks: list[bool] = []
    details: dict = {"se_scale": emp.se_scale}

    dev_var = float((np.abs(emp.var_emp - theo.var) / np.maximum(emp.se_var, 1e-300)).max())
    checks.append(dev_var <= tol.se_mult)

    rel_t1 = rel_t2 = rel_mse = None
    if radial_theory is not None and radial_estimate is not None:
        for name, ref, est, se in (
            ("tau1", radial_theory.tau1, radial_estimate.tau1, radial_estimate.se_tau1),
            ("tau2", radial_theory.tau2, radial_estimate.tau2, radial_estimate.se_tau2),
        ):
            details[f"{name}_theory"] = ref
            details[f"{name}_est"] = est
            if abs(ref) > _ZERO_REF:
                rel = abs(est - ref) / abs(ref)
                checks.append(rel <= tol.rel_tau)
                if name == "tau1":
                    rel_t1 = rel
                else:
                    rel_t2 = rel
            else:
                dev_se = abs(est) / max(se, 1e-300)
                details[f"{name}_dev_se"] = dev_se
                checks.append(dev_se <= tol.se_mult)
    if mse_theory is not None:
        details["mse_theory"] = mse_theory
        details["mse_emp"] = emp.mse_emp
        rel_mse = abs(emp.mse_emp - mse_theory) / abs(mse_theory)
        checks.append(rel_mse <= tol.rel_mse)

    return ComparisonReport(
        passed=all(checks),
        tolerances=tol,
        max_abs_dev_var=dev_var,
        max_abs_dev_pvar=dev_var,
        rel_err_tau1=rel_t1,
        rel_err_tau2=rel_t2,
        rel_err_mse=rel_mse,
        details=details,
    )


# ---------------------------------------------------------------------------
# Sphere moment verification
# ---------------------------------------------------------------------------


def _sphere_kernel(c: int, m: int, p: int, seed: int) -> dict:
    u = sample_sphere(p, RngStream(seed, c), size=m)
    a2 = u.real**2 + u.imag**2
    a4 = a2 * a2
    return {
        "m1": u.sum(axis=0),
        "m2": a2.sum(axis=0),
        "m4": a4.sum(axis=0),
        "m6": (a4 * a2).sum(axis=0),
        "m8": (a4 * a4).sum(axis=0),
        "m22": a2.T @ a2,
        "m44": a4.T @ a4,
        "c2": u.T @ u.conj(),
        "cp": u.T @ u,
        "c4": (u * u).T @ (u * u).conj(),
        "m3": (a2 * u).sum(axis=0),
    }


def verify_sphere_moments(p: int, draws: int, seed: int, workers: int = 1) -> ComparisonReport:
    """Check the second and fourth moments of the uniform complex sphere.

    Targets: E|u_q|^2 = 1/p, E|u_q|^4 = 2/(p(p+1)), E|u_q|^2 |u_r|^2 =
    1/(p(p+1)) for q != r, and a panel of moments that must vanish
    (E[u_q], E[u_q u_r], E[u_q u_r*] for q != r, E[u_q^2 u_r*^2] for q != r,
    E[|u_q|^2 u_q]).  The nonzero-target deviations are reported in
    ``max_abs_dev_var`` and the vanishing panel in ``max_abs_dev_pvar``,
    both in per-entry SE units and each checked against 4 SE.
    """
    if p < 2:
        raise ValueError(f"sphere moment verification needs p >= 2, got {p}")
    if draws < 10_000:
        raise ValueError(f"need at least 10^4 draws, got {draws}")
    kernel = partial(_sphere_kernel, p=p, seed=seed)
    n = float(draws)
    mom = {key: v / n for key, v in _reduce_chunks(kernel, draws, SPHERE_CHUNK, workers).items()}
    m1, m2, m4, m6, m8 = mom["m1"], mom["m2"], mom["m4"], mom["m6"], mom["m8"]
    m22, m44, c2, cp, c4, m3 = mom["m22"], mom["m44"], mom["c2"], mom["cp"], mom["c4"], mom["m3"]

    off = ~np.eye(p, dtype=bool)
    devs_target = []
    dev_m2 = np.abs(m2 - 1.0 / p) / np.sqrt(np.maximum(m4 - m2**2, 1e-300) / n)
    devs_target.append(dev_m2.max())
    t4 = 2.0 / (p * (p + 1))
    dev_m4 = np.abs(m4 - t4) / np.sqrt(np.maximum(m8 - m4**2, 1e-300) / n)
    devs_target.append(dev_m4.max())
    t22 = 1.0 / (p * (p + 1))
    se22 = np.sqrt(np.maximum(m44 - m22**2, 1e-300) / n)
    dev_m22 = (np.abs(m22 - t22) / se22)[off]
    devs_target.append(dev_m22.max())

    devs_zero = []
    devs_zero.append((np.abs(m1) / np.sqrt(np.maximum(m2 - np.abs(m1) ** 2, 1e-300) / n)).max())
    se_cross = np.sqrt(np.maximum(m22, 1e-300) / n)
    devs_zero.append((np.abs(c2) / se_cross)[off].max())
    devs_zero.append((np.abs(cp) / se_cross).max())
    se4 = np.sqrt(np.maximum(m44, 1e-300) / n)
    devs_zero.append((np.abs(c4) / se4)[off].max())
    devs_zero.append((np.abs(m3) / np.sqrt(np.maximum(m6, 1e-300) / n)).max())

    dev_var = float(max(devs_target))
    dev_pvar = float(max(devs_zero))
    tol = Tolerances()
    return ComparisonReport(
        passed=dev_var <= tol.se_mult and dev_pvar <= tol.se_mult,
        tolerances=tol,
        max_abs_dev_var=dev_var,
        max_abs_dev_pvar=dev_pvar,
        details={
            "draws": draws,
            "abs2_max_dev_se": float(dev_m2.max()),
            "abs4_max_dev_se": float(dev_m4.max()),
            "cross22_max_dev_se": float(dev_m22.max()),
            "vanishing_max_dev_se": dev_pvar,
        },
    )


# ---------------------------------------------------------------------------
# Oracle shrinkage efficiency verification
# ---------------------------------------------------------------------------


def _plugin_beta(rows: np.ndarray, h: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Per-replication plug-in shrinkage coefficients of a stack of datasets
    with centred observation-major rows (n, m, 2p) and SCM coordinates h,
    from its estimated sphericity and kurtosis."""
    n, p = rows.shape[0], rows.shape[2] // 2
    _, gamma = _scale_and_sphericity_stack(h)
    return beta_opt(nmse_from_sphericity(n, p, gamma, _kurtosis_stack(rows, ws)))


def _oracle_kernel(c: int, m: int, cfg: MCConfig, ref: np.ndarray, beta: float, plugin: bool) -> dict:
    """Partial sums of the squared errors of chunk c's SCMs, scaled by beta
    (and by the plug-in coefficient), from the model covariance with
    coordinates ref."""
    sq_norm = _hermitian_coords(cfg.model.dim).sq_norm
    with _borrowed_workspace() as ws:
        h, _, rows = _scm_stack(_draw_chunk(cfg, c, m, ws), ws)  # rows: the centred data
        d = ws.take("err", h.shape)
        e1 = sq_norm(np.subtract(h, ref, out=d))
        np.multiply(beta, h, out=d)
        e2 = sq_norm(np.subtract(d, ref, out=d))
        part = {"e1": e1.sum(), "e2": e2.sum(), "e11": e1 @ e1, "e22": e2 @ e2, "e12": e1 @ e2}
        if plugin:
            np.multiply(_plugin_beta(rows, h, ws)[:, None], h, out=d)
            part["e3"] = sq_norm(np.subtract(d, ref, out=d)).sum()
        return part


def verify_oracle_efficiency(
    cfg: MCConfig, beta: float | None = None, include_plugin: bool = False
) -> ComparisonReport:
    """Check that scaling the SCM by the oracle coefficient shrinks its MSE
    by exactly that coefficient.

    Estimates E||S - M||_F^2 and E||beta S - M||_F^2 over the configured
    replications and tests that their ratio matches the oracle coefficient
    within 3 delta-method standard errors, with strict improvement.
    ``beta`` overrides the oracle value (useful as a control); with
    ``include_plugin`` the ratio for a per-replication plug-in coefficient
    (from estimated sphericity and kurtosis) is reported as well, without
    being part of the pass criterion; its kurtosis estimate needs n >= 4.
    """
    if include_plugin and cfg.n < 4:
        raise TooFewObservations(f"need at least 4 observations, got {cfg.n}")
    model = cfg.model
    mse_t, nmse_t = mse_scm(model.cov, cfg.n, model.kappa)
    beta_o = beta_opt(nmse_t)
    b = beta_o if beta is None else float(beta)

    ref = _hermitian_coords(model.dim).from_matrix(model.cov)
    kernel = partial(_oracle_kernel, cfg=cfg, ref=ref, beta=b, plugin=include_plugin)
    tot = _reduce_chunks(kernel, cfg.replications, CHUNK, cfg.workers)

    r = cfg.replications
    mean1 = float(tot["e1"]) / r
    mean2 = float(tot["e2"]) / r
    ratio = mean2 / mean1
    v11 = float(tot["e11"]) / r - mean1**2
    v22 = float(tot["e22"]) / r - mean2**2
    c12 = float(tot["e12"]) / r - mean1 * mean2
    se_ratio = math.sqrt(max(v22 + ratio**2 * v11 - 2 * ratio * c12, 0.0) / r) / mean1
    dev_se = abs(ratio - b) / max(se_ratio, 1e-300)

    details = {
        "beta_used": b,
        "beta_oracle": beta_o,
        "ratio": ratio,
        "se_ratio": se_ratio,
        "ratio_dev_se": dev_se,
        "mse_emp": mean1,
        "mse_theory": mse_t,
        "improved": mean2 < mean1,
    }
    if include_plugin:
        details["plugin_ratio"] = float(tot["e3"]) / r / mean1

    tol = Tolerances(se_mult=3.0)
    passed = dev_se <= tol.se_mult and ratio < 1.0 and mean2 < mean1
    return ComparisonReport(
        passed=passed,
        tolerances=tol,
        max_abs_dev_var=dev_se,
        rel_err_mse=abs(mean1 - mse_t) / mse_t,
        details=details,
    )


# ---------------------------------------------------------------------------
# The checks of ``cescov mc-verify``
# ---------------------------------------------------------------------------

TARGETS = ("thm1", "thm3", "transport", "sphere", "oracle")


def verify_target(target: str, dist: str, n: int, p: int, cov: str, replications: int, seed: int,
                  workers: int = 1, statistic: str = "scm", plugin: bool = False) -> ComparisonReport:
    """The check that ``cescov mc-verify`` runs, keyed by the values of its
    flags.  thm1 compares ``statistic`` at the spherical model with the
    two-constant form of its empirical (tau1, tau2); thm3 the SCM there with
    its closed-form tau1, tau2, covariance and MSE; transport the SCM at the
    covariance ``cov`` (a :func:`~cescov.lin_core.covariance_preset` spec)
    with its transported covariance and MSE; sphere the unit-sphere moment
    panel in dimension p (``dist`` and n unused); oracle the shrinkage MSE
    ratio at ``cov``, with the plug-in ratio if ``plugin``.  Only transport
    and oracle read ``cov``, and only thm1 ``statistic``.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    if target == "sphere":
        return verify_sphere_moments(p, replications, seed, workers=workers)
    family = parse_family(dist)
    tol = Tolerances.for_family(family)
    m = covariance_preset(cov, p) if target in ("transport", "oracle") else np.eye(p, dtype=np.complex128)
    model = CESModel(np.zeros(p, dtype=np.complex128), m, family)
    stat = statistic if target == "thm1" else "scm"
    cfg = MCConfig(replications, n, model, stat, seed, workers)
    if target == "oracle":
        return verify_oracle_efficiency(cfg, include_plugin=plugin)
    emp = empirical_moments(cfg)
    if target == "thm1":
        est = radial_estimate_from_moments(emp)
        return compare_to_theory(emp, empirical_structure_pair(est.tau1, est.tau2, p), tol)
    # at cov = I (thm3) the transported pair is the radial form
    struct = scm_radial_structure(n, model.kappa, p)
    pair = affine_equivariant_var(model.cov, struct)
    mse_t, _ = mse_scm(model.cov, n, model.kappa)
    radial = {}
    if target == "thm3":
        radial = dict(radial_theory=struct, radial_estimate=radial_estimate_from_moments(emp))
    return compare_to_theory(emp, pair, tol, mse_theory=mse_t, **radial)
