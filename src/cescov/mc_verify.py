"""Monte Carlo harness: empirical moments of matrix statistics and pass/fail
comparisons against the closed-form second-order theory.  ``verify_target``
is the check that ``cescov mc-verify`` runs for each of its ``TARGETS``: it
picks the model, the closed form and the MSE of the target.  Each
verification returns a :class:`ComparisonReport` of named checks, each a
value and its limit, which passes iff every value lies below its limit.
The scalar checks of :func:`compare_to_theory` (tau1, tau2, the MSE) are
z-scores, each the distance of the mean of a per-replication scalar from
its closed form in units of its SE, sd / sqrt(R), under one limit: Sidak's
over the scalar checks of the report at the family-wise false-fail rate
``ALPHA``, whatever the family.

Stream contract 5 (``STREAM_CONTRACT``): the replications of a run are cut
into a fixed grid of chunks, the last chunk holding the remainder.  A chunk
holds ``_chunk_size(n, p)`` replications: at least ``CHUNK``, and about as
many values as a chunk of ``CHUNK`` datasets of n = p = 10 holds, so the
fixed cost of a chunk is spread over a similar volume of data at any p
(2560 at n = 10, p = 2; 1280 at p = 4; ``CHUNK`` from n p = 100 on).  The
sphere check draws ``SPHERE_CHUNK`` directions per chunk.  Chunk ``c`` of m
replications draws all of its data from the single random stream
``(seed, c)`` as one ``sample_ces`` draw of m * n rows, read
observation-major: row ``i * m + j`` is observation i of replication j.  It
computes the statistic of all m replications at once and reduces it to
partial sums.  The partial sums are merged in chunk order as they
arrive, each real component by a plain left-to-right sum that starts from
chunk 0's partial.  Results are therefore bit-identical for a fixed seed
regardless of the worker count, at a fixed BLAS thread count: threaded BLAS
splits the reductions of its products differently, which changes the
rounding of the transport moment sums.  A recursive sum of k partials is
off by at most (k - 1) u sum |x_i| (u = 2^-53), far below the
percent-level Monte Carlo standard errors it is compared against.

The moments of a Hermitian p x p statistic accumulate on its p^2 real
coordinates (``lin_core._hermitian_coords``): the diagonal and the real and
imaginary parts of the upper triangle, taken from one real Gram of the
chunk.  Three sums are kept: s1 of the coordinates, s2 of their outer
products and f2 of the outer products of the unique entries' squared
moduli.  A run rebuilds the complex p^2 x p^2 covariance and its standard
errors from them once, by an exact index map, and takes the MSE and its
standard error as closed forms of the diagonal of s2 and of f2, and five
of the seven sums of the radial scalars as closed forms of s1, s2 and f2;
the chunks add the other two, b2 and bt, beside them.  Reports
therefore differ from those of the complex accumulation by rounding only,
under the same stream contract.

Both checks of a statistic's chunks, the moments and the oracle
shrinkage, run one kernel (``_chunk_kernel``): it draws the chunk, takes
its statistic and hands both to the check's sums function.  Each running
chunk borrows a workspace (``lin_core._borrowed_workspace``)
for its draw, its statistic and its temporaries, and gives it back when it
ends, also when it raises.  The workspace holds the chunk's data once: the
draw writes them to its observation-major buffer "rows", where the
covariance root multiplies them in place (``ces_sampler``), and the
statistic centres them there in place and builds its Grams a block of
replications at a time (``estimators``).  The moment sums square the
coordinates "h" in place once their sums are taken.  No result bit depends
on the workspace: every partial sum a kernel returns is a new array, and
the row means taken in a workspace have the bits of numpy's ``mean``.

``workers > 1`` runs the chunks on that many threads of the calling process
(numpy releases the GIL in the kernels that dominate a chunk), over the same
chunk grid, so the worker count changes no bit of a result.  The threads
belong to a pool cached for the next run (``_worker_pool``): it is started
by the first run that asks for them, waits idle between runs, and is shared
by concurrent runs with the same worker count.  A run that asks for another
count evicts it from the cache, and the evicted pool's threads end once no
run holds it.  A child made by ``os.fork`` starts with an empty cache and
makes its own pool.  Chunk code should use ufunc and BLAS calls, which
release the GIL for their work: on two threads of a 2-CPU VM, centring a
chunk with ``einsum`` ran 1.0-1.5x as fast as on one, against 1.5-1.75x
with the ufunc ``mean``.  Run BLAS single-threaded
(``OPENBLAS_NUM_THREADS=1`` / ``OMP_NUM_THREADS=1``) with ``workers > 1`` so
that the two levels of threads do not oversubscribe the CPUs.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from statistics import NormalDist

import numpy as np

from .ces_sampler import CESModel, RngStream, StudentT, _draw_ces, _draw_sphere, parse_family
from .errors import InvalidFamily, TooFewObservations
from .estimators import _kurtosis_stack, _scm_stack, _weighted_scm_stack
from .lin_core import (_borrowed_workspace, _hermitian_coords, _row_blocks, _scale_and_sphericity_stack,
                       _Workspace, covariance_preset, unvec)
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
    "Check",
    "ComparisonReport",
    "empirical_moments",
    "radial_estimate_from_moments",
    "compare_to_theory",
    "verify_sphere_moments",
    "verify_oracle_efficiency",
    "verify_target",
]

# Version of the mapping from (seed, replication) to random streams and data.
STREAM_CONTRACT = 5

# Chunk sizes: the chunk grid (and with it every random stream and every
# accumulation order) depends on (n, p) only, never on the worker count.  A
# chunk holds at least CHUNK replications and about _CHUNK_VALUES data
# values, as many as CHUNK datasets of n = p = 10; from n p = 100 on its
# data grow with n p.  The chunk tensors set the peak memory of a run.
CHUNK = 512
_CHUNK_VALUES = CHUNK * 100
SPHERE_CHUNK = 65536

# Each statistic's stacked core: a chunk's observation-major rows (n, m, 2p),
# centred in place, and a workspace to the Hermitian coordinates (m, p^2) of
# its m matrices, in a buffer of that workspace.
_STATISTICS = {
    "scm": lambda rows, ws: _scm_stack(rows, ws)[0],
    "wscm:one": lambda rows, ws: _weighted_scm_stack(rows, np.ones_like, ws),
    "wscm:fobi": lambda rows, ws: _weighted_scm_stack(rows, lambda d: d, ws),
}
STATISTICS = tuple(_STATISTICS)


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
        if self.statistic not in _STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; expected one of {STATISTICS}")
        family = self.model.family  # every MC standard error is eighth order in x
        if isinstance(family, StudentT) and family.dof <= 8.0:
            raise InvalidFamily(f"{family} has infinite E[r^8] (needs dof > 8), so the Monte Carlo "
                                "standard errors, eighth-order moments of the data, do not exist")


@lru_cache(maxsize=1)
def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The pool of ``workers`` threads, kept for the next run.  A call with
    another count evicts it.  No pool is shut down: a run holds its pool
    until its last chunk is merged, and the idle threads of an evicted pool
    end once no run holds it (``ThreadPoolExecutor`` wakes them when it is
    collected)."""
    return ThreadPoolExecutor(workers, thread_name_prefix="cescov-mc")


if hasattr(os, "register_at_fork"):  # a forked child has none of the parent's threads
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


def _chunk_size(n: int, p: int) -> int:
    """Replications per chunk of datasets of n observations in dimension p:
    as many as ``_CHUNK_VALUES`` values hold, and at least ``CHUNK``."""
    return max(CHUNK, _CHUNK_VALUES // (n * p))


def _reduce_chunks(kernel, total: int, chunk: int, workers: int) -> dict:
    """Sums of the partials ``kernel(c, m)`` over the fixed grid of ``total``
    items in chunks of ``chunk`` (chunk ``c`` holds ``m`` items).

    Partials are dicts of arrays or scalars.  Each is merged in chunk order
    as soon as it arrives, so a run holds only the partials that finished
    ahead of their turn, never the whole list.  With ``workers > 1`` every
    chunk is queued on the cached pool of that many threads, which caps how
    many run at once; the run holds that pool until its last chunk is
    merged, even if another count evicts it from the cache meanwhile.  The
    grid does not depend on the worker count, so neither do the sums' bits.
    An exception in a kernel cancels the chunks not yet started and is
    raised here once the running ones have ended.  Kernels must not call
    ``_reduce_chunks``: a chunk that waits for chunks queued behind it on
    the same pool can deadlock.  A grid of one chunk runs on the calling
    thread at any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sizes = [min(chunk, total - lo) for lo in range(0, total, chunk)]
    if workers == 1 or len(sizes) == 1:
        return _merge(map(kernel, range(len(sizes)), sizes))
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


def _draw_chunk(cfg: MCConfig, c: int, m: int, ws: _Workspace) -> np.ndarray:
    """The observation-major rows (n, m, 2p) of chunk c's m datasets:
    ``sample_ces`` of m * n rows from the single stream (seed, c), row
    i * m + j being observation i of dataset j, a complex entry as its real
    and imaginary parts.  They are drawn straight into the workspace buffer
    "rows", where the product with the covariance root happens too, in
    place, and the stacked cores then centre them in place."""
    n, p = cfg.n, cfg.model.dim
    rows = ws.take("rows", (n * m, 2 * p))
    _draw_ces(cfg.model, RngStream(cfg.seed, c), rows)
    return rows.reshape(n, m, 2 * p)


def _chunk_kernel(c: int, m: int, cfg: MCConfig, sums) -> dict:
    """The partial sums of chunk c: ``sums(h, rows, ws)`` of the Hermitian
    coordinates h of its m statistics, of its rows, which the statistic has
    centred in place, and of the workspace that holds both."""
    with _borrowed_workspace() as ws:
        rows = _draw_chunk(cfg, c, m, ws)
        return sums(_STATISTICS[cfg.statistic](rows, ws), rows, ws)


def _moment_sums(h: np.ndarray, rows: np.ndarray, ws: _Workspace, ref: np.ndarray) -> dict:
    """Partial moment sums of a chunk's statistics on their Hermitian
    coordinates h shifted by the coordinates ref: s1, the sum of the
    coordinates; s2, the sum of their outer products; and f2, the sum of
    the outer products of the squared moduli of the q unique entries.  With
    d = h - ref, t = tr(T - M) and b = t^2 - sum_i d_ii^2 per replication,
    b2 and bt are the sums of b^2 and b t, the two sums of the radial
    scalars that s1, s2 and f2 do not hold (see :func:`_moments_from_sums`).
    Spends h."""
    coords = _hermitian_coords(rows.shape[2] // 2)
    ones = np.ones(coords.p)
    h -= ref
    # every partial is a new array: the workspace serves the next chunk
    part = {"s1": h.sum(axis=0), "s2": h.T @ h}
    t = h[:, : coords.p] @ ones  # tr(T - M)
    h *= h  # h is spent
    b = t * t - h[:, : coords.p] @ ones  # 2 sum_{i<j} d_ii d_jj
    part["b2"], part["bt"] = b @ b, b @ t
    u = h[:, : coords.q]
    u[:, coords.p :] += h[:, coords.q :]  # |T_ij - M_ij|^2 over the q unique entries
    part["f2"] = u.T @ u
    return part


@dataclass(frozen=True, eq=False)
class EmpiricalMoments:
    """Empirical mean, covariance and pseudo-covariance of a vectorized
    statistic over R replications, with per-entry Monte Carlo standard errors.

    The statistic is Hermitian, so its pseudo-covariance and that SE are
    derived from ``var_emp`` and ``se_var`` as var K_p, not stored.  The
    moments accumulate on the p^2 real coordinates of the statistic, and
    ``var_emp`` and ``se_var`` are rebuilt from them by an exact index map:
    ``var_emp`` is exactly Hermitian.
    ``mse_emp`` is the average squared Frobenius distance of the statistic
    from the model covariance matrix, and ``se_mse`` its standard error,
    both closed forms of the moment sums s2 and f2 (see
    :func:`_moments_from_sums`).  ``radial_sums`` holds the sums over the
    replications of the scalars that :func:`radial_estimate_from_moments`
    reads, with d the coordinates of T - M: t, t^2, A, A^2, B, B^2 and B t,
    where t = tr(T - M), A = sum_{i<j} |d_ij|^2 and B = sum_{i<j} d_ii d_jj
    (A and B are 0 at p = 1).
    """

    mean_stat: np.ndarray
    var_emp: np.ndarray
    se_mean: np.ndarray
    se_var: np.ndarray
    se_scale: float
    mse_emp: float
    se_mse: float
    replications: int
    radial_sums: np.ndarray

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
    ref = _hermitian_coords(cfg.model.dim).from_matrix(cfg.model.cov)
    kernel = partial(_chunk_kernel, cfg=cfg, sums=partial(_moment_sums, ref=ref))
    tot = _reduce_chunks(kernel, cfg.replications, _chunk_size(cfg.n, cfg.model.dim), cfg.workers)
    return _moments_from_sums(tot, cfg.replications, cfg.model.dim, ref)


def _moments_from_sums(tot: dict, r: int, p: int, ref: np.ndarray) -> EmpiricalMoments:
    """The moments of r replications from the merged partial sums s1, s2
    and f2 (``tot``) of ``_moment_sums`` at the shift ref; overwrites
    ``tot["s2"]``.  The squared distance of replication j from the shift is
    sq_j = sum_k weight_k h_jk^2, so sum_j sq_j = weight . diag(s2) and
    sum_j sq_j^2 = w^T f2 w, with w the weights of the q unique entries (1
    on the diagonal, 2 above it): the MSE and its standard error are read
    from s2 before it is overwritten.  So are five of the seven radial sums,
    exactly: sum t = 1^T s1[:p], sum t^2 = 1^T s2[:p, :p] 1, sum A =
    tr s2[p:, p:], sum A^2 = 1^T f2[p:, p:] 1 and sum B = (sum t^2 -
    tr s2[:p, :p]) / 2; sum B^2 and sum B t are b2 / 4 and bt / 2.  The
    p^2 x p^2 arrays are built in place, one operation at a time in the
    order of the plain expressions, so besides ``tot`` and the results no
    more than two real p^2 x p^2 temporaries are alive at once."""
    coords = _hermitian_coords(p)
    mse_emp = float(coords.weight @ np.diag(tot["s2"])) / r
    w = coords.weight[: coords.q]
    mse_sq = float(w @ tot["f2"] @ w) / r
    se_mse = math.sqrt(max(mse_sq - mse_emp**2, 0.0) / r)
    diag, off = tot["s2"][:p, :p], tot["s2"][p:, p:]
    radial_sums = np.array([tot["s1"][:p].sum(), diag.sum(), np.trace(off), tot["f2"][p:, p:].sum(),
                            (diag.sum() - np.trace(diag)) / 2, tot["b2"] / 4, tot["bt"] / 2])

    mean_h = tot["s1"] / r
    cov_h = tot["s2"]
    cov_h -= r * np.outer(mean_h, mean_h)
    cov_h /= r - 1
    var = coords.vec_cov(cov_h)
    mean_mat = coords.to_matrix(ref + mean_h)

    uniq = coords.re  # vec entry -> unique entry
    se_var = tot["f2"][np.ix_(uniq, uniq)]
    se_var /= r  # E |w_a w_b|^2, per entry
    abs2 = np.square(np.abs(var, out=cov_h), out=cov_h)  # cov_h is spent
    se_var -= abs2
    np.maximum(se_var, 0.0, out=se_var)
    se_var /= r
    np.sqrt(se_var, out=se_var)
    se_mean = unvec(np.sqrt(np.maximum(np.diag(var).real, 0.0) / r), p)

    return EmpiricalMoments(
        mean_stat=mean_mat,
        var_emp=var,
        se_mean=se_mean,
        se_var=se_var,
        se_scale=float(se_var.max()),
        mse_emp=mse_emp,
        se_mse=se_mse,
        replications=r,
        radial_sums=radial_sums,
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
    """Extract radial constants from moments estimated at a spherical model
    M = c I, each the mean of a per-replication scalar (``emp.radial_sums``)
    with its standard error sd / sqrt(R).  With P = p(p-1)/2 pairs, tau1 is
    the mean of A / P, the mean of |T_ij|^2 over the pairs i < j, and tau2
    the mean of sum_{i<j} (T_ii - s)(T_jj - s) / P = (B - delta (p-1) t +
    P delta^2) / P, centred at the estimated diagonal s = c + delta, with
    delta the mean of t / p; taking s for the true sigma moves neither
    estimate at first order.  sigma is the mean diagonal of ``mean_stat``,
    and se_sigma the standard error of the mean of t / p."""
    p = emp.mean_stat.shape[0]
    if p < 2:
        raise ValueError("radial constants need p >= 2 (no off-diagonal pair)")
    pairs = p * (p - 1) / 2
    t, tt, a, aa, b, bb, bt = emp.radial_sums / emp.replications
    delta = t / p
    c = delta * (p - 1)  # B - c t + pairs delta^2 sums (T_ii - s)(T_jj - s) over the pairs

    def se(var):  # sd / sqrt(R) of a scalar with variance var
        return math.sqrt(max(var, 0.0) / emp.replications)

    return RadialEstimate(
        sigma=float(np.diag(emp.mean_stat).real.mean()),
        tau1=float(a / pairs),
        tau2=float((b - c * t) / pairs + delta * delta),
        se_sigma=se(tt - t * t) / p,
        se_tau1=se(aa - a * a) / pairs,
        se_tau2=se(bb - 2 * c * bt + c * c * tt - (b - c * t) ** 2) / pairs,
    )


@dataclass(frozen=True)
class Tolerances:
    """The limit of the entrywise check ``var_dev_se`` of
    :func:`compare_to_theory`, in SE units.  The scalar checks take their
    limit from ``ALPHA`` instead (:func:`_sidak_limit`)."""

    se_mult: float = 4.0

    @staticmethod
    def for_family(family) -> "Tolerances":
        # bench/workloads.py still calls this
        return Tolerances()


@dataclass(frozen=True)
class Check:
    """One named check of a report: it passes iff ``value < limit``."""

    value: float
    limit: float


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of one empirical-vs-theory comparison: named ``checks`` and
    informational ``details``.

    ``passed`` holds iff every check's value lies strictly below its limit,
    so a NaN value fails.  ``to_dict`` serializes it under the JSON key
    "pass", beside ``checks`` (each ``{value, limit}``) and ``details``.
    """

    checks: dict[str, Check]
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.value < c.limit for c in self.checks.values())

    def to_dict(self) -> dict:
        return {"pass": self.passed, **asdict(self)}


# The family-wise false-fail rate of the scalar checks of one report.
ALPHA = 1e-3


def _sidak_limit(k: int, alpha: float = ALPHA) -> float:
    """The limit on |z| of each of k two-sided z-checks under which a run
    that meets the theory fails with probability alpha (Sidak, JASA 1967)."""
    return NormalDist().inv_cdf(1 - (1 - (1 - alpha) ** (1 / k)) / 2)


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

    The check ``var_dev_se`` is the largest entrywise deviation of the
    covariance in per-entry MC standard errors, against
    ``tolerances.se_mult``.  The pseudo-covariance is a column permutation
    of the covariance on both sides (pvar = var K_p), so its deviation is
    the same one and is not checked apart.  The scalar checks are z-scores
    |estimate - theory| / SE: ``tau1_z`` and ``tau2_z`` with a theoretical
    radial structure and its estimate, and ``mse_z`` with an MSE value.
    They share one limit, ``_sidak_limit(k)`` over the k scalar checks of
    the report, so that a run that meets the theory fails one of them with
    probability ``ALPHA``.
    """
    if emp.var_emp.shape != theo.var.shape:
        raise ValueError(
            f"shape mismatch: empirical {emp.var_emp.shape} vs theory {theo.var.shape}"
        )
    tol = tolerances or Tolerances()
    details: dict = {"se_scale": emp.se_scale}

    # a block of rows at a time, with the bits of the whole-array expression
    dev_var = float(np.max([
        (np.abs(emp.var_emp[rows] - theo.var[rows]) / np.maximum(emp.se_var[rows], 1e-300)).max()
        for rows in _row_blocks(*emp.var_emp.shape)
    ]))
    checks = {"var_dev_se": Check(dev_var, tol.se_mult)}

    scalars = {}  # name -> (theory, estimate, SE)
    if radial_theory is not None and radial_estimate is not None:
        scalars["tau1"] = radial_theory.tau1, radial_estimate.tau1, radial_estimate.se_tau1
        scalars["tau2"] = radial_theory.tau2, radial_estimate.tau2, radial_estimate.se_tau2
    if mse_theory is not None:
        scalars["mse"] = mse_theory, emp.mse_emp, emp.se_mse
    for name, (ref, est, se) in scalars.items():
        details.update({f"{name}_theory": ref, f"{name}_est": est, f"{name}_se": se})
        checks[f"{name}_z"] = Check(abs(est - ref) / max(se, 1e-300), _sidak_limit(len(scalars)))

    return ComparisonReport(checks, details)


# ---------------------------------------------------------------------------
# Sphere moment verification
# ---------------------------------------------------------------------------


def _sphere_kernel(c: int, m: int, p: int, seed: int) -> dict:
    """Partial moment sums of chunk c's m sphere draws.  The draws and their
    products go to buffers of a borrowed workspace, each with the layout of
    the fresh array it stands for, so every sum keeps its bits.  The sums of
    |u_q|^2, |u_q|^4 and |u_q|^8 are not kept apart: they are the diagonals
    of c2, m22 and m44."""
    with _borrowed_workspace() as ws:
        sq = ws.take("sq", (m, 2 * p))
        u = _draw_sphere(RngStream(seed, c), ws.take("u", (m, 2 * p)), sq, ws.take("norm", (m,)))
        a2, a4, t = (ws.take(name, (m, p)) for name in ("a2", "a4", "t"))
        np.multiply(u.real, u.real, out=a2)
        a2 += np.multiply(u.imag, u.imag, out=t)
        np.multiply(a2, a2, out=a4)
        uc, uu = sq.view(np.complex128), ws.take("uu", (m, p), np.complex128)  # sq is spent
        part = {
            "m1": u.sum(axis=0),
            "m6": np.multiply(a4, a2, out=t).sum(axis=0),
            "m22": a2.T @ a2,
            "m44": a4.T @ a4,
            "c2": u.T @ np.conjugate(u, out=uc),
            "cp": u.T @ u,
        }
        np.multiply(u, u, out=uu)
        part["c4"] = uu.T @ np.conjugate(uu, out=uc)
        part["m3"] = np.multiply(a2, u, out=uu).sum(axis=0)
        return part


def verify_sphere_moments(p: int, draws: int, seed: int, workers: int = 1) -> ComparisonReport:
    """Check the second and fourth moments of the uniform complex sphere.

    Targets: E|u_q|^2 = 1/p, E|u_q|^4 = 2/(p(p+1)), E|u_q|^2 |u_r|^2 =
    1/(p(p+1)) for q != r, and a panel of moments that must vanish
    (E[u_q], E[u_q u_r], E[u_q u_r*] for q != r, E[u_q^2 u_r*^2] for q != r,
    E[|u_q|^2 u_q]).  The checks ``nonzero_dev_se`` and ``vanishing_dev_se``
    are the largest deviations of the two panels in per-entry SE units,
    each against 4 SE.  The even moments E|u_q|^2, E|u_q|^4 and E|u_q|^8
    (the last for the SE of the fourth) are the diagonals of the Grams
    E[u u^H], E[a a^T] and E[a^2 (a^2)^T], with a = |u|^2 entrywise.
    """
    if p < 2:
        raise ValueError(f"sphere moment verification needs p >= 2, got {p}")
    if draws < 10_000:
        raise ValueError(f"need at least 10^4 draws, got {draws}")
    kernel = partial(_sphere_kernel, p=p, seed=seed)
    n = float(draws)
    mom = {key: v / n for key, v in _reduce_chunks(kernel, draws, SPHERE_CHUNK, workers).items()}
    m1, m6, m22, m44, c2, cp, c4, m3 = (mom[k] for k in ("m1", "m6", "m22", "m44", "c2", "cp", "c4", "m3"))
    m2, m4, m8 = np.diag(c2).real, np.diag(m22), np.diag(m44)  # E|u_q|^2, E|u_q|^4, E|u_q|^8

    def dev(est, ref, var):  # |est - ref| in units of its per-entry SE
        return np.abs(est - ref) / np.sqrt(np.maximum(var, 1e-300) / n)

    off = ~np.eye(p, dtype=bool)
    abs2 = dev(m2, 1.0 / p, m4 - m2**2).max()
    abs4 = dev(m4, 2.0 / (p * (p + 1)), m8 - m4**2).max()
    cross22 = dev(m22, 1.0 / (p * (p + 1)), m44 - m22**2)[off].max()
    vanishing = [dev(m1, 0.0, m2 - np.abs(m1) ** 2), dev(c2, 0.0, m22)[off], dev(cp, 0.0, m22),
                 dev(c4, 0.0, m44)[off], dev(m3, 0.0, m6)]
    return ComparisonReport(
        {
            "nonzero_dev_se": Check(float(max(abs2, abs4, cross22)), 4.0),
            "vanishing_dev_se": Check(float(max(d.max() for d in vanishing)), 4.0),
        },
        {"draws": draws, "abs2_max_dev_se": float(abs2), "abs4_max_dev_se": float(abs4),
         "cross22_max_dev_se": float(cross22)},
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


def _oracle_sums(h: np.ndarray, rows: np.ndarray, ws: _Workspace, ref: np.ndarray, beta: float,
                 plugin: bool) -> dict:
    """Partial sums of the squared errors of a chunk's SCMs with Hermitian
    coordinates h, scaled by beta (and by the plug-in coefficient of the
    centred rows), from the model covariance with coordinates ref."""
    sq_norm = _hermitian_coords(rows.shape[2] // 2).sq_norm
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
    replications.  The check ``ratio_dev_se`` tests that their ratio matches
    the oracle coefficient within 3 delta-method standard errors, and the
    check ``ratio`` that it lies below 1 (a strict improvement).
    ``beta`` overrides the oracle value (useful as a control); with
    ``include_plugin`` the ratio for a per-replication plug-in coefficient
    (from estimated sphericity and kurtosis) is reported as well, without
    being part of the pass criterion; its kurtosis estimate needs n >= 4.
    The closed forms are the SCM's, so a ``cfg.statistic`` other than
    "scm" raises ValueError.
    """
    if cfg.statistic != "scm":
        raise ValueError(f"the oracle check is of the SCM, got statistic {cfg.statistic!r}")
    if include_plugin and cfg.n < 4:
        raise TooFewObservations(f"need at least 4 observations, got {cfg.n}")
    model = cfg.model
    mse_t, nmse_t = mse_scm(model.cov, cfg.n, model.kappa)
    beta_o = beta_opt(nmse_t)
    b = beta_o if beta is None else float(beta)

    ref = _hermitian_coords(model.dim).from_matrix(model.cov)
    kernel = partial(_chunk_kernel, cfg=cfg, sums=partial(_oracle_sums, ref=ref, beta=b, plugin=include_plugin))
    tot = _reduce_chunks(kernel, cfg.replications, _chunk_size(cfg.n, model.dim), cfg.workers)

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
        "mse_rel_err": abs(mean1 - mse_t) / mse_t,
    }
    if include_plugin:
        details["plugin_ratio"] = float(tot["e3"]) / r / mean1
    # mean1 > 0, so ratio < 1 iff mean2 < mean1
    return ComparisonReport({"ratio_dev_se": Check(dev_se, 3.0), "ratio": Check(ratio, 1.0)}, details)


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

    The report's checks are ``var_dev_se`` for thm1; ``var_dev_se``,
    ``tau1_z``, ``tau2_z`` and ``mse_z`` for thm3; ``var_dev_se`` and
    ``mse_z`` for transport; ``nonzero_dev_se`` and ``vanishing_dev_se``
    for sphere; ``ratio_dev_se`` and ``ratio`` for oracle.  No limit
    depends on the family (see :func:`compare_to_theory`).
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    if target == "sphere":
        return verify_sphere_moments(p, replications, seed, workers=workers)
    family = parse_family(dist)
    m = covariance_preset(cov, p) if target in ("transport", "oracle") else np.eye(p, dtype=np.complex128)
    model = CESModel(np.zeros(p, dtype=np.complex128), m, family)
    stat = statistic if target == "thm1" else "scm"
    cfg = MCConfig(replications, n, model, stat, seed, workers)
    if target == "oracle":
        return verify_oracle_efficiency(cfg, include_plugin=plugin)
    emp = empirical_moments(cfg)
    if target == "thm1":
        est = radial_estimate_from_moments(emp)
        return compare_to_theory(emp, empirical_structure_pair(est.tau1, est.tau2, p))
    # at cov = I (thm3) the transported pair is the radial form
    struct = scm_radial_structure(n, model.kappa, p)
    pair = affine_equivariant_var(model.cov, struct)
    mse_t, _ = mse_scm(model.cov, n, model.kappa)
    radial = {}
    if target == "thm3":
        radial = dict(radial_theory=struct, radial_estimate=radial_estimate_from_moments(emp))
    return compare_to_theory(emp, pair, mse_theory=mse_t, **radial)
