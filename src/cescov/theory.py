"""Closed-form second-order theory for affine-equivariant matrix statistics.

For a radially distributed Hermitian p x p statistic the covariance and
pseudo-covariance of its vectorization take the two-constant form

    var  = tau1 * I      + tau2 * vec(I) vec(I)^T
    pvar = tau1 * K_p    + tau2 * vec(I) vec(I)^T

with tau1 >= 0 and tau2 >= -tau1/p.  Affine equivariance transports these
spherical-model constants to an arbitrary covariance matrix M:

    var  = tau1 (M* x M)       + tau2 vec(M) vec(M)^H
    pvar = tau1 (M* x M) K_p   + tau2 vec(M) vec(M)^T

In both forms pvar = var K_p, as for every Hermitian statistic, so only var
is built, by one function, ``_two_constant_var``, and pvar is derived from
it by a column permutation.  The spherical form is its case M = I, both for
validated constants (:func:`radial_var_structure`) and for the raw
estimated constants that the Monte Carlo thm1 check compares against.

For the unbiased sample covariance matrix built from n observations with
elliptical kurtosis kappa, the constants are sigma = 1,
tau1 = 1/(n-1) + kappa/n and tau2 = kappa/n.  Its MSE is the trace of var,
and divided by ||M||_F^2 = p gamma eta^2 (scale eta, sphericity gamma) it
is the NMSE:

    MSE  = E ||S - M||_F^2 = tau1 tr(M)^2 + tau2 tr(M^2) = NMSE ||M||_F^2
    NMSE = MSE / ||M||_F^2 = (p/gamma) (1/(n-1) + kappa/n) + kappa/n

The constants tau1 and tau2, with their checks of n and kappa, are written
once, and only :func:`nmse_from_sphericity` evaluates this NMSE; the MSE is
taken as that NMSE times ||M||_F^2.  One path checks a covariance M for
:func:`mse_scm` and :func:`shrinkage_report` alike: Hermitian, of positive
trace and positive definite.  The MSE-optimal scalar shrinkage of S is
beta_o = 1/(NMSE + 1), with oracle MSE equal to beta_o * MSE.
:func:`shrinkage_report` is the one source of beta_o, the MSE and the
oracle MSE of a covariance, for ``cescov theory`` and for the oracle Monte
Carlo check alike.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ces_sampler import kurtosis_lower_bound
from .lin_core import (_hermitian_coords, _require_positive_definite, _row_blocks, _scale_and_sphericity_stack,
                       _vec_transpose_index, hermitize, vec)

__all__ = [
    "RadialStructure",
    "CovariancePair",
    "ShrinkageReport",
    "radial_var_structure",
    "affine_equivariant_var",
    "scm_radial_structure",
    "mse_scm",
    "nmse_from_sphericity",
    "beta_opt",
    "beta_opt_univariate",
    "shrinkage_curve",
    "shrinkage_report",
]

# relative slack for the tau2 >= -tau1/p and 1 <= sphericity <= p boundaries,
# so that inputs on a boundary pass also when rounding puts them just beyond it
_TAU_SLACK = 1e-12


@dataclass(frozen=True)
class RadialStructure:
    """Constants (sigma, tau1, tau2) of a radial Hermitian statistic in dimension dim."""

    sigma: float
    tau1: float
    tau2: float
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not np.isfinite(self.tau1) or not np.isfinite(self.tau2):
            raise ValueError("tau constants must be finite")
        if self.tau1 < 0.0:
            raise ValueError(f"tau1 must be >= 0, got {self.tau1}")
        slack = _TAU_SLACK * (abs(self.tau1) + abs(self.tau2) + 1.0)
        if self.tau2 < -self.tau1 / self.dim - slack:
            raise ValueError(
                f"tau2 = {self.tau2} violates tau2 >= -tau1/p = {-self.tau1 / self.dim}"
            )


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Covariance and pseudo-covariance of a vectorized p x p Hermitian
    statistic; the pseudo-covariance is derived as var K_p."""

    var: np.ndarray

    @property
    def pvar(self) -> np.ndarray:
        return _var_times_commutation(self.var)


def _var_times_commutation(var: np.ndarray) -> np.ndarray:
    """var K_p, an exact column permutation of a (., p^2) array."""
    return np.take(var, _vec_transpose_index(math.isqrt(var.shape[1])), axis=1)


def radial_var_structure(tau1: float, tau2: float, p: int) -> CovariancePair:
    """Spherical-model covariance pair: tau1-weighted identity / commutation
    parts plus the tau2-weighted vec(I) vec(I)^T rank-one part."""
    RadialStructure(1.0, tau1, tau2, p)  # validates p and the tau constraints
    return _two_constant_var(np.eye(p, dtype=np.complex128), float(tau1), float(tau2))


def affine_equivariant_var(m, s: RadialStructure) -> CovariancePair:
    """Transport spherical-model constants to covariance matrix M.

    Reduces to :func:`radial_var_structure` at M = I.
    """
    m = hermitize(m)
    if s.dim != m.shape[0]:
        raise ValueError(f"structure is for dim {s.dim}, matrix is {m.shape[0]} x {m.shape[1]}")
    return _two_constant_var(m, s.tau1, s.tau2)


def _two_constant_var(m: np.ndarray, tau1: float, tau2: float) -> CovariancePair:
    """The pair of var = tau1 kron(M*, M) + tau2 vec(M) vec(M)^H for a
    Hermitian complex M, with the bits of that expression, built in place
    for a block of M*'s rows at a time."""
    p = m.shape[0]
    mc, vm = m.conj(), vec(m)
    vc = vm.conj()
    var = np.empty((p * p, p * p), dtype=np.complex128)
    for a in _row_blocks(p, p**3):
        rows = slice(a.start * p, a.stop * p)
        block = var[rows]
        np.multiply(mc[a, None, :, None], m[None, :, None, :], out=block.reshape(-1, p, p, p))  # kron's rows
        block *= tau1
        t = np.outer(vm[rows], vc)
        t *= tau2
        block += t
    return CovariancePair(var=var)


def _require_finite(name: str, x) -> None:
    """Raise ValueError naming the first non-finite value of ``x``."""
    bad = np.asarray(x)[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad.flat[0]}")


def _scm_constants(n: int, p: int, kappa):
    """(tau1, tau2) = (1/(n-1) + kappa/n, kappa/n) of the unbiased SCM,
    elementwise over an array-valued ``kappa``.

    Raises ValueError if n < 2, a kappa is not finite or a kappa is below
    -1/(p+1); the message names one offending value.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _require_finite("kappa", kappa)
    kappa_lo = np.min(kappa)
    if kappa_lo < kurtosis_lower_bound(p):
        raise ValueError(
            f"kappa = {kappa_lo} is below the lower bound -1/(p+1) = {kurtosis_lower_bound(p)}"
        )
    return 1.0 / (n - 1) + kappa / n, kappa / n


def scm_radial_structure(n: int, kappa: float, p: int) -> RadialStructure:
    """Spherical-model constants of the unbiased sample covariance matrix:
    sigma = 1, tau1 = 1/(n-1) + kappa/n, tau2 = kappa/n."""
    tau1, tau2 = _scm_constants(n, p, kappa)
    return RadialStructure(sigma=1.0, tau1=tau1, tau2=tau2, dim=p)


def mse_scm(m, n: int, kappa: float) -> tuple[float, float]:
    """Mean squared error of the sample covariance matrix and its normalized form.

    Returns (MSE, NMSE) with NMSE from :func:`nmse_from_sphericity` and
    MSE = NMSE ||M||_F^2 = tau1 tr(M)^2 + tau2 tr(M^2).

    Raises
    ------
    NotHermitian
        If M is not Hermitian within tolerance.
    ZeroTrace
        If tr(M) <= 0.
    NotPositiveDefinite
        If M is not positive definite, as :func:`shrinkage_report` raises.
    ValueError
        If n < 2 or kappa is not finite or below -1/(p+1).
    """
    eta, gamma = _geometry(m)
    return _mse_and_nmse(n, np.shape(m)[0], eta, gamma, kappa)


def _geometry(m, p: int | None = None) -> tuple[float, float]:
    """Scale and sphericity (eta, gamma) of a covariance M, the one check of
    a covariance here: M must be Hermitian, p x p when p is given, of
    positive trace and positive definite.  M is hermitized once, and
    (eta, gamma) are read from that matrix."""
    m = hermitize(m)
    if p is not None and m.shape[0] != p:
        raise ValueError(f"cov is {m.shape[0]} x {m.shape[1]}, expected p = {p}")
    eta, gamma = _scale_and_sphericity_stack(_hermitian_coords(m.shape[0]).from_matrix(m[None]))
    _require_positive_definite(np.linalg.eigvalsh(m))  # as CESModel's root does
    return float(eta[0]), float(gamma[0])


def _mse_and_nmse(n: int, p: int, eta: float, gamma: float, kappa: float) -> tuple[float, float]:
    """(MSE, NMSE) of the SCM of a covariance with scale eta and sphericity
    gamma, whose squared Frobenius norm is p gamma eta^2."""
    nmse = nmse_from_sphericity(n, p, gamma, kappa)
    return nmse * (p * gamma * eta * eta), nmse


def nmse_from_sphericity(n: int, p: int, gamma, kappa):
    """NMSE of the sample covariance matrix from (n, p, sphericity, kurtosis).

    Elementwise over array-valued ``gamma`` and ``kappa``.

    Raises
    ------
    ValueError
        If n < 2, a kappa is not finite, a kappa is below -1/(p+1) or a
        sphericity lies outside [1, p], checked in that order; the message
        names one offending value.
    """
    tau1, tau2 = _scm_constants(n, p, kappa)
    # the computed sphericity of a scaled identity can fall below 1, and that
    # of a rank-one matrix exceed p, by rounding
    gamma_lo, gamma_hi = np.min(gamma), np.max(gamma)
    lo_ok = gamma_lo >= 1.0 - _TAU_SLACK
    if not (lo_ok and gamma_hi <= p * (1.0 + _TAU_SLACK)):
        bad = gamma_hi if lo_ok else gamma_lo
        raise ValueError(f"sphericity must lie in [1, p] = [1, {p}], got {bad}")
    return (p / gamma) * tau1 + tau2


def beta_opt(nmse):
    """MSE-optimal scalar multiplier of the sample covariance: 1/(NMSE + 1).

    Elementwise over an array-valued ``nmse``.
    """
    if not np.min(nmse) > 0.0:
        raise ValueError(f"NMSE must be positive, got {np.min(nmse)}")
    return 1.0 / (nmse + 1.0)


def beta_opt_univariate(n: int, kurt: float) -> float:
    """Optimal scaling of the sample variance: n(n-1) / (kurt (n-1) + n^2).

    ``kurt`` is the excess kurtosis of the complex scalar sample; 0 for
    Gaussian data, where the result reduces to (n-1)/n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _require_finite("kurt", kurt)
    if kurt < -1.0:
        raise ValueError(f"kurt must be >= -1, got {kurt}")
    return n * (n - 1) / (kurt * (n - 1) + n * n)


def shrinkage_curve(n: int, p: int, gamma: float, kappa_grid) -> list[tuple[float, float]]:
    """Pointwise (kappa, beta_o) series over a kurtosis grid.

    The series is monotonically decreasing in kappa since NMSE is affine
    increasing in kappa.
    """
    kappa = np.asarray(kappa_grid, dtype=float)
    beta = beta_opt(nmse_from_sphericity(n, p, gamma, kappa))
    return list(zip(kappa.tolist(), beta.tolist()))


@dataclass(frozen=True)
class ShrinkageReport:
    """Scale/sphericity/kurtosis inputs with the derived MSE and shrinkage
    outputs.  The oracle MSE beta_o MSE is derived from the stored fields,
    so it cannot disagree with them; ``to_dict`` lists it after them."""

    eta: float
    gamma: float
    kappa: float
    n: int
    p: int
    mse: float
    nmse: float
    beta_o: float

    def __post_init__(self):
        if not (0.0 < self.beta_o < 1.0):
            raise ValueError(f"beta_o must lie in (0, 1), got {self.beta_o}")

    @property
    def oracle_mse(self) -> float:
        """MSE of the oracle-scaled estimator beta_o S, equal to beta_o MSE(S)."""
        return self.beta_o * self.mse

    def to_dict(self) -> dict:
        return {**asdict(self), "oracle_mse": self.oracle_mse}


def shrinkage_report(n: int, p: int, kappa: float, *, cov=None, gamma: float | None = None) -> ShrinkageReport:
    """Build the full shrinkage summary from either a covariance matrix or a
    sphericity value.

    Exactly one of ``cov`` and ``gamma`` must be given.  With ``gamma`` alone
    the absolute scale is indeterminate, so the report is at unit scale
    (eta = 1, i.e. tr(M) = p).

    Raises
    ------
    ValueError
        If both or neither of ``cov`` and ``gamma`` are given, ``cov`` is not
        p x p, or n, kappa or the sphericity is out of range (as
        :func:`nmse_from_sphericity` raises).
    NotHermitian, ZeroTrace, NotPositiveDefinite
        If ``cov`` is not Hermitian, has tr(M) <= 0 or is not positive
        definite, as :func:`mse_scm` raises.
    """
    if (cov is None) == (gamma is None):
        raise ValueError("exactly one of cov and gamma must be given")
    eta = 1.0
    if cov is not None:
        eta, gamma = _geometry(cov, p)
    mse, nmse = _mse_and_nmse(n, p, eta, gamma, kappa)
    return ShrinkageReport(
        eta=eta,
        gamma=float(gamma),
        kappa=float(kappa),
        n=int(n),
        p=int(p),
        mse=mse,
        nmse=nmse,
        beta_o=beta_opt(nmse),
    )
