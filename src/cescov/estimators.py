"""Sample statistics of complex datasets: mean, sample covariance matrix,
weighted covariance matrices, and a plug-in elliptical kurtosis estimate.

Datasets are (n, p) complex arrays with rows as observations.  The SCM, the
weighted SCM and the kurtosis estimate are each computed by one stacked core
that maps an (m, n, p) stack of datasets to m results at once; the public
single-dataset functions validate their input and call that core with a
leading axis of 1, and the Monte Carlo harness calls it on whole chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoordinate, SingularSCM, TooFewObservations
from .lin_core import PD_RTOL
from .ces_sampler import kurtosis_lower_bound

__all__ = [
    "SCMResult",
    "require_dataset",
    "sample_mean",
    "scm",
    "sample_variance",
    "weighted_scm",
    "estimate_kurtosis",
]

# margin above the kurtosis lower bound -1/(p+1) at which estimates are clipped
KURTOSIS_CLIP_EPS = 1e-6


def require_dataset(x, min_rows: int = 1) -> np.ndarray:
    """Coerce to a finite (n, p) complex array with n >= min_rows."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError(f"dataset must be 2-D (rows = observations), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("dataset contains non-finite entries")
    if x.shape[0] < min_rows:
        raise TooFewObservations(f"need at least {min_rows} observations, got {x.shape[0]}")
    return x


def sample_mean(x) -> np.ndarray:
    """Coordinatewise arithmetic mean of the rows."""
    x = require_dataset(x)
    return x.mean(axis=0)


@dataclass(frozen=True, eq=False)
class SCMResult:
    """Unbiased sample covariance matrix with the sample mean it used."""

    s: np.ndarray
    xbar: np.ndarray
    n: int


def _scm_stack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased SCMs (m, p, p), exactly Hermitian, and row means (m, p) of
    an (m, n, p) stack of datasets.

    Centres ``x`` in place: on return it holds the deviations from the row
    means.  Callers that must keep their data pass a copy.
    """
    n = x.shape[-2]
    xbar = x.mean(axis=-2)
    x -= xbar[..., None, :]
    s = x.swapaxes(-1, -2) @ x.conj() / (n - 1)
    return (s + s.conj().swapaxes(-1, -2)) / 2, xbar


def scm(x) -> SCMResult:
    """Unbiased sample covariance matrix of the rows.

    S = (n-1)^{-1} sum_i (x_i - xbar)(x_i - xbar)^H, exactly symmetrized.
    Affine equivariant: scm(X A^T + 1 a^T).s == A @ scm(X).s @ A^H.

    Raises
    ------
    TooFewObservations
        If the dataset has fewer than two rows.
    """
    x = require_dataset(x, min_rows=2)
    s, xbar = _scm_stack(x[None].copy())
    return SCMResult(s=s[0], xbar=xbar[0], n=x.shape[0])


def sample_variance(x) -> float:
    """Unbiased sample variance of a complex sample: sum |x_i - xbar|^2 / (n-1)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sample, got shape {x.shape}")
    if x.shape[0] < 2:
        raise TooFewObservations(f"need at least 2 observations, got {x.shape[0]}")
    dev = x - x.mean()
    return float(np.sum(dev.real**2 + dev.imag**2) / (x.shape[0] - 1))


def _weighted_scm_stack(x: np.ndarray, weight_fn) -> np.ndarray:
    """Weighted covariance matrices (m, p, p) of an (m, n, p) stack of
    datasets; see :func:`weighted_scm`.  ``weight_fn`` receives the squared
    distances of all m * n rows as one flat array.  Centres ``x`` in place,
    as :func:`_scm_stack` does."""
    m, n, p = x.shape
    s, _ = _scm_stack(x)
    dev = x  # centred by _scm_stack
    eigs = np.linalg.eigvalsh(s)  # ascending per replication
    tol = PD_RTOL * np.maximum(eigs[:, -1], 0.0)
    singular = eigs[:, 0] <= tol
    if n <= p or singular.any():
        i = int(np.argmax(singular))
        raise SingularSCM(
            f"sample covariance is singular at tolerance {tol[i]:.3e} (n={n}, p={p})"
        )
    d = np.einsum("mia,mai->mi", dev.conj(), np.linalg.solve(s, dev.swapaxes(-1, -2))).real
    w = np.asarray(weight_fn(d.ravel()), dtype=float)
    if w.shape != (m * n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weight function must map d >= 0 to finite nonnegative weights")
    r = (w.reshape(m, n, 1) * dev).swapaxes(-1, -2) @ dev.conj() / n
    return (r + r.conj().swapaxes(-1, -2)) / 2


def weighted_scm(x, weight_fn) -> np.ndarray:
    """Weighted covariance matrix (1/n) sum_i u(d_i) (x_i - xbar)(x_i - xbar)^H.

    The argument of the nonnegative weight function ``u`` is the squared
    Mahalanobis distance d_i = (x_i - xbar)^H S^{-1} (x_i - xbar) computed
    with the unbiased sample covariance S.  With ``u(s) = s`` this is the
    fourth-moment matrix used by FOBI.

    Raises
    ------
    SingularSCM
        If the smallest eigenvalue of S is at or below ``PD_RTOL`` times the
        largest one (in particular whenever n <= p).
    """
    x = require_dataset(x, min_rows=2)
    return _weighted_scm_stack(x[None].copy(), weight_fn)[0]


def _kurtosis_stack(x: np.ndarray) -> np.ndarray:
    """Plug-in elliptical kurtosis (m,) of an (m, n, p) stack of datasets;
    see :func:`estimate_kurtosis`."""
    p = x.shape[-1]
    dev = x - x.mean(axis=-2, keepdims=True)
    a2 = dev.real**2 + dev.imag**2
    m2 = a2.mean(axis=-2)
    if np.any(m2 == 0.0):
        bad = int(np.argmax(m2 == 0.0)) % p
        raise DegenerateCoordinate(f"coordinate {bad} has zero sample variance")
    m4 = (a2 * a2).mean(axis=-2)
    kurt = m4 / (m2 * m2) - 2.0
    return np.maximum(kurt.mean(axis=-1) / 2.0, kurtosis_lower_bound(p) + KURTOSIS_CLIP_EPS)


def estimate_kurtosis(x) -> float:
    """Plug-in elliptical kurtosis: average per-coordinate excess kurtosis, halved.

    Each coordinate contributes m4/m2^2 - 2 built from plain sample moments
    of |x - xbar|; the average over coordinates is divided by two and clipped
    from below at -1/(p+1) + KURTOSIS_CLIP_EPS, just above the theoretical
    lower bound.

    Raises
    ------
    TooFewObservations
        If n < 4.
    DegenerateCoordinate
        If some coordinate has zero sample variance.
    """
    x = require_dataset(x, min_rows=4)
    return float(_kurtosis_stack(x[None])[0])
