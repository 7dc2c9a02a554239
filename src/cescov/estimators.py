"""Sample statistics of complex datasets: mean, sample covariance matrix,
weighted covariance matrices, and a plug-in elliptical kurtosis estimate.

Datasets are (n, p) complex arrays with rows as observations.  The SCM, the
weighted SCM and the kurtosis estimate are each computed by one stacked core
that maps m datasets to m results at once.  A core's one input is the
datasets' observation-major rows (n, m, 2p): observation i of dataset j is
row (i, j), a complex entry as its real and imaginary parts.  The caller
owns the rows and the core centres them in place.  The public
single-dataset functions validate their input and copy it into such rows
with m = 1; the Monte Carlo harness draws a whole chunk straight into them.
The covariance cores return the p^2 real Hermitian coordinates of
``lin_core._hermitian_coords``, gathered from one real Gram of the rows;
the public functions assemble the matrix from them, which makes it exactly
Hermitian.

The cores write their temporaries and their results into the buffers of a
workspace that the caller borrows from ``lin_core._borrowed_workspace``,
each buffer in one role:

* "rows": the rows that the public functions copy their dataset into (the
  Monte Carlo draw fills the same buffer of its chunk's workspace).  The
  row means, the centring and the kurtosis moments are reduces and
  subtractions over its outer axis, and the kurtosis core squares the
  spent rows in place for its moments;
* "xbar": the row means, from p = 2 on;
* "twin" and "gram": for a block of replications, a copy of their rows
  (the weighted rows, for the weighted SCM) and their real Grams
  twin^T rows; the two take at most ``_GRAM_BLOCK_BYTES``;
* "h" and "h_b": the Hermitian coordinates and the scratch they are
  gathered through;
* "m2", "m4": the kurtosis moments;
* "by_dataset", at p = 1 only: the data copied dataset by dataset for
  numpy's pairwise mean.

From p = 2 on only "rows" grows with the whole stack's data: a stack is
held once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoordinate, SingularSCM, TooFewObservations
from .lin_core import PD_RTOL, _borrowed_workspace, _hermitian_coords, _Workspace, as_complex_matrix
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

# largest size of the buffers that hold a block of a stack's real Grams and
# their twin operands together (109 replications at n = p = 10)
_GRAM_BLOCK_BYTES = 512 * 2**10


def require_dataset(x, min_rows: int = 1) -> np.ndarray:
    """Coerce to a finite (n, p) complex array with n >= min_rows."""
    x = as_complex_matrix(x, "dataset")
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


def _dataset_rows(x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """The (n, p) dataset ``x`` copied into the workspace buffer "rows" as
    the observation-major rows (n, 1, 2p) of a stack of one dataset."""
    n, p = x.shape
    rows = ws.take("rows", (n, 1, 2 * p))
    np.copyto(rows.view(np.complex128)[:, 0], x)
    return rows


def _centre(rows: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Row means (m, p) of the observation-major rows (n, m, 2p) of m
    datasets, with the bits of numpy's mean of each dataset, and the rows
    centred on them in place.

    At p >= 2 numpy's mean adds the n rows one after another, many short
    loops over p; one reduce over the outer axis of the rows adds them in
    the same order, in loops over the whole (m, 2p) output, into the
    workspace buffer "xbar", and the centring subtracts over rows of that
    length too.  At p = 1 numpy's mean sums pairwise along its inner loop,
    so it is used there, on a C-ordered (m, n, 1) copy in the workspace
    buffer "by_dataset", where the n values of a dataset are that loop.
    """
    n, m, p2 = rows.shape
    if p2 == 2:
        c = ws.take("by_dataset", (m, n, 2)).view(np.complex128)
        np.copyto(c, rows.view(np.complex128).swapaxes(0, 1))
        xbar = c.mean(axis=-2)
    else:
        s = np.add.reduce(rows, axis=0, out=ws.take("xbar", (m, p2)))
        s *= 1.0 / n  # numpy divides a complex sum by n + 0j, which multiplies by 1/n
        xbar = s.view(np.complex128)
    rows -= xbar.view(np.float64)
    return xbar


def _gram_coords(rows: np.ndarray, w: np.ndarray | None, factor: float, ws: _Workspace) -> np.ndarray:
    """Hermitian coordinates (m, p^2), in the workspace buffer "h", of
    factor * sum_i w_ki y_ik y_ik^T over the observations y_ik of the
    observation-major real rows (n, m, 2p), with weights w (m, n), or 1
    without them; see ``_HermitianCoords.from_gram``.

    The Grams are built a block of replications at a time in the buffer
    "gram", each as the product twin^T rows of the block, where "twin"
    holds the block's weighted rows, or without weights a copy of its rows,
    observation-major as well; the two buffers hold at most
    ``_GRAM_BLOCK_BYTES`` together.  numpy sends a product A^T A of one
    buffer to BLAS syrk, and a product of two to gemm, whose small-matrix
    path builds the small Grams 1.8-3.5x as fast (OpenBLAS 0.3.31, n = 10,
    p = 2 to 24).  Each replication's product is the same BLAS call at any
    block size, so no bit depends on it."""
    n, m, p2 = rows.shape
    coords = _hermitian_coords(p2 // 2)
    block = max(1, min(m, _GRAM_BLOCK_BYTES // (8 * p2 * (p2 + n))))
    h = ws.take("h", (m, coords.p * coords.p))
    g = ws.take("gram", (block, p2, p2))
    for lo in range(0, m, block):
        k = min(block, m - lo)
        yk, tk = rows[:, lo : lo + k], ws.take("twin", (n, k, p2))
        if w is None:
            np.copyto(tk, yk)
        else:
            np.multiply(w[lo : lo + k].T[..., None], yk, out=tk)
        np.matmul(tk.transpose(1, 2, 0), yk.transpose(1, 0, 2), out=g[:k])
        coords.from_gram(g[:k], factor, ws, out=h[lo : lo + k])
    return h


def _scm_stack(rows: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased SCMs, as Hermitian coordinates (m, p^2), and row means
    (m, p) of the m datasets with observation-major rows (n, m, 2p), in
    buffers of the workspace (the means at p >= 2).  The rows are centred
    in place (:func:`_centre`), and the Grams take their operands from
    them, a block at a time (:func:`_gram_coords`).
    """
    xbar = _centre(rows, ws)
    return _gram_coords(rows, None, 1.0 / (rows.shape[0] - 1), ws), xbar


def scm(x) -> SCMResult:
    """Unbiased sample covariance matrix of the rows.

    S = (n-1)^{-1} sum_i (x_i - xbar)(x_i - xbar)^H, exactly Hermitian.
    Affine equivariant: scm(X A^T + 1 a^T).s == A @ scm(X).s @ A^H.

    Raises
    ------
    TooFewObservations
        If the dataset has fewer than two rows.
    """
    x = require_dataset(x, min_rows=2)
    with _borrowed_workspace() as ws:
        h, xbar = _scm_stack(_dataset_rows(x, ws), ws)
        return SCMResult(s=_hermitian_coords(x.shape[1]).to_matrix(h[0]), xbar=xbar[0].copy(), n=x.shape[0])


def sample_variance(x) -> float:
    """Unbiased sample variance of a complex sample: sum |x_i - xbar|^2 / (n-1),
    the SCM of the sample as a dataset in dimension p = 1.  Raises ValueError
    for a sample that is not 1-D or not finite, and TooFewObservations for
    one of fewer than two values."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D sample, got shape {x.shape}")
    return float(scm(x[:, None]).s[0, 0].real)


def _weighted_scm_stack(rows: np.ndarray, weight_fn, ws: _Workspace) -> np.ndarray:
    """Weighted covariance matrices, as Hermitian coordinates (m, p^2) in a
    workspace buffer, of the m datasets with observation-major rows
    (n, m, 2p), which :func:`_scm_stack` centres in place; see
    :func:`weighted_scm`.  ``weight_fn`` receives the squared distances of
    all m * n rows as one flat array."""
    n, m, p = rows.shape[0], rows.shape[1], rows.shape[2] // 2
    coords = _hermitian_coords(p)
    h, _ = _scm_stack(rows, ws)
    s = coords.to_matrix(h)
    dev = rows.swapaxes(0, 1).view(np.complex128)  # (m, n, p): the deviations
    eigs = np.linalg.eigvalsh(s)  # ascending per replication
    tol = PD_RTOL * np.maximum(eigs[:, -1], 0.0)
    singular = eigs[:, 0] <= tol
    if n <= p or singular.any():
        i = int(np.argmax(singular))
        raise SingularSCM(
            f"sample covariance is singular at tolerance {tol[i]:.3e} (n={n}, p={p})"
        )
    d = np.einsum("mia,mai->mi", dev.conj(), np.linalg.solve(s, dev.swapaxes(-1, -2))).real
    w = np.asarray(weight_fn(d.ravel()))
    # bool, integer or float weights: no complex, string or object ones
    if w.dtype.kind not in "biuf" or w.shape != (m * n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weight function must map d >= 0 to finite nonnegative weights")
    return _gram_coords(rows, w.reshape(m, n).astype(float, copy=False), 1.0 / n, ws)


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
    ValueError
        If ``u`` does not return one finite nonnegative real weight per row.
    """
    x = require_dataset(x, min_rows=2)
    with _borrowed_workspace() as ws:
        h = _weighted_scm_stack(_dataset_rows(x, ws), weight_fn, ws)
        return _hermitian_coords(x.shape[1]).to_matrix(h[0])


def _kurtosis_stack(rows: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Plug-in elliptical kurtosis (m,) of m datasets, from their centred
    observation-major rows (n, m, 2p) (:func:`_centre`); see
    :func:`estimate_kurtosis`.  The rows are spent: their squares go to
    them in place, and the real parts' halves then take |dev|^2 and |dev|^4.
    The per-coordinate means of those are numpy's mean over the outer axis
    of the rows, with the bits of its mean over the rows of each dataset
    (at p = 1, where that mean sums pairwise, it is used on a transposed
    copy)."""
    m, p = rows.shape[1], rows.shape[2] // 2
    rows *= rows
    a2 = rows[..., 0::2]
    a2 += rows[..., 1::2]

    def means(a, name):
        if p == 1:
            return a.transpose(1, 0, 2).copy().mean(axis=-2)
        return np.mean(a, axis=0, out=ws.take(name, (m, p)))

    m2 = means(a2, "m2")
    if np.any(m2 == 0.0):
        bad = int(np.argmax(m2 == 0.0)) % p
        raise DegenerateCoordinate(f"coordinate {bad} has zero sample variance")
    a2 *= a2
    m4 = means(a2, "m4")
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
    with _borrowed_workspace() as ws:
        rows = _dataset_rows(x, ws)
        _centre(rows, ws)
        return float(_kurtosis_stack(rows, ws)[0])
