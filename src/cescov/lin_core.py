"""Dense complex linear-algebra utilities used throughout the package.

Conventions fixed project-wide:

* ``vec`` stacks columns: ``vec(A)[j * rows + i] == A[i, j]``.
* Hermitian inputs are validated against a relative tolerance and then
  exactly symmetrized via ``(A + A^H) / 2``, so downstream algebra stays
  exactly Hermitian.
* Matrices are small (p up to a few dozen); everything is dense.
"""

from __future__ import annotations

import math

import numpy as np
from numpy import kron  # dense Kronecker product, part of the public surface

from .errors import NotHermitian, NotPositiveDefinite, ZeroTrace

__all__ = [
    "HERMITIAN_RTOL",
    "PD_RTOL",
    "as_complex_matrix",
    "vec",
    "unvec",
    "vec_index",
    "kron",
    "commutation_matrix",
    "hermitize",
    "hermitian_sqrt",
    "centering_matrix",
    "scale_and_sphericity",
    "spiked_covariance",
    "save_complex_matrix",
    "load_complex_matrix",
    "dump_complex_matrix",
    "parse_complex_matrix",
]

# Relative tolerance for the Hermitian construction check.
HERMITIAN_RTOL = 1e-12
# Relative eigenvalue floor for positive definiteness.
PD_RTOL = 1e-10


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def vec(a) -> np.ndarray:
    """Column-stacking vectorization: vec(A)[j*rows + i] = A[i, j]."""
    return np.ravel(np.asarray(a), order="F")


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for a rows-by-cols matrix (square by default)."""
    if cols is None:
        cols = rows
    return np.reshape(np.asarray(v), (rows, cols), order="F")


def vec_index(i: int, j: int, rows: int) -> int:
    """Position of entry (i, j) inside the column-stacked vectorization."""
    return j * rows + i


def _vec_transpose_index(p: int) -> np.ndarray:
    """The index array t with vec(A.T) == vec(A)[t] for p x p matrices A."""
    i, j = np.divmod(np.arange(p * p), p)
    return j * p + i


def commutation_matrix(p: int) -> np.ndarray:
    """The p^2 x p^2 permutation K with K @ vec(A) == vec(A.T).

    Equals sum_ij e_i e_j^T (x) e_j e_i^T; exactly one 1 per row/column.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return np.eye(p * p)[_vec_transpose_index(p)]


def hermitize(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is Hermitian within ``HERMITIAN_RTOL * max|entry|``,
    then return the exactly symmetrized ``(a + a^H) / 2``."""
    a = as_complex_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERMITIAN_RTOL * scale:
        raise NotHermitian(
            f"{name} is not Hermitian: max asymmetry {dev:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} * max|entry| = {HERMITIAN_RTOL * scale:.3e}"
        )
    return (a + a.conj().T) / 2


def hermitian_sqrt(m) -> np.ndarray:
    """Unique Hermitian positive-definite square root, via eigendecomposition.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue is at or below ``PD_RTOL`` times the
        largest one.
    """
    m = hermitize(m)
    w, v = np.linalg.eigh(m)
    pd_tol = PD_RTOL * max(float(w.max()), 0.0)
    if float(w.min()) <= pd_tol:
        raise NotPositiveDefinite(
            f"matrix is not positive definite: min eigenvalue {w.min():.3e} "
            f"<= tolerance {pd_tol:.3e}"
        )
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2


def centering_matrix(n: int) -> np.ndarray:
    """The n x n centering matrix I - (1/n) 11^T (idempotent, trace n-1)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def scale_and_sphericity(m) -> tuple[float, float]:
    """Scale eta = tr(M)/p and sphericity gamma = p tr(M^2)/tr(M)^2.

    For Hermitian PSD input, gamma lies in [1, p]: 1 for a scaled identity
    and p for a rank-one matrix.

    Raises
    ------
    ZeroTrace
        If tr(M) <= 0.
    """
    eta, gamma = _scale_and_sphericity_stack(hermitize(m)[None])
    return float(eta[0]), float(gamma[0])


def _scale_and_sphericity_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale and sphericity (each (k,)) of a (k, p, p) stack of exactly
    Hermitian matrices; see :func:`scale_and_sphericity`."""
    p = m.shape[-1]
    t1 = np.trace(m, axis1=-2, axis2=-1).real
    if np.any(t1 <= 0.0):
        raise ZeroTrace(f"trace must be positive, got {t1.min():.3e}")
    t2 = (m.real**2 + m.imag**2).sum(axis=(-2, -1))  # tr(M^2) = ||M||_F^2 for Hermitian M
    return t1 / p, p * t2 / (t1 * t1)


def spiked_covariance(p: int, gamma: float) -> np.ndarray:
    """Identity plus a rank-one spike w vv^H along the unit all-ones direction
    v, with the sphericity equal to ``gamma``.

    The sphericity p (p + 2w + w^2) / (p + w)^2 increases with w >= 0 from 1
    towards p; its inverse is w = p [(gamma - 1) + sqrt((gamma - 1)(p - 1))] / (p - gamma).

    Raises
    ------
    ValueError
        If gamma is outside [1, p).
    """
    if not (1.0 <= gamma < p):
        raise ValueError(f"spiked preset needs 1 <= gamma < p = {p}, got gamma = {gamma}")
    w = p * ((gamma - 1.0) + math.sqrt((gamma - 1.0) * (p - 1))) / (p - gamma)
    v = np.full(p, 1.0 / math.sqrt(p))
    return np.eye(p, dtype=np.complex128) + w * np.outer(v, v)


# ---------------------------------------------------------------------------
# Complex matrix CSV format (shared project-wide)
#
# Line 1: shape prefix "# rows cols"
# Line 2: header naming the 2*cols value columns "re_1,im_1,...,re_c,im_c"
# Then one line per matrix row with interleaved (re, im) pairs, i.e. the
# entries traversed in row-major order.  Values are written with Python's
# shortest round-trip float representation, so load(save(A)) == A exactly.
# ---------------------------------------------------------------------------


def dump_complex_matrix(f, a) -> None:
    """Write a complex matrix to an open text stream in the shared format."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    f.write(f"# {rows} {cols}\n")
    f.write(",".join(f"re_{j + 1},im_{j + 1}" for j in range(cols)) + "\n")
    for row in np.ascontiguousarray(a).view(np.float64):
        f.write(",".join(map(repr, row.tolist())) + "\n")


def save_complex_matrix(path, a) -> None:
    """Write a complex matrix to ``path`` in the shared CSV format."""
    with open(path, "w", encoding="ascii") as f:
        dump_complex_matrix(f, a)


def parse_complex_matrix(lines) -> np.ndarray:
    """Parse the shared complex CSV format from an iterable of lines."""
    it = iter(lines)
    try:
        shape_line = next(it).strip()
    except StopIteration:
        raise ValueError("empty input: missing shape prefix line") from None
    if not shape_line.startswith("#"):
        raise ValueError(f"first line must be a '# rows cols' prefix, got {shape_line!r}")
    fields = shape_line[1:].split()
    if len(fields) != 2:
        raise ValueError(f"shape prefix must hold two integers, got {shape_line!r}")
    rows, cols = int(fields[0]), int(fields[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"shape must be positive, got {rows} x {cols}")
    try:
        header = next(it).strip()
    except StopIteration:
        raise ValueError("missing header line") from None
    if len(header.split(",")) != 2 * cols:
        raise ValueError(
            f"header must name {2 * cols} value columns, got {header!r}"
        )
    # interleaved (re, im) floats, viewed as complex at the end: every bit
    # of both parts (signed zeros included) survives the round trip
    out = np.empty((rows, 2 * cols))
    for i in range(rows):
        try:
            line = next(it)
        except StopIteration:
            raise ValueError(f"expected {rows} data rows, found {i}") from None
        vals = line.strip().split(",")
        if len(vals) != 2 * cols:
            raise ValueError(f"row {i + 1} has {len(vals)} fields, expected {2 * cols}")
        out[i] = list(map(float, vals))
    for extra in it:
        if extra.strip():
            raise ValueError("trailing non-empty lines after the declared rows")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return out.view(np.complex128)


def load_complex_matrix(path) -> np.ndarray:
    """Read a complex matrix written by :func:`save_complex_matrix`."""
    with open(path, "r", encoding="ascii") as f:
        return parse_complex_matrix(f)
