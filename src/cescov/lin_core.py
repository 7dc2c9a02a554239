"""Dense complex linear-algebra utilities used throughout the package.

Conventions fixed project-wide:

* ``vec`` stacks columns: ``vec(A)[j * rows + i] == A[i, j]``.
* Hermitian inputs are validated against a relative tolerance and then
  exactly symmetrized via ``(A + A^H) / 2``, so downstream algebra stays
  exactly Hermitian.
* Matrices are small (p up to a few dozen); everything is dense.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, ZeroTrace

__all__ = [
    "HERMITIAN_RTOL",
    "PD_RTOL",
    "as_complex_matrix",
    "vec",
    "unvec",
    "commutation_matrix",
    "hermitize",
    "hermitian_sqrt",
    "centering_matrix",
    "scale_and_sphericity",
    "spiked_covariance",
    "covariance_preset",
    "mean_preset",
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


def _vec_transpose_index(p: int) -> np.ndarray:
    """The index array t with vec(A.T) == vec(A)[t] for p x p matrices A."""
    i, j = np.divmod(np.arange(p * p), p)
    return j * p + i


# most values in one block of rows of a p^2 x p^2 array that is built or read
# a block at a time (64 KiB of complex values)
_ROW_BLOCK_VALUES = 2**12


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices that cut ``rows`` rows of ``cols`` values into blocks of at most
    ``_ROW_BLOCK_VALUES`` values, and of at least one row."""
    step = max(1, _ROW_BLOCK_VALUES // cols)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


class _Workspace:
    """Named scratch buffers, reused from one call to the next.

    ``take(name, shape, dtype)`` returns a C-contiguous array of that shape
    (contents undefined): a prefix view of the buffer kept under
    (name, dtype), which grows to the largest size asked for.  A workspace
    serves one thread at a time, and arrays taken from it are valid only
    until the same name is taken again.  ``nbytes`` is the size of all its
    buffers together.
    """

    def __init__(self):
        self.buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.nbytes = 0

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key, size = (name, np.dtype(dtype)), math.prod(shape)
        buf = self.buffers.get(key)
        if buf is None or buf.size < size:
            self.nbytes -= 0 if buf is None else buf.nbytes
            buf = self.buffers[key] = np.empty(size, dtype)
            self.nbytes += buf.nbytes
        return buf[:size].reshape(shape)


# Workspaces not lent out.  No two borrowers share one, and the list never
# holds more than the largest number of borrowers at once, nor more than
# _IDLE_CAP bytes of buffers together.
_IDLE: list[_Workspace] = []
_IDLE_CAP = 64 * 2**20
_IDLE_LOCK = threading.Lock()


@contextmanager
def _borrowed_workspace():
    """An idle workspace, or a new one, lent for the body of the block.  It
    goes back to the idle list if the list stays within _IDLE_CAP bytes, and
    is dropped, its memory freed, otherwise.

    Every caller of a stacked estimator core borrows here: the public
    estimators for one call, each running Monte Carlo chunk for its draw,
    statistic and temporaries.  A warm caller therefore allocates no buffer
    and takes no page faults for them.  Workspaces outlive the call, each
    sized for the largest stack it served, so results must not alias their
    buffers.
    """
    with _IDLE_LOCK:
        ws = _IDLE.pop() if _IDLE else _Workspace()
    try:
        yield ws
    finally:
        with _IDLE_LOCK:
            if ws.nbytes + sum(idle.nbytes for idle in _IDLE) <= _IDLE_CAP:
                _IDLE.append(ws)


def _renew_idle_lock():
    """In a child made by ``os.fork``: a thread of the parent may have held
    the lock at the fork."""
    global _IDLE_LOCK
    _IDLE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_idle_lock)


class _HermitianCoords:
    """The p^2 real coordinates of p x p Hermitian matrices.

    h = (T_ii for i < p, Re T_ij for i < j, Im T_ij for i < j), pairs in
    row-major order.  The first q = p(p+1)/2 coordinates are the real parts
    of the q unique entries (diagonal first), the last p(p-1)/2 the
    imaginary parts above the diagonal.  Every map below copies or negates
    entries, so matrix -> coordinates -> matrix is exact and a matrix built
    from coordinates is exactly Hermitian.

    The linear map U with vec(T) = U h is held by index:
    vec(T)[a] = h[re[a]] + 1j * sign[a] * h[im[a]], sign 0 on the diagonal,
    +1 above it and -1 below.  ``re[a]`` is also the index of entry a among
    the q unique entries.  ``weight`` is 1 on the diagonal coordinates and 2
    on the others, so ||T||_F^2 = sum(weight * h^2).
    """

    def __init__(self, p: int):
        self.p, self.q = p, p * (p + 1) // 2
        iu, ju = np.triu_indices(p, 1)
        d = np.arange(p)
        ci = np.concatenate([d, iu, iu])  # row, column and real/imag part of each coordinate
        cj = np.concatenate([d, ju, ju])
        part = np.repeat([0, 0, 1], [p, iu.size, iu.size])
        # positions in the (p, 2p) float view of a C-contiguous matrix
        self.entries = ci * 2 * p + 2 * cj + part
        # Re T_ij = G[2i, 2j] + G[2i+1, 2j+1] and Im T_ij = G[2i+1, 2j] - G[2i, 2j+1]
        # in the real Gram G of the float view (see from_gram)
        self.gram = np.stack([(2 * ci + part) * 2 * p + 2 * cj, (2 * ci + 1 - part) * 2 * p + 2 * cj + 1])
        coord = np.zeros((p, p), dtype=np.intp)
        coord[d, d] = d
        coord[iu, ju] = coord[ju, iu] = p + np.arange(iu.size)
        sign = np.zeros((p, p))
        sign[iu, ju], sign[ju, iu] = 1.0, -1.0
        self.re = vec(coord)
        self.im = np.where(self.re < p, self.re, self.re + iu.size)
        self.sign = vec(sign)
        self.off = np.flatnonzero(self.sign)
        self.weight = np.repeat([1.0, 2.0], [p, p * p - p])
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def from_gram(self, g: np.ndarray, factor: float, ws: _Workspace, out: np.ndarray) -> np.ndarray:
        """Coordinates (..., p^2) of factor * sum_k x_k x_k^H over the rows
        x_k of complex data, from the real Grams g = y^T y (..., 2p, 2p) of
        its float views y (row k of y is (Re x_k0, Im x_k0, Re x_k1, ...)).
        The result is ``out``, a C-contiguous array; the workspace lends
        the scratch buffer "h_b"."""
        g = g.reshape(g.shape[:-2] + (-1,))
        shape = g.shape[:-1] + (self.p * self.p,)
        # np.take keeps the stack C-ordered, so that a row's reductions do not
        # depend on the stack's size; mode "clip" (the indices are in range)
        # writes straight into out, where "raise" would buffer the result
        h = np.take(g, self.gram[0], axis=-1, out=out, mode="clip")
        b = np.take(g, self.gram[1], axis=-1, out=ws.take("h_b", shape), mode="clip")
        h[..., : self.q] += b[..., : self.q]
        h[..., self.q :] -= b[..., self.q :]
        h *= factor
        return h

    def from_matrix(self, t) -> np.ndarray:
        """Coordinates (..., p^2) of Hermitian matrices t (..., p, p); reads
        the upper triangle."""
        t = np.ascontiguousarray(t, dtype=np.complex128)
        return np.take(t.view(np.float64).reshape(t.shape[:-2] + (-1,)), self.entries, axis=-1)

    def to_matrix(self, h: np.ndarray) -> np.ndarray:
        """The Hermitian matrices (..., p, p) with coordinates h (..., p^2)."""
        v = np.zeros(h.shape[:-1] + (self.p * self.p,), dtype=np.complex128)  # vec(T)
        v.real[...] = h[..., self.re]
        v.imag[..., self.off] = h[..., self.im[self.off]] * self.sign[self.off]
        return v.reshape(h.shape[:-1] + (self.p, self.p)).swapaxes(-1, -2)

    def sq_norm(self, h: np.ndarray) -> np.ndarray:
        """Squared Frobenius norms (...,) of the matrices with coordinates h."""
        return np.einsum("...k,...k,k->...", h, h, self.weight)

    def vec_cov(self, a: np.ndarray) -> np.ndarray:
        """U a U^H (p^2 x p^2, complex): the covariance of vec(T) from the
        covariance a of its coordinates.  Each entry is a signed sum of two
        entries of a, so a symmetric a gives an exactly Hermitian result.
        Besides the result, one real p^2 x p^2 temporary is alive at a time.
        Multiplying by the signs one factor at a time is exact, so the real
        and imaginary parts have the bits of ``a[re, re] + outer(s, s) *
        a[im, im]`` and ``s[:, None] * a[im, re] - s * a[re, im]``."""
        re, im, s = self.re, self.im, self.sign
        out = np.empty(a.shape, dtype=np.complex128)
        out.real = a[np.ix_(re, re)]
        out.imag = a[np.ix_(im, re)]
        out.imag *= s[:, None]
        t = a[np.ix_(im, im)]
        t *= s[:, None]
        t *= s
        out.real += t
        del t
        t = a[np.ix_(re, im)]
        t *= s
        out.imag -= t
        return out


@functools.lru_cache(maxsize=64)
def _hermitian_coords(p: int) -> _HermitianCoords:
    """The cached coordinate map of p x p Hermitian matrices."""
    return _HermitianCoords(p)


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
    _require_positive_definite(w)
    r = (v * np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2


def _require_positive_definite(w: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless the smallest of the eigenvalues ``w``
    lies above ``PD_RTOL`` times the largest one."""
    pd_tol = PD_RTOL * max(float(w.max()), 0.0)
    if float(w.min()) <= pd_tol:
        raise NotPositiveDefinite(
            f"matrix is not positive definite: min eigenvalue {w.min():.3e} "
            f"<= tolerance {pd_tol:.3e}"
        )


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
    m = hermitize(m)
    eta, gamma = _scale_and_sphericity_stack(_hermitian_coords(m.shape[0]).from_matrix(m[None]))
    return float(eta[0]), float(gamma[0])


def _scale_and_sphericity_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale and sphericity (each (k,)) of a stack of Hermitian matrices
    given by their coordinates h (k, p^2); see :func:`scale_and_sphericity`."""
    p = math.isqrt(h.shape[-1])
    t1 = h[..., :p].sum(axis=-1)
    if np.any(t1 <= 0.0):
        raise ZeroTrace(f"trace must be positive, got {t1.min():.3e}")
    t2 = _hermitian_coords(p).sq_norm(h)  # tr(M^2) = ||M||_F^2 for Hermitian M
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


def covariance_preset(spec: str, p: int) -> np.ndarray:
    """The p x p covariance matrix named by a ``--cov`` value: ``identity``,
    ``diag:a,b,...``, ``spiked:gamma=G`` (:func:`spiked_covariance`) or the
    path of a matrix CSV file.  Raises ValueError for a spec it cannot
    parse or read, and for a matrix that is not p x p."""
    if spec == "identity":
        return np.eye(p, dtype=np.complex128)
    if spec.startswith("diag:"):
        try:
            vals = [float(v) for v in spec[len("diag:"):].split(",")]
        except ValueError:
            raise ValueError(f"cannot parse --cov {spec!r}") from None
        if len(vals) != p:
            raise ValueError(f"conflicting flags: --cov diag has {len(vals)} entries but --p is {p}")
        if any(v <= 0 for v in vals):
            raise ValueError("--cov diag entries must be positive")
        return np.diag(np.asarray(vals, dtype=np.complex128))
    if spec.startswith("spiked:gamma="):
        try:
            g = float(spec[len("spiked:gamma="):])
        except ValueError:
            raise ValueError(f"cannot parse --cov {spec!r}") from None
        return spiked_covariance(p, g)
    m = _load_preset("--cov", spec)
    if m.shape != (p, p):
        raise ValueError(f"conflicting flags: --cov file is {m.shape[0]} x {m.shape[1]} but --p is {p}")
    return m


def mean_preset(spec: str, p: int) -> np.ndarray:
    """The length-p mean named by a ``--mu`` value: ``zero`` or the path of a
    1 x p or p x 1 matrix CSV file.  Raises ValueError as
    :func:`covariance_preset` does."""
    if spec == "zero":
        return np.zeros(p, dtype=np.complex128)
    m = _load_preset("--mu", spec)
    if 1 not in m.shape or max(m.shape) != p:
        raise ValueError(f"conflicting flags: --mu file has shape {m.shape} but --p is {p}")
    return m.ravel()


def _load_preset(flag: str, path: str) -> np.ndarray:
    try:
        return load_complex_matrix(path)
    except OSError as e:
        raise ValueError(f"cannot read {flag} file {path!r}: {e}") from None
    except ValueError as e:
        raise ValueError(f"malformed {flag} file {path!r}: {e}") from None


# ---------------------------------------------------------------------------
# Complex matrix CSV format (shared project-wide)
#
# Line 1: shape prefix "# rows cols"
# Line 2: header naming the 2*cols value columns "re_1,im_1,...,re_c,im_c"
# Then one line per matrix row with interleaved (re, im) pairs, i.e. the
# entries traversed in row-major order.  Values are written with Python's
# shortest round-trip float representation, so load(save(A)) == A exactly.
# Rows are written and parsed _CSV_BLOCK at a time, by str.format and by
# numpy's text reader; the reader never allocates from the declared shape.
# ---------------------------------------------------------------------------

_CSV_BLOCK = 512


def dump_complex_matrix(f, a) -> None:
    """Write a complex matrix to an open text stream in the shared format:
    per block of rows, one ``str.format`` of ``{!r}`` fields over the floats."""
    a = as_complex_matrix(a)
    rows, cols = a.shape
    f.write(f"# {rows} {cols}\n")
    f.write(",".join(f"re_{j + 1},im_{j + 1}" for j in range(cols)) + "\n")
    x, line = np.ascontiguousarray(a).view(np.float64), ",".join(["{!r}"] * (2 * cols)) + "\n"
    for start in range(0, rows, _CSV_BLOCK):
        block = x[start:start + _CSV_BLOCK]
        f.write((line * len(block)).format(*block.ravel().tolist()))


def save_complex_matrix(path, a) -> None:
    """Write a complex matrix to ``path`` in the shared CSV format."""
    with open(path, "w", encoding="ascii") as f:
        dump_complex_matrix(f, a)


def parse_complex_matrix(lines) -> np.ndarray:
    """Parse the shared complex CSV format from an iterable of lines, a block
    of rows at a time.  A bad row raises ValueError naming its 1-based number."""
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
    parts, done, floats = [], 0, functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2)
    while done < rows and (block := list(itertools.islice(it, min(_CSV_BLOCK, rows - done)))):
        for i, line in enumerate(block, done + 1):  # a blank line too: loadtxt would skip it
            if line.count(",") + 1 != 2 * cols:
                raise ValueError(f"row {i} has {line.count(',') + 1} fields, expected {2 * cols}")
        try:
            part = floats(block)
        except ValueError:  # name the first row that fails on its own
            for i, line in enumerate(block, done + 1):
                try:
                    floats([line])
                except ValueError:
                    raise ValueError(f"row {i} holds a field that is not a number: {line.strip()!r}") from None
            raise
        finite = np.isfinite(part).all(axis=1)
        if not finite.all():
            raise ValueError(f"row {done + 1 + int(finite.argmin())} contains non-finite entries")
        parts.append(part)
        done += len(block)
    if done < rows:
        raise ValueError(f"expected {rows} data rows, found {done}")
    for extra in it:
        if extra.strip():
            raise ValueError(f"trailing non-empty lines after the {rows} declared rows")
    return np.concatenate(parts).view(np.complex128)


def load_complex_matrix(path) -> np.ndarray:
    """Read a complex matrix written by :func:`save_complex_matrix`."""
    with open(path, "r", encoding="ascii") as f:
        return parse_complex_matrix(f)
