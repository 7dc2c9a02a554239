"""Sampling from circular complex elliptically symmetric distributions.

A draw has the law of ``mu + r * C @ u`` where ``C`` is the Hermitian square
root of the covariance matrix, ``u`` is uniform on the complex unit sphere,
and the modular variate ``r >= 0`` is independent of ``u`` and normalized so
that ``E[r^2] = p``.  With that normalization the scatter matrix of the draw
equals its covariance matrix.

Every family has ``r^2 = q * tau`` with ``q ~ chi^2_{2p} / 2`` and an independent
unit-mean texture ``tau``; its elliptical kurtosis is ``kappa = E[r^4] / (p (p + 1)) - 1``:

* ``Gaussian``            -- ``tau = 1``, kappa = 0.
* ``StudentT(dof)``       -- ``tau = (dof - 2) / s``, ``s ~ chi^2_dof``;
  kappa = 2 / (dof - 4).  Requires ``dof > 4`` (finite fourth moments).
* ``CompoundGaussianK(shape)`` -- ``tau ~ Gamma(shape, 1/shape)``; kappa = 1 / shape.
  Below shape 1 the draw is ``Gamma(shape + 1) * U^(1/shape) / shape`` for an
  independent uniform ``U`` (Marsaglia & Tsang's boost); from shape 1 on it is
  numpy's ``gamma(shape, 1/shape)``.  Requires ``shape >= 53/1075``, about
  0.049: below that ``U^(1/shape)`` underflows to 0 with probability above 2^-53.

A parameter must be finite: ``t:inf`` and ``k:inf`` are the Gaussian limit,
spelt ``gaussian``.

Data are drawn in compound-Gaussian form: for a complex normal ``z`` with
N(0, 1) real and imaginary parts, ``||z||^2 / 2`` has the law of ``q`` and
``z / ||z||`` is uniform on the sphere and independent of ``||z||``, so
``r u`` has the law of ``sqrt(tau / 2) z``.

Reproducibility: all samplers take an :class:`RngStream` value, and a
fixed ``(seed, stream_id)`` always yields the same output.  The Monte Carlo
harness (``mc_verify``, stream contract 5) draws a chunk of m datasets of n
rows as one ``sample_ces`` draw of m * n rows, read observation-major: row
``i * m + j`` is observation i of dataset j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFamily
from .lin_core import hermitian_sqrt, hermitize

__all__ = [
    "Gaussian",
    "StudentT",
    "CompoundGaussianK",
    "Family",
    "parse_family",
    "elliptical_kurtosis",
    "kurtosis_lower_bound",
    "RngStream",
    "CESModel",
    "sample_sphere",
    "sample_modular",
    "sample_ces",
]


@dataclass(frozen=True)
class Gaussian:
    """Circular complex normal tails."""

    def __str__(self) -> str:
        return "gaussian"


@dataclass(frozen=True)
class StudentT:
    """Complex t tails with ``dof`` degrees of freedom (``dof > 4``)."""

    dof: float

    def __post_init__(self):
        if not (self.dof > 4.0):
            raise InvalidFamily(
                f"t family needs dof > 4 for finite fourth-order moments, got {self.dof}"
            )
        if math.isinf(self.dof):
            raise InvalidFamily(f"t family needs a finite dof, got {self.dof}; its limit is gaussian")

    def __str__(self) -> str:
        return f"t:{self.dof:g}"


# Smallest K shape a: the boosted texture's factor U^(1/a) rounds to 0, below
# 2^-1075, with probability 2^(-1075 a), which exceeds 2^-53 below this bound.
_K_SHAPE_MIN = 53 / 1075


@dataclass(frozen=True)
class CompoundGaussianK:
    """Compound-Gaussian (K-distributed) tails with gamma texture
    ``shape >= 53/1075`` (about 0.049)."""

    shape: float

    def __post_init__(self):
        if not (self.shape >= _K_SHAPE_MIN):
            raise InvalidFamily(
                f"K family needs shape >= 53/1075 (about {_K_SHAPE_MIN:.4f}), got {self.shape}: below it "
                "the texture draw underflows to 0 with probability above 2^-53"
            )
        if math.isinf(self.shape):
            raise InvalidFamily(f"K family needs a finite shape, got {self.shape}; its limit is gaussian")

    def __str__(self) -> str:
        return f"k:{self.shape:g}"


Family = Gaussian | StudentT | CompoundGaussianK


def parse_family(text: str) -> Family:
    """Parse the CLI family syntax: ``gaussian``, ``t:NU``, ``k:ALPHA``."""
    t = text.strip().lower()
    if t == "gaussian":
        return Gaussian()
    for prefix, ctor in (("t:", StudentT), ("k:", CompoundGaussianK)):
        if t.startswith(prefix):
            try:
                value = float(t[len(prefix):])
            except ValueError:
                raise InvalidFamily(f"cannot parse family parameter in {text!r}") from None
            return ctor(value)
    raise InvalidFamily(f"unknown family {text!r}; expected gaussian, t:NU or k:ALPHA")


def elliptical_kurtosis(family: Family) -> float:
    """Closed-form elliptical kurtosis of a family: E[r^4]/(p(p+1)) - 1."""
    if isinstance(family, Gaussian):
        return 0.0
    if isinstance(family, StudentT):
        return 2.0 / (family.dof - 4.0)
    if isinstance(family, CompoundGaussianK):
        return 1.0 / family.shape
    raise InvalidFamily(f"unsupported family {family!r}")


def kurtosis_lower_bound(p: int) -> float:
    """Smallest elliptical kurtosis possible in dimension p: -1/(p+1)."""
    return -1.0 / (p + 1)


_VECTOR_CLEAR = np.zeros(64)  # read by RngStream.generator, never written
_VECTOR_CLEAR.flags.writeable = False


@dataclass(frozen=True)
class RngStream:
    """Addressable deterministic random stream.

    A fixed ``(seed, stream_id)`` pair yields an identical scalar sequence
    on every run; distinct pairs give statistically independent streams.
    The generator is numpy's SFC64 bit generator seeded by
    ``SeedSequence((seed, stream_id))`` (stream contract 4; contracts up to 3
    used PCG64, whose normals take about 1.2x as long).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def generator(self) -> np.random.Generator:
        # numpy's random code is compiled for the SSE baseline, and SSE code
        # runs slowly while the upper halves of the vector registers are
        # dirty, as OpenBLAS's complex GEMM can leave them: after `m @ m` on
        # a 4 x 4 complex matrix a k:0.5 gamma draw of 5120 took 2.48 ms
        # instead of 0.35 ms (AVX-512 Xeon).  A float64 add over >= 16
        # doubles runs numpy's AVX loop, which clears that state; over 8 it
        # does not, as numpy takes its scalar path for short arrays.  So
        # every draw starts clean, whatever ran before it.
        np.add(_VECTOR_CLEAR, _VECTOR_CLEAR)
        seq = np.random.SeedSequence((int(self.seed), int(self.stream_id)))
        return np.random.Generator(np.random.SFC64(seq))


def _texture(gen: np.random.Generator, family: Family, n: int):
    """n draws of the unit-mean texture tau of r^2 = tau * chi^2_{2p} / 2 (1.0 if Gaussian)."""
    if isinstance(family, Gaussian):
        return 1.0
    if isinstance(family, StudentT):
        return (family.dof - 2.0) / gen.chisquare(family.dof, size=n)
    if isinstance(family, CompoundGaussianK):
        a = family.shape
        if a >= 1.0:
            return gen.gamma(a, 1.0 / a, size=n)
        # Gamma(a) = Gamma(a + 1) U^(1/a) (Marsaglia & Tsang 2000): numpy's
        # own a < 1 algorithm takes about twice as long per draw
        tau = gen.standard_gamma(a + 1.0, size=n)
        tau *= gen.random(n) ** (1.0 / a)
        tau *= 1.0 / a
        return tau
    raise InvalidFamily(f"unsupported family {family!r}")


def sample_sphere(p: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Uniform draws on the complex unit sphere in C^p.

    Returns a single (p,) vector when ``size`` is None, else a (size, p)
    array of independent draws.  Every draw has unit norm to 1e-14.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    z = np.empty((1 if size is None else int(size), 2 * p))
    u = _draw_sphere(rng, z, np.empty_like(z), np.empty(len(z)))
    return u[0] if size is None else u


def _draw_sphere(rng: RngStream, z: np.ndarray, sq: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """:func:`sample_sphere` of ``len(z)`` draws into caller buffers: the
    float64 (k, 2p) ``z`` takes the normal draw and then, viewed as complex,
    the draws, which are returned; the float64 (k, 2p) ``sq`` and (k,)
    ``norm`` are scratch.  The norms are numpy's ``linalg.norm(z, axis=1)``,
    spelt out so that they land in ``norm``."""
    rng.generator().standard_normal(out=z)
    np.sqrt(np.add.reduce(np.multiply(z, z, out=sq), axis=1, out=norm), out=norm)
    u = z.view(np.complex128)
    return np.divide(u, norm[:, None], out=u)


def sample_modular(family: Family, p: int, rng: RngStream, size: int | None = None):
    """Draws of the modular variate r (normalized so E[r^2] = p).

    Returns a float when ``size`` is None, else a (size,) array.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    gen, k = rng.generator(), 1 if size is None else int(size)
    r = np.sqrt(0.5 * gen.chisquare(2 * p, size=k) * _texture(gen, family, k))
    return float(r[0]) if size is None else r


@dataclass(frozen=True, eq=False)
class CESModel:
    """A circular CES model: mean, covariance, tail family.

    The elliptical kurtosis and the Hermitian covariance square root are
    derived once at construction and cached, and so are two flags that let
    ``sample_ces`` skip work that changes no bit: whether that root is
    exactly the identity and whether the mean is exactly zero.
    """

    mu: np.ndarray
    cov: np.ndarray
    family: Family
    kappa: float = field(init=False)
    sqrt_cov: np.ndarray = field(init=False, repr=False)
    _identity_sqrt: bool = field(init=False, repr=False)
    _zero_mean: bool = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.complex128)
        if mu.ndim != 1:
            raise ValueError(f"mu must be a 1-D vector, got shape {mu.shape}")
        if mu.size == 0:
            raise ValueError("p must be >= 1, got an empty mu")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite entries")
        cov = hermitize(self.cov, name="cov")
        if cov.shape[0] != mu.shape[0]:
            raise ValueError(
                f"dimension mismatch: mu has length {mu.shape[0]}, cov is {cov.shape[0]} x {cov.shape[1]}"
            )
        sqrt_cov = hermitian_sqrt(cov)  # also enforces positive definiteness
        kappa = elliptical_kurtosis(self.family)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "sqrt_cov", sqrt_cov)
        object.__setattr__(self, "_identity_sqrt", np.array_equal(sqrt_cov, np.eye(len(mu))))
        object.__setattr__(self, "_zero_mean", not mu.any())

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


# bytes of the block of rows that _draw_ces multiplies by a covariance root
# at a time (16384 rows at p = 1, 1638 at p = 10)
_ROOT_BLOCK_BYTES = 256 * 2**10


def sample_ces(model: CESModel, n: int, rng: RngStream) -> np.ndarray:
    """Draw an (n, p) dataset with rows i.i.d. from the model.

    Row i is ``mu + sqrt(tau_i / 2) * sqrt_cov @ z_i`` for a complex normal ``z_i``
    and then a texture ``tau_i``: ``||z_i||^2 / 2`` is the chi-square factor of
    ``r_i^2`` and ``z_i / ||z_i||`` an independent sphere direction, so the row
    has the law of ``mu + r_i * sqrt_cov @ u_i``.  The product with an
    identity ``sqrt_cov`` is skipped, and so is the sum with a zero ``mu``,
    whatever the covariance: for finite draws the product changes no bit,
    and adding +0.0 changes only an entry that is exactly -0.0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _draw_ces(model, rng, np.empty((n, 2 * model.dim)))


def _draw_ces(model: CESModel, rng: RngStream, y: np.ndarray) -> np.ndarray:
    """:func:`sample_ces` of ``len(y)`` rows into the caller's float64
    (N, 2p) buffer ``y``, and returned as its complex view: ``y`` takes the
    normal draw, scaled in place by the texture, then the product with
    ``sqrt_cov`` and the sum with ``mu``, each in place.

    The product goes through a buffer of its own, a block of
    ``_ROOT_BLOCK_BYTES`` of rows at a time.  Every block but a lone row is a BLAS
    gemm, which gives each row the bits of one gemm over all N rows; one row
    goes to gemv, which rounds differently, so a block that would leave a
    single row behind takes it along."""
    gen = rng.generator()
    gen.standard_normal(out=y)
    # a real multiply of the float view has the bits of z * (s + 0j) for finite z
    y *= np.sqrt(0.5 * _texture(gen, model.family, len(y)))[..., None]
    x = y.view(np.complex128)
    if not model._identity_sqrt:
        n, p = len(x), model.dim
        block = max(2, _ROOT_BLOCK_BYTES // (16 * p))
        buf = np.empty((min(n, block + 1), p), np.complex128)
        root_t = model.sqrt_cov.T  # rows of C w are w^T C^T, and C^T = C* as C is Hermitian
        lo = 0
        while lo < n:
            hi = n if n - lo <= block + 1 else lo + block
            x[lo:hi] = np.matmul(x[lo:hi], root_t, out=buf[: hi - lo])
            lo = hi
    if not model._zero_mean:
        x += model.mu  # in place: a fresh (N, p) array costs more than the sum
    return x
