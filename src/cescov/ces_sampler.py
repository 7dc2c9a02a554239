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

Data are drawn in compound-Gaussian form: for a complex normal ``z`` with
N(0, 1) real and imaginary parts, ``||z||^2 / 2`` has the law of ``q`` and
``z / ||z||`` is uniform on the sphere and independent of ``||z||``, so
``r u`` has the law of ``sqrt(tau / 2) z``.

Reproducibility: all samplers take an :class:`RngStream` value, and a
fixed ``(seed, stream_id)`` always yields the same output.
"""

from __future__ import annotations

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

    def __str__(self) -> str:
        return f"t:{self.dof:g}"


@dataclass(frozen=True)
class CompoundGaussianK:
    """Compound-Gaussian (K-distributed) tails with gamma texture ``shape > 0``."""

    shape: float

    def __post_init__(self):
        if not (self.shape > 0.0):
            raise InvalidFamily(f"K family needs shape > 0, got {self.shape}")

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


@dataclass(frozen=True)
class RngStream:
    """Addressable deterministic random stream.

    A fixed ``(seed, stream_id)`` pair yields an identical scalar sequence
    on every run; distinct pairs give statistically independent streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((int(self.seed), int(self.stream_id)))
        )


def _texture(gen: np.random.Generator, family: Family, n: int):
    """n draws of the unit-mean texture tau of r^2 = tau * chi^2_{2p} / 2 (1.0 if Gaussian)."""
    if isinstance(family, Gaussian):
        return 1.0
    if isinstance(family, StudentT):
        return (family.dof - 2.0) / gen.chisquare(family.dof, size=n)
    if isinstance(family, CompoundGaussianK):
        return gen.gamma(family.shape, 1.0 / family.shape, size=n)
    raise InvalidFamily(f"unsupported family {family!r}")


def sample_sphere(p: int, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Uniform draws on the complex unit sphere in C^p.

    Returns a single (p,) vector when ``size`` is None, else a (size, p)
    array of independent draws.  Every draw has unit norm to 1e-14.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    z = rng.generator().standard_normal((1 if size is None else int(size), 2 * p))
    u = z.view(np.complex128) / np.linalg.norm(z, axis=1, keepdims=True)
    return u[0] if size is None else u


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
    derived once at construction and cached.
    """

    mu: np.ndarray
    cov: np.ndarray
    family: Family
    kappa: float = field(init=False)
    sqrt_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.complex128)
        if mu.ndim != 1:
            raise ValueError(f"mu must be a 1-D vector, got shape {mu.shape}")
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

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def sample_ces(model: CESModel, n: int, rng: RngStream) -> np.ndarray:
    """Draw an (n, p) dataset with rows i.i.d. from the model.

    Row i is ``mu + sqrt(tau_i / 2) * sqrt_cov @ z_i`` for a complex normal ``z_i``
    and then a texture ``tau_i``: ``||z_i||^2 / 2`` is the chi-square factor of
    ``r_i^2`` and ``z_i / ||z_i||`` an independent sphere direction, so the row
    has the law of ``mu + r_i * sqrt_cov @ u_i``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.generator()
    z = gen.standard_normal((n, 2 * model.dim)).view(np.complex128)
    z *= np.sqrt(0.5 * _texture(gen, model.family, n))[..., None]
    x = z @ model.sqrt_cov.T  # rows of C w are w^T C^T, and C^T = C* as C is Hermitian
    x += model.mu  # in place: a fresh (n, p) array costs more than the sum
    return x
