"""Shared helpers for the test suite."""

import hashlib
import json

import numpy as np

from cescov.ces_sampler import CESModel, CompoundGaussianK, Gaussian
from cescov.lin_core import spiked_covariance
from cescov.mc_verify import CHUNK, MCConfig, empirical_moments, verify_oracle_efficiency


def random_complex(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def rows_of(x):
    """The observation-major rows (n, m, 2p) of a complex (m, n, p) stack of
    datasets, the input of the stacked estimator cores, as a new array (a
    view could let a core centre the caller's stack)."""
    return np.array(x.swapaxes(0, 1), dtype=np.complex128).view(np.float64)


def stack_of(rows):
    """The complex (m, n, p) stack of datasets, a view of their
    observation-major rows (n, m, 2p)."""
    return rows.view(np.complex128).swapaxes(0, 1)


def random_hpd(gen, p, jitter=0.5):
    """Random Hermitian positive definite p x p matrix."""
    a = random_complex(gen, p, p)
    return a @ a.conj().T + jitter * np.eye(p)


def random_unitary(gen, p):
    q, r = np.linalg.qr(random_complex(gen, p, p))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mc_se(values):
    """Standard error of the mean of a 1-D sample."""
    values = np.asarray(values, dtype=float)
    return values.std(ddof=1) / np.sqrt(values.size)


def report_digests():
    """SHA-256 digests of small Monte Carlo runs (moments of the transport
    model at p = 4, the oracle check with its plug-in ratio, moments of the
    FOBI statistic at p = 3) at workers 1, 2 and 4: every bit of every
    result, so two processes can compare their runs."""
    r = 3 * CHUNK + 7  # ends in a ragged chunk
    transport = CESModel(np.zeros(4), spiked_covariance(4, 2.0), CompoundGaussianK(0.5))
    runs = {
        "transport": lambda w: empirical_moments(MCConfig(r, 10, transport, seed=51, workers=w)),
        "oracle": lambda w: verify_oracle_efficiency(
            MCConfig(r, 10, transport, seed=52, workers=w), include_plugin=True
        ),
        "fobi": lambda w: empirical_moments(
            MCConfig(r, 12, CESModel(np.zeros(3), np.eye(3), Gaussian()), "wscm:fobi", seed=53, workers=w)
        ),
    }
    digests = []
    for name, run in runs.items():
        for workers in (1, 2, 4):
            result = run(workers)
            h = hashlib.sha256(name.encode())
            if name == "oracle":
                h.update(json.dumps(result.to_dict(), sort_keys=True).encode())
            else:
                for value in vars(result).values():
                    h.update(np.ascontiguousarray(value).tobytes())
            digests.append(f"{name}-w{workers}:{h.hexdigest()}")
    return digests
