"""Property tests for the exact identities of the closed-form theory.

Each property holds for every dimension and every Hermitian positive
definite M, so it is checked over random p in [1, 6] and random M.  The
search is derandomized and keeps no example database, so the suite stays
deterministic and writes no files.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cescov.ces_sampler import kurtosis_lower_bound
from cescov.estimators import scm
from cescov.lin_core import _hermitian_coords, _Workspace, commutation_matrix, vec
from cescov.theory import (
    RadialStructure,
    affine_equivariant_var,
    empirical_structure_pair,
    mse_scm,
    radial_var_structure,
    scm_radial_structure,
    shrinkage_report,
)

from util import random_complex, random_hpd

exact = settings(derandomize=True, database=None, max_examples=50, deadline=None)

dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(2, 50)
unit = st.floats(0.0, 1.0)


def kappa_for(p, u):
    """Kurtosis in [-1/(p+1), 3] from u in [0, 1]."""
    lo = kurtosis_lower_bound(p)
    return lo + u * (3.0 - lo)


@exact
@given(p=dims, seed=seeds)
def test_commutation_transposes_vec(p, seed):
    a = random_complex(np.random.default_rng(seed), p, p)
    np.testing.assert_array_equal(commutation_matrix(p) @ vec(a), vec(a.T))


@exact
@given(p=dims, seed=seeds)
def test_hermitian_coordinates_round_trip(p, seed):
    gen = np.random.default_rng(seed)
    coords = _hermitian_coords(p)
    h = gen.standard_normal(p * p) * np.exp(gen.uniform(-30.0, 30.0, p * p))
    a = coords.to_matrix(h)
    np.testing.assert_array_equal(a, a.conj().T)
    np.testing.assert_array_equal(coords.from_matrix(a).view(np.uint64), h.view(np.uint64))
    # vec(A) = U h, with U held by index
    u = np.zeros((p * p, p * p), dtype=complex)
    rows = np.arange(p * p)
    u[rows, coords.re] = 1.0
    u[rows, coords.im] += 1j * coords.sign
    np.testing.assert_array_equal(u @ h, vec(a))
    norm2 = float(np.sum(np.abs(a) ** 2))
    assert abs(coords.sq_norm(h) - norm2) <= 1e-14 * norm2


@exact
@given(p=dims, n=sizes, seed=seeds)
def test_coordinates_from_the_real_gram(p, n, seed):
    x = random_complex(np.random.default_rng(seed), n, p)
    y = x.view(np.float64)
    got = _hermitian_coords(p).from_gram(y.T @ y, 0.5, _Workspace(), out=np.empty(p * p))
    want = _hermitian_coords(p).from_matrix(x.T @ x.conj() * 0.5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@exact
@given(p=dims, tau1=st.floats(0.0, 10.0), t=st.floats(-1.0, 10.0))
def test_transport_at_identity_is_radial_form(p, tau1, t):
    s = RadialStructure(1.0, tau1, t * tau1 / p, p)
    got = affine_equivariant_var(np.eye(p), s)
    want = radial_var_structure(s.tau1, s.tau2, p)
    np.testing.assert_array_equal(got.var.view(np.uint64), want.var.view(np.uint64))
    np.testing.assert_array_equal(got.pvar.view(np.uint64), want.pvar.view(np.uint64))


@exact
@given(p=st.integers(1, 8), tau1=st.floats(-10.0, 10.0), tau2=st.floats(-10.0, 10.0))
def test_empirical_pair_has_the_bits_of_the_dense_form(p, tau1, tau2):
    # the blocked two-constant builder at M = I against the dense real
    # expression and its complex cast, with tau's inside and outside the
    # constraints tau1 >= 0 and tau2 >= -tau1/p
    v = vec(np.eye(p))
    want = (tau1 * np.eye(p * p) + tau2 * np.outer(v, v)).astype(np.complex128)
    got = empirical_structure_pair(tau1, tau2, p).var
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@exact
@given(p=dims, n=sizes, seed=seeds)
def test_scm_affine_equivariance(p, n, seed):
    gen = np.random.default_rng(seed)
    x = random_complex(gen, n, p)
    a = random_hpd(gen, p)
    b = random_complex(gen, p)
    got = scm(x @ a.T + b).s
    want = a @ scm(x).s @ a.conj().T
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


@exact
@given(p=dims, n=sizes, u=unit, seed=seeds)
def test_trace_of_var_is_mse(p, n, u, seed):
    m = random_hpd(np.random.default_rng(seed), p)
    kappa = kappa_for(p, u)
    pair = affine_equivariant_var(m, scm_radial_structure(n, kappa, p))
    mse, _ = mse_scm(m, n, kappa)
    assert abs(np.trace(pair.var).real - mse) <= 1e-12 * mse


@exact
@given(p=dims, n=sizes, u=unit, seed=seeds)
def test_oracle_mse_is_beta_times_mse(p, n, u, seed):
    m = random_hpd(np.random.default_rng(seed), p)
    rep = shrinkage_report(n, p, kappa_for(p, u), cov=m)
    f2 = float(np.sum(np.abs(m) ** 2))  # ||M||_F^2

    # E||beta S - M||_F^2 for the unbiased S with E||S - M||_F^2 = MSE
    def risk(beta):
        return beta * beta * (rep.mse + f2) - 2.0 * beta * f2 + f2

    assert abs(risk(rep.beta_o) - rep.oracle_mse) <= 1e-12 * f2
    assert abs(rep.oracle_mse - rep.beta_o * rep.mse) <= 1e-12 * rep.mse
    for step in (-1e-3, 1e-3):
        assert risk(rep.beta_o + step) > rep.oracle_mse
