"""The spectral Gibbs path against the dense reference formulas.

A relevant set whose observables commute is evaluated in their common
eigenbasis without diagonalizing K = (beta, P); any other set diagonalizes K
once per point.  Both are checked here against the dense formulas: an
eigensolve of K, the directional derivative dexp_neg per direction and
Frobenius pairings.  Random inputs are drawn where those formulas are
themselves accurate to roundoff (response matrix condition at most 100,
distinct levels of K at least 1e-2 apart); elsewhere the dense reference
loses more digits than the spectral path does.  The degenerate exponents the
draws leave out, K = 0 and K with an exactly repeated level, are checked at
fixed points.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thermostrobe import (
    ContinuumLimit,
    DegenerateAnsatzError,
    DomainError,
    GibbsAnsatz,
    Propagator,
    RelevantSet,
    StrobConfig,
    apply_heisenberg,
    dexp_neg,
    frobenius,
    gibbs_expectations,
    gibbs_jacobian,
    gibbs_param_derivative,
    gibbs_state,
    hermitize,
)
from thermostrobe.matcore import DEGENERATE_EIG_TOL, exp_neg_kernel
from reference import SIGMA_X, SIGMA_Z, derivative_from_beta, ode_rhs_temperature, point_velocity
from tutil import random_generator, random_hermitian

TOL = 1e-12
CFG = StrobConfig(lam=1.3, dt=0.1, horizon=1.0)


def dense_gibbs(obs, beta):
    """Reference state, expectations, response matrix, d rho/d beta and d rho/d E."""
    K = sum(b * P for b, P in zip(beta, obs))
    w, U = np.linalg.eigh(hermitize(K))
    w = w - w.min()
    weights = np.exp(-w)
    Z = weights.sum()
    rho = hermitize((U * (weights / Z)) @ U.conj().T)
    E = np.array([frobenius(P, rho).real for P in obs])
    K = hermitize((U * w) @ U.conj().T)
    dstack = np.array([dexp_neg(K, P) / Z + rho * E[n] for n, P in enumerate(obs)])
    J = np.array([[frobenius(P, D).real for D in dstack] for P in obs])
    J = 0.5 * (J + J.T)
    derivs = np.einsum("nab,nj->jab", dstack, np.linalg.inv(J))
    return rho, E, J, dstack, derivs


def dense_rhs(gen, obs, rho, derivs):
    """Reference ode1 and ode2 velocities from the Heisenberg images."""
    A = [apply_heisenberg(gen, P) for P in obs]
    B = [apply_heisenberg(gen, Am) for Am in A]
    a = np.array([frobenius(Am, rho).real for Am in A])
    b = np.array([frobenius(Bm, rho).real for Bm in B])
    W = np.array([[frobenius(Am, D).real for D in derivs] for Am in A])
    scale = 1.0 + max(float(np.max(np.abs(X))) for X in A + B)
    return CFG.lam * a, CFG.lam * a + 0.5 * CFG.alpha * (b - W @ a), scale


def commuting_set(rng, d, M):
    """M observables sharing a random eigenbasis, with degenerate joint levels
    whenever fewer than d distinct ones are drawn."""
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    L = int(rng.integers(M + 1, d + 1))
    levels = np.array([rng.permutation(L) + rng.uniform(-0.2, 0.2, L) for _ in range(M)])
    levels -= levels.mean(axis=1, keepdims=True)
    idx = np.concatenate([np.arange(L), rng.integers(0, L, size=d - L)])
    table = levels[:, rng.permutation(idx)]
    return tuple(U @ np.diag(t) @ U.conj().T for t in table)


def assert_close(got, ref, scale=None):
    scale = 1.0 + float(np.max(np.abs(ref))) if scale is None else scale
    assert float(np.max(np.abs(np.asarray(got) - ref))) <= TOL * scale


def check_against_dense(rng, obs, spectral):
    rs = RelevantSet(obs)
    assert (rs.spectral_basis is not None) == spectral
    beta = rng.uniform(-0.8, 0.8, size=rs.size)
    J = dense_gibbs(obs, beta)[2]
    gaps = np.diff(np.linalg.eigvalsh(sum(b * P for b, P in zip(beta, obs))))
    assume(np.linalg.cond(J) <= 100.0 and not np.any((gaps > 1e-9) & (gaps < 1e-2)))
    check_point(rng, rs, beta)


def check_point(rng, rs, beta):
    """Every Gibbs quantity and both velocities at beta against the dense formulas."""
    obs = rs.observables
    rho, E, J, dstack, derivs = dense_gibbs(obs, beta)
    assert_close(gibbs_state(rs, beta), rho)
    assert_close(gibbs_expectations(rs, beta), E)
    assert_close(gibbs_jacobian(rs, beta), J)
    assert_close(gibbs_param_derivative(rs, beta), dstack)
    fam = GibbsAnsatz(rs, fit_tol=1e-13)
    assert_close(derivative_from_beta(fam, beta), derivs)
    assert_close(fam.derivative_of(E), derivs)
    # a residual of TOL in the expectations moves beta by at most TOL |J^-1|
    fitted = fam.point_of(E).beta
    assert float(np.max(np.abs(fitted - beta))) <= TOL * np.linalg.norm(np.linalg.inv(J), 2)

    gen = random_generator(rng, rs.dim)
    rho_fit, *_, derivs_fit = dense_gibbs(obs, fitted)
    ode1, ode2, scale = dense_rhs(gen, obs, rho_fit, derivs_fit)
    limit = ContinuumLimit(gen, fam, CFG)
    assert_close(limit.velocity(E, 1), ode1, scale)
    assert_close(limit.velocity(E, 2), ode2, scale)
    # natural coordinates: the beta-route velocity is J^-1 times the E-route one at E(beta)
    J_inv = np.linalg.inv(J)
    for order in (1, 2):
        assert_close(point_velocity(limit.gibbs_point(beta), order, limit.cfg),
                     J_inv @ limit.velocity(E, order), scale * np.linalg.norm(J_inv, 2))
    if rs.size == 1:
        _, ode2, scale = dense_rhs(gen, obs, rho, derivs)
        expected = ode2[0] / J[0, 0]  # -(beta^2 / C) dE/dt with C = -beta^2 J
        assert_close(ode_rhs_temperature(gen, fam, beta[0], CFG), expected, scale / abs(J[0, 0]))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_commuting_sets_take_the_spectral_path(d, M, seed):
    rng = np.random.default_rng(seed)
    check_against_dense(rng, commuting_set(rng, d, min(M, d - 1)), spectral=True)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_non_commuting_sets_match_dense_formulas(d, M, seed):
    rng = np.random.default_rng(seed)
    check_against_dense(rng, tuple(random_hermitian(rng, d) for _ in range(M)), spectral=False)


def test_spectral_table_reproduces_observables(rng):
    obs = commuting_set(rng, 5, 2)
    U, w = RelevantSet(obs).spectral_basis
    for P, row in zip(obs, w):
        assert np.max(np.abs(U @ np.diag(row) @ U.conj().T - P)) <= 1e-13


def test_near_commuting_set_falls_back_to_dense(rng):
    P1, P2 = commuting_set(rng, 4, 2)
    obs = (P1, P2 + 1e-7 * random_hermitian(rng, 4))
    assert RelevantSet(obs).spectral_basis is None
    beta = np.array([0.4, -0.3])
    rho, E, J, _, derivs = dense_gibbs(obs, beta)
    assert_close(gibbs_state(obs, beta), rho)
    assert_close(gibbs_jacobian(obs, beta), J)
    assert_close(derivative_from_beta(GibbsAnsatz(obs), beta), derivs)


# ---------------------------------------------------------------------------
# The fused point at degenerate exponents, its kernel, its errors and its cost

SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)


@pytest.mark.parametrize("obs, beta", [
    ((SIGMA_Z, SIGMA_X), [0.0, 0.0]),
    ((SZ1, SX1), [0.0, 0.0]),
    ((SZ1 @ SZ1, SX1), [0.7, 0.0]),
    ((SZ1 @ SZ1, SX1, SZ1), [0.5, 0.0, 0.5]),
], ids=["qubit-K-zero", "spin1-K-zero", "spin1-repeated-level", "spin1-three-repeated-level"])
def test_non_commuting_point_at_degenerate_exponents(rng, obs, beta):
    # K = 0 is where every cold fit starts; the other K have an exactly repeated level
    rs = RelevantSet(obs)
    assert rs.spectral_basis is None
    beta = np.array(beta)
    levels = np.linalg.eigvalsh(sum(b * P for b, P in zip(beta, obs)))
    assert np.min(np.diff(levels)) < DEGENERATE_EIG_TOL
    check_point(rng, rs, beta)


def previous_exp_neg_kernel(w):
    """exp_neg_kernel as first written: both branches over the whole matrix."""
    ew = np.exp(-w)
    diff = w[:, None] - w[None, :]
    near = np.abs(diff) < DEGENERATE_EIG_TOL
    safe = np.where(near, 1.0, diff)
    return np.where(near, -np.exp(-0.5 * (w[:, None] + w[None, :])), (ew[:, None] - ew[None, :]) / safe)


def test_exp_neg_kernel_matches_previous_formula(rng):
    spectra = [[0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1e-10, 2.0, 2.0 + 5e-9],
               [0.0, 5e-9, 1e-8, 1.5e-8], [0.0, 350.0, 700.0, 745.0]]
    for _ in range(200):
        w = np.sort(rng.normal(size=int(rng.integers(2, 7))) * rng.choice([1e-9, 1e-8, 1.0, 50.0]))
        if rng.random() < 0.5:
            w[1] = w[0] + rng.choice([0.0, 1e-12, 5e-9, 2e-8])
        spectra.append(w - w.min())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in map(np.asarray, spectra):
            assert np.array_equal(exp_neg_kernel(w), previous_exp_neg_kernel(w)), w


@pytest.mark.parametrize("obs, beta, error, message", [
    ((SIGMA_Z, SIGMA_X), [np.inf, 0.0], DomainError,
     "non-finite entries in exponent operator (beta, P)"),
    ((SIGMA_Z,), [np.inf], DomainError,
     "Gibbs exponents [inf] give a non-finite spectrum of (beta, P)"),
    ((SIGMA_Z, SIGMA_X), [1e308, 1e308], DomainError,
     "Gibbs exponents [1.e+308 1.e+308] give a non-finite spectrum of (beta, P)"),
    ((SIGMA_Z,), [800.0], DegenerateAnsatzError,
     "Gibbs response matrix is numerically singular (|eigenvalues| from 0.000e+00 to "
     "0.000e+00) at beta = [800.]"),
    ((SIGMA_Z, SIGMA_X), [800.0, 0.0], DegenerateAnsatzError,
     "Gibbs response matrix is numerically singular (|eigenvalues| from 0.000e+00 to "
     "1.250e-03) at beta = [800.   0.]"),
], ids=["non-finite-K", "non-finite-spectrum-commuting", "non-finite-spectrum-dense",
        "singular-J-commuting", "singular-J-dense"])
def test_gibbs_point_error_messages(obs, beta, error, message):
    gen = random_generator(np.random.default_rng(3), 2)
    limit = ContinuumLimit(gen, GibbsAnsatz(obs), CFG)
    with pytest.raises(error) as info:
        point_velocity(limit.gibbs_point(np.array(beta)), 2, limit.cfg)
    assert str(info.value) == message


@pytest.mark.parametrize("obs, eigh_calls", [
    ((SZ1, SX1), 1),
    ((SZ1, SZ1 @ SZ1), 0),
], ids=["non-commuting", "commuting"])
def test_one_eigensolve_per_beta_route_rhs(monkeypatch, rng, obs, eigh_calls):
    limit = ContinuumLimit(random_generator(rng, 3), GibbsAnsatz(obs), CFG)
    limit.gibbs_point(np.zeros(2))  # builds the images and the point stack
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for order in (1, 2):
        for beta in ([0.3, -0.2], [0.0, 0.0]):
            calls.clear()
            point_velocity(limit.gibbs_point(np.array(beta)), order, limit.cfg)
            assert len(calls) == eigh_calls


@pytest.mark.parametrize("obs, eigh_calls", [
    ((SZ1, SX1), 1),
    ((SZ1, SZ1 @ SZ1), 0),
], ids=["non-commuting", "commuting"])
def test_one_eigensolve_per_e_route_moments(monkeypatch, rng, obs, eigh_calls):
    # the E route fits beta to E and reads [A; B] from the fit point: on a non-commuting
    # set the fit's own point is the one eigensolve (a warm fit at the same E accepts it)
    family = GibbsAnsatz(obs)
    limit = ContinuumLimit(random_generator(rng, 3), family, CFG)
    E = gibbs_expectations(family.relevant, [0.3, -0.2])
    limit.moments(E)  # builds the images and the first fit
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for gradient in (True, False):
        calls.clear()
        a, b, W = limit.moments(E, gradient)
        assert len(calls) == eigh_calls
    monkeypatch.undo()
    # the same moments as a point built afresh at the fitted exponents
    ref_a, ref_b = np.split(limit.gibbs_point(limit.fitted[-1]).means[2:], 2)
    np.testing.assert_array_equal(a, ref_a)
    np.testing.assert_array_equal(b, ref_b)


@pytest.mark.parametrize("images", ["heisenberg", "discrete"])
@pytest.mark.parametrize("obs, beta", [
    ((SIGMA_Z,), [0.7]),
    ((SZ1, SX1), [0.3, -0.2]),
], ids=["qubit", "spin-1"])
def test_fit_point_is_the_point_read(rng, obs, beta, images):
    # every point of a fit is built on the limit's stack [P; images]: the accepted point
    # reads the same moments, bit for bit, as a point built afresh at its exponents
    family = GibbsAnsatz(obs)
    gen = random_generator(rng, family.dim)
    stack = None if images == "heisenberg" else \
        Propagator.build(gen, CFG.lam * CFG.dt).adjoint(family.relevant.stack)
    limit = ContinuumLimit(gen, family, CFG, stack)
    M = family.size
    E = gibbs_expectations(family.relevant, beta)
    for shift in (0.0, 1e-3):  # a cold fit, then a warm one
        x = limit.read(E + shift)[0]
        assert np.array_equal(x, limit.gibbs_point(limit.fitted[-1]).means[M:])
