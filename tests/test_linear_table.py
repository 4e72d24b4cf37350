"""The affine moment table of the linear families against the dense path.

Pinching and factorized states are R0 + sum_j E_j D_j, so the moment kernel
pairs the Heisenberg images with R0 and D once per run and only checks
feasibility at each point.  Here the table's moments, W and ode1/ode2
velocities are compared with state_of plus Frobenius pairings on random
generators and families, and infeasible points are checked to fail as
state_of fails.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    ContinuumLimit,
    DomainError,
    FactorizedAnsatz,
    GkslGenerator,
    PinchingAnsatz,
    StrobConfig,
    apply_heisenberg,
    extract_params,
    frobenius,
    run_ode,
)
from tutil import random_density, random_generator

TOL = 1e-12
CFG = StrobConfig(lam=1.3, dt=0.1, horizon=1.0)


def random_pinching(rng, d):
    """Pinching family of an observable with L distinct levels in a random
    basis; levels repeat (degenerate blocks) whenever L < d."""
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    L = int(rng.integers(1, d + 1))
    levels = rng.permutation(L).astype(float)
    w = levels[rng.permutation(np.concatenate([np.arange(L), rng.integers(0, L, size=d - L)]))]
    return PinchingAnsatz(U @ np.diag(w) @ U.conj().T)


def random_factorized(rng, dB):
    return FactorizedAnsatz(random_density(rng, dB), (2, dB))


def dense_moments(gen, fam, E):
    """(<A>, <B>, W) from state_of, derivative_of and Frobenius pairings, and the image scale."""
    A = [apply_heisenberg(gen, P) for P in fam.relevant.observables]
    B = [apply_heisenberg(gen, Am) for Am in A]
    rho = fam.state_of(E)
    a = np.array([frobenius(Am, rho).real for Am in A])
    b = np.array([frobenius(Bm, rho).real for Bm in B])
    W = np.array([[frobenius(Am, D).real for D in fam.derivative_of(E)] for Am in A])
    return a, b, W, 1.0 + max(float(np.max(np.abs(X))) for X in A + B)


def assert_close(got, ref, scale):
    assert float(np.max(np.abs(np.asarray(got) - ref))) <= TOL * scale


def check_table(rng, fam):
    d = fam.dim
    E, E2 = (extract_params(fam, random_density(rng, d)) for _ in range(2))
    # state_of is affine with slopes derivative_of, so the dense W is the exact gradient
    step = np.einsum("j,jab->ab", E2 - E, fam.derivative_of(E))
    assert np.max(np.abs(fam.state_of(E2) - fam.state_of(E) - step)) <= TOL * (1.0 + np.max(np.abs(E2 - E)))

    gen = random_generator(rng, d)
    a, b, W, scale = dense_moments(gen, fam, E)
    limit = ContinuumLimit(gen, fam, CFG)
    fd = ContinuumLimit(gen, fam, replace(CFG, fd_check=True))
    assert_close(limit.moments(E, gradient=False)[0], a, scale)
    assert_close(limit.moments(E, gradient=False)[1], b, scale)
    assert_close(limit.moments(E)[2], W, scale)
    assert_close(limit.velocity(E, 1), CFG.lam * a, scale)
    assert_close(limit.velocity(E, 2),
                 CFG.lam * a + 0.5 * CFG.alpha * (b - W @ a), scale * (1.0 + np.max(np.abs(W))))
    # fd mode differentiates the same table; central differences of an affine map
    assert np.max(np.abs(fd.moments(E)[2] - W)) <= 1e-8 * scale

    # a negative diagonal coordinate leaves the domain; every path reports it as state_of does
    bad = E.copy()
    bad[0] = -0.5
    with pytest.raises(DomainError) as dense_err:
        fam.state_of(bad)
    for call in (lambda: limit.moments(bad, gradient=False),
                 lambda: limit.moments(bad),
                 lambda: fd.moments(bad),
                 lambda: limit.velocity(bad, 2)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == str(dense_err.value)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_pinching_table_matches_dense_path(d, seed):
    rng = np.random.default_rng(seed)
    check_table(rng, random_pinching(rng, d))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=2**31 - 1))
def test_factorized_table_matches_dense_path(dB, seed):
    rng = np.random.default_rng(seed)
    check_table(rng, random_factorized(rng, dB))


def test_degenerate_pinching_blocks_are_exercised(rng):
    fam = PinchingAnsatz(np.diag([1.0, 1.0, 0.0, -1.0, -1.0]))
    assert fam.size == 8  # blocks of 2, 1 and 2 levels: 4 + 1 + 4 coordinates, one from the trace
    check_table(rng, fam)


@pytest.mark.parametrize("family", ["pinching", "factorized"])
def test_run_ode_stage_leaving_domain_carries_step_context(family):
    # fast decay out of the first level: an RK4 stage overshoots the domain boundary
    decay = np.zeros((4, 4), dtype=complex)
    decay[3, 0] = 1.0
    gen = GkslGenerator(np.zeros((4, 4), dtype=complex), ((decay, 50.0),))
    if family == "pinching":
        fam = PinchingAnsatz(np.diag([3.0, 2.0, 1.0, 0.0]))
        E0 = np.array([0.4, 0.2, 0.2])
    else:
        fam = FactorizedAnsatz(np.diag([0.5, 0.5]), (2, 2))
        E0 = np.array([0.6, 0.0, 0.0])
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=0.5, ode_step=0.1)
    for order in (1, 2):
        with pytest.raises(DomainError, match=r"protocol step \d+ \(t = .*outside the feasible domain"):
            run_ode(gen, fam, E0, cfg, order=order)
