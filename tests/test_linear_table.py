"""The affine moment table of the linear families against the dense path.

Pinching and factorized states are R0 + sum_j E_j D_j, so the moment kernel
pairs the Heisenberg images with R0 and D once per run and only checks
feasibility at each point.  Here the table's moments, W and ode1/ode2
velocities are compared with state_of plus Frobenius pairings on random
generators and families, and infeasible points are checked to fail as
state_of fails.  run_ode integrates these families by the exact RK4 maps of
the affine velocity; its rows and its errors are compared with integrate
driven by the per-point velocity.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    integrate,
    run_ode,
)
from thermostrobe.strob import FD_STEP
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
    assert_close(limit.moments(E, gradient=False)[0], a, scale)
    assert_close(limit.moments(E, gradient=False)[1], b, scale)
    assert_close(limit.moments(E)[2], W, scale)
    assert_close(limit.velocity(E, 1), CFG.lam * a, scale)
    assert_close(limit.velocity(E, 2),
                 CFG.lam * a + 0.5 * CFG.alpha * (b - W @ a), scale * (1.0 + np.max(np.abs(W))))
    # fd_gradient differences the same table; central differences of an affine map
    assert np.max(np.abs(limit.fd_gradient(E) - W)) <= 1e-8 * scale

    # a negative diagonal coordinate leaves the domain; every path reports it as state_of does
    bad = E.copy()
    bad[0] = -0.5
    with pytest.raises(DomainError) as dense_err:
        fam.state_of(bad)
    for call in (lambda: limit.moments(bad, gradient=False),
                 lambda: limit.moments(bad),
                 lambda: limit.fd_gradient(bad),
                 lambda: limit.velocity(bad, 2)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == str(dense_err.value)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@example(4, 2094)  # a draw with an eigenvalue 1.2e-6 from the PSD boundary
def test_pinching_table_matches_dense_path(d, seed):
    rng = np.random.default_rng(seed)
    check_table(rng, random_pinching(rng, d))


@pytest.mark.parametrize("offset", [0.0, 1e-7, 0.5 * FD_STEP])
def test_fd_gradient_at_the_pinching_boundary(offset):
    # the populations (offset, 0.3, 0.7 - offset): E lies within FD_STEP of the
    # PSD boundary, where a bumped point would not be feasible
    fam = PinchingAnsatz(np.diag([1.0, 2.0, 3.0]).astype(complex))
    E = np.array([offset, 0.3])
    gen = random_generator(np.random.default_rng(5), 3)
    limit = ContinuumLimit(gen, fam, CFG)
    with pytest.raises(DomainError):
        fam.state_of(E - [FD_STEP, 0.0])
    W = dense_moments(gen, fam, E)[2]
    assert np.max(np.abs(limit.fd_gradient(E) - W)) <= 1e-8 * (1.0 + np.max(np.abs(W)))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=2**31 - 1))
def test_factorized_table_matches_dense_path(dB, seed):
    rng = np.random.default_rng(seed)
    check_table(rng, random_factorized(rng, dB))


def test_degenerate_pinching_blocks_are_exercised(rng):
    fam = PinchingAnsatz(np.diag([1.0, 1.0, 0.0, -1.0, -1.0]))
    assert fam.size == 8  # blocks of 2, 1 and 2 levels: 4 + 1 + 4 coordinates, one from the trace
    check_table(rng, fam)


def per_point_run(gen, fam, E0, cfg, order):
    """integrate driven by ContinuumLimit.velocity: the reference for run_ode's linear route."""
    limit = ContinuumLimit(gen, fam, cfg)
    return integrate(lambda E: limit.velocity(E, order), E0, cfg)


def step_and_domain(err):
    """The protocol-step prefix and the domain name of a run's DomainError."""
    match = re.match(r"(protocol step \d+ \(t = [^)]*\)): (.*) lies outside the feasible domain",
                     str(err.value))
    assert match, str(err.value)
    return match.groups()


def assert_paths_fail_alike(gen, fam, E0, cfg, order):
    with pytest.raises(DomainError) as affine:
        run_ode(gen, fam, E0, cfg, order=order)
    with pytest.raises(DomainError) as reference:
        per_point_run(gen, fam, E0, cfg, order)
    assert step_and_domain(affine) == step_and_domain(reference)
    return step_and_domain(affine)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["pinching", "factorized"]), st.integers(min_value=0, max_value=2**31 - 1))
def test_run_ode_affine_route_matches_per_point_rk4(kind, seed):
    rng = np.random.default_rng(seed)
    fam = random_pinching(rng, int(rng.integers(2, 6))) if kind == "pinching" else \
        random_factorized(rng, int(rng.integers(2, 4)))
    gen = random_generator(rng, fam.dim)
    E0 = extract_params(fam, random_density(rng, fam.dim))
    for order in (1, 2):
        try:
            ref = per_point_run(gen, fam, E0, CFG, order)
        except DomainError:
            assert_paths_fail_alike(gen, fam, E0, CFG, order)
            continue
        got = run_ode(gen, fam, E0, CFG, order=order)
        assert got.meta == {"protocol": f"ode{order}", **ref.meta}
        np.testing.assert_array_equal(got.times, ref.times)
        scale = 1.0 + float(np.max(np.abs(ref.params)))
        assert float(np.max(np.abs(got.params - ref.params))) <= 1e-14 * scale


@pytest.mark.parametrize("ode_step", [0.1 / 64, 0.1 / 150], ids=["64-steps", "150-steps"])
def test_run_ode_affine_route_over_batches_of_steps(rng, ode_step):
    # more RK4 steps per interval than one batched stage check covers
    fam = random_factorized(rng, 2)
    gen = random_generator(rng, fam.dim)
    E0 = extract_params(fam, random_density(rng, fam.dim))
    cfg = StrobConfig(lam=1.3, dt=0.1, horizon=0.3, ode_step=ode_step)
    ref = per_point_run(gen, fam, E0, cfg, 2)
    got = run_ode(gen, fam, E0, cfg, order=2)
    assert got.meta["substeps"] == ref.meta["substeps"]
    assert float(np.max(np.abs(got.params - ref.params))) <= 1e-14 * (1.0 + np.max(np.abs(ref.params)))


def decay_generator(rate):
    """Jumps from level 0 to level 3 of a four-level system."""
    decay = np.zeros((4, 4), dtype=complex)
    decay[3, 0] = 1.0
    return GkslGenerator(np.zeros((4, 4), dtype=complex), ((decay, rate),))


@pytest.mark.parametrize("family", ["pinching", "factorized"])
def test_run_ode_stage_leaving_domain_carries_step_context(family):
    # fast decay out of the first level: an RK4 stage overshoots the domain boundary
    gen = decay_generator(50.0)
    if family == "pinching":
        fam = PinchingAnsatz(np.diag([3.0, 2.0, 1.0, 0.0]))
        E0 = np.array([0.4, 0.2, 0.2])
    else:
        fam = FactorizedAnsatz(np.diag([0.5, 0.5]), (2, 2))
        E0 = np.array([0.6, 0.0, 0.0])
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=0.5, ode_step=0.1)
    for order in (1, 2):
        assert assert_paths_fail_alike(gen, fam, E0, cfg, order)[1] == fam._domain


def test_run_ode_interior_stage_leaving_domain_is_caught():
    # level 0 (the pinching's dropped coordinate, population 0.2) decays at rate 25 and
    # the RK4 step is h = 0.1: h * rate = 2.5 lies inside RK4's stability interval, so
    # every grid row keeps population 0.2 R(-2.5)^k >= 0, but the second stage point
    # of the first step has population 0.2 (1 - 2.5 / 2) < 0
    gen = decay_generator(25.0)
    fam = PinchingAnsatz(np.diag([3.0, 2.0, 1.0, 0.0]))
    E0 = np.array([0.4, 0.2, 0.2])
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=0.5, ode_step=0.1)
    R = sum((-2.5) ** k / factorial for k, factorial in enumerate((1, 1, 2, 6, 24)))
    for k in range(cfg.n_steps() + 1):
        fam.state_of(E0 + [0.2 * (1.0 - R**k), 0.0, 0.0])  # every grid row is feasible
    with pytest.raises(DomainError):
        fam.state_of(E0 + [0.2 * 1.25, 0.0, 0.0])
    for order in (1, 2):  # the span is invariant, so both orders decay alike
        assert assert_paths_fail_alike(gen, fam, E0, cfg, order) == \
            ("protocol step 0 (t = 0)", fam._domain)
