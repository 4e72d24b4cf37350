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
    Propagator,
    StrobConfig,
    ThermostrobeError,
    ValidationError,
    apply_heisenberg,
    extract_params,
    frobenius,
    integrate,
    run_discrete,
    run_ode,
)
from thermostrobe.ansatz import IMAG_TOL
from thermostrobe.strob import CHECK_BATCH, FD_STEP, _affine_walk
from tutil import random_density, random_factorized, random_generator, random_pinching

TOL = 1e-12
CFG = StrobConfig(lam=1.3, dt=0.1, horizon=1.0)


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


# ---------------------------------------------------------------------------
# The first infeasible row or stage, wherever it falls among the checked chunks.
# A decay from level 0 to level 1 at a negative rate pumps level 0: its population,
# the one parameter of the pinching family of diag(0, 1) and the first of the
# factorized family's, grows as e^{c t} with c = lam / 10, and the run must fail
# where the population first passes 1.


def pump_run_setup(kind):
    pump = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|, at a negative rate
    if kind == "pinching":
        return GkslGenerator(np.zeros((2, 2)), ((pump, -0.1),), check_rates=False), \
            PinchingAnsatz(np.diag([0.0, 1.0]))
    eyeB = np.eye(2)
    return GkslGenerator(np.zeros((4, 4)), ((np.kron(pump, eyeB), -0.1),), check_rates=False), \
        FactorizedAnsatz(np.diag([0.3, 0.7]), (2, 2))


def start_of(kind, population):
    return np.array([population] if kind == "pinching" else [population, 0.0, 0.0])


@pytest.mark.parametrize("kind", ["pinching", "factorized"])
@pytest.mark.parametrize("bad_row", [0, CHECK_BATCH - 1, CHECK_BATCH, 299, 300],
                         ids=["first", "chunk-end", "chunk-start", "last", "final-unchecked"])
def test_discrete_first_infeasible_row_gives_its_step(kind, bad_row):
    # the round map multiplies the population by e^{0.01}; row bad_row is the first above 1
    gen, fam = pump_run_setup(kind)
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=30.0)  # 300 rounds, rows 0..299 are checked
    E0 = start_of(kind, 1.002 * np.exp(-0.01 * bad_row))
    ref = schrodinger_run(gen, fam, E0, cfg)
    if bad_row == cfg.n_steps():  # the final row is reported, never advanced or checked
        # 300 rounds of a growing map compound the two pictures' rounding of its factor
        np.testing.assert_allclose(run_discrete(gen, fam, E0, cfg).params, ref, rtol=1e-13)
        return
    with pytest.raises(DomainError) as err:
        run_discrete(gen, fam, E0, cfg)
    assert str(err.value) == ref
    assert str(err.value).startswith(f"protocol step {bad_row} (t = ")


@pytest.mark.parametrize("kind", ["pinching", "factorized"])
def test_discrete_infeasible_row_before_rows_near_the_float_range(kind):
    # a round multiplies the population by 10^77.1: row 1 is infeasible, and row 4 of
    # the same chunk is near the float range, where checking it overflows
    gen, fam = pump_run_setup(kind)
    gen = GkslGenerator(gen.hamiltonian, ((gen.jumps[0][0], -771.0 * np.log(10.0)),), check_rates=False)
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=1.0)
    with np.errstate(over="raise", invalid="raise"):
        ref = schrodinger_run(gen, fam, start_of(kind, 0.5), cfg)
        with pytest.raises(DomainError) as err:
            run_discrete(gen, fam, start_of(kind, 0.5), cfg)
    assert ref.startswith("protocol step 1 (t = 0.1): ")
    assert str(err.value) == ref


def schrodinger_run(gen, fam, E0, cfg):
    """Rows of the discrete protocol on propagated states, or its error text."""
    propagator = Propagator.build(gen, cfg.lam * cfg.dt)
    rows = [E0]
    for k in range(cfg.n_steps()):
        try:
            rows.append(extract_params(fam, propagator.apply(fam.state_of(rows[-1]))))
        except DomainError as err:
            return f"protocol step {k} (t = {k * cfg.dt:.9g}): {err}"
    return np.array(rows)


def rk4_factors(h, c):
    """Growth of the stage points P_k x of one RK4 step, and of the step R, for x' = c x."""
    f2 = 1.0 + 0.5 * h * c
    f3 = 1.0 + 0.5 * h * c * f2
    f4 = 1.0 + h * c * f3
    return np.array([1.0, f2, f3, f4]), 1.0 + h * c / 6.0 * (1.0 + 2.0 * f2 + 2.0 * f3 + f4)


@pytest.mark.parametrize("kind", ["pinching", "factorized"])
@pytest.mark.parametrize("n_sub, horizon, bad_stage, step", [
    (10, 1.0, (0, 0), 0),             # the starting point itself
    (10, 1.0, (59, 3), 5),            # last stage of the first chunk of 6 intervals
    (10, 1.0, (60, 1), 6),            # second stage of the next chunk
    (10, 1.0, (99, 3), 9),            # last stage of the run
    (100, 0.3, (99, 3), 0),           # last stage of an interval of two chunks
    (100, 0.3, (163, 3), 1),          # last stage before a chunk boundary inside an interval
    (100, 0.3, (164, 1), 1),          # second stage after it
    (100, 0.3, (299, 3), 2),          # last stage of the run
], ids=["first", "chunk-end", "chunk-start", "last",
        "64+-interval-end", "64+-chunk-end", "64+-chunk-start", "64+-last"])
def test_run_ode_first_infeasible_stage_gives_its_step(kind, n_sub, horizon, bad_stage, step):
    # stage points grow along the run by factors of about 1 + h c / 2, except that a
    # step's first stage lies just below its predecessor, the last stage of the step
    # before; so bad_stage = (RK4 step, stage), not a step's first stage after the
    # run's start, is the first infeasible one when its population alone is above 1
    gen, fam = pump_run_setup(kind)
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=horizon, ode_step=0.1 / n_sub)
    assert CHECK_BATCH == 256  # 6 intervals of 10 steps, or 64 of an interval's 100, per chunk
    stages, R = rk4_factors(0.1 / n_sub, 0.1)
    E0 = start_of(kind, (1.0 + 1e-6) / (R ** bad_stage[0] * stages[bad_stage[1]]))
    for order in (1, 2):  # the span is invariant, so both orders pump alike
        with pytest.raises(DomainError) as affine:
            run_ode(gen, fam, E0, cfg, order=order)
        with pytest.raises(DomainError) as reference:
            per_point_run(gen, fam, E0, cfg, order)
        assert str(affine.value) == str(reference.value)
        assert str(affine.value).startswith(f"protocol step {step} (t = ")


def test_affine_walk_reports_arithmetic_errors_and_imaginary_parts_with_their_step():
    fam = PinchingAnsatz(np.diag([1.0, 0.0]))
    stay = np.array([[[0.0, 0.5]]])  # every check point is the population 0.5
    # x = (E, 1) grows by 1e200 a round: the second round overflows
    grow = np.array([[1e200, 0.0], [0.0, 1.0]])
    with np.errstate(over="raise"), \
            pytest.raises(FloatingPointError, match=r"^protocol step 1 \(t = 0.1\): "):
        _affine_walk(fam, np.array([1.0, 1.0]), 5, 0.1, lambda: ((grow, stay),))
    # when the row that overflows is itself infeasible, state_of's error comes first
    own = np.array([[[1.0, 0.0]]])
    with np.errstate(over="raise"), pytest.raises(DomainError, match=r"^protocol step 1 \(t = 0.1\): "):
        _affine_walk(fam, np.array([0.5, 1.0]), 5, 0.1, lambda: ((grow, own),))
    # the imaginary part of the pairings grows by 2 a round: round 3 is the first above IMAG_TOL
    double = np.array([[2.0, 0.0], [0.0, 1.0]])
    pairings = np.array([[0.0, 0.5 + 0.0j]]) + 1j * np.array([[0.6 * IMAG_TOL / 4.0, 0.0]])
    with pytest.raises(ValidationError) as err:
        _affine_walk(fam, np.array([1.0, 1.0]), 5, 0.1, lambda: ((double, stay),), pairings)
    assert str(err.value) == "protocol step 3 (t = 0.3): extracted parameter 0 has imaginary part 1.200e-10"
    # in one chunk, an infeasible point and an imaginary part raise in the order of their rounds
    points = np.array([[[0.1, 0.0]]])  # the population E / 10, above 1 from round 4 (E = 16)
    with pytest.raises(DomainError, match=r"^protocol step 4 \(t = 0.4\): "):
        _affine_walk(fam, np.array([1.0, 1.0]), 6, 0.1, lambda: ((double, points),),
                     np.array([[0.0, 0.5]]) + 1j * np.array([[IMAG_TOL / 20.0, 0.0]]))
    with pytest.raises(ValidationError, match=r"^protocol step 3 \(t = 0.3\): "):
        _affine_walk(fam, np.array([1.0, 1.0]), 6, 0.1, lambda: ((double, points),), pairings)


def reference_walk(fam, x0, n, interval, segments, pairings):
    """Rows of the affine recursion, every segment checked before it advances, or the
    (class, text) of its first failure."""
    rows = [x0]
    for k in range(n):
        y = rows[-1]
        try:
            for R, S in segments():
                fam.feasible_block(S @ y)
                if pairings is not None:
                    z = pairings @ y
                    bad = np.flatnonzero(np.abs(z.imag) > IMAG_TOL)
                    if bad.size:
                        raise ValidationError(
                            f"extracted parameter {bad[0]} has imaginary part {z.imag[bad[0]]:.3e}")
                y = R @ y
        except (ThermostrobeError, ArithmeticError) as err:
            return type(err), f"protocol step {k} (t = {k * interval:.9g}): {err}"
        rows.append(y)
    return np.array(rows)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 80), st.floats(0.5, 2.0)), min_size=1, max_size=3),
       st.integers(1, 30), st.data())
def test_affine_walk_matches_a_walk_that_checks_every_segment(layout, n, data):
    # x = (E, c, 1): E grows by its segment's factor, c counts the segments advanced.
    # A check point reads c, so the one drawn to fail does so first at segment c_bad;
    # the imaginary part of the pairings crosses IMAG_TOL first at the start of segment
    # c_imag; a factor drawn large makes E overflow.  Each is drawn inside the run or
    # past its end.
    fam = PinchingAnsatz(np.diag([1.0, 0.0]))
    total = n * len(layout)
    c_bad = data.draw(st.none() | st.integers(0, 2 * total), label="c_bad")
    c_imag = data.draw(st.none() | st.integers(0, 2 * total), label="c_imag")
    large = data.draw(st.none() | st.tuples(st.integers(0, len(layout) - 1), st.floats(1e3, 1e300)),
                      label="large factor")
    blocks = []
    for j, (count, growth) in enumerate(layout):
        if large is not None and large[0] == j:
            growth = large[1]
        R = np.array([[growth, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        S = np.zeros((count, 1, 3))
        S[:, 0, 2] = data.draw(st.lists(st.floats(0.05, 0.95), min_size=count, max_size=count))
        if c_bad is not None and c_bad % len(layout) == j:
            slope = 0.5 / (c_bad + 1)  # the population 1 + (c - c_bad + 1/2) slope
            S[data.draw(st.integers(0, count - 1)), 0, 1:] = slope, 1.0 - (c_bad - 0.5) * slope
        blocks.append((R, S))
    pairings = None
    if c_imag is not None or data.draw(st.booleans()):
        pairings = np.array([[0.0, 0.0, 0.5 + 0.0j], [0.0, 0.0, 0.0j]])
        if c_imag is not None:
            slope = IMAG_TOL / (c_imag + 1)  # the imaginary part IMAG_TOL + (c - c_imag + 1/2) slope
            pairings[1, 1:] += 1j * np.array([slope, IMAG_TOL - (c_imag - 0.5) * slope])
    x0 = np.array([1.0, 0.0, 1.0])
    with np.errstate(over="raise"):
        ref = reference_walk(fam, x0, n, 0.1, lambda: blocks, pairings)
        try:
            got = _affine_walk(fam, x0, n, 0.1, lambda: blocks, pairings)
        except (ThermostrobeError, ArithmeticError) as err:
            got = type(err), str(err)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert not isinstance(got, tuple), got
        assert got.tobytes() == ref.tobytes()


def test_checks_come_in_bounded_batches(monkeypatch):
    # one feasible_block call per chunk of at most CHECK_BATCH points, however long the run
    decay = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    gen = GkslGenerator(np.zeros((2, 2)), ((decay, 0.1),))  # every row stays feasible
    fam = PinchingAnsatz(np.diag([0.0, 1.0]))
    sizes = []
    original = PinchingAnsatz.feasible_block

    def counted(self, E):
        sizes.append(len(E))
        return original(self, E)

    monkeypatch.setattr(PinchingAnsatz, "feasible_block", counted)
    run_discrete(gen, fam, [0.5], StrobConfig(lam=1.0, dt=0.1, horizon=60.0))
    assert sizes == [CHECK_BATCH, CHECK_BATCH, 88]  # rows 0..599
    for ode_step, expected in ((0.01, [240] * 3 + [80]),  # 6 intervals of 40 stage points a chunk
                               (0.001, [256, 144] * 2)):  # 64 + 36 RK4 steps an interval
        sizes.clear()
        run_ode(gen, fam, [0.5], StrobConfig(lam=1.0, dt=0.1, horizon=2.0 if ode_step == 0.01 else 0.2,
                                             ode_step=ode_step), order=2)
        assert sizes == expected
