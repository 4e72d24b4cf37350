from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thermostrobe import (
    CapacityError,
    ContinuumLimit,
    ContractError,
    DomainError,
    GibbsAnsatz,
    GkslGenerator,
    MultilevelParams,
    Propagator,
    QubitParams,
    SIGMA_MINUS,
    SelectiveAnsatz,
    SingularityError,
    StrobConfig,
    Trajectory,
    ValidationError,
    extract_params,
    PinchingAnsatz,
    gibbs_expectations,
    gibbs_jacobian,
    integrate,
    invariant_subspace_matrix,
    multilevel_energy_observable,
    multilevel_generator,
    qubit_A_analytic,
    qubit_B_analytic,
    qubit_energy_observable,
    qubit_generator,
    rk4_step,
    run_discrete,
    run_ode,
    run_ode_temperature,
    run_odes,
)
from thermostrobe.cli import _scenario_context, estimate_tau, load_scenario
from reference import SIGMA_X, SIGMA_Z, ode_rhs_temperature, posterior, projector_ode_rhs
from tutil import random_generator

REPO = Path(__file__).resolve().parents[1]

STANDARD = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.0)
DRIVEN = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
ML = MultilevelParams(
    omegas=(0.0, 1.0, 2.0),
    base_rates=np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    beta0=1.0,
)


def qubit_family(tol=1e-12):
    return GibbsAnsatz.canonical(qubit_energy_observable(STANDARD), fit_tol=tol)


# ---------------------------------------------------------------------------
# Configuration


def test_config_alpha_defaults_to_lam_squared_dt():
    cfg = StrobConfig(lam=2.0, dt=0.1, horizon=1.0)
    assert cfg.alpha == pytest.approx(0.4, abs=1e-15)


def test_config_ode_step_default_divides_dt():
    assert StrobConfig(dt=0.1, horizon=1.0).ode_step == pytest.approx(0.01, abs=1e-15)
    assert StrobConfig(dt=0.035, horizon=0.07).ode_step == pytest.approx(0.0035, abs=1e-15)
    cfg = StrobConfig(dt=0.3, horizon=0.3)
    assert cfg.ode_step == pytest.approx(0.01, abs=1e-12)
    assert round(cfg.dt / cfg.ode_step) * cfg.ode_step == pytest.approx(cfg.dt, abs=1e-12)


def test_config_validation_errors():
    with pytest.raises(ValidationError):
        StrobConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ValidationError):
        StrobConfig(dt=0.1, horizon=-1.0)
    with pytest.raises(ValidationError):
        StrobConfig(dt=0.1, horizon=1.0, lam=-0.5)
    with pytest.raises(ValidationError):
        StrobConfig(dt=0.1, horizon=1.0, ode_step=0.2)


@pytest.mark.parametrize("ode_step", [0.07, 0.03])
def test_config_ode_step_must_divide_dt(ode_step):
    # a non-dividing step would otherwise run at dt / round(dt / ode_step): 0.1 or 0.0333
    with pytest.raises(ValidationError, match="does not divide dt"):
        StrobConfig(dt=0.1, horizon=1.0, ode_step=ode_step)
    assert StrobConfig(dt=0.1, horizon=1.0, ode_step=0.1 / 3).ode_step == 0.1 / 3


def test_config_ode_step_refuses_overflowing_ratio():
    with pytest.raises(CapacityError, match="inf steps"):
        StrobConfig(dt=0.1, horizon=1.0, ode_step=5e-324)


@pytest.mark.parametrize("lam, dt", [(1e200, 0.1), (1e154, 1e10)],
                         ids=["square-overflows", "product-overflows"])
def test_config_refuses_overflowing_alpha(lam, dt):
    with pytest.raises(ValidationError, match="overflows"):
        StrobConfig(lam=lam, dt=dt, horizon=0.0)


@pytest.mark.parametrize("lam, dt", [(0.3, 0.07), (1e150, 1e-10), (1e-160, 0.1), (0.0, 0.1)])
def test_config_alpha_is_lam_squared_dt_exactly(lam, dt):
    assert StrobConfig(lam=lam, dt=dt, horizon=0.0).alpha == lam**2 * dt


def test_affine_walk_with_huge_substep_count_is_refused_or_empty():
    # dt / ode_step of 1e299 substeps: the cap refuses it before any stage table is laid out
    gen = GkslGenerator(np.zeros((2, 2)), ())
    family = PinchingAnsatz(np.diag([1.0, -1.0]))
    with pytest.raises(CapacityError, match="above the cap"):
        run_ode(gen, family, [0.5], StrobConfig(dt=0.1, horizon=0.2, ode_step=1e-300), order=2)
    # a zero-step horizon runs no interval at all, however many substeps one would take
    traj = run_ode(gen, family, [0.5], StrobConfig(dt=1e200, horizon=0.2), order=2)
    assert traj.params.tolist() == [[0.5]]


@pytest.mark.parametrize("kwargs", [
    {"lam": float("nan")},
    {"horizon": float("inf")},
    {"dt": float("inf")},
    {"horizon": float("nan")},
    {"dt": "0.1"},
    {"lam": None},
    {"horizon": "x"},
    {"lam": "x"},
], ids=["lam-nan", "horizon-inf", "dt-inf", "horizon-nan", "dt-text", "lam-none", "horizon-text",
        "lam-text"])
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValidationError, match="finite"):
        StrobConfig(**{"dt": 0.1, "horizon": 1.0, **kwargs})


def test_config_n_steps_requires_whole_grid():
    assert StrobConfig(dt=0.1, horizon=1.0).n_steps() == 10
    with pytest.raises(ValidationError, match="horizon"):
        StrobConfig(dt=0.1, horizon=1.05).n_steps()


def test_config_grid_mismatch_is_measured_in_steps():
    # an absolute tolerance of 1e-9 in time let every grid below dt ~ 1e-9 through
    with pytest.raises(ValidationError, match="whole number of dt=1e-10 intervals"):
        StrobConfig(dt=1e-10, horizon=1.5e-10).n_steps()
    with pytest.raises(ValidationError, match="does not divide dt"):
        StrobConfig(dt=1e-10, horizon=1e-10, ode_step=7e-11)
    with pytest.raises(ValidationError, match="must lie in"):
        StrobConfig(dt=1e-10, horizon=1e-10, ode_step=1.5e-10)
    cfg = StrobConfig(dt=1e-10, horizon=3e-10, ode_step=1e-11)
    assert cfg.n_steps() == 3
    assert cfg.substeps == 10 and cfg.dt / cfg.substeps == pytest.approx(1e-11, rel=1e-15)
    assert StrobConfig(dt=1e4, horizon=3e6).n_steps() == 300


# ---------------------------------------------------------------------------
# Discrete protocol


def test_discrete_step_frozen_value():
    gen = qubit_generator(STANDARD)
    fam = qubit_family()
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=0.1)
    out = run_discrete(gen, fam, np.array([0.5]), cfg).params[1]
    assert out[0] == pytest.approx(0.4847252889019069, abs=1e-12)


def test_run_discrete_shapes_and_grid():
    gen = qubit_generator(STANDARD)
    fam = qubit_family()
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    tr = run_discrete(gen, fam, [0.5], cfg, with_temps=True)
    assert isinstance(tr, Trajectory)
    assert len(tr) == 11
    assert np.allclose(tr.times, np.arange(11) * 0.1, atol=1e-12)
    assert tr.params.shape == (11, 1)
    assert tr.temps.shape == (11, 1)
    # relaxation toward equilibrium is monotone from above
    assert np.all(np.diff(tr.params[:, 0]) < 0)
    assert tr.params[-1, 0] > STANDARD.equilibrium_energy


def test_run_discrete_step_cap(monkeypatch):
    gen = qubit_generator(STANDARD)
    cfg = StrobConfig(dt=1e-7, horizon=10.0)

    def no_build(*args, **kwargs):
        raise AssertionError("the propagator was built before the cap check")

    monkeypatch.setattr(Propagator, "build", no_build)
    with pytest.raises(CapacityError, match="cap"):
        run_discrete(gen, qubit_family(), [0.5], cfg)


@pytest.mark.parametrize("dt, horizon", [(1e-300, 1e300), (1e-9, 1.0)],
                         ids=["ratio-overflows", "ratio-above-cap"])
def test_config_n_steps_refuses_oversized_grid(dt, horizon):
    with pytest.raises(CapacityError, match="cap"):
        StrobConfig(dt=dt, horizon=horizon).n_steps()


def test_config_default_ode_step_refuses_overflowing_dt():
    with pytest.raises(CapacityError, match="ode steps"):
        StrobConfig(dt=1e308, horizon=0.0)


def test_run_discrete_error_carries_step_context():
    gen = qubit_generator(STANDARD)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    with pytest.raises(DomainError, match="protocol step 0"):
        run_discrete(gen, qubit_family(), [0.0], cfg)


# ---------------------------------------------------------------------------
# Velocities


def test_relevant_velocity_matches_analytic():
    limit = ContinuumLimit(qubit_generator(DRIVEN), qubit_family(tol=1e-13), StrobConfig())
    for E in (0.15, 0.4, 0.75):
        a = limit.moments([E], gradient=False)[0]
        assert a[0] == pytest.approx(qubit_A_analytic(E, DRIVEN), abs=1e-11)


def test_relevant_curvature_matches_analytic():
    limit = ContinuumLimit(qubit_generator(DRIVEN), qubit_family(tol=1e-13), StrobConfig())
    for E in (0.15, 0.4, 0.75):
        b = limit.moments([E], gradient=False)[1]
        assert b[0] == pytest.approx(qubit_B_analytic(E, DRIVEN), abs=1e-11)


def test_velocity_gradient_fd_matches_analytic():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family(tol=1e-13)
    limit = ContinuumLimit(gen, fam, StrobConfig())
    W_an = limit.moments([0.4])[2]
    W_fd = limit.fd_gradient([0.4])
    assert np.max(np.abs(W_an - W_fd)) <= 1e-8


@pytest.mark.parametrize("family, E", [
    (GibbsAnsatz([SIGMA_Z, SIGMA_X]), [0.3, 0.2]),
    (SelectiveAnsatz(np.diag([1.0, 1.0, -1.0]).astype(complex), 1.0), [0.3, 0.05, -0.02, 0.25]),
], ids=["gibbs-noncommuting", "selective"])
def test_fd_gradient_matches_analytic_off_the_spectral_path(family, E):
    rng = np.random.default_rng(7)
    limit = ContinuumLimit(random_generator(rng, family.dim), family, StrobConfig())
    W = limit.moments(E)[2]
    assert np.max(np.abs(limit.fd_gradient(E) - W)) <= 1e-8 * (1.0 + np.max(np.abs(W)))


def test_second_order_reduces_to_first_without_drive():
    gen = qubit_generator(STANDARD)
    fam = qubit_family(tol=1e-13)
    limit = ContinuumLimit(gen, fam, StrobConfig(dt=0.1, horizon=1.0))
    for E in (0.1, 0.3, 0.6, 0.9):
        r1 = limit.velocity([E], 1)
        r2 = limit.velocity([E], 2)
        assert abs(r1[0] - r2[0]) <= 1e-12


def test_second_order_assembles_from_pieces():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family(tol=1e-13)
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=1.0)
    E = np.array([0.4])
    limit = ContinuumLimit(gen, fam, cfg)
    a, b, W = limit.moments(E)
    expected = cfg.lam * a + 0.5 * cfg.alpha * (b - W @ a)
    got = limit.velocity(E, 2)
    assert got[0] == pytest.approx(expected[0], abs=1e-13)


# ---------------------------------------------------------------------------
# Temperature form


def test_heat_capacity_frozen_value():
    # C(beta) = -beta^2 dE/dbeta
    beta = 1.0
    C = -(beta**2) * gibbs_jacobian(qubit_family().relevant, [beta])[0, 0]
    assert C == pytest.approx(0.19661193324148185, abs=1e-15)


def test_heat_capacity_contract_and_domain():
    # the temperature form needs C, defined for a canonical family at beta != 0
    gen = qubit_generator(STANDARD)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    with pytest.raises(ContractError):
        ode_rhs_temperature(gen, PinchingAnsatz(np.diag([0.0, 1.0]).astype(complex)), 1.0, cfg)
    with pytest.raises(ContractError):
        ode_rhs_temperature(gen, GibbsAnsatz((SIGMA_Z, SIGMA_X)), 1.0, cfg)
    with pytest.raises(DomainError):
        ode_rhs_temperature(gen, qubit_family(), 0.0, cfg)


def test_temperature_velocity_chain_rule():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family(tol=1e-13)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    beta = 0.7
    E = gibbs_expectations(fam.relevant, [beta])
    dE = ContinuumLimit(gen, fam, cfg).velocity(E, 2)[0]
    dbeta = ode_rhs_temperature(gen, fam, beta, cfg)
    C = -(beta**2) * gibbs_jacobian(fam.relevant, [beta])[0, 0]
    assert dbeta == pytest.approx(-(beta**2) / C * dE, abs=1e-12)


def test_temperature_velocity_attracts_to_bath():
    gen = multilevel_generator(ML)
    fam = GibbsAnsatz.canonical(multilevel_energy_observable(ML), fit_tol=1e-12)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    assert ode_rhs_temperature(gen, fam, 0.5, cfg) > 0.0
    assert ode_rhs_temperature(gen, fam, 1.5, cfg) < 0.0
    assert abs(ode_rhs_temperature(gen, fam, 1.0, cfg)) <= 1e-12


def test_temperature_velocity_singular_capacity():
    # near beta = 0 the capacity vanishes quadratically and dbeta/dE blows up
    gen = qubit_generator(STANDARD)
    fam = qubit_family()
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    with pytest.raises(SingularityError):
        ode_rhs_temperature(gen, fam, 3e-8, cfg)


# ---------------------------------------------------------------------------
# Integration


def test_rk4_fourth_order_convergence():
    rhs = lambda x: -(x**2)
    exact = 1.0 / 2.0  # x(t) = 1/(1+t) at t = 1

    def terminal(h):
        x = np.array([1.0])
        for _ in range(round(1.0 / h)):
            x = rk4_step(rhs, x, h)
        return abs(x[0] - exact)

    e1, e2 = terminal(0.05), terminal(0.025)
    assert 12.0 <= e1 / e2 <= 20.0


def test_integrate_records_grid():
    cfg = StrobConfig(dt=0.1, horizon=1.0, ode_step=0.01)
    tr = integrate(lambda x: -x, [1.0], cfg)
    assert len(tr) == 11
    assert np.allclose(tr.times, np.arange(11) * 0.1, atol=1e-12)
    assert tr.params[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert tr.meta["substeps"] == 10


def test_integrate_zero_horizon():
    cfg = StrobConfig(dt=1.0, horizon=0.0, ode_step=0.1)
    tr = integrate(lambda x: -x, [1.0], cfg)
    assert len(tr) == 1 and tr.params[0, 0] == 1.0


def test_run_ode_metadata_and_grid():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family()
    cfg = StrobConfig(dt=0.1, horizon=1.0, ode_step=0.01)
    tr = run_ode(gen, fam, [0.5], cfg, order=2, with_temps=True)
    assert np.allclose(tr.times, np.arange(11) * 0.1, atol=1e-12)
    assert tr.meta["protocol"] == "ode2"
    assert tr.meta["substeps"] == 10
    assert tr.temps is not None
    with pytest.raises(ValidationError):
        run_ode(gen, fam, [0.5], cfg, order=3)


@pytest.mark.parametrize("order", [2.0, True, 3, "2", None], ids=["2.0", "True", "3", "str", "None"])
def test_run_ode_refuses_an_order_other_than_the_ints_1_and_2(order):
    gen, cfg = qubit_generator(DRIVEN), StrobConfig(dt=0.1, horizon=0.2)
    with pytest.raises(ValidationError, match="^order must be the integer 1 or 2"):
        run_ode(gen, qubit_family(), [0.5], cfg, order=order)
    numpy_int = run_ode(gen, qubit_family(), [0.5], cfg, order=np.int64(2))
    assert np.array_equal(numpy_int.params, run_ode(gen, qubit_family(), [0.5], cfg).params)


@pytest.mark.parametrize("proto", ["ode3", "discrete"])
@pytest.mark.parametrize("kind", ["gibbs", "pinching"])
def test_run_odes_refuses_a_protocol_outside_ode_orders_before_any_work(kind, proto):
    fam = qubit_family() if kind == "gibbs" else PinchingAnsatz(qubit_energy_observable(STANDARD))
    # an infinite E0 raises DomainError at step 0 of any run, so the check must come first
    with pytest.raises(ValidationError, match=rf"^'{proto}' is not a continuum-limit protocol; "
                                              r"choose from \('ode1', 'ode2', 'ode-temperature'\)$"):
        run_odes(qubit_generator(STANDARD), fam, [np.inf], StrobConfig(dt=0.1, horizon=0.2),
                 ["ode1", proto])


def test_run_ode_orders_differ_under_drive():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family()
    cfg = StrobConfig(dt=0.1, horizon=2.0)
    t1 = run_ode(gen, fam, [0.5], cfg, order=1)
    t2 = run_ode(gen, fam, [0.5], cfg, order=2)
    assert np.max(np.abs(t1.params - t2.params)) > 1e-4


def test_fd_gradient_deviation_at_ode2_final_row():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family(tol=1e-13)
    cfg = StrobConfig(dt=0.1, horizon=0.3)
    E = run_ode(gen, fam, [0.5], cfg, order=2).params[-1]
    limit = ContinuumLimit(gen, fam, cfg)
    assert 0.0 < np.max(np.abs(limit.fd_gradient(E) - limit.moments(E)[2])) <= 1e-7


def test_run_ode_temperature_matches_energy_route():
    gen = qubit_generator(DRIVEN)
    fam = qubit_family(tol=1e-13)
    cfg = StrobConfig(dt=0.1, horizon=2.0, ode_step=0.01)
    tr_E = run_ode(gen, fam, [0.4], cfg, order=2, with_temps=True)
    tr_b = run_ode_temperature(gen, fam, float(tr_E.temps[0, 0]), cfg)
    assert np.max(np.abs(tr_E.temps - tr_b.temps)) <= 1e-8
    assert np.max(np.abs(tr_E.params - tr_b.params)) <= 1e-8


@pytest.mark.parametrize("beta0", [np.nan, np.inf], ids=["nan", "inf"])
def test_run_ode_temperature_rejects_non_finite_start(beta0):
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    with pytest.raises(DomainError, match=r"protocol step 0 .*non-finite"):
        run_ode_temperature(qubit_generator(STANDARD), qubit_family(), beta0, cfg)


def test_run_ode_temperature_contract():
    gen = qubit_generator(STANDARD)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    fam = PinchingAnsatz(qubit_energy_observable(STANDARD))
    with pytest.raises(ContractError):
        run_ode_temperature(gen, fam, 1.0, cfg)


@pytest.mark.parametrize("beta0", [np.array([0.5]), [0.5]], ids=["array", "list"])
def test_run_ode_temperature_reads_a_one_entry_beta0_as_its_number(beta0):
    gen, cfg = qubit_generator(DRIVEN), StrobConfig(dt=0.1, horizon=0.3)
    got, want = (run_ode_temperature(gen, qubit_family(), b, cfg) for b in (beta0, 0.5))
    assert np.array_equal(got.params, want.params) and np.array_equal(got.temps, want.temps)


@pytest.mark.parametrize("beta0", ["x", None, [0.5, 0.2], [[1.0], [2.0, 3.0]], [1.0, [2.0]]],
                         ids=["text", "None", "two-entries", "ragged-rows", "ragged-entry"])
def test_run_ode_temperature_refuses_a_beta0_that_is_not_one_number(beta0):
    with pytest.raises(ValidationError, match="^parameter vector"):
        run_ode_temperature(qubit_generator(STANDARD), qubit_family(), beta0,
                            StrobConfig(dt=0.1, horizon=1.0))


# ---------------------------------------------------------------------------
# Natural coordinates for Gibbs families


def test_gibbs_beta_route_refines_qubit_standard():
    """qubit_standard ode2 in beta is no farther from its half-step reference
    than the same ODE integrated in E with a warm fit per RHS, and its
    relaxation time is converged in the step to 5e-11."""
    scenario = load_scenario(str(REPO / "scenarios" / "qubit_standard.yaml"))
    model, fam, cfg, _ = _scenario_context(scenario)
    E0 = np.array(scenario["initial"]["E"])
    runs = {k: run_ode(model.generator, fam, E0, replace(cfg, ode_step=cfg.ode_step / k))
            for k in (1, 2, 8)}
    limit = ContinuumLimit(model.generator, fam, cfg)
    e_route = integrate(lambda E: limit.velocity(E, 2), E0, cfg).params
    reference = runs[2].params
    e_route_gap = np.max(np.abs(e_route - reference))
    assert np.max(np.abs(runs[1].params - reference)) <= e_route_gap
    assert abs(estimate_tau(runs[1]) - estimate_tau(runs[8])) <= 5e-11


def test_gibbs_ode_runs_up_to_the_spectrum_edge():
    # a cold bath pulls E closer to the ground-state edge than the fit's boundary margin
    p = QubitParams(omega0=1.0, gamma=5.0, beta0=40.0, dt=0.1, Omega=0.0)
    tr = run_ode(qubit_generator(p), qubit_family(), [0.5], StrobConfig(dt=0.1, horizon=6.0),
                 order=2, with_temps=True)
    assert 0.0 < tr.params[-1, 0] < 1e-9
    assert np.all(np.isfinite(tr.temps)) and tr.temps[-1, 0] > 20.0


def test_run_ode_temperature_passes_infinite_temperature():
    # the temperature form divides by C = -beta^2 J, which vanishes at beta = 0;
    # the integrated velocity J^-1 dE/dt does not, so an inverted start relaxes through it
    tr = run_ode_temperature(qubit_generator(STANDARD), qubit_family(), -0.5,
                             StrobConfig(dt=0.1, horizon=10.0))
    assert np.all(np.diff(tr.temps[:, 0]) > 0.0)
    assert tr.temps[0, 0] < 0.0 < tr.temps[-1, 0] and abs(tr.temps[-1, 0] - STANDARD.beta0) < 1e-2


def test_gibbs_ode_singular_response_carries_step():
    # zero-temperature decay drives an (S_z, S_x) family to the pure ground
    # state, where the response matrix J loses rank
    gen = GkslGenerator(0.5 * SIGMA_Z, ((SIGMA_MINUS, 5.0),))
    fam = GibbsAnsatz((SIGMA_Z, SIGMA_X))
    cfg = StrobConfig(dt=0.1, horizon=10.0)
    with pytest.raises(SingularityError, match=r"protocol step \d+ .*numerically singular"):
        run_ode(gen, fam, [0.2, 0.3], cfg, order=2)


# ---------------------------------------------------------------------------
# Invariant-subspace diagnostics


def test_invariance_undriven_qubit_frozen_matrix():
    gen = qubit_generator(STANDARD)
    res = invariant_subspace_matrix(gen, (qubit_energy_observable(STANDARD),))
    assert res.invariant
    assert res.residual <= 1e-12
    assert np.max(np.abs(res.matrix[0])) == 0.0
    assert res.matrix[1, 0] == pytest.approx(0.18393972058572117, abs=1e-14)
    assert res.matrix[1, 1] == pytest.approx(-0.6839397205857212, abs=1e-14)


def test_invariance_driven_qubit_fails():
    gen = qubit_generator(DRIVEN)
    res = invariant_subspace_matrix(gen, (qubit_energy_observable(DRIVEN),))
    assert not res.invariant
    assert res.residual > 0.1


def test_invariance_multilevel_energy_span_is_not_closed():
    gen = multilevel_generator(ML)
    res = invariant_subspace_matrix(gen, (multilevel_energy_observable(ML),))
    assert not res.invariant


def test_invariance_full_population_family_is_closed():
    gen = multilevel_generator(ML)
    fam = PinchingAnsatz(multilevel_energy_observable(ML))
    res = invariant_subspace_matrix(gen, fam.relevant)
    assert res.invariant
    assert res.residual <= 1e-10


# ---------------------------------------------------------------------------
# State-space velocity


def test_projector_rhs_contract():
    gen = qubit_generator(STANDARD)
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ContractError):
        projector_ode_rhs(gen, qubit_family(), rho, cfg)


def test_projector_rhs_matches_parameter_velocity():
    gen = multilevel_generator(ML)
    fam = PinchingAnsatz(multilevel_energy_observable(ML))
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    E = np.array([0.5, 0.3])
    rho = fam.state_of(E)
    rhs_state = projector_ode_rhs(gen, fam, rho, cfg)
    rhs_param = ContinuumLimit(gen, fam, cfg).velocity(E, 2)
    for m, P in enumerate(fam.relevant.observables):
        assert np.trace(P @ rhs_state).real == pytest.approx(rhs_param[m], abs=1e-12)
    assert abs(np.trace(rhs_state)) <= 1e-13


def test_projector_rhs_projects_arbitrary_states(rng):
    from tutil import random_density

    gen = multilevel_generator(ML)
    fam = PinchingAnsatz(multilevel_energy_observable(ML))
    cfg = StrobConfig(dt=0.1, horizon=1.0)
    rho = random_density(rng, 3)
    direct = projector_ode_rhs(gen, fam, rho, cfg)
    reset = projector_ode_rhs(gen, fam, posterior(fam, rho), cfg)
    assert np.max(np.abs(direct - reset)) <= 1e-12
