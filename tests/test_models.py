import numpy as np
import pytest

from thermostrobe import (
    ContinuumLimit,
    DomainError,
    GibbsAnsatz,
    MultilevelParams,
    QubitParams,
    StrobConfig,
    ValidationError,
    apply_schrodinger,
    bosonic_gamma,
    gibbs_expectations,
    gibbs_state,
    multilevel_A_analytic,
    multilevel_B_analytic,
    multilevel_energy_observable,
    multilevel_generator,
    multilevel_rates,
    qubit_A_analytic,
    qubit_B_analytic,
    qubit_beta_stationary,
    qubit_E_closed_form,
    qubit_E_stationary,
    qubit_energy_observable,
    qubit_generator,
    qubit_rate_closed_form,
    qubit_tau,
)

STANDARD = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
ML = MultilevelParams(
    omegas=(0.0, 1.0, 2.0),
    base_rates=np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    beta0=1.0,
)


# ---------------------------------------------------------------------------
# Qubit parameters and generator


def test_qubit_params_validation():
    with pytest.raises(ValidationError):
        QubitParams(omega0=0.0)
    with pytest.raises(ValidationError):
        QubitParams(gamma=-0.1)
    with pytest.raises(ValidationError):
        QubitParams(dt=0.0)


@pytest.mark.parametrize("kwargs", [{"omega0": np.inf}, {"beta0": np.nan}, {"Omega": np.inf}],
                         ids=["omega0-inf", "beta0-nan", "Omega-inf"])
def test_qubit_params_reject_non_finite(kwargs):
    with pytest.raises(ValidationError, match="non-finite"):
        QubitParams(**kwargs)


def test_qubit_equilibrium_energy_frozen():
    p = QubitParams(omega0=1.0, beta0=1.0)
    assert p.equilibrium_energy == pytest.approx(0.2689414213699951, abs=1e-15)
    assert p.excitation_weight == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_qubit_generator_structure():
    p = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, Omega=0.2, delta_omega=0.05)
    gen = qubit_generator(p)
    H = gen.hamiltonian
    assert H[0, 0].real == pytest.approx(1.05, abs=1e-14)  # omega0 + delta_omega
    assert H[0, 1].real == pytest.approx(-0.2, abs=1e-14)  # drive
    rates = sorted(r for _, r in gen.jumps)
    assert rates[1] == pytest.approx(0.5, abs=1e-14)
    assert rates[0] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-14)


def test_qubit_gibbs_state_is_stationary_without_drive():
    p = QubitParams(omega0=1.3, gamma=0.7, beta0=0.8, Omega=0.0)
    gen = qubit_generator(p)
    rho = gibbs_state((qubit_energy_observable(p),), [p.beta0])
    assert np.max(np.abs(apply_schrodinger(gen, rho))) <= 1e-14


def test_bosonic_gamma():
    assert bosonic_gamma(1.0, 1.0, 1.0) == pytest.approx(1.5819767068693265, abs=1e-14)
    # large beta: spontaneous emission only
    assert bosonic_gamma(2.0, 50.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        bosonic_gamma(1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Closed-form qubit rate


def test_qubit_velocity_analytic_formulas():
    p = STANDARD
    u = p.excitation_weight
    for E in (0.1, 0.5, 0.9):
        expected_A = -p.gamma * (1 + u) * E + p.gamma * p.omega0 * u
        assert qubit_A_analytic(E, p) == pytest.approx(expected_A, abs=1e-14)
        expected_B = (
            p.gamma**2 * (1 + u) ** 2 * E
            - p.gamma**2 * u * (1 + u) * p.omega0
            + 2 * p.Omega**2 * (p.omega0 - 2 * E)
        )
        assert qubit_B_analytic(E, p) == pytest.approx(expected_B, abs=1e-14)


def test_qubit_analytic_moments_ignore_detuning():
    detuned = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, Omega=0.2, delta_omega=0.3)
    fam = GibbsAnsatz.canonical(qubit_energy_observable(detuned), fit_tol=1e-13)
    limit = ContinuumLimit(qubit_generator(detuned), fam, StrobConfig())
    for E in (0.2, 0.6):
        a, b, _ = limit.moments([E], gradient=False)
        assert a[0] == pytest.approx(
            qubit_A_analytic(E, detuned), abs=1e-11
        )
        assert b[0] == pytest.approx(
            qubit_B_analytic(E, detuned), abs=1e-11
        )


def test_qubit_stationary_frozen_values():
    assert qubit_E_stationary(STANDARD) == pytest.approx(0.2742232151435881, abs=1e-15)
    assert qubit_beta_stationary(STANDARD) == pytest.approx(0.9733000801276801, abs=1e-13)
    assert qubit_tau(STANDARD) == pytest.approx(1.4286944583787635, abs=1e-13)


def test_qubit_stationary_without_drive_is_thermal():
    p = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, Omega=0.0)
    assert qubit_E_stationary(p) == pytest.approx(p.equilibrium_energy, abs=1e-15)
    assert qubit_beta_stationary(p) == pytest.approx(1.0, abs=1e-14)


def test_qubit_closed_form_solves_the_rate():
    p = STANDARD
    E0 = 0.5
    for t in (0.0, 0.3, 1.7):
        E = qubit_E_closed_form(t, E0, p)
        h = 1e-6
        dE_fd = (qubit_E_closed_form(t + h, E0, p) - qubit_E_closed_form(t - h, E0, p)) / (2 * h)
        assert dE_fd == pytest.approx(qubit_rate_closed_form(E, p), abs=1e-7)
    assert qubit_E_closed_form(0.0, E0, p) == E0
    assert qubit_E_closed_form(200.0, E0, p) == pytest.approx(qubit_E_stationary(p), abs=1e-14)


def test_qubit_closed_form_accepts_arrays():
    t = np.array([0.0, 0.5, 1.0])
    out = qubit_E_closed_form(t, 0.5, STANDARD)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


def test_qubit_rate_no_fixed_point_raises():
    p = QubitParams(omega0=1.0, gamma=0.0, beta0=1.0, Omega=0.0)
    with pytest.raises(DomainError):
        qubit_E_stationary(p)
    with pytest.raises(DomainError):
        qubit_tau(p)


# ---------------------------------------------------------------------------
# Multi-level probe


def test_multilevel_params_validation():
    good = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        MultilevelParams(omegas=(0.0,), base_rates=np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        MultilevelParams(omegas=(1.0, 0.5), base_rates=good)
    with pytest.raises(ValidationError):
        MultilevelParams(omegas=(0.0, 1.0), base_rates=np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValidationError):
        MultilevelParams(omegas=(0.0, 1.0), base_rates=-good)
    with pytest.raises(ValidationError):
        MultilevelParams(omegas=(0.0, 1.0), base_rates=good, shifts=(0.1,))
    assert MultilevelParams(omegas=(0.0, 1.0), base_rates=good).dim == 2


def test_multilevel_rates_detailed_balance():
    R = multilevel_rates(ML)
    for j in range(3):
        for i in range(j):
            down = R[i, j]
            up = R[j, i]
            gap = ML.omegas[j] - ML.omegas[i]
            assert up == pytest.approx(down * np.exp(-ML.beta0 * gap), abs=1e-15)
    assert np.all(np.diag(R) == 0.0)


def test_multilevel_gibbs_state_is_stationary():
    gen = multilevel_generator(ML)
    rho = gibbs_state((multilevel_energy_observable(ML),), [ML.beta0])
    assert np.max(np.abs(apply_schrodinger(gen, rho))) <= 1e-14


def test_multilevel_energy_frozen_value():
    E = gibbs_expectations((multilevel_energy_observable(ML),), [1.0])
    assert E[0] == pytest.approx(0.42478961739555998, abs=1e-14)


def test_multilevel_analytic_zero_at_bath_temperature():
    assert multilevel_A_analytic(1.0, ML) == pytest.approx(0.0, abs=1e-15)
    assert multilevel_B_analytic(1.0, ML) == pytest.approx(0.0, abs=1e-15)


def test_multilevel_analytic_matches_generic():
    fam = GibbsAnsatz.canonical(multilevel_energy_observable(ML), fit_tol=1e-13)
    limit = ContinuumLimit(multilevel_generator(ML), fam, StrobConfig())
    for beta in (0.5, 0.8, 1.3):
        a, b, _ = limit.moments(gibbs_expectations(fam.relevant, [beta]), gradient=False)
        assert a[0] == pytest.approx(
            multilevel_A_analytic(beta, ML), abs=1e-11
        )
        assert b[0] == pytest.approx(
            multilevel_B_analytic(beta, ML), abs=1e-11
        )


def test_multilevel_velocity_sign_tracks_temperature_gap():
    # probe hotter than the bath loses energy, colder probe gains it
    assert multilevel_A_analytic(0.5, ML) < 0.0
    assert multilevel_A_analytic(1.5, ML) > 0.0


def test_multilevel_shifts_do_not_change_moments():
    shifted = MultilevelParams(
        omegas=ML.omegas, base_rates=np.array(ML.base_rates), beta0=ML.beta0,
        shifts=(0.3, -0.2, 0.1),
    )
    for beta in (0.6, 1.0, 1.4):
        assert multilevel_A_analytic(beta, shifted) == pytest.approx(
            multilevel_A_analytic(beta, ML), abs=1e-15
        )
    fam = GibbsAnsatz.canonical(multilevel_energy_observable(shifted), fit_tol=1e-13)
    E = gibbs_expectations(fam.relevant, [0.6])
    a = ContinuumLimit(multilevel_generator(shifted), fam, StrobConfig()).moments(E, gradient=False)[0]
    assert a[0] == pytest.approx(
        multilevel_A_analytic(0.6, shifted), abs=1e-11
    )
