import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    DegenerateAnsatzError,
    DomainError,
    FactorizedAnsatz,
    GibbsAnsatz,
    PinchingAnsatz,
    RelevantSet,
    SelectiveAnsatz,
    SIGMA_X,
    SIGMA_Z,
    ValidationError,
    ZeroProbabilityBranchError,
    extract_params,
    fit_beta,
    gibbs_expectations,
    gibbs_jacobian,
    gibbs_param_derivative,
    gibbs_state,
    hermiticity_defect,
    kron,
    posterior,
    qubit_beta_closed_form,
)
from tutil import random_density, random_hermitian

N_OP = np.diag([1.0, 0.0]).astype(complex)  # qubit energy observable at omega0 = 1


# ---------------------------------------------------------------------------
# Relevant sets


def test_relevant_set_basic(rng):
    P = random_hermitian(rng, 3)
    rs = RelevantSet((P,))
    assert rs.size == 1 and rs.dim == 3
    assert rs.gram_condition >= 1.0


def test_relevant_set_rejects_empty():
    with pytest.raises(ValidationError):
        RelevantSet(())


def test_relevant_set_rejects_identity_multiple():
    with pytest.raises(ValidationError, match="identity"):
        RelevantSet((2.0 * np.eye(3, dtype=complex),))


def test_relevant_set_rejects_dependent_observables():
    with pytest.raises(ValidationError):
        RelevantSet((SIGMA_Z, 2.0 * SIGMA_Z))


def test_relevant_set_rejects_non_finite_observable():
    with pytest.raises(ValidationError, match="non-finite entries in observable 0"):
        RelevantSet((np.diag([np.nan, 0.0]).astype(complex),))


def test_relevant_set_rejects_mixed_dimensions(rng):
    with pytest.raises(ValidationError):
        RelevantSet((random_hermitian(rng, 2), random_hermitian(rng, 3)))


# ---------------------------------------------------------------------------
# Gibbs machinery


def test_gibbs_state_qubit_equilibrium_population():
    rho = gibbs_state((N_OP,), [1.0])
    assert rho[0, 0].real == pytest.approx(0.2689414213699951, abs=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)


def test_gibbs_state_at_zero_exponent_is_maximally_mixed(rng):
    P = random_hermitian(rng, 4)
    assert np.allclose(gibbs_state((P,), [0.0]), np.eye(4) / 4, atol=1e-14)


@pytest.mark.parametrize("beta, compute", [
    (np.inf, gibbs_state), (np.nan, gibbs_state), (1e308, gibbs_expectations),
], ids=["state-inf", "state-nan", "expectations-overflow"])
def test_gibbs_point_rejects_non_finite_spectrum(beta, compute):
    for obs in ((SIGMA_Z,), (SIGMA_Z, SIGMA_X)):  # spectral and dense paths
        with pytest.raises(DomainError, match="non-finite"):
            compute(obs, [beta] * len(obs))


def test_gibbs_state_matches_scipy(rng):
    P1 = random_hermitian(rng, 4)
    P2 = random_hermitian(rng, 4)
    beta = np.array([0.6, -0.9])
    K = beta[0] * P1 + beta[1] * P2
    ref = scipy.linalg.expm(-K)
    ref = ref / np.trace(ref)
    assert np.allclose(gibbs_state((P1, P2), beta), ref, atol=1e-12)


def test_gibbs_expectations_are_traces(rng):
    P1 = random_hermitian(rng, 3)
    P2 = random_hermitian(rng, 3)
    beta = np.array([0.4, -0.2])
    rho = gibbs_state((P1, P2), beta)
    E = gibbs_expectations((P1, P2), beta)
    assert E[0] == pytest.approx(np.trace(P1 @ rho).real, abs=1e-12)
    assert E[1] == pytest.approx(np.trace(P2 @ rho).real, abs=1e-12)


def test_gibbs_param_derivative_traceless_and_matches_fd(rng):
    P1 = random_hermitian(rng, 3)
    P2 = random_hermitian(rng, 3)
    beta = np.array([0.5, 0.3])
    D = gibbs_param_derivative((P1, P2), beta)
    assert D.shape == (2, 3, 3)
    h = 1e-6
    for n in range(2):
        assert abs(np.trace(D[n])) <= 1e-12
        db = np.zeros(2)
        db[n] = h
        fd = (gibbs_state((P1, P2), beta + db) - gibbs_state((P1, P2), beta - db)) / (2 * h)
        assert np.max(np.abs(D[n] - fd)) <= 1e-8


def test_gibbs_jacobian_symmetric_negative_definite(rng):
    obs = tuple(random_hermitian(rng, 4) for _ in range(3))
    beta = rng.normal(size=3) * 0.5
    J = gibbs_jacobian(obs, beta)
    assert np.allclose(J, J.T, atol=1e-12)
    assert np.max(np.linalg.eigvalsh(J)) < 0.0


def test_gibbs_jacobian_zero_exponent_formula(rng):
    # at beta = 0: dE_m/dbeta_n = -(Tr(P_m P_n)/d - Tr P_m Tr P_n / d^2)
    obs = tuple(random_hermitian(rng, 3) for _ in range(2))
    d = 3
    J = gibbs_jacobian(obs, np.zeros(2))
    for m in range(2):
        for n in range(2):
            expected = -(
                np.trace(obs[m] @ obs[n]).real / d
                - np.trace(obs[m]).real * np.trace(obs[n]).real / d**2
            )
            assert J[m, n] == pytest.approx(expected, abs=1e-12)


def test_gibbs_jacobian_qubit_frozen_values():
    assert gibbs_jacobian((N_OP,), [0.0])[0, 0] == pytest.approx(-0.25, abs=1e-14)
    # at beta = 1 this is -p(1-p) with p = 1/(1+e)
    assert gibbs_jacobian((N_OP,), [1.0])[0, 0] == pytest.approx(-0.19661193324148185, abs=1e-15)


def test_gibbs_jacobian_matches_fd(rng):
    obs = tuple(random_hermitian(rng, 3) for _ in range(2))
    beta = np.array([0.3, -0.4])
    J = gibbs_jacobian(obs, beta)
    h = 1e-5
    for n in range(2):
        db = np.zeros(2)
        db[n] = h
        fd = (gibbs_expectations(obs, beta + db) - gibbs_expectations(obs, beta - db)) / (2 * h)
        assert np.max(np.abs(J[:, n] - fd)) <= 1e-8


# ---------------------------------------------------------------------------
# Fitting


def test_fit_beta_qubit_center_and_roundtrip():
    assert fit_beta((N_OP,), [0.5])[0] == pytest.approx(0.0, abs=1e-10)
    beta = np.array([1.7])
    E = gibbs_expectations((N_OP,), beta)
    assert fit_beta((N_OP,), E, tol=1e-13)[0] == pytest.approx(1.7, abs=1e-10)


def test_fit_beta_multi_observable_roundtrip(rng):
    obs = (SIGMA_Z, SIGMA_X)
    beta = np.array([0.8, -0.5])
    E = gibbs_expectations(obs, beta)
    out = fit_beta(obs, E, tol=1e-13)
    assert np.max(np.abs(out - beta)) <= 1e-10


def test_fit_beta_boundary_rejection():
    with pytest.raises(DomainError, match="feasible-domain boundary"):
        fit_beta((N_OP,), [0.0])
    with pytest.raises(DomainError, match="feasible-domain boundary"):
        fit_beta((N_OP,), [1.0])
    with pytest.raises(DomainError):
        fit_beta((N_OP,), [1.5])


def test_fit_beta_full_output_and_warm_start():
    E = gibbs_expectations((N_OP,), [1.3])
    beta, info = fit_beta((N_OP,), E, tol=1e-12, full_output=True)
    assert info["residual"] <= 1e-12
    assert 1 <= info["iterations"] <= 200
    warm = fit_beta((N_OP,), E, beta_init=[1.3], tol=1e-12)
    assert warm[0] == pytest.approx(beta[0], abs=1e-11)


def test_fit_beta_rejects_non_finite_start_and_target():
    with pytest.raises(DomainError, match="non-finite"):
        fit_beta([SIGMA_Z], [0.2], beta_init=[np.nan])
    with pytest.raises(DomainError, match="non-finite entries in fit target"):
        fit_beta([SIGMA_Z, SIGMA_X], [np.nan, 0.1])


def test_fit_beta_validates_target_shape():
    with pytest.raises(ValidationError):
        fit_beta((N_OP,), [0.3, 0.4])


@pytest.mark.parametrize("tol, max_iter",
                         [(-1.0, 200), (1e-10, 0), (1e-10, -3), (1e-10, 2.7), (1e-10, True)],
                         ids=["negative-tol", "zero-max-iter", "negative-max-iter",
                              "fractional-max-iter", "bool-max-iter"])
def test_fit_settings_are_validated(tol, max_iter):
    with pytest.raises(ValidationError, match="fit"):
        fit_beta((N_OP,), [0.3], tol=tol, max_iter=max_iter)
    with pytest.raises(ValidationError, match="fit"):
        GibbsAnsatz.canonical(N_OP, fit_tol=tol, fit_max_iter=max_iter)


def test_qubit_beta_closed_form():
    p = 1.0 / (1.0 + np.e)
    assert qubit_beta_closed_form(p, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert qubit_beta_closed_form(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        qubit_beta_closed_form(0.0, 1.0)
    with pytest.raises(DomainError):
        qubit_beta_closed_form(1.0, 1.0)
    with pytest.raises(ValidationError):
        qubit_beta_closed_form(0.3, -1.0)


def test_fit_beta_agrees_with_closed_form():
    for E in (0.1, 0.2689414213699951, 0.6):
        assert fit_beta((N_OP,), [E], tol=1e-13)[0] == pytest.approx(
            qubit_beta_closed_form(E, 1.0), abs=1e-10
        )


# ---------------------------------------------------------------------------
# Gibbs family


def test_gibbs_ansatz_labels():
    assert GibbsAnsatz.canonical(N_OP).label == "gibbs-canonical"
    assert GibbsAnsatz((SIGMA_Z, SIGMA_X)).label == "gibbs-generalized"


def test_gibbs_ansatz_state_roundtrip():
    fam = GibbsAnsatz.canonical(N_OP, fit_tol=1e-12)
    E = np.array([0.31])
    rho = fam.state_of(E)
    assert extract_params(fam, rho)[0] == pytest.approx(0.31, abs=1e-11)


def test_gibbs_ansatz_posterior_is_idempotent(rng):
    fam = GibbsAnsatz.canonical(N_OP, fit_tol=1e-12)
    rho = random_density(rng, 2)
    once = posterior(fam, rho)
    twice = posterior(fam, once)
    assert np.max(np.abs(twice - once)) <= 1e-10


def test_gibbs_ansatz_derivative_matches_fd():
    fam = GibbsAnsatz((SIGMA_Z, SIGMA_X), fit_tol=1e-13)
    E = np.array([-0.2, 0.35])
    D = fam.derivative_of(E)
    h = 1e-6
    for j in range(2):
        dE = np.zeros(2)
        dE[j] = h
        fd = (fam.state_of(E + dE) - fam.state_of(E - dE)) / (2 * h)
        assert np.max(np.abs(D[j] - fd)) <= 1e-7


def test_gibbs_ansatz_differentiated_consistency():
    fam = GibbsAnsatz((SIGMA_Z, SIGMA_X), fit_tol=1e-13)
    E = np.array([0.1, -0.4])
    D = fam.derivative_of(E)
    for m, P in enumerate(fam.relevant.observables):
        for j in range(2):
            assert np.trace(P @ D[j]).real == pytest.approx(float(m == j), abs=1e-10)


def test_gibbs_ansatz_state_and_derivative_single_fit():
    fam = GibbsAnsatz.canonical(N_OP)
    E = np.array([0.4])
    point = fam.point_of(E)
    rho, D = point.state(), point.derivative()
    assert np.allclose(rho, fam.state_of(E), atol=1e-12)
    assert np.allclose(D, fam.derivative_of(E), atol=1e-10)


def test_gibbs_ansatz_infeasible_parameters():
    fam = GibbsAnsatz((SIGMA_Z, SIGMA_X))
    with pytest.raises(DomainError, match="infeasible"):
        fam.state_of(np.array([0.9, 0.9]))  # Bloch-vector norm exceeds 1
    assert not fam.feasible(np.array([0.9, 0.9]))
    assert fam.feasible(np.array([0.3, 0.4]))


def test_gibbs_ansatz_degenerate_response():
    fam = GibbsAnsatz((SIGMA_Z, SIGMA_X))
    with pytest.raises(DegenerateAnsatzError):
        fam.derivative_from_beta(np.array([20.0, 0.0]))


def test_extract_params_rejects_imaginary_part():
    fam = GibbsAnsatz((np.array([[0.0, -1.0j], [1.0j, 0.0]]),))
    bad = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="imaginary"):
        extract_params(fam, bad)


# ---------------------------------------------------------------------------
# Pinching family


def test_pinching_nondegenerate_is_diagonal_family():
    X = np.diag([0.0, 1.0, 2.5]).astype(complex)
    fam = PinchingAnsatz(X)
    assert isinstance(fam, PinchingAnsatz)
    assert fam.is_linear
    assert fam.size == 2  # populations minus the trace constraint
    rho = fam.state_of([0.2, 0.3])
    assert np.allclose(rho, np.diag([0.2, 0.3, 0.5]), atol=1e-14)


def test_pinching_degenerate_block_keeps_coherence():
    X = np.diag([1.0, 1.0, -1.0]).astype(complex)
    fam = PinchingAnsatz(X)
    assert fam.size == 4
    rho = np.array(
        [[0.4, 0.1 + 0.05j, 0.2], [0.1 - 0.05j, 0.3, 0.1j], [0.2, -0.1j, 0.3]],
        dtype=complex,
    )
    out = posterior(fam, rho)
    # the degenerate 2x2 block survives, cross terms to the third level vanish
    assert np.allclose(out[:2, :2], rho[:2, :2], atol=1e-12)
    assert np.max(np.abs(out[:2, 2])) <= 1e-14
    assert out[2, 2] == pytest.approx(0.3, abs=1e-14)


def test_pinching_project_idempotent_and_matches_posterior(rng):
    X = random_hermitian(rng, 4)
    fam = PinchingAnsatz(X)
    rho = random_density(rng, 4)
    P1 = fam.project(rho)
    assert np.max(np.abs(fam.project(P1) - P1)) <= 1e-13
    assert np.max(np.abs(posterior(fam, rho) - P1)) <= 1e-12


def test_pinching_posterior_preserves_relevant_expectations(rng):
    X = random_hermitian(rng, 3)
    fam = PinchingAnsatz(X)
    rho = random_density(rng, 3)
    before = extract_params(fam, rho)
    after = extract_params(fam, posterior(fam, rho))
    assert np.max(np.abs(before - after)) <= 1e-12


@pytest.mark.parametrize("build", [
    lambda bad: PinchingAnsatz(bad),
    lambda bad: SelectiveAnsatz(bad, 1.0),
    lambda bad: FactorizedAnsatz(bad, (2, 2)),
], ids=["pinching", "selective", "factorized"])
def test_block_families_reject_non_finite_inputs(build):
    with pytest.raises(ValidationError, match="non-finite"):
        build(np.diag([np.nan, 1.0]).astype(complex))


@pytest.mark.parametrize("X", [
    [[0.0, 1.0], [0.0, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
], ids=["non-hermitian", "nan", "inf"])
@pytest.mark.parametrize("build, name", [
    (lambda X: PinchingAnsatz(X), "pinched observable"),
    (lambda X: SelectiveAnsatz(X, 1.0), "measured observable"),
    (lambda X: GibbsAnsatz((X,)), "observable 0"),
], ids=["pinching", "selective", "gibbs"])
def test_observable_errors_name_the_observable(build, name, X):
    # an infinite entry is refused before the Hermiticity check, whose X - X^dag
    # would turn it into a NaN with a numpy warning
    with pytest.raises(ValidationError, match=f"^(non-finite entries in )?{name}( is not Hermitian|$)"):
        build(np.array(X, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, E", [
    (lambda: PinchingAnsatz(np.diag([0.0, 1.0, 2.0])), [0.3, 0.2]),
    (lambda: SelectiveAnsatz(np.diag([0.0, 0.0, 1.0]), 0.0), [0.6, 0.2, 0.0, 0.4]),
    (lambda: FactorizedAnsatz(np.eye(2) / 2, (2, 2)), [0.5, 0.2, 0.0]),
], ids=["pinching", "selective", "factorized"])
def test_block_families_refuse_non_finite_parameters(build, E, bad):
    # a NaN eigenvalue or bound compares false with the PSD floor: the check refuses it first
    fam = build()
    fam.state_of(E)
    for m in (0, 1):  # a diagonal coordinate and a coherence
        E_bad = np.array(E, dtype=float)
        E_bad[m] = bad
        with pytest.raises(DomainError, match=f"^non-finite entries in {fam._domain}$"):
            fam.state_of(E_bad)
        assert not fam.feasible(E_bad)


def test_pinching_state_of_rejects_negative_block():
    X = np.diag([0.0, 1.0]).astype(complex)
    fam = PinchingAnsatz(X)
    with pytest.raises(DomainError, match="feasible"):
        fam.state_of([1.5])  # forces the recovered population negative


def test_pinching_derivative_is_constant_and_consistent(rng):
    X = random_hermitian(rng, 3)
    fam = PinchingAnsatz(X)
    E = extract_params(fam, random_density(rng, 3))
    D = fam.derivative_of(E)
    for m, P in enumerate(fam.relevant.observables):
        for j in range(fam.size):
            assert np.trace(P @ D[j]).real == pytest.approx(float(m == j), abs=1e-12)
        assert abs(np.trace(D[m])) <= 1e-13


# ---------------------------------------------------------------------------
# Selective family


def test_selective_renormalizes_branch():
    X = np.diag([1.0, 1.0, -1.0]).astype(complex)
    fam = SelectiveAnsatz(X, 1.0)
    assert isinstance(fam, SelectiveAnsatz)
    assert not fam.is_linear
    assert fam.size == 4  # full block coordinates, no trace drop
    rho = np.diag([0.3, 0.1, 0.6]).astype(complex)
    out = posterior(fam, rho)
    assert np.allclose(out, np.diag([0.75, 0.25, 0.0]), atol=1e-12)


def test_selective_zero_branch_raises():
    X = np.diag([1.0, -1.0]).astype(complex)
    fam = SelectiveAnsatz(X, 1.0)
    rho = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ZeroProbabilityBranchError):
        posterior(fam, rho)


def test_selective_rejects_unknown_eigenvalue():
    X = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValidationError, match="spectrum"):
        SelectiveAnsatz(X, 0.5)


def test_selective_posterior_idempotent(rng):
    X = random_hermitian(rng, 3)
    w = np.linalg.eigvalsh(X)
    fam = SelectiveAnsatz(X, float(w[-1]))
    rho = random_density(rng, 3)
    once = posterior(fam, rho)
    assert np.max(np.abs(posterior(fam, once) - once)) <= 1e-12


def test_selective_derivative_matches_fd():
    X = np.diag([1.0, 1.0, -1.0]).astype(complex)
    fam = SelectiveAnsatz(X, 1.0)
    E = np.array([0.3, 0.05, -0.02, 0.25])  # block weight 0.55, off the unit slice
    D = fam.derivative_of(E)
    h = 1e-6
    for j in range(fam.size):
        dE = np.zeros(fam.size)
        dE[j] = h
        fd = (fam.state_of(E + dE) - fam.state_of(E - dE)) / (2 * h)
        assert np.max(np.abs(D[j] - fd)) <= 1e-8


# ---------------------------------------------------------------------------
# Factorized family


def test_factorized_state_and_posterior(rng):
    rho_B = np.diag([0.7, 0.3]).astype(complex)
    fam = FactorizedAnsatz(rho_B, (2, 2))
    assert isinstance(fam, FactorizedAnsatz)
    assert fam.is_linear and fam.size == 3
    rho = random_density(rng, 4)
    out = posterior(fam, rho)
    # posterior replaces the bath factor and keeps the reduced system state
    from thermostrobe import partial_trace

    sys_red = partial_trace(rho, (2, 2), "S")
    assert np.max(np.abs(out - kron(sys_red, rho_B))) <= 1e-12
    assert np.max(np.abs(fam.project(rho) - out)) <= 1e-12


def test_factorized_posterior_preserves_relevant_expectations(rng):
    rho_B = random_density(rng, 3)
    fam = FactorizedAnsatz(rho_B, (2, 3))
    rho = random_density(rng, 6)
    before = extract_params(fam, rho)
    after = extract_params(fam, posterior(fam, rho))
    assert np.max(np.abs(before - after)) <= 1e-12


def test_factorized_derivative_is_product(rng):
    rho_B = random_density(rng, 2)
    fam = FactorizedAnsatz(rho_B, (2, 2))
    D = fam.derivative_of(np.array([0.5, 0.0, 0.0]))
    h = 1e-6
    E = np.array([0.5, 0.1, -0.05])
    for j in range(3):
        dE = np.zeros(3)
        dE[j] = h
        fd = (fam.state_of(E + dE) - fam.state_of(E - dE)) / (2 * h)
        assert np.max(np.abs(D[j] - fd)) <= 1e-9


def test_factorized_validation(rng):
    rho_B = random_density(rng, 2)
    with pytest.raises(ValidationError):
        FactorizedAnsatz(rho_B, (1, 2))
    with pytest.raises(ValidationError):
        FactorizedAnsatz(rho_B, (2, 3))
    with pytest.raises(ValidationError):
        FactorizedAnsatz(2.0 * rho_B, (2, 2))


# ---------------------------------------------------------------------------
# Property tests


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_pinching_posterior_idempotence_property(d, seed):
    rng = np.random.default_rng(seed)
    X = random_hermitian(rng, d)
    fam = PinchingAnsatz(X)
    rho = random_density(rng, d)
    once = posterior(fam, rho)
    assert np.max(np.abs(posterior(fam, once) - once)) <= 1e-12
    assert hermiticity_defect(once) <= 1e-12


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=-1.5, max_value=1.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_gibbs_fit_roundtrip_property(d, beta, seed):
    rng = np.random.default_rng(seed)
    P = random_hermitian(rng, d)
    E = gibbs_expectations((P,), [beta])
    out = fit_beta((P,), E, tol=1e-13)
    assert out[0] == pytest.approx(beta, abs=1e-9)
