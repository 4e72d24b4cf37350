import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    CapacityError,
    DomainError,
    GkslGenerator,
    Propagator,
    SIGMA_MINUS,
    SIGMA_PLUS,
    ValidationError,
    apply_heisenberg,
    apply_schrodinger,
    choi_matrix,
    choi_psd_check,
    hermiticity_defect,
    propagate,
    require_density,
    scale_of,
    to_liouvillian,
    unvec,
    vec,
)
from tutil import random_complex, random_density, random_generator, random_hermitian


def test_require_density_accepts_valid(rng):
    rho = random_density(rng, 4)
    out = require_density(rho)
    assert np.allclose(out, rho)


def test_require_density_rejects_bad_trace(rng):
    with pytest.raises(ValidationError, match="trace"):
        require_density(2.0 * random_density(rng, 3))


def test_require_density_rejects_negative_eigenvalue():
    rho = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(ValidationError):
        require_density(rho)


def test_require_density_rejects_non_hermitian():
    rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        require_density(rho)


def test_generator_validation(rng):
    with pytest.raises(ValidationError):
        GkslGenerator(hamiltonian=random_complex(rng, 2))
    H = random_hermitian(rng, 2)
    with pytest.raises(ValidationError):
        GkslGenerator(hamiltonian=H, jumps=((SIGMA_MINUS, -0.5),))
    # negative rates are representable when rate checking is off
    gen = GkslGenerator(hamiltonian=H, jumps=((SIGMA_MINUS, -0.5),), check_rates=False)
    assert gen.dim == 2
    with pytest.raises(ValidationError):
        GkslGenerator(hamiltonian=H, jumps=((random_complex(rng, 3), 0.5),))


@pytest.mark.parametrize("where", ["hamiltonian", "jump operator"])
def test_generator_rejects_non_finite_operators(where):
    bad = np.array([[0.0, np.nan], [np.nan, 1.0]], dtype=complex)
    H, L = (bad, SIGMA_MINUS) if where == "hamiltonian" else (np.eye(2, dtype=complex), bad)
    with pytest.raises(ValidationError, match=f"non-finite entries in {where}"):
        GkslGenerator(hamiltonian=H, jumps=((L, 1.0),))


def test_generator_rejects_nan_rate():
    H = np.diag([1.0, 0.0]).astype(complex)
    for check_rates in (True, False):
        with pytest.raises(ValidationError, match="not finite"):
            GkslGenerator(hamiltonian=H, jumps=((SIGMA_MINUS, float("nan")),), check_rates=check_rates)


def test_propagator_refuses_overflowing_exponential():
    gen = GkslGenerator(np.zeros((2, 2), dtype=complex), ((SIGMA_MINUS, -1e3),), check_rates=False)
    with pytest.raises(CapacityError, match="overflows"):
        Propagator.build(gen, 1.0)


def test_schrodinger_traceless_and_hermitian(rng):
    gen = random_generator(rng, 4)
    rho = random_density(rng, 4)
    drho = apply_schrodinger(gen, rho)
    assert abs(np.trace(drho)) <= 1e-12 * scale_of(drho)
    assert hermiticity_defect(drho) <= 1e-12 * scale_of(drho)


def test_heisenberg_preserves_identity(rng):
    gen = random_generator(rng, 3)
    out = apply_heisenberg(gen, np.eye(3, dtype=complex))
    assert np.max(np.abs(out)) <= 1e-12


def test_duality_single_instance(rng):
    gen = random_generator(rng, 3)
    rho = random_density(rng, 3)
    X = random_hermitian(rng, 3)
    lhs = np.trace(X @ apply_schrodinger(gen, rho))
    rhs = np.trace(apply_heisenberg(gen, X) @ rho)
    assert abs(lhs - rhs) <= 1e-12


def test_hamiltonian_only_generator_is_unitary_conjugation(rng):
    H = random_hermitian(rng, 3)
    gen = GkslGenerator(hamiltonian=H)
    rho = random_density(rng, 3)
    expected = -1j * (H @ rho - rho @ H)
    assert np.allclose(apply_schrodinger(gen, rho), expected, atol=1e-13)


def test_vec_unvec_roundtrip(rng):
    M = random_complex(rng, 4)
    assert np.allclose(unvec(vec(M)), M)
    assert np.allclose(unvec(vec(M), 4), M)


def test_vec_is_column_stacking():
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(vec(M), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vec_sandwich_identity(rng):
    # vec(A rho B) = (B^T kron A) vec(rho)
    A = random_complex(rng, 3)
    B = random_complex(rng, 3)
    rho = random_complex(rng, 3)
    assert np.allclose(vec(A @ rho @ B), np.kron(B.T, A) @ vec(rho), atol=1e-12)


def test_to_liouvillian_matches_direct_action(rng):
    gen = random_generator(rng, 3)
    L = to_liouvillian(gen)
    assert L.shape == (9, 9)
    rho = random_density(rng, 3)
    assert np.allclose(unvec(L @ vec(rho)), apply_schrodinger(gen, rho), atol=1e-12)


def test_to_liouvillian_dimension_cap(rng):
    d = 17  # d^2 = 289 exceeds the 256 exponential cap
    gen = GkslGenerator(hamiltonian=np.eye(d, dtype=complex))
    with pytest.raises(CapacityError):
        to_liouvillian(gen)


def test_propagator_matches_scipy_expm(rng):
    gen = random_generator(rng, 3)
    t = 0.7
    prop = Propagator.build(gen, t)
    ref = scipy.linalg.expm(t * to_liouvillian(gen))
    assert np.max(np.abs(prop.matrix - ref)) <= 1e-9 * scale_of(ref)


def test_propagator_rejects_negative_time(rng):
    gen = random_generator(rng, 2)
    with pytest.raises(DomainError):
        Propagator.build(gen, -0.1)


def test_propagator_zero_time_is_identity(rng):
    gen = random_generator(rng, 3)
    rho = random_density(rng, 3)
    assert np.allclose(Propagator.build(gen, 0.0).apply(rho), rho, atol=1e-14)


def test_propagate_preserves_density_structure(rng):
    gen = random_generator(rng, 4)
    rho = random_density(rng, 4)
    out = propagate(gen, rho, 1.3)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert hermiticity_defect(out) <= 1e-10
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_decay_channel_dynamics():
    # pure decay at rate g empties the excited level exponentially
    g = 0.8
    gen = GkslGenerator(hamiltonian=np.zeros((2, 2), dtype=complex), jumps=((SIGMA_MINUS, g),))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = 0.9
    out = propagate(gen, rho0, t)
    assert out[0, 0].real == pytest.approx(np.exp(-g * t), abs=1e-12)


def test_choi_of_identity_channel_is_maximally_entangled_projector():
    gen = GkslGenerator(hamiltonian=np.zeros((2, 2), dtype=complex))
    C = choi_matrix(gen, 1.0)
    # trace equals the input dimension; rank one for a unitary channel
    assert np.trace(C).real == pytest.approx(2.0, abs=1e-12)
    w = np.linalg.eigvalsh(C)
    assert w[-1] == pytest.approx(2.0, abs=1e-10)
    assert np.max(np.abs(w[:-1])) <= 1e-10


def test_choi_psd_for_valid_generator(rng):
    gen = random_generator(rng, 3)
    for t in (0.0, 0.2, 1.5):
        assert choi_psd_check(gen, t) >= -1e-8


def test_choi_detects_non_cp_map():
    # a negative rate produces a map that is not completely positive
    gen = GkslGenerator(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=((SIGMA_PLUS, -0.6),),
        check_rates=False,
    )
    assert choi_psd_check(gen, 1.0) < -1e-6


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_duality_property(d, n_jumps, seed):
    rng = np.random.default_rng(seed)
    gen = random_generator(rng, d, n_jumps=n_jumps)
    rho = random_density(rng, d)
    X = random_hermitian(rng, d)
    lhs = np.trace(X @ apply_schrodinger(gen, rho))
    rhs = np.trace(apply_heisenberg(gen, X) @ rho)
    assert abs(lhs - rhs) <= 1e-10
    assert np.max(np.abs(apply_heisenberg(gen, np.eye(d, dtype=complex)))) <= 1e-10


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_propagation_keeps_states_physical(d, t, seed):
    rng = np.random.default_rng(seed)
    gen = random_generator(rng, d)
    rho = random_density(rng, d)
    out = propagate(gen, rho, t)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-9
