import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    CapacityError,
    SIGMA_MINUS,
    SIGMA_PLUS,
    ValidationError,
    dexp_neg,
    exp_general,
    frobenius,
    hermiticity_defect,
    hermitize,
    kron,
    require_hermitian,
    require_square,
    scale_of,
)
from reference import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    exp_hermitian,
    herm_eig,
    is_hermitian,
    partial_trace,
)
from tutil import random_complex, random_density, random_hermitian

EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)


def test_basis_convention_index_zero_is_excited():
    # sigma_+ raises ground to excited, sigma_- lowers excited to ground
    assert np.allclose(SIGMA_PLUS @ GROUND, EXCITED)
    assert np.allclose(SIGMA_MINUS @ EXCITED, GROUND)
    assert np.allclose(SIGMA_PLUS @ EXCITED, 0.0)
    # number operator counts the excited population
    n_op = SIGMA_PLUS @ SIGMA_MINUS
    assert np.allclose(n_op, np.diag([1.0, 0.0]))


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(SIGMA_PLUS, 0.5 * (SIGMA_X + 1j * SIGMA_Y))


def test_scale_of():
    assert scale_of(np.zeros((2, 2))) == 1.0
    assert scale_of(np.array([[3.0, 0.0], [0.0, -1.0]])) == 4.0


def test_require_square_rejects_rectangular():
    with pytest.raises(ValidationError):
        require_square(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        require_square(np.zeros(4))


def test_hermiticity_checks(rng):
    H = random_hermitian(rng, 4)
    assert is_hermitian(H)
    assert hermiticity_defect(H) <= 1e-15 * scale_of(H)
    X = H + 1e-3 * 1j * np.eye(4)
    assert not is_hermitian(X)
    with pytest.raises(ValidationError, match="not Hermitian"):
        require_hermitian(X)
    assert is_hermitian(hermitize(X))


def test_herm_eig_ascending_and_reconstructs(rng):
    H = random_hermitian(rng, 5)
    w, U = herm_eig(H)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose((U * w) @ dagger(U), H, atol=1e-12)
    assert np.allclose(dagger(U) @ U, np.eye(5), atol=1e-12)


def test_exp_hermitian_matches_scipy(rng):
    for d in (2, 3, 6):
        H = random_hermitian(rng, d, scale=2.0)
        assert np.allclose(exp_hermitian(H), scipy.linalg.expm(H), atol=1e-11)
        assert np.allclose(exp_hermitian(H, s=-0.7), scipy.linalg.expm(-0.7 * H), atol=1e-11)


def test_exp_general_matches_scipy(rng):
    for d, scale in ((2, 0.1), (3, 1.0), (5, 4.0), (8, 20.0)):
        X = scale * random_complex(rng, d)
        E = exp_general(X)
        ref = scipy.linalg.expm(X)
        assert np.max(np.abs(E - ref)) <= 1e-10 * scale_of(ref)


def test_exp_general_identity_and_nilpotent():
    assert np.allclose(exp_general(np.zeros((3, 3))), np.eye(3))
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(exp_general(N), np.eye(2) + N)


def test_exp_general_dimension_cap():
    with pytest.raises(CapacityError):
        exp_general(np.zeros((257, 257)))


def test_exp_general_rejects_non_finite():
    X = np.zeros((2, 2))
    X[0, 1] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        exp_general(X)


def test_dexp_neg_frozen_kernel_value():
    # K = diag(0, 1), D = sigma_x: off-diagonal kernel is
    # (e^0 - e^-1) / (0 - 1) = -(1 - 1/e)
    K = np.diag([0.0, 1.0]).astype(complex)
    out = dexp_neg(K, SIGMA_X)
    assert out[0, 1] == pytest.approx(-0.6321205588285577, abs=1e-15)
    assert out[1, 0] == pytest.approx(-0.6321205588285577, abs=1e-15)
    assert abs(out[0, 0]) <= 1e-15 and abs(out[1, 1]) <= 1e-15


def test_dexp_neg_degenerate_limit():
    # at K = 0 the derivative of exp(-K) along D is exactly -D
    D = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]], dtype=complex)
    assert np.allclose(dexp_neg(np.zeros((2, 2)), D), -D, atol=1e-14)


def test_dexp_neg_matches_scipy_frechet(rng):
    for d in (2, 4, 6):
        K = random_hermitian(rng, d)
        D = random_hermitian(rng, d)
        ref = scipy.linalg.expm_frechet(-K, -D, compute_expm=False)
        out = dexp_neg(K, D)
        assert np.max(np.abs(out - ref)) <= 1e-10 * scale_of(ref)
        assert hermiticity_defect(out) <= 1e-12 * scale_of(out)


def test_dexp_neg_matches_finite_difference(rng):
    K = random_hermitian(rng, 3)
    D = random_hermitian(rng, 3)
    h = 1e-6
    fd = (exp_hermitian(K + h * D, s=-1.0) - exp_hermitian(K - h * D, s=-1.0)) / (2 * h)
    assert np.max(np.abs(dexp_neg(K, D) - fd)) <= 1e-8


def test_dexp_neg_validates_inputs(rng):
    K = random_hermitian(rng, 3)
    with pytest.raises(ValidationError):
        dexp_neg(K, random_complex(rng, 3))
    with pytest.raises(ValidationError):
        dexp_neg(K, random_hermitian(rng, 4))


def test_frobenius_is_trace_pairing(rng):
    A = random_complex(rng, 4)
    B = random_complex(rng, 4)
    assert frobenius(A, B) == pytest.approx(complex(np.trace(dagger(A) @ B)), abs=1e-12)


def test_partial_trace_factorizes(rng):
    A = random_complex(rng, 2)
    B = random_complex(rng, 3)
    M = kron(A, B)
    assert np.allclose(partial_trace(M, (2, 3), keep="S"), A * np.trace(B), atol=1e-12)
    assert np.allclose(partial_trace(M, (2, 3), keep="B"), B * np.trace(A), atol=1e-12)
    assert partial_trace(M, (2, 3), keep="S").shape == (2, 2)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, 6)
    for keep in ("S", "B"):
        red = partial_trace(rho, (2, 3), keep=keep)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_dims(rng):
    M = random_complex(rng, 6)
    with pytest.raises(ValidationError):
        partial_trace(M, (2, 2))
    with pytest.raises(ValidationError):
        partial_trace(M, (2, 3), keep="X")


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_hermitize_projects_and_is_idempotent(d, seed):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, d)
    H = hermitize(X)
    assert is_hermitian(H)
    assert np.allclose(hermitize(H), H)
    # hermitize leaves Hermitian input alone
    assert np.allclose(hermitize(H + dagger(H)), H + dagger(H))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_exp_hermitian_group_property(d, seed):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, d)
    E1 = exp_hermitian(H, s=0.3)
    E2 = exp_hermitian(H, s=0.7)
    assert np.allclose(E1 @ E2, exp_hermitian(H), atol=1e-11 * scale_of(exp_hermitian(H)))
