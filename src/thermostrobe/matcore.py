"""Dense complex-matrix primitives.

Validation, the matrix exponential, the directional derivative of
K -> exp(-K), Frobenius pairings and tensor products.
Tolerances are relative to matrix scale, measured as (1 + max entry
magnitude), so the same thresholds work across very different norms.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ValidationError

HERM_TOL = 1e-12
EXP_DIM_CAP = 256
EXP_SERIES_ORDER = 20
EXP_SCALE_TARGET = 0.5
DEGENERATE_EIG_TOL = 1e-8

# Two-level basis convention used throughout: index 0 = excited, index 1 = ground.
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


def scale_of(M: np.ndarray) -> float:
    """Relative-tolerance scale of a matrix: 1 + max entry magnitude."""
    M = np.asarray(M)
    return 1.0 + (float(np.max(np.abs(M))) if M.size else 0.0)


def require_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    return M


def require_finite(x, name: str = "value", error: type = ValidationError) -> np.ndarray:
    """x as an array, refused with error when any entry is NaN, infinite or not a number."""
    x = np.asarray(x)
    try:
        finite = np.isfinite(x).all()
    except TypeError:  # text or None, which np.isfinite does not take
        finite = False
    if not finite:
        raise error(f"non-finite entries in {name}")
    return x


def require_same_shape(A: np.ndarray, B: np.ndarray, what: str = "operands") -> None:
    if A.shape != B.shape:
        raise ValidationError(f"{what} have mismatched shapes {A.shape} vs {B.shape}")


def hermiticity_defect(M: np.ndarray) -> float:
    M = np.asarray(M)
    return float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    M = require_square(M, name)
    dev = hermiticity_defect(M)
    if dev > HERM_TOL * scale_of(M):
        raise ValidationError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return M


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize away the roundoff-level anti-Hermitian part (of each matrix of a stack)."""
    return 0.5 * (M + np.swapaxes(M, -1, -2).conj())


def exp_general(X) -> np.ndarray:
    """exp(X) for a general square matrix.

    Scaling-and-squaring around a truncated Taylor series: X is halved until
    its 1-norm drops below EXP_SCALE_TARGET, the series is summed to order
    EXP_SERIES_ORDER, and the result is squared back up.  Intended for
    generator matrices of moderate dimension (n <= EXP_DIM_CAP); a result that
    overflows raises CapacityError.
    """
    X = require_square(X, "exponent")
    n = X.shape[0]
    if n > EXP_DIM_CAP:
        raise CapacityError(f"matrix dimension {n} exceeds the exponential cap {EXP_DIM_CAP}")
    require_finite(X, "exponent")
    nrm = np.linalg.norm(X, 1)
    squarings = int(np.ceil(np.log2(nrm / EXP_SCALE_TARGET))) if nrm > EXP_SCALE_TARGET else 0
    Y = X / (2.0 ** squarings)
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, EXP_SERIES_ORDER + 1):
        term = term @ Y / k
        out = out + term
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise CapacityError(f"exponential of a matrix with 1-norm {nrm:.3e} overflows")
    return out


def dexp_neg(K, D) -> np.ndarray:
    """Directional derivative of K -> exp(-K) at Hermitian K along Hermitian D.

    In the eigenbasis of K the derivative acts entrywise with the
    divided-difference kernel (exp(-k_i) - exp(-k_j)) / (k_i - k_j); pairs
    closer than DEGENERATE_EIG_TOL use the midpoint limit -exp(-(k_i+k_j)/2).
    """
    K = require_hermitian(K, name="base point")
    D = require_hermitian(D, name="direction")
    require_same_shape(K, D, "base point and direction")
    w, U = np.linalg.eigh(K)
    Dt = U.conj().T @ D @ U
    return hermitize(U @ (exp_neg_kernel(w) * Dt) @ U.conj().T)


def exp_neg_kernel(w: np.ndarray) -> np.ndarray:
    """Daleckii-Krein kernel of k -> exp(-k) on a spectrum w (d,), or on each
    spectrum of a stack (..., d): the divided differences
    (exp(-w_i) - exp(-w_j)) / (w_i - w_j), with the midpoint limit
    -exp(-(w_i+w_j)/2) for pairs closer than DEGENERATE_EIG_TOL, which is
    exactly -exp(-w_i) on the diagonal.  Every entry is computed on its own,
    so each kernel of a stack is the kernel of its spectrum alone."""
    d = w.shape[-1]
    ew = np.exp(-w)
    diff = w[..., :, None] - w[..., None, :]
    diff.reshape(-1, d * d)[:, ::d + 1] = 1.0  # the diagonals, through a view
    near = np.nonzero(np.abs(diff) < DEGENERATE_EIG_TOL)  # (stack indices..., i, j)
    kernel = ew[..., :, None] - ew[..., None, :]
    if near[0].size:
        diff[near] = 1.0
        kernel /= diff
        kernel[near] = -np.exp(-0.5 * (w[near[:-1]] + w[near[:-2] + near[-1:]]))
    else:
        kernel /= diff
    kernel.reshape(-1, d * d)[:, ::d + 1] = -ew.reshape(-1, d)
    return kernel


def frobenius(A, B) -> complex:
    """Frobenius pairing Tr(A^dag B)."""
    A = require_square(A, "left factor")
    B = require_square(B, "right factor")
    require_same_shape(A, B, "pairing factors")
    return complex(np.sum(A.conj() * B))


def kron(A, B) -> np.ndarray:
    """Tensor product of two square operators."""
    A = require_square(A, "left factor")
    B = require_square(B, "right factor")
    return np.kron(A, B)

