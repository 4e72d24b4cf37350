"""Markovian generators and their propagation.

A generator is specified by a Hamiltonian H and jump operators L_k with rates
g_k and acts as

    L(rho) = -i[H, rho] + sum_k g_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2),

with the Heisenberg adjoint L*(X) = +i[H, X] + sum_k g_k (L_k^dag X L_k
- {L_k^dag L_k, X}/2).  Vectorization is column-stacking, so
vec(A rho B) = (B^T kron A) vec(rho) and the generator becomes a d^2 x d^2
matrix whose exponential propagates states.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ValidationError
from .matcore import (
    EXP_DIM_CAP,
    exp_general,
    hermitize,
    require_finite,
    require_hermitian,
    require_same_shape,
    require_square,
    scale_of,
)

DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


def require_density(rho, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, spectrum above the tolerance floor."""
    rho = require_hermitian(rho, name=name)
    s = scale_of(rho)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL * s:
        raise ValidationError(f"{name} trace is {tr:.12g}, expected 1")
    wmin = float(np.linalg.eigvalsh(hermitize(rho)).min())
    if wmin < DENSITY_EIG_FLOOR * s:
        raise ValidationError(f"{name} has negative eigenvalue {wmin:.3e}")
    return rho


@dataclass(frozen=True, eq=False)
class GkslGenerator:
    """Hamiltonian plus (jump operator, rate) pairs defining a Markovian generator.

    Rates must be finite and nonnegative; pass check_rates=False only to build
    a deliberately non-physical generator (negative rates) for diagnostics.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...] = ()
    check_rates: InitVar[bool] = True

    def __post_init__(self, check_rates: bool) -> None:
        H = require_finite(require_hermitian(self.hamiltonian, name="hamiltonian"), "hamiltonian")
        cleaned = []
        for op, rate in self.jumps:
            op = require_finite(require_square(op, "jump operator"), "jump operator")
            require_same_shape(H, op, "hamiltonian and jump operator")
            try:
                rate = float(require_finite(rate, "jump rate"))
            except ValidationError:  # NaN, inf, text or None
                raise ValidationError(f"jump rate {rate} is not finite") from None
            if check_rates and rate < 0.0:
                raise ValidationError(f"jump rate {rate} is negative")
            cleaned.append((op, rate))
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "jumps", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def apply_heisenberg(gen: GkslGenerator, X) -> np.ndarray:
    """Apply the adjoint generator to an observable."""
    X = require_square(X, "observable")
    H = gen.hamiltonian
    require_same_shape(H, X, "generator and observable")
    out = 1j * (H @ X - X @ H)
    for L, g in gen.jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + g * (Ld @ X @ L - 0.5 * (LdL @ X + X @ LdL))
    return out


def vec(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(M, dtype=complex).T.reshape(-1)


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValidationError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape(d, d).T


def to_liouvillian(gen: GkslGenerator) -> np.ndarray:
    """Column-stacking matrix representation of the generator."""
    d = gen.dim
    if d * d > EXP_DIM_CAP:
        raise CapacityError(f"generator dimension {d} gives a {d * d}-dim matrix above the cap {EXP_DIM_CAP}")
    eye = np.eye(d)
    H = gen.hamiltonian
    Lv = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L, g in gen.jumps:
        LdL = L.conj().T @ L
        Lv = Lv + g * (np.kron(L.conj(), L) - 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye)))
    return Lv


@dataclass(frozen=True, eq=False)
class Propagator:
    """Cached exp(t * L) for one generator and one time step."""

    generator: GkslGenerator
    t: float
    matrix: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, gen: GkslGenerator, t: float) -> "Propagator":
        t = float(t)
        if t < 0.0:
            raise DomainError(f"propagation time {t} is negative")
        return cls(gen, t, exp_general(t * to_liouvillian(gen)))

    def apply(self, rho) -> np.ndarray:
        rho = require_square(rho, "state")
        if rho.shape[0] != self.generator.dim:
            raise ValidationError("state dimension does not match the propagator")
        return hermitize(unvec(self.matrix @ vec(rho), rho.shape[0]))

    def adjoint(self, X: np.ndarray) -> np.ndarray:
        """The Heisenberg images Phi*(X_m) of a stack X (n, d, d), defined by
        Tr(Phi*(X)^dag rho) = Tr(X^dag Phi(rho)): vec(Phi*(X)) = matrix^dag vec(X)."""
        n, d = len(X), self.generator.dim
        if X.shape[1:] != (d, d):
            raise ValidationError("observable dimension does not match the propagator")
        images = X.transpose(0, 2, 1).reshape(n, d * d) @ self.matrix.conj()
        return images.reshape(n, d, d).transpose(0, 2, 1)

