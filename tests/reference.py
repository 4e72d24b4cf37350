"""Reference forms that the tests hold the package to and the program never runs.

The package computes the posterior map rho -> state_of(Tr(P rho)) in the
Heisenberg picture, through one velocity formula.  This module keeps the
Schrödinger-picture and printed-paper forms of the same maps, and the matrix
helpers that only the tests read: the generator acting on states, propagated
states, Choi matrices, the posterior reset, the linear families' projections,
the state-space velocity, the beta velocity of a lone Gibbs point and its
temperature form.
"""

import numpy as np

from thermostrobe import ContractError, DomainError, SingularityError, ValidationError
from thermostrobe.ansatz import (
    AnsatzFamily,
    FactorizedAnsatz,
    GibbsAnsatz,
    PinchingAnsatz,
    _gibbs_point,
    extract_params,
)
from thermostrobe.liouville import GkslGenerator, Propagator, require_density
from thermostrobe.matcore import (
    HERM_TOL,
    hermiticity_defect,
    hermitize,
    kron,
    require_hermitian,
    require_same_shape,
    require_square,
    scale_of,
)
from thermostrobe.strob import ContinuumLimit, StrobConfig, _require_canonical, beta_velocity

# ---------------------------------------------------------------------------
# Matrix helpers

# Two-level basis convention: index 0 = excited, index 1 = ground.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).conj().T


def is_hermitian(M, tol: float = HERM_TOL) -> bool:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return False
    return hermiticity_defect(M) <= tol * scale_of(M)


def herm_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    M = require_hermitian(M)
    w, U = np.linalg.eigh(M)
    return w, U


def exp_hermitian(M, s: float = 1.0) -> np.ndarray:
    """exp(s*M) for Hermitian M, via eigendecomposition."""
    w, U = herm_eig(M)
    return hermitize((U * np.exp(s * w)) @ U.conj().T)


def partial_trace(M, dims: tuple[int, int], keep: str = "S") -> np.ndarray:
    """Partial trace of an operator on a (d_S x d_B)-dimensional product space.

    dims = (d_S, d_B); keep selects the surviving factor, "S" or "B".
    """
    M = require_square(M, "operator")
    dS, dB = int(dims[0]), int(dims[1])
    if dS <= 0 or dB <= 0 or dS * dB != M.shape[0]:
        raise ValidationError(f"dims {dims} incompatible with operator dimension {M.shape[0]}")
    which = str(keep).upper()
    T = M.reshape(dS, dB, dS, dB)
    if which == "S":
        return np.einsum("ibjb->ij", T)
    if which == "B":
        return np.einsum("iaib->ab", T)
    raise ValidationError(f"keep must be 'S' or 'B', got {keep!r}")


# ---------------------------------------------------------------------------
# Generators on states (Schrödinger picture)


def apply_schrodinger(gen: GkslGenerator, rho) -> np.ndarray:
    """Apply the generator to a state (or any operator of matching dimension)."""
    rho = require_square(rho, "operand")
    H = gen.hamiltonian
    require_same_shape(H, rho, "generator and operand")
    out = -1j * (H @ rho - rho @ H)
    for L, g in gen.jumps:
        Ld = L.conj().T
        LdL = Ld @ L
        out = out + g * (L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def propagate(gen: GkslGenerator, rho, t: float) -> np.ndarray:
    """Evolve a state for time t under the generator."""
    return Propagator.build(gen, t).apply(rho)


def choi_matrix(gen: GkslGenerator, t: float) -> np.ndarray:
    """Choi matrix sum_ij |i><j| kron Phi_t(|i><j|) of the time-t propagator: the entry
    (i a, j b) is Phi_t(|i><j|)_ab, the column j d + i of the propagator at row b d + a."""
    d = gen.dim
    T = Propagator.build(gen, t).matrix.reshape(d, d, d, d)  # (b, a, j, i)
    return hermitize(T.transpose(3, 1, 2, 0).reshape(d * d, d * d))


def choi_psd_check(gen: GkslGenerator, t: float) -> float:
    """Minimum Choi eigenvalue of the time-t propagator (>= -1e-8 for a CP map)."""
    return float(np.linalg.eigvalsh(choi_matrix(gen, t)).min())


# ---------------------------------------------------------------------------
# Families on states


def posterior(family: AnsatzFamily, rho) -> np.ndarray:
    """Reset a state onto the family while keeping its relevant expectations."""
    rho = require_density(rho)
    return family.state_of(extract_params(family, rho))


def feasible(family: AnsatzFamily, E) -> bool:
    """Whether the family has a state at parameters E."""
    try:
        family.state_of(E)
        return True
    except (DomainError, ValidationError):
        return False


def derivative_from_beta(family: GibbsAnsatz, beta) -> np.ndarray:
    """A Gibbs family's parameter derivatives at exponents beta, through the chain rule."""
    return _gibbs_point(family.relevant, beta).derivative()


def project(family: AnsatzFamily, M) -> np.ndarray:
    """A linear family's map on arbitrary operators: the pinching onto its observable's
    eigenspace blocks, or Tr_B(M) x rho_B for the factorized family; ContractError for
    any other family."""
    if isinstance(family, PinchingAnsatz):
        M = require_square(M, "operand")
        U = family._U
        Mt = U.conj().T @ M @ U
        out = np.zeros_like(Mt)
        for block in family._blocks:
            idx = np.ix_(block, block)
            out[idx] = Mt[idx]
        return U @ out @ U.conj().T
    if isinstance(family, FactorizedAnsatz):
        return kron(partial_trace(M, family.dims, "S"), family.rho_B)
    raise ContractError("the state-space velocity is defined for linear families only")


# ---------------------------------------------------------------------------
# Velocities in the paper's printed forms


def projector_ode_rhs(gen: GkslGenerator, family: AnsatzFamily, rho, cfg: StrobConfig) -> np.ndarray:
    """State-space form of the continuum limit for linear families,
    lam P L P rho + (alpha/2) (P L L P rho - P L P L P rho)."""
    Pr = project(family, rho)
    seed = apply_schrodinger(gen, Pr)
    first = project(family, seed)
    second = project(family, apply_schrodinger(gen, seed))
    nested = project(family, apply_schrodinger(gen, first))
    return cfg.lam * first + 0.5 * cfg.alpha * (second - nested)


def point_velocity(point, order: int, cfg: StrobConfig) -> np.ndarray:
    """strob.beta_velocity on a lone gibbs_point at the scales of cfg: its slopes are
    contracted to the rows order reads first, so J is read from the same contraction."""
    M = len(point.E)
    G = point.slopes(order * M)[M:]
    return beta_velocity(cfg, order, point.beta, point.means, point.jacobian, G)


def ode_rhs_temperature(gen: GkslGenerator, family: GibbsAnsatz, beta: float, cfg: StrobConfig) -> float:
    """Temperature form of the second-order velocity, dbeta/dt = -(beta^2 / C) dE/dt.

    With the heat capacity C = -beta^2 J this is the natural-coordinate
    velocity J^-1 dE/dt that run_ode_temperature integrates; in this form it
    is undefined at beta = 0 (DomainError), where C vanishes while J stays
    finite, and a vanishing C raises SingularityError."""
    _require_canonical(family, "the temperature velocity")
    beta = float(beta)
    if beta == 0.0:
        raise DomainError("heat capacity is undefined at beta = 0 (dbeta/dE blows up)")
    limit = ContinuumLimit(gen, family, cfg)
    point = limit.gibbs_point(np.array([beta]))
    C = -(beta**2) * point.jacobian[0, 0]
    if C < 1e-15 * (1.0 + beta * beta):
        raise SingularityError(f"heat capacity {C:.3e} at beta = {beta:.6g} is too small to invert")
    return float(point_velocity(point, 2, cfg)[0])
