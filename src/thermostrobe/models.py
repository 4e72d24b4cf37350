"""Concrete thermometer models: a driven qubit probe and a multi-level probe
with detailed-balance rates.

Both couple a probe to a bath at inverse temperature beta0 through jump
operators whose rates satisfy detailed balance, so the bath drags the probe
toward the Gibbs state at beta0.  The qubit model adds a resonant drive of
strength Omega and an optional detuning, which shifts the stationary point of
the repeated-measurement protocol away from equilibrium.  Basis convention:
index 0 is the excited state, index 1 the ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import qubit_beta_closed_form
from .errors import DomainError, ValidationError
from .liouville import GkslGenerator
from .matcore import SIGMA_MINUS, SIGMA_PLUS, require_finite


@dataclass(frozen=True)
class QubitParams:
    """Qubit probe: splitting omega0, bare decay rate gamma, bath inverse
    temperature beta0, reset spacing dt, drive Omega, detuning delta_omega."""

    omega0: float = 1.0
    gamma: float = 0.5
    beta0: float = 1.0
    dt: float = 0.1
    Omega: float = 0.0
    delta_omega: float = 0.0

    def __post_init__(self) -> None:
        require_finite([self.omega0, self.gamma, self.beta0, self.dt, self.Omega, self.delta_omega],
                       "qubit parameters")
        if self.omega0 <= 0.0:
            raise ValidationError(f"omega0 must be positive, got {self.omega0}")
        if self.gamma < 0.0:
            raise ValidationError(f"gamma must be nonnegative, got {self.gamma}")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")

    @property
    def excitation_weight(self) -> float:
        """Detailed-balance factor u = exp(-beta0 omega0)."""
        return float(np.exp(-self.beta0 * self.omega0))

    @property
    def equilibrium_energy(self) -> float:
        """Gibbs energy omega0 u / (1 + u) of the undriven probe."""
        u = self.excitation_weight
        return self.omega0 * u / (1.0 + u)


def qubit_energy_observable(p: QubitParams) -> np.ndarray:
    """Relevant observable omega0 |e><e| whose expectation is the probe energy."""
    return p.omega0 * (SIGMA_PLUS @ SIGMA_MINUS)


def qubit_generator(p: QubitParams) -> GkslGenerator:
    """Driven qubit with detailed-balance decay and excitation."""
    H = (p.omega0 + p.delta_omega) * (SIGMA_PLUS @ SIGMA_MINUS) - p.Omega * (SIGMA_PLUS + SIGMA_MINUS)
    jumps = (
        (SIGMA_MINUS, p.gamma),
        (SIGMA_PLUS, p.gamma * p.excitation_weight),
    )
    return GkslGenerator(H, jumps)


def bosonic_gamma(gamma0: float, beta0: float, omega0: float) -> float:
    """Decay rate gamma0 (n_th + 1) against a bosonic mode, written as
    gamma0 e^{beta0 omega0} / (e^{beta0 omega0} - 1)."""
    x = float(beta0) * float(omega0)
    if x <= 0.0:
        raise DomainError(f"beta0 * omega0 must be positive, got {x}")
    return float(gamma0) * np.exp(x) / np.expm1(x)


def qubit_A_analytic(E, p: QubitParams):
    """First moment of the energy velocity along the thermal family,
    <A>_E = -gamma (1 + u) E + gamma omega0 u."""
    E = np.asarray(E, dtype=float)
    u = p.excitation_weight
    return -p.gamma * (1.0 + u) * E + p.gamma * p.omega0 * u


def qubit_B_analytic(E, p: QubitParams):
    """Second moment of the energy velocity along the thermal family,
    <B>_E = gamma^2 (1+u)^2 E - gamma^2 u (1+u) omega0 + 2 Omega^2 (omega0 - 2E)."""
    E = np.asarray(E, dtype=float)
    u = p.excitation_weight
    g2 = p.gamma**2
    return g2 * (1.0 + u) ** 2 * E - g2 * u * (1.0 + u) * p.omega0 + 2.0 * p.Omega**2 * (p.omega0 - 2.0 * E)


def qubit_rate_closed_form(E, p: QubitParams):
    """Energy velocity of the resonantly driven probe at finite reset spacing,
    dE/dt = gamma omega0 u - gamma (1 + u) E + 2 Omega^2 dt (omega0 - 2E)."""
    E = np.asarray(E, dtype=float)
    u = p.excitation_weight
    return p.gamma * p.omega0 * u - p.gamma * (1.0 + u) * E + 2.0 * p.Omega**2 * p.dt * (p.omega0 - 2.0 * E)


def _qubit_rate_coeffs(p: QubitParams) -> tuple[float, float]:
    """dE/dt = c0 - c1 E for the closed-form velocity."""
    u = p.excitation_weight
    c1 = p.gamma * (1.0 + u) + 4.0 * p.Omega**2 * p.dt
    c0 = p.gamma * p.omega0 * u + 2.0 * p.Omega**2 * p.dt * p.omega0
    return c0, c1


def qubit_E_stationary(p: QubitParams) -> float:
    """Fixed point of the closed-form velocity."""
    c0, c1 = _qubit_rate_coeffs(p)
    if c1 <= 0.0:
        raise DomainError("the closed-form velocity has no attracting fixed point")
    return c0 / c1


def qubit_tau(p: QubitParams) -> float:
    """Exponential relaxation time of the closed-form velocity."""
    c0, c1 = _qubit_rate_coeffs(p)
    if c1 <= 0.0:
        raise DomainError("the closed-form velocity does not relax")
    return 1.0 / c1


def qubit_E_closed_form(t, E0: float, p: QubitParams):
    """Solution E(t) = E_st + (E0 - E_st) exp(-t / tau) of the closed-form velocity."""
    t = np.asarray(t, dtype=float)
    E_st = qubit_E_stationary(p)
    tau = qubit_tau(p)
    return E_st + (float(E0) - E_st) * np.exp(-t / tau)


def qubit_beta_stationary(p: QubitParams) -> float:
    """Apparent inverse temperature of the fixed point, qubit_beta_closed_form(E_st, omega0)."""
    return float(qubit_beta_closed_form(qubit_E_stationary(p), p.omega0))


# ---------------------------------------------------------------------------
# Multi-level probe


@dataclass(frozen=True, eq=False)
class MultilevelParams:
    """Probe with levels omegas (ascending), downward base rates in the strictly
    upper triangle of base_rates (entry [i, j] with i < j moves population from
    level j down to level i), bath inverse temperature beta0, and optional
    level shifts added to the Hamiltonian only."""

    omegas: tuple
    base_rates: np.ndarray
    beta0: float = 1.0
    shifts: tuple | None = None

    def __post_init__(self) -> None:
        omegas = tuple(float(w) for w in require_finite(self.omegas, "multilevel omegas"))
        require_finite(self.beta0, "multilevel beta0")
        if len(omegas) < 2:
            raise ValidationError("a multi-level probe needs at least two levels")
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValidationError(f"omegas must be strictly increasing, got {omegas}")
        d = len(omegas)
        rates = require_finite(self.base_rates, "multilevel base_rates").astype(float)
        if rates.shape != (d, d):
            raise ValidationError(f"base_rates shape {rates.shape} does not match {d} levels")
        if np.any(rates < 0.0):
            raise ValidationError("base rates must be nonnegative")
        if np.max(np.abs(np.tril(rates))) > 0.0:
            raise ValidationError("base_rates must be strictly upper triangular (downward moves only)")
        shifts = self.shifts
        if shifts is not None:
            shifts = tuple(float(s) for s in require_finite(shifts, "multilevel shifts"))
            if len(shifts) != d:
                raise ValidationError(f"shifts length {len(shifts)} does not match {d} levels")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "base_rates", rates)
        object.__setattr__(self, "shifts", shifts)

    @property
    def dim(self) -> int:
        return len(self.omegas)


def multilevel_rates(p: MultilevelParams) -> np.ndarray:
    """Full rate matrix: entry [i, j] moves population from level j to level i.
    Upward rates are the detailed-balance partners of the given downward ones,
    g[j, i] = g[i, j] exp(-beta0 (omega_j - omega_i)) for i < j."""
    d = p.dim
    w = np.array(p.omegas)
    g = np.array(p.base_rates)
    for j in range(d):
        for i in range(j):
            if g[i, j] > 0.0:
                g[j, i] = g[i, j] * np.exp(-p.beta0 * (w[j] - w[i]))
    return g


def multilevel_energy_observable(p: MultilevelParams) -> np.ndarray:
    """Relevant observable sum_j omega_j |j><j| (bare levels, no shifts)."""
    return np.diag(np.array(p.omegas, dtype=complex))


def multilevel_generator(p: MultilevelParams) -> GkslGenerator:
    """Jump operators |i><j| at the detailed-balance rates."""
    d = p.dim
    w = np.array(p.omegas)
    shifts = np.zeros(d) if p.shifts is None else np.array(p.shifts)
    H = np.diag((w + shifts).astype(complex))
    g = multilevel_rates(p)
    jumps = []
    for i in range(d):
        for j in range(d):
            if i != j and g[i, j] > 0.0:
                L = np.zeros((d, d), dtype=complex)
                L[i, j] = 1.0
                jumps.append((L, float(g[i, j])))
    return GkslGenerator(H, tuple(jumps))


def _pair_factor(beta: float, p: MultilevelParams) -> tuple[np.ndarray, np.ndarray, float]:
    """F[i, j] = e^{-beta w_j} g[i, j] (1 - e^{-(beta - beta0)(w_i - w_j)}) and the
    downhill-energy weights a[i] = sum_k g[k, i] (w_k - w_i), plus Z(beta)."""
    w = np.array(p.omegas)
    g = multilevel_rates(p)
    np.fill_diagonal(g, 0.0)
    shifted = w - w.min()
    weights = np.exp(-beta * shifted)
    Z = float(weights.sum())
    gap = w[:, None] - w[None, :]
    F = weights[None, :] * g * (1.0 - np.exp(-(beta - p.beta0) * gap))
    a = np.sum(g * gap, axis=0)
    return F, a, Z


def multilevel_A_analytic(beta: float, p: MultilevelParams) -> float:
    """First moment of the energy velocity on the thermal family at inverse
    temperature beta; zero exactly at beta = beta0."""
    beta = float(beta)
    F, _, Z = _pair_factor(beta, p)
    w = np.array(p.omegas)
    return float(np.sum(w[:, None] * F) / Z)


def multilevel_B_analytic(beta: float, p: MultilevelParams) -> float:
    """Second moment of the energy velocity on the thermal family; also zero
    at beta = beta0, so equilibrium survives the finite-reset correction."""
    beta = float(beta)
    F, a, Z = _pair_factor(beta, p)
    return float(np.sum(a[:, None] * F) / Z)
