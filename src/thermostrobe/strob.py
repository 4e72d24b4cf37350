"""Repeated measure-evolve protocols and their continuum limits.

The discrete protocol alternates open-system evolution for a time lam * dt
with a reset onto an ansatz family (the posterior map), tracking only the
family parameters E.  In the limit dt -> 0 with alpha = lam^2 * dt held
fixed, the parameter trajectory follows

    dE_m/dt = lam <A_m> + (alpha / 2) (<B_m> - sum_j <A_j> d<A_m>/dE_j)

with A_m the Heisenberg image of P_m under the generator and B_m the
Heisenberg image of A_m.  The correction bracket vanishes whenever the span
of {I, P_1, ..., P_M} is invariant under the adjoint generator.

For a Gibbs family E = E(beta) is the mean-parameter side of an exponential
family, so the same flow is integrated in its natural coordinates,
dbeta/dt = J(beta)^-1 dE/dt with the response matrix J = dE/dbeta: every
quantity then comes from the Gibbs point at the integrated beta, and the
map E -> beta is solved only once, for the initial point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, isfinite

import numpy as np

from .ansatz import (
    AnsatzFamily,
    GibbsAnsatz,
    _as_params,
    _as_relevant,
    _GibbsPoint,
    _LinearAnsatz,
    _rotate,
    extract_params,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    SingularityError,
    ThermostrobeError,
    ValidationError,
)
from .liouville import GkslGenerator, Propagator, apply_heisenberg
from .matcore import frobenius

STEP_CAP_DEFAULT = 10_000_000
GRID_TOL = 1e-9
FD_STEP = 1e-5


@dataclass(frozen=True)
class StrobConfig:
    """Protocol scales: reset spacing dt, coupling lam, horizon, and the
    invariant combination alpha = lam^2 * dt kept fixed along refinements."""

    lam: float = 1.0
    dt: float = 0.1
    horizon: float = 1.0
    alpha: float | None = None
    ode_step: float | None = None

    def __post_init__(self) -> None:
        for name in ("lam", "dt", "horizon", "alpha", "ode_step"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not (self.dt > 0.0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.lam < 0.0:
            raise ValidationError(f"lam must be nonnegative, got {self.lam}")
        if self.horizon < 0.0:
            raise ValidationError(f"horizon must be nonnegative, got {self.horizon}")
        implied = self.lam**2 * self.dt
        if self.alpha is None:
            object.__setattr__(self, "alpha", implied)
        elif abs(self.alpha - implied) > 1e-12 * (1.0 + abs(self.alpha)):
            raise ValidationError(
                f"alpha {self.alpha} is inconsistent with lam^2 dt = {implied}"
            )
        if self.ode_step is None:
            target = min(self.dt / 10.0, 1e-2)
            steps = self.dt / target
            if not isfinite(steps):
                raise CapacityError(f"dt {self.dt} needs {steps} default ode steps per interval")
            object.__setattr__(self, "ode_step", self.dt / ceil(steps - GRID_TOL))
        elif not (0.0 < self.ode_step <= self.dt + GRID_TOL):
            raise ValidationError(
                f"ode_step {self.ode_step} must lie in (0, dt={self.dt}]"
            )

    def n_steps(self) -> int:
        steps = self.horizon / self.dt
        _check_cap(steps)
        n = round(steps)
        if abs(n * self.dt - self.horizon) > GRID_TOL * max(1.0, self.horizon):
            raise ValidationError(
                f"horizon {self.horizon} is not a whole number of dt={self.dt} intervals"
            )
        return int(n)


@dataclass(eq=False)
class Trajectory:
    """Sampled protocol run: times, parameter rows, optional temperature rows."""

    times: np.ndarray
    params: np.ndarray
    temps: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)


def _check_cap(steps: float) -> None:
    if not steps <= STEP_CAP_DEFAULT:
        raise CapacityError(f"run needs {steps:.6g} steps, above the cap {STEP_CAP_DEFAULT}")


def _walk(x0: np.ndarray, n: int, interval: float, advance, substeps: int = 1):
    """Times and rows of x0 advanced over n intervals, one advance call per interval.

    A ThermostrobeError raised while advancing gets the interval number and
    its start time; a run of more than STEP_CAP_DEFAULT steps in all is refused.
    """
    _check_cap(n * substeps)
    rows = [x0]
    for k in range(n):
        try:
            rows.append(advance(rows[-1]))
        except ThermostrobeError as err:
            err.args = (f"protocol step {k} (t = {k * interval:.9g}): {err.args[0] if err.args else err}",)
            raise
    return np.arange(n + 1) * interval, np.array(rows)


def run_discrete(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig,
                 with_temps: bool = False) -> Trajectory:
    """Iterate the discrete protocol for horizon / dt rounds: each round evolves
    the family state for lam * dt and re-extracts its parameters."""
    n = cfg.n_steps()
    propagator = Propagator.build(gen, cfg.lam * cfg.dt)
    limit = ContinuumLimit(gen, family, cfg)
    times, params = _walk(_as_params(E0, family.size), n, cfg.dt,
                          lambda E: extract_params(family, propagator.apply(limit.state(E))))
    temps = _temps_for(limit, params) if with_temps else None
    return Trajectory(times, params, temps, meta={"protocol": "discrete", "dt": cfg.dt, "lam": cfg.lam})


def _temps_for(limit: ContinuumLimit, params: np.ndarray) -> np.ndarray | None:
    """Gibbs exponents of a discrete run's rows: the fit the walk made for each
    row it advanced, plus one warm fit for the final row; None for other families."""
    if not limit._gibbs:
        return None
    limit._point(params[-1])
    return np.array(limit.fitted)


# ---------------------------------------------------------------------------
# Continuum limit


class ContinuumLimit:
    """The continuum limit of the measure-evolve protocol for one generator,
    family and config: the moments (<A>, <B>, W) at a point and the parameter
    velocity lam <A> + (alpha/2)(<B> - W <A>) built from them.

    <A_m> and <B_m> are the expectations of the Heisenberg images
    A_m = L*(P_m) and B_m = L*(A_m), built once, and W_mj = d<A_m>/dE_j is
    the velocity gradient along the family, always analytic; fd_gradient gives
    its central-difference counterpart as a check.  Gibbs fits are
    warm-started from the previous fit, and their exponents are kept in order
    in fitted.  At a Gibbs point the gradient is taken in beta,
    G = d<A>/dbeta, and W = G J^-1.  When the Gibbs observables commute every
    state is diagonal in their common eigenbasis U, so only the vectors
    diag(U^dag A_m U) and diag(U^dag B_m U) enter and no d x d matrix is formed.
    A linear family's state is R0 + sum_j E_j D_j, so the moments are affine
    in E: the images are paired with R0 and D once, and each point only checks
    feasibility and reads the table (W is its constant slope).
    """

    def __init__(self, gen: GkslGenerator, family: AnsatzFamily, cfg: StrobConfig):
        self.gen = gen
        self.family = family
        self.cfg = cfg
        self._gibbs = isinstance(family, GibbsAnsatz)
        self._linear = isinstance(family, _LinearAnsatz)
        self.fitted: list[np.ndarray] = []

    @cached_property
    def _images(self) -> np.ndarray:
        """Stack (A_1..A_M, B_1..B_M), as diagonals in the common eigenbasis when there is one."""
        A = [apply_heisenberg(self.gen, P) for P in self.family.relevant.observables]
        images = np.array(A + [apply_heisenberg(self.gen, Am) for Am in A])
        basis = self.family.relevant.spectral_basis if self._gibbs else None
        return images if basis is None else _rotate(basis[0], images, diagonal=True)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Offset and slope of the affine moments (<A>, <B>) = offset + slope @ E of a linear family."""
        R0, D = self.family.affine_parts
        T = np.einsum("kab,jab->kj", self._images.conj(), np.concatenate([R0[None], D])).real
        return T[:, 0].copy(), T[:, 1:].copy()

    def _point(self, E: np.ndarray) -> _GibbsPoint:
        """The Gibbs point fitted to E, warm-started from the previous fit."""
        point = self.family.point_of(E, beta_init=self.fitted[-1] if self.fitted else None)
        self.fitted.append(point.beta)
        return point

    def state(self, E: np.ndarray) -> np.ndarray:
        return self._point(E).state() if self._gibbs else self.family.state_of(E)

    def moments(self, E, gradient: bool = True):
        """(<A>, <B>, W) at parameters E; W is None without gradient."""
        E = _as_params(E, self.family.size)
        M = self.family.size
        if self._gibbs:
            point = self._point(E)
            a, b, G = self.gibbs_moments(point, gradient)
            return a, b, G @ point.response_inverse() if gradient else None
        if self._linear:
            self.family.feasible_block(E)
            offset, slope = self._table
            ab = offset + slope @ E
            return ab[:M], ab[M:], slope[:M] if gradient else None
        ab = np.einsum("mab,ab->m", self._images.conj(), self.family.state_of(E)).real
        W = np.einsum("mab,jab->mj", self._images[:M].conj(),
                      self.family.derivative_of(E)).real if gradient else None
        return ab[:M], ab[M:], W

    def gibbs_moments(self, point: _GibbsPoint, gradient: bool = True):
        """(<A>, <B>, G) at a Gibbs point, G_mn = d<A_m>/dbeta_n; G is None without gradient."""
        M = self.family.size
        X = self._images if point.diagonal else _rotate(point.U, self._images, diagonal=False)
        ab = point.expect(X)
        return ab[:M], ab[M:], point.expect_derivative(X[:M]) if gradient else None

    def fd_gradient(self, E) -> np.ndarray:
        """Central differences of <A> with step FD_STEP, a check on the analytic W of
        moments: along beta and mapped back by J^-1 for a Gibbs family, of the affine
        table for a linear family (so only E itself must be feasible), else of moments."""
        E = _as_params(E, self.family.size)
        M = self.family.size
        if self._gibbs:
            point = self._point(E)
            relevant = self.family.relevant
            G = _central_difference(
                lambda beta: self.gibbs_moments(_GibbsPoint(relevant, beta), False)[0], point.beta)
            return G @ point.response_inverse()
        if self._linear:
            self.family.feasible_block(E)
            offset, slope = self._table
            return _central_difference(lambda x: offset[:M] + slope[:M] @ x, E)
        return _central_difference(lambda x: self.moments(x, False)[0], E)

    def velocity(self, E, order: int) -> np.ndarray:
        """dE/dt at E: lam <A> for order 1, with the finite-reset correction for order 2."""
        a, b, W = self.moments(E, gradient=order == 2)
        return self.cfg.lam * a if order == 1 else _second_order(self.cfg, a, b, W)

    def beta_velocity(self, point: _GibbsPoint, order: int) -> np.ndarray:
        """dbeta/dt = J^-1 dE/dt at a Gibbs point, with one J^-1 shared by dbeta and W = G J^-1."""
        a, b, G = self.gibbs_moments(point, order == 2)
        J_inv = point.response_inverse()
        dE = self.cfg.lam * a if order == 1 else _second_order(self.cfg, a, b, G @ J_inv)
        return J_inv @ dE


def _central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Matrix whose column j is (f(x + h e_j) - f(x - h e_j)) / 2h."""
    return np.array([(f(x + bump) - f(x - bump)) / (2.0 * h) for bump in h * np.eye(len(x))]).T


def _second_order(cfg: StrobConfig, a: np.ndarray, b: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Parameter velocity with the finite-reset correction, lam <A> + (alpha/2)(<B> - W <A>)."""
    return cfg.lam * a + 0.5 * cfg.alpha * (b - W @ a)


def _require_canonical(family: AnsatzFamily, what: str) -> None:
    if not isinstance(family, GibbsAnsatz) or family.size != 1:
        raise ContractError(f"{what} needs a canonical (single-observable) Gibbs family")


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
    point = _GibbsPoint(family.relevant, np.array([beta]))
    C = -(beta**2) * point.jacobian[0, 0]
    if C < 1e-15 * (1.0 + beta * beta):
        raise SingularityError(f"heat capacity {C:.3e} at beta = {beta:.6g} is too small to invert")
    return float(ContinuumLimit(gen, family, cfg).beta_velocity(point, 2)[0])


# ---------------------------------------------------------------------------
# Fixed-step integration


def rk4_step(rhs, x: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs, x0, cfg: StrobConfig) -> Trajectory:
    """Classic fourth-order Runge-Kutta over cfg.horizon, sampled on the dt
    grid with dt / ode_step steps per interval; rhs maps an array to an array."""
    n_sub = max(1, round(cfg.dt / cfg.ode_step))
    h = cfg.dt / n_sub

    def advance(x: np.ndarray) -> np.ndarray:
        for _ in range(n_sub):
            x = rk4_step(rhs, x, h)
        return x

    times, rows = _walk(np.atleast_1d(np.asarray(x0, dtype=float)), cfg.n_steps(), cfg.dt, advance, n_sub)
    return Trajectory(times, rows, meta={"ode_step": h, "substeps": n_sub})


def _gibbs_walk(limit: ContinuumLimit, beta0: np.ndarray, order: int) -> Trajectory:
    """dbeta/dt = J^-1 dE/dt integrated from beta0: E rows as params, beta rows as temps."""
    relevant = limit.family.relevant
    traj = integrate(lambda beta: limit.beta_velocity(_GibbsPoint(relevant, beta), order), beta0, limit.cfg)
    traj.temps = traj.params
    traj.params = np.array([_GibbsPoint(relevant, beta).E for beta in traj.temps])
    return traj


def run_ode(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig, order: int = 2,
            with_temps: bool = False) -> Trajectory:
    """Integrate the continuum-limit parameter velocity, sampled on the dt grid.

    A Gibbs family is integrated in beta from the one fit of E0 (the first
    row stays E0, the others are E(beta)); other families are integrated in E."""
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order}")
    limit = ContinuumLimit(gen, family, cfg)
    E0 = _as_params(E0, family.size)
    if limit._gibbs:
        traj = _gibbs_walk(limit, limit._point(E0).beta, order)
        traj.params[0] = E0
        if not with_temps:
            traj.temps = None
    else:
        traj = integrate(lambda E: limit.velocity(E, order), E0, cfg)
    traj.meta = {"protocol": f"ode{order}", **traj.meta}
    return traj


def run_ode_temperature(gen: GkslGenerator, family: GibbsAnsatz, beta0: float,
                        cfg: StrobConfig) -> Trajectory:
    """Integrate the second-order velocity in beta for a canonical Gibbs family,
    from a given inverse temperature: run_ode's Gibbs route without the fit."""
    _require_canonical(family, "the temperature velocity")
    limit = ContinuumLimit(gen, family, cfg)
    traj = _gibbs_walk(limit, np.array([float(beta0)]), 2)
    traj.meta = {"protocol": "ode-temperature", **traj.meta}
    return traj


# ---------------------------------------------------------------------------
# Invariant-subspace diagnostics


@dataclass(eq=False)
class InvarianceResult:
    """Least-squares closure of the adjoint generator on span{I, P_1..P_M}."""

    matrix: np.ndarray
    residual: float
    invariant: bool
    tolerance: float


def invariant_subspace_matrix(gen: GkslGenerator, observables, tol: float = 1e-10) -> InvarianceResult:
    """Fit L*(S_i) = sum_j L_ij S_j over the affine basis S = (I, P_1, ..., P_M).

    The returned matrix includes the identity row (exactly zero, since the
    adjoint of a trace-preserving generator kills I).  When the residual is
    below tol the correction bracket of the second-order velocity vanishes
    identically on the family.
    """
    relevant = _as_relevant(observables)
    basis, G = relevant.affine_basis, relevant.gram
    n = len(basis)
    L = np.zeros((n, n))
    residual_sq = 0.0
    for i, S in enumerate(basis):
        target = apply_heisenberg(gen, S)
        y = np.array([frobenius(Bk, target).real for Bk in basis])
        c = np.linalg.solve(G, y)
        L[i] = c
        fit = sum(ck * Bk for ck, Bk in zip(c, basis))
        residual_sq += float(np.sum(np.abs(target - fit) ** 2))
    residual = float(np.sqrt(residual_sq))
    return InvarianceResult(L, residual, residual <= tol, tol)


def projector_ode_rhs(gen: GkslGenerator, family: AnsatzFamily, rho, cfg: StrobConfig) -> np.ndarray:
    """State-space form of the continuum limit for linear families,
    lam P L P rho + (alpha/2) (P L L P rho - P L P L P rho)."""
    project = getattr(family, "project", None)
    if not family.is_linear or project is None:
        raise ContractError("the state-space velocity is defined for linear families only")
    from .liouville import apply_schrodinger

    Pr = project(rho)
    seed = apply_schrodinger(gen, Pr)
    first = project(seed)
    second = project(apply_schrodinger(gen, seed))
    nested = project(apply_schrodinger(gen, first))
    return cfg.lam * first + 0.5 * cfg.alpha * (second - nested)
