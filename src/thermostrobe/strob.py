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
    JACOBIAN_RCOND,
    _as_params,
    _as_relevant,
    _GibbsPoint,
    _LinearAnsatz,
    _real_parts,
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
from .matcore import frobenius, require_finite

STEP_CAP_DEFAULT = 10_000_000
GRID_TOL = 1e-9  # grid mismatch allowed, as a fraction of the step count (at least 1 step)
FD_STEP = 1e-5
CHECK_BATCH = 256  # points (rows or RK4 stage points) one batched feasibility check covers


@dataclass(frozen=True)
class StrobConfig:
    """Protocol scales: reset spacing dt, coupling lam, horizon, and the
    invariant combination alpha = lam^2 * dt kept fixed along refinements."""

    lam: float = 1.0
    dt: float = 0.1
    horizon: float = 1.0
    ode_step: float | None = None
    alpha: float = field(init=False)
    substeps: int = field(init=False)  # RK4 steps per dt interval

    def __post_init__(self) -> None:
        for name in ("lam", "dt", "horizon", "ode_step"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not (self.dt > 0.0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.lam < 0.0:
            raise ValidationError(f"lam must be nonnegative, got {self.lam}")
        if self.horizon < 0.0:
            raise ValidationError(f"horizon must be nonnegative, got {self.horizon}")
        try:
            alpha = self.lam**2 * self.dt
        except OverflowError:  # lam**2 beyond the float range
            alpha = float("inf")
        if not isfinite(alpha):
            raise ValidationError(f"lam^2 dt overflows for lam={self.lam}, dt={self.dt}")
        object.__setattr__(self, "alpha", alpha)
        if self.ode_step is None:
            target = min(self.dt / 10.0, 1e-2)
            steps = self.dt / target
            if not isfinite(steps):
                raise CapacityError(f"dt {self.dt} needs {steps} default ode steps per interval")
            object.__setattr__(self, "ode_step", self.dt / ceil(steps - GRID_TOL))
        elif not (0.0 < self.ode_step <= self.dt * (1.0 + GRID_TOL)):
            raise ValidationError(
                f"ode_step {self.ode_step} must lie in (0, dt={self.dt}]"
            )
        else:
            steps = self.dt / self.ode_step
            if not isfinite(steps):
                raise CapacityError(f"ode_step {self.ode_step} needs {steps} steps per dt={self.dt}")
            if not _whole(steps):
                raise ValidationError(f"ode_step {self.ode_step} does not divide dt={self.dt}")
        object.__setattr__(self, "substeps", round(self.dt / self.ode_step))

    def n_steps(self) -> int:
        steps = self.horizon / self.dt
        _check_cap(steps)
        if not _whole(steps):
            raise ValidationError(
                f"horizon {self.horizon} is not a whole number of dt={self.dt} intervals"
            )
        return round(steps)


def _whole(steps: float) -> bool:
    """Whether span / step is whole, its mismatch counted in steps, not in time."""
    return abs(steps - round(steps)) <= GRID_TOL * max(1.0, steps)


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


def _walk(x0: np.ndarray, n: int, interval: float, advance, substeps: int = 1, first: int = 0):
    """Times and rows of x0 advanced over n intervals, numbered from first, one advance
    call each, run as its protocol step (_as_step); a run of more than STEP_CAP_DEFAULT
    steps in all is refused.
    """
    _check_cap(n * substeps)
    rows = [x0]
    for k in range(first, first + n):
        rows.append(_as_step(k, interval, advance, rows[-1]))
    return np.arange(first, first + n + 1) * interval, np.array(rows)


def _as_step(k: int, interval: float, fn, *args):
    """fn(*args) run as protocol step k: a ThermostrobeError or an ArithmeticError
    (numpy's FloatingPointError under np.errstate, a Python float overflow) it raises
    gets the step and its start time put before its message.  Every start check (the
    Gibbs fit of E0, a zero-step run's check of E0) runs as step 0, as a walk's would."""
    try:
        return fn(*args)
    except (ThermostrobeError, ArithmeticError) as err:
        err.args = (f"protocol step {k} (t = {k * interval:.9g}): {err}",)
        raise


def _affine_walk(family: _LinearAnsatz, x0: np.ndarray, n: int, interval: float, segments,
                 pairings: np.ndarray | None = None) -> np.ndarray:
    """Rows x_0..x_n of an affine recursion on x = (E, 1), checked as a run of protocol steps.

    segments() gives the segments (R, S) of one interval: a segment from y has the
    check points S @ y, which must be feasible, and ends at R @ y.  With complex
    pairings, the imaginary parts of pairings @ y at every segment start must stay
    within IMAG_TOL, as in extract_params.  A non-finite x0 is refused as step 0, before
    a product can meet inf * 0.  Chunks of at most CHECK_BATCH points are
    advanced, then checked at once, their points in one feasible_block call, where an
    eigensolve runs only for the points a Gershgorin bound cannot clear.  A chunk
    that fails, in its check or in its recursion, is walked again by _walk from the row
    of its first step, each segment checked before it advances, so the first failure
    raises with its protocol step; if that walk passes, the chunk's own error raises.
    """
    def check(starts: list, points: list) -> None:
        family.feasible_block(np.concatenate(points))
        if pairings is not None:
            _real_parts(np.array(starts) @ pairings.T)

    def advance(y: np.ndarray) -> np.ndarray:
        for R, S in segments():
            check([y], [S @ y])
            y = R @ y
        return y

    _as_step(0, interval, require_finite, x0, family._domain, DomainError)
    rows = np.empty((n + 1, len(x0)))
    rows[0] = y = x0
    starts, points = [], []  # segment starts and check points of the chunk, not yet checked
    first = size = 0  # the chunk's first step and its number of points
    try:
        for k in range(n):
            for R, S in segments():
                if size + len(S) > CHECK_BATCH:
                    check(starts, points)
                    first, size, starts, points = k, 0, [], []
                starts.append(y)
                points.append(S @ y)
                y = R @ y
                size += len(S)
            rows[k + 1] = y
        if points:
            check(starts, points)
    except (ThermostrobeError, ArithmeticError):
        _walk(rows[first], k + 1 - first, interval, advance, first=first)
        raise
    return rows


def run_discrete(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig,
                 with_temps: bool = False) -> Trajectory:
    """Iterate the discrete protocol for horizon / dt rounds in the Heisenberg picture:
    a round maps E_k to E_{k+1,m} = Tr(Phi*(P_m) rho(E_k)), Phi = exp(lam dt L).

    The images Phi*(P_m) are built once and read as ContinuumLimit reads [A; B]:
    a linear family runs the affine recursion of its table, whose round k checks E_k
    (_affine_walk), and every other family one ContinuumLimit.read per round.
    """
    n = cfg.n_steps()
    E0 = _as_params(E0, family.size)
    if n == 0:
        _as_step(0, cfg.dt, family.state_of, E0)
    images = Propagator.build(gen, cfg.lam * cfg.dt).adjoint(family.relevant.stack)
    limit = ContinuumLimit(gen, family, cfg, images)
    M = family.size
    if limit._linear:
        columns = limit._columns
        step = np.vstack([columns.real, np.eye(M + 1)[M]])
        own_row = np.eye(M + 1)[None, :M]  # round k checks E_k itself
        rows = _affine_walk(family, np.append(E0, 1.0), n, cfg.dt, lambda: ((step, own_row),), columns)
        times, params = np.arange(n + 1) * cfg.dt, rows[:, :M]
    else:
        times, params = _walk(E0, n, cfg.dt, lambda E: limit.read(E)[0])
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
    velocity lam <A> + (alpha/2)(<B> - W <A>) built from them, all through read,
    which branches on the family kind once.  Given another image stack
    (run_discrete's Phi*(P)), read reads that.

    <A_m> and <B_m> are the expectations of the Heisenberg images
    A_m = L*(P_m) and B_m = L*(A_m), built once, and W_mj = d<A_m>/dE_j is
    the velocity gradient along the family, always analytic; fd_gradient gives
    its central-difference counterpart as a check.  Gibbs fits are
    warm-started from the previous fit, their exponents kept in order in
    fitted, and a fit builds its points on [P; images] (_point_stack), so the
    point it accepts is the one read.  A gibbs_point evaluates [P; A; B], and one
    contraction of its [P; A] rows gives J and the gradient in beta,
    G = d<A>/dbeta, so W = G J^-1; when the Gibbs observables commute the
    stack is a table of diagonals built once, and no d x d matrix is formed.
    A linear family's state is R0 + sum_j E_j D_j, so the moments are affine
    in E: the images are paired with D and R0 once (_columns), and each point
    only checks feasibility and reads the table (W is its constant slope).
    """

    def __init__(self, gen: GkslGenerator, family: AnsatzFamily, cfg: StrobConfig,
                 images: np.ndarray | None = None):
        self.gen = gen
        self.family = family
        self.cfg = cfg
        self._gibbs = isinstance(family, GibbsAnsatz)
        self._linear = isinstance(family, _LinearAnsatz)
        self.fitted: list[np.ndarray] = []
        if images is not None:
            self._images = images

    @cached_property
    def _images(self) -> np.ndarray:
        """Stack (A_1..A_M, B_1..B_M) of the Heisenberg images."""
        A = [apply_heisenberg(self.gen, P) for P in self.family.relevant.observables]
        return np.array(A + [apply_heisenberg(self.gen, Am) for Am in A])

    @cached_property
    def _point_stack(self) -> np.ndarray:
        """[P; A; B] as a Gibbs point evaluates it (RelevantSet.point_stack)."""
        return self.family.relevant.point_stack(self._images)

    def gibbs_point(self, beta: np.ndarray) -> _GibbsPoint:
        """The Gibbs point at beta, evaluating the images with the observables."""
        return _GibbsPoint(self.family.relevant, beta, self._point_stack)

    @cached_property
    def _columns(self) -> np.ndarray:
        """Pairings Tr(X^dag S) of each image X with S = D_1..D_M, R0 of a linear family,
        complex: the moments of x = (E, 1) are the real part of _columns @ x."""
        R0, D = self.family.affine_parts
        return np.einsum("kab,jab->kj", self._images.conj(), np.concatenate([D, R0[None]]))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Offset and slope of the affine moments (<A>, <B>) = offset + slope @ E of a linear family."""
        T = self._columns.real
        return T[:, -1].copy(), T[:, :-1].copy()

    def _point(self, E: np.ndarray) -> _GibbsPoint:
        """The Gibbs point fitted to E, warm-started from the previous fit, reading the images."""
        point = self.family.point_of(E, self.fitted[-1] if self.fitted else None, self._point_stack)
        self.fitted.append(point.beta)
        return point

    def read(self, E, gradient: bool = False):
        """(Tr(X_k rho(E)) for every image X_k, W_mj = d Tr(X_m rho(E)) / dE_j for the first
        M or None): from the Gibbs point fitted to E (W = G J^-1, G from J's contraction),
        the linear table once E is checked, or the selective state_of and derivative_of."""
        E = _as_params(E, self.family.size)
        M = self.family.size
        if self._gibbs:
            point = self._point(E)
            W = point.slopes(2 * M)[M:] @ point.response_inverse() if gradient else None
            return point.means[M:], W
        if self._linear:
            self.family.feasible_block(E)
            offset, slope = self._table
            return offset + slope @ E, slope[:M] if gradient else None
        x = _real_parts(np.einsum("mab,ab->m", self._images.conj(), self.family.state_of(E)))
        W = np.einsum("mab,jab->mj", self._images[:M].conj(),
                      self.family.derivative_of(E)).real if gradient else None
        return x, W

    def moments(self, E, gradient: bool = True):
        """(<A>, <B>, W) at parameters E, read from [A; B]; W is None without gradient."""
        x, W = self.read(E, gradient)
        return (*np.split(x, 2), W)

    def fd_gradient(self, E) -> np.ndarray:
        """Central differences of <A> with step FD_STEP, a check on the analytic W of
        moments: along beta and mapped back by J^-1 for a Gibbs family, of the affine
        table for a linear family (so only E itself must be feasible), else of moments."""
        E = _as_params(E, self.family.size)
        M = self.family.size
        if self._gibbs:
            point = self._point(E)
            G = _central_difference(lambda beta: self.gibbs_point(beta).means[M:2 * M], point.beta)
            return G @ point.response_inverse()
        if self._linear:
            self.family.feasible_block(E)
            offset, slope = self._table
            return _central_difference(lambda x: offset[:M] + slope[:M] @ x, E)
        return _central_difference(lambda x: self.moments(x, False)[0], E)

    def velocity(self, E, order: int) -> np.ndarray:
        """dE/dt at E: lam <A> for order 1, with the finite-reset correction for order 2."""
        a, b, W = self.moments(E, gradient=order == 2)
        return _velocity(self.cfg, order, a, b, W @ a if order == 2 else None)

    def beta_velocity(self, point: _GibbsPoint, order: int) -> np.ndarray:
        """dbeta/dt = J^-1 dE/dt at a gibbs_point, with one J^-1 shared by dbeta and W = G J^-1
        (G is contracted first, so J is read from the same contraction).  This per-point numpy
        form is the reference: a canonical walk reads the same numbers as Python floats
        (_canonical_beta_velocity) and comes back here for any row it cannot clear."""
        M = len(point.E)
        a = point.means[M:2 * M]
        G = point.slopes(2 * M)[M:] if order == 2 else None
        J_inv = point.response_inverse()
        Wa = G @ J_inv @ a if order == 2 else None
        return J_inv @ _velocity(self.cfg, order, a, point.means[2 * M:], Wa)


def _central_difference(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Matrix whose column j is (f(x + h e_j) - f(x - h e_j)) / 2h."""
    return np.array([(f(x + bump) - f(x - bump)) / (2.0 * h) for bump in h * np.eye(len(x))]).T


def _velocity(cfg: StrobConfig, order: int, a, b, Wa):
    """lam <A>, with the finite-reset correction (alpha/2)(<B> - W <A>) for order 2, given the
    product Wa = W <A> (None at order 1): on numpy arrays, or on the Python floats of one
    canonical row, whose every operation is the IEEE operation the 1 x 1 arrays would make."""
    return cfg.lam * a if order == 1 else cfg.lam * a + 0.5 * cfg.alpha * (b - Wa)


def _canonical_beta_velocity(cfg: StrobConfig, point: _GibbsPoint, orders: list[int]) -> np.ndarray | None:
    """beta_velocity of a canonical (M = 1) gibbs_point, lone (1,) or stacked (n, 1) with row i
    at orders[i], in Python floats: J, G, <A> and <B> are read with one tolist() per array,
    and J^-1 = 1/J, W <A> and dbeta = J^-1 dE/dt are formed as beta_velocity forms them.

    A 1 x 1 product in numpy is one IEEE operation, and a matmul adds it to 0, so each
    float operation below (0.0 + x for a matmul) gives beta_velocity's bits.  That holds for
    M = 1 only: a longer matmul sums its products in an order, or fused, as BLAS chooses.
    None when a row fails the JACOBIAN_RCOND check or its dbeta is not finite, so that the
    caller evaluates the RHS through beta_velocity, which raises or warns as it does."""
    slopes, means = point.slopes(max(orders)).tolist(), point.means.tolist()
    if point.beta.ndim == 1:
        slopes, means = [slopes], [means]
    dbeta = []
    for ((J,), *G), (_, a, b), order in zip(slopes, means, orders):
        J = 0.5 * (J + J)  # the jacobian, symmetrized
        if not abs(J) > JACOBIAN_RCOND * abs(J):
            return None
        J_inv = 1.0 / J
        Wa = 0.0 + (0.0 + G[0][0] * J_inv) * a if order == 2 else None
        row = 0.0 + J_inv * _velocity(cfg, order, a, b, Wa)
        if not isfinite(row):
            return None
        dbeta.append(row)
    return np.array(dbeta).reshape(point.beta.shape)


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
    limit = ContinuumLimit(gen, family, cfg)
    point = limit.gibbs_point(np.array([beta]))
    C = -(beta**2) * point.jacobian[0, 0]
    if C < 1e-15 * (1.0 + beta * beta):
        raise SingularityError(f"heat capacity {C:.3e} at beta = {beta:.6g} is too small to invert")
    return float(limit.beta_velocity(point, 2)[0])


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
    grid with dt / ode_step steps per interval; rhs maps an array to an array
    of its shape, so x0 may be one state (M,) or a stack of them (n, M), whose
    rows every stage advances together; the rows come back as (T, n, M)."""
    n_sub, h = cfg.substeps, cfg.dt / cfg.substeps

    def advance(x: np.ndarray) -> np.ndarray:
        for _ in range(n_sub):
            x = rk4_step(rhs, x, h)
        return x

    times, rows = _walk(np.atleast_1d(np.asarray(x0, dtype=float)), cfg.n_steps(), cfg.dt, advance, n_sub)
    return Trajectory(times, rows, meta={"ode_step": h, "substeps": n_sub})


def _rk4_walk(limit: ContinuumLimit, E0: np.ndarray, order: int) -> Trajectory:
    """integrate's RK4 for a linear family, whose velocity is affine: on x = (E, 1)
    it is x -> aug x with aug = [[K, c], [0, 0]], so every RK4 stage is a fixed matrix.

    A step from x evaluates the velocity at the stage points P_k x, with P1 = I,
    P2 = I + (h/2) aug, P3 = I + (h/2) aug P2, P4 = I + h aug P3, and lands on R x,
    R = I + (h/6) aug (P1 + 2 P2 + 2 P3 + P4): rk4_step on the identity gives R, its RHS
    recording each stage map P_k.  An interval is _affine_walk segments of at most
    CHECK_BATCH / 4 steps: one of s steps from y has the stage points P_k R^j y (j < s),
    whose first infeasible one raises state_of's DomainError, and ends at R^s y.
    """
    cfg = limit.cfg
    n, n_sub, h = cfg.n_steps(), cfg.substeps, cfg.dt / cfg.substeps
    _check_cap(n * n_sub)
    M = len(E0)
    a, b = np.split(limit._columns.real, 2)  # moments (<A>, <B>) of x = (E, 1)
    aug = np.vstack([_velocity(cfg, order, a, b, a[:, :M] @ a), np.zeros(M + 1)])
    maps = []  # the stage maps P_1..P_4, as rk4_step evaluates the velocity at them

    def stage(X: np.ndarray) -> np.ndarray:
        maps.append(X)
        return aug @ X

    eye = np.eye(M + 1)
    step = rk4_step(stage, eye, h)
    batch = min(n_sub, CHECK_BATCH // 4)
    powers = [eye]
    for _ in range(batch):
        powers.append(step @ powers[-1])
    stages = np.array([P @ Rs for Rs in powers[:batch] for P in maps])[:, :M]

    def segments():
        for start in range(0, n_sub, batch):
            count = min(batch, n_sub - start)
            yield powers[count], stages[:4 * count]

    rows = _affine_walk(limit.family, np.append(E0, 1.0), n, cfg.dt, segments)
    return Trajectory(np.arange(n + 1) * cfg.dt, rows[:, :M], meta={"ode_step": h, "substeps": n_sub})


def _gibbs_walk(limit: ContinuumLimit, beta0: np.ndarray, orders: list[int]) -> Trajectory:
    """dbeta/dt = J^-1 dE/dt integrated from beta0 at orders[0], or from every row of a stack
    beta0 (n, M) at its order, the rows advanced together: each RHS is one gibbs_point and
    the velocity of each of its rows().  For a canonical family (M = 1) that velocity is formed
    in Python floats from the point's arrays (_canonical_beta_velocity), with the bits of the
    numpy beta_velocity, which still takes any RHS with a row the floats cannot clear; for
    M >= 2 a float form would not sum as BLAS does, so each row is read through numpy.  The
    beta rows are the temps; the params, their E, come from one point of all the rows, and if
    that raises, each row is read alone as the protocol step that made it (step 0 for the
    start), so the first failure names its step."""
    cfg, relevant = limit.cfg, limit.family.relevant
    width = relevant.size * max(orders)  # the slope rows read: [P] at order 1, [P; A] at order 2

    def rhs(beta: np.ndarray) -> np.ndarray:
        point = limit.gibbs_point(beta)
        point.slopes(width)  # every row's slopes in one contraction
        if relevant.size == 1:
            dbeta = _canonical_beta_velocity(cfg, point, orders)
            if dbeta is not None:
                return dbeta
        if beta.ndim == 1:  # a lone trajectory: ~11 % less per M = 2 RHS than as a one-row stack
            return limit.beta_velocity(point, orders[0])
        return np.array([limit.beta_velocity(row, order) for row, order in zip(point.rows(), orders)])

    traj = integrate(rhs, beta0, cfg)
    traj.temps = traj.params
    try:
        traj.params = _GibbsPoint(relevant, traj.temps).E
    except (ThermostrobeError, ArithmeticError):
        for j, beta in enumerate(traj.temps):
            _as_step(max(j - 1, 0), cfg.dt, _GibbsPoint, relevant, beta)
        raise
    return traj


def _e_walk(limit: ContinuumLimit, E0: np.ndarray, order: int) -> Trajectory:
    """A run of a family other than Gibbs: the exact RK4 maps of a linear family's affine
    velocity (_rk4_walk), else RK4 in E; a zero-step run checks E0 as step 0."""
    if limit.cfg.n_steps() == 0:
        _as_step(0, limit.cfg.dt, limit.family.state_of, E0)
    if limit._linear:
        return _rk4_walk(limit, E0, order)
    return integrate(lambda E: limit.velocity(E, order), E0, limit.cfg)


ODE_ORDERS = {"ode1": 1, "ode2": 2, "ode-temperature": 2}  # continuum-limit protocols and their orders


def run_odes(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig, protocols: list[str],
             beta0=None, with_temps: bool = False) -> list[Trajectory]:
    """The trajectories of the continuum-limit protocols named in protocols (ODE_ORDERS), on
    one grid; the first error any of them meets is raised.

    A Gibbs family is integrated in beta, every protocol as one row of one walk
    (_gibbs_walk): ode1 and ode2 from the one fit of E0, run as protocol step 0 (their
    first row stays E0, the others are E(beta), and the beta rows are temps only with
    with_temps), ode-temperature, the second order for a canonical family, from beta0, or
    from that fit when beta0 is None.  Any other family runs each protocol alone (_e_walk)."""
    orders = [ODE_ORDERS.get(proto) for proto in protocols]
    if None in orders:
        raise ValidationError(f"{protocols[orders.index(None)]!r} is not a continuum-limit protocol; "
                              f"choose from {tuple(ODE_ORDERS)}")
    if "ode-temperature" in protocols:
        _require_canonical(family, "the temperature velocity")
    limit = ContinuumLimit(gen, family, cfg)
    E0 = None if E0 is None else _as_params(E0, family.size)
    if not limit._gibbs:
        trajs = [_e_walk(limit, E0, order) for order in orders]
    else:
        fits = [proto != "ode-temperature" or beta0 is None for proto in protocols]
        beta = _as_step(0, cfg.dt, limit._point, E0).beta if any(fits) else None
        starts = [beta if fit else _as_params(beta0, 1) for fit in fits]
        if len(starts) < 2:  # a lone trajectory walks its own vector
            trajs = [_gibbs_walk(limit, start, orders) for start in starts]
        else:
            walk = _gibbs_walk(limit, np.array(starts), orders)
            trajs = [Trajectory(walk.times, walk.params[:, i].copy(), walk.temps[:, i].copy(),
                                dict(walk.meta)) for i in range(len(starts))]
        for traj, fit in zip(trajs, fits):
            if fit:
                traj.params[0] = E0
                if not with_temps:
                    traj.temps = None
    for proto, traj in zip(protocols, trajs):
        traj.meta = {"protocol": proto, **traj.meta}
    return trajs


def run_ode(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig, order: int = 2,
            with_temps: bool = False) -> Trajectory:
    """Integrate the continuum-limit parameter velocity, sampled on the dt grid: run_odes
    for the one protocol ode1 or ode2."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order not in (1, 2):
        raise ValidationError(f"order must be the integer 1 or 2, got {order!r}")
    return run_odes(gen, family, E0, cfg, [f"ode{order}"], with_temps=with_temps)[0]


def run_ode_temperature(gen: GkslGenerator, family: GibbsAnsatz, beta0: float,
                        cfg: StrobConfig) -> Trajectory:
    """Integrate the second-order velocity in beta for a canonical Gibbs family, from a
    given inverse temperature (None is refused): run_odes for the one protocol ode-temperature."""
    return run_odes(gen, family, None, cfg, ["ode-temperature"], _as_params(beta0, 1))[0]


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
