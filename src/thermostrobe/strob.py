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
from math import ceil, gcd, inf, isfinite

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
    response_inverse,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    ThermostrobeError,
    ValidationError,
)
from .liouville import GkslGenerator, Propagator, apply_heisenberg
from .matcore import frobenius, require_finite

STEP_CAP_DEFAULT = 10_000_000
GRID_TOL = 1e-9  # grid mismatch allowed, as a fraction of the step count (at least 1 step)
FD_STEP = 1e-5
CHECK_BATCH = 256  # points (rows or RK4 stage points) one batched feasibility check covers
INVARIANCE_TOL = 1e-10  # closure residual below which the span is called invariant


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
            if value is None and name == "ode_step":
                continue
            try:
                require_finite(value, name)
            except ValidationError:  # NaN, inf, text or None
                raise ValidationError(f"{name} must be finite, got {value}") from None
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


def _walk(x0: np.ndarray, n: int, interval: float, advance, first: int = 0):
    """Times and rows of x0 advanced over n intervals, numbered from first, one advance
    call each, run as its protocol step (_as_step); a run of more than STEP_CAP_DEFAULT
    steps is refused.
    """
    _check_cap(n)
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
    def _canonical_table(self) -> tuple | None:
        """What _canonical_kernel reads of a one-observable table [w; a; b] (_point_stack):
        w as Python floats, the table, its row w, and its rows [w; a] as the slope blocks;
        None when the observable has no spectral table."""
        if self.family.relevant.spectral_basis is None:
            return None
        X = self._point_stack
        return X[0].tolist(), X, X[:1], X[:2].reshape(-1, 1, X.shape[-1])

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
            W = point.slopes(2 * M)[M:] @ response_inverse(point.jacobian, point.beta) if gradient else None
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
            return G @ response_inverse(point.jacobian, point.beta)
        if self._linear:
            self.family.feasible_block(E)
            offset, slope = self._table
            return _central_difference(lambda x: offset[:M] + slope[:M] @ x, E)
        return _central_difference(lambda x: self.moments(x, False)[0], E)

    def velocity(self, E, order: int) -> np.ndarray:
        """dE/dt at E: lam <A> for order 1, with the finite-reset correction for order 2."""
        a, b, W = self.moments(E, gradient=order == 2)
        return _velocity(self.cfg, order, a, b, W @ a if order == 2 else None)


def _central_difference(f, x: np.ndarray) -> np.ndarray:
    """Matrix whose column j is (f(x + h e_j) - f(x - h e_j)) / 2h, h = FD_STEP."""
    h = FD_STEP
    return np.array([(f(x + bump) - f(x - bump)) / (2.0 * h) for bump in h * np.eye(len(x))]).T


def _velocity(cfg: StrobConfig, order: int, a, b, Wa):
    """lam <A>, with the finite-reset correction (alpha/2)(<B> - W <A>) for order 2, given the
    product Wa = W <A> (None at order 1): on numpy arrays, or on the Python floats of one
    canonical row, whose every operation is the IEEE operation the 1 x 1 arrays would make."""
    return cfg.lam * a if order == 1 else cfg.lam * a + 0.5 * cfg.alpha * (b - Wa)


def beta_velocity(cfg: StrobConfig, order: int, beta: np.ndarray, means: np.ndarray, J: np.ndarray,
                  G: np.ndarray) -> np.ndarray:
    """dbeta/dt = J^-1 dE/dt of one gibbs_point row at the scales of cfg, from its exponents beta
    (M,), means of [P; A; B] (3M,), jacobian J (M, M) and, read at order 2, slopes G = d<A>/dbeta
    (M, M), one J^-1 serving dbeta and W = G J^-1.  The numpy reference: a canonical walk forms
    the same bits in one kernel (_canonical_kernel) and comes back here for a row it cannot clear."""
    M = len(beta)
    a = means[M:2 * M]
    J_inv = response_inverse(J, beta)
    Wa = G @ J_inv @ a if order == 2 else None
    return J_inv @ _velocity(cfg, order, a, means[2 * M:], Wa)


def _canonical_kernel(limit: ContinuumLimit, cfgs: list[StrobConfig], orders: list[int]):
    """The RHS of a canonical (M = 1) walk as one kernel: beta, lone (1,) or stacked (n, 1) with
    row i at orders[i] and the scales of cfgs[i], to dbeta/dt with the bits of beta_velocity on
    each row of the gibbs_point of beta, or None, handing the RHS back to that numpy path.

    The table [w; a; b] is read at the first call (_canonical_table), as the walk's first RHS
    reads the images.  Python floats form every single IEEE operation: k = beta w, its minimum
    m, the negated shifted exponent m - k and the velocity, as beta_velocity forms it (a 1 x 1
    matmul adds its product to 0, hence the 0.0 +).  numpy keeps what its bits depend on, with
    a point's operand shapes: exp, Z (summed in order below 8 levels, pairwise from 8), and the
    means and slopes (matmuls, summed as numpy or BLAS choose).  None when there is no table, or a row has a
    non-finite spectrum, fails the JACOBIAN_RCOND check or has a non-finite dbeta: the numpy
    path then raises or warns as it does."""
    rows = max(orders)  # slope rows read: [w] at order 1, [w; a] at order 2

    def kernel(beta: np.ndarray) -> np.ndarray | None:
        table = limit._canonical_table
        if table is None:
            return None
        w, X, P, blocks = table
        shifted = []
        for b in beta.ravel().tolist():
            k = [b * wi for wi in w]
            m = min(k)
            if not max(k) - m < inf:  # an entry is inf or NaN
                return None
            shifted.append([m - ki for ki in k])
        q = np.exp(np.array(shifted if beta.ndim == 2 else shifted[0]))
        q /= np.add.reduce(q, axis=-1, keepdims=True)
        means = X @ q[..., None]  # (..., 3, 1): <w>, <a>, <b>
        C = (P - means[..., :1, :]).swapaxes(-1, -2)[..., None, :, :]
        slopes = ((blocks[:rows] * -q[..., None, None, :]) @ C).ravel().tolist()
        means = means.ravel().tolist()
        dbeta = []
        for i, (cfg, order) in enumerate(zip(cfgs, orders)):
            J = slopes[rows * i]
            J = 0.5 * (J + J)  # the jacobian, symmetrized
            if not abs(J) > JACOBIAN_RCOND * abs(J):
                return None
            J_inv = 1.0 / J
            a, b = means[3 * i + 1], means[3 * i + 2]
            Wa = 0.0 + (0.0 + slopes[rows * i + 1] * J_inv) * a if order == 2 else None
            row = 0.0 + J_inv * _velocity(cfg, order, a, b, Wa)
            if not isfinite(row):
                return None
            dbeta.append(row)
        return np.array(dbeta).reshape(beta.shape)
    return kernel


def _require_canonical(family: AnsatzFamily, what: str) -> None:
    if not isinstance(family, GibbsAnsatz) or family.size != 1:
        raise ContractError(f"{what} needs a canonical (single-observable) Gibbs family")


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
    (_, traj), = _rk4_rows(np.atleast_1d(np.asarray(x0, dtype=float)), [cfg], lambda live: rhs)
    return traj


def _rk4_rows(x0: np.ndarray, cfgs: list[StrobConfig], rhs_of) -> list[tuple[list[int], Trajectory]]:
    """RK4 of one state x0 on the grid cfgs[0], or of each row i of a stack x0 (n, M) on its own
    grid cfgs[i], the rows still running advanced together: every stage is one call of
    rhs_of(live) on the stack of the rows live.  A row takes substeps steps of h = dt / substeps
    per dt interval (h a column when the live rows' steps differ), is sampled at the end of
    each, and leaves the stack at its horizon; the stack changes only then.  The rows step in
    chunks of the gcd of their substeps, each run as the protocol step of the first live row
    (_as_step); a row of more than STEP_CAP_DEFAULT steps is refused before any.

    Returns (rows, trajectory) for each set of rows on one grid, in the order of their first
    row: the trajectory's params are (T, *x0.shape) for one state, else (T, len(rows), M)."""
    steps = [cfg.n_steps() * cfg.substeps for cfg in cfgs]
    for count in steps:
        _check_cap(count)
    chunk = gcd(*(cfg.substeps for cfg in cfgs))
    x, live, done = x0, list(range(len(cfgs))), 0
    ends = [(done, x, live)]  # every chunk end: the steps done, the stack, its rows
    while live:
        rhs, head = rhs_of(live), cfgs[live[0]]
        hs = [cfgs[i].dt / cfgs[i].substeps for i in live]
        h = hs[0] if len(set(hs)) == 1 else np.array(hs)[:, None]

        def advance(x: np.ndarray) -> np.ndarray:
            for _ in range(chunk):
                x = rk4_step(rhs, x, h)
            return x

        for _ in range(done, min(steps[i] for i in live), chunk):
            x = _as_step(done // head.substeps, head.dt, advance, x)
            done += chunk
            ends.append((done, x, live))
        kept = [j for j, i in enumerate(live) if steps[i] > done]
        x, live = x[kept], [live[j] for j in kept]
    grids: dict[tuple, list[int]] = {}  # rows sampled at the same ends, at the same times
    for i, cfg in enumerate(cfgs):
        grids.setdefault((cfg.dt, cfg.substeps, steps[i]), []).append(i)
    out = []
    for (dt, substeps, total), rows in grids.items():  # x whole while it holds just these rows (one state)
        samples = np.array([x if live == rows else x[[live.index(i) for i in rows]]
                            for done, x, live in ends if done % substeps == 0 and done <= total])
        out.append((rows, Trajectory(np.arange(len(samples)) * dt, samples,
                                     meta={"ode_step": dt / substeps, "substeps": substeps})))
    return out


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


def _gibbs_walk(limit: ContinuumLimit, beta0: np.ndarray, orders: list[int],
                cfgs: list[StrobConfig]) -> list[Trajectory]:
    """dbeta/dt = J^-1 dE/dt integrated from beta0 at orders[0] on the grid of cfgs[0], or from
    every row i of a stack beta0 (n, M) at orders[i] on the grid and at the scales of cfgs[i],
    the rows advanced together (_rk4_rows).  For a canonical family (M = 1) every RHS is one
    kernel, built once per set of live rows (_canonical_kernel): beta to dbeta/dt, in Python
    floats where one IEEE operation gives numpy's bits and in numpy where the bits need it,
    with no Gibbs point.  Otherwise, and for any RHS the kernel hands back, the RHS is one
    gibbs_point of the live rows and one slopes contraction, read by beta_velocity on each row's
    views, which raises or warns as it does; for M >= 2 a float form would not sum as BLAS does.
    One trajectory per row: the beta rows are the temps; the params, their E, come from one
    point of all the rows on one grid, and if that raises, each time row is read alone as the
    protocol step that made it (step 0 for the start), so the first failure names its step."""
    relevant = limit.family.relevant

    def rhs_of(live: list[int]):
        row_cfgs, row_orders = [cfgs[i] for i in live], [orders[i] for i in live]
        width = relevant.size * max(row_orders)  # the slope rows read: [P] at order 1, [P; A] at order 2
        kernel = _canonical_kernel(limit, row_cfgs, row_orders) if relevant.size == 1 else None

        def rhs(beta: np.ndarray) -> np.ndarray:
            if kernel is not None:
                dbeta = kernel(beta)
                if dbeta is not None:
                    return dbeta
            point, M = limit.gibbs_point(beta), relevant.size  # a lone vector stays a lone point
            slopes = point.slopes(width).reshape(-1, width, M)  # every row's slopes in one contraction
            rows = zip(row_cfgs, row_orders, beta.reshape(-1, M), point.means.reshape(-1, 3 * M),
                       point.jacobian.reshape(-1, M, M), slopes[:, M:])
            return np.array([beta_velocity(*row) for row in rows]).reshape(beta.shape)
        return rhs

    trajs = [None] * len(orders)
    for rows, traj in _rk4_rows(beta0, cfgs, rhs_of):
        traj.temps = traj.params
        try:
            traj.params = _GibbsPoint(relevant, traj.temps).E
        except (ThermostrobeError, ArithmeticError):
            for j, beta in enumerate(traj.temps):
                _as_step(max(j - 1, 0), cfgs[rows[0]].dt, _GibbsPoint, relevant, beta)
            raise
        if beta0.ndim == 1:
            return [traj]
        for j, i in enumerate(rows):
            trajs[i] = Trajectory(traj.times, traj.params[:, j].copy(), traj.temps[:, j].copy(),
                                  dict(traj.meta))
    return trajs


def _e_walk(limit: ContinuumLimit, E0: np.ndarray, order: int) -> Trajectory:
    """A run of a family other than Gibbs: the exact RK4 maps of a linear family's affine
    velocity (_rk4_walk), else RK4 in E; a zero-step run checks E0 as step 0."""
    if limit.cfg.n_steps() == 0:
        _as_step(0, limit.cfg.dt, limit.family.state_of, E0)
    if limit._linear:
        return _rk4_walk(limit, E0, order)
    return integrate(lambda E: limit.velocity(E, order), E0, limit.cfg)


ODE_ORDERS = {"ode1": 1, "ode2": 2, "ode-temperature": 2}  # continuum-limit protocols and their orders


def run_odes(gen: GkslGenerator, family: AnsatzFamily, E0, cfg: StrobConfig | list[StrobConfig],
             protocols: list[str], beta0=None, with_temps: bool = False) -> list[Trajectory]:
    """The trajectories of the continuum-limit protocols named in protocols (ODE_ORDERS), each
    on the grid of cfg, or of its own entry of a list cfg (one per protocol, as a compare
    ladder lists its rungs); the first error any of them meets is raised.

    A Gibbs family is integrated in beta, every protocol as one row of one walk
    (_gibbs_walk), each row on its own grid: ode1 and ode2 from the one fit of E0, run as
    protocol step 0 (their first row stays E0, the others are E(beta), and the beta rows are
    temps only with with_temps), ode-temperature, the second order for a canonical family,
    from beta0, or from that fit when beta0 is None.  Any other family runs each protocol
    alone (_e_walk), the protocols on one grid sharing one ContinuumLimit."""
    orders = [ODE_ORDERS.get(proto) for proto in protocols]
    if None in orders:
        raise ValidationError(f"{protocols[orders.index(None)]!r} is not a continuum-limit protocol; "
                              f"choose from {tuple(ODE_ORDERS)}")
    if "ode-temperature" in protocols:
        _require_canonical(family, "the temperature velocity")
    if not protocols:
        return []
    cfgs = list(cfg) if isinstance(cfg, (list, tuple)) else [cfg] * len(protocols)
    if len(cfgs) != len(protocols):
        raise ValidationError(f"{len(cfgs)} configs for {len(protocols)} protocols")
    limit = ContinuumLimit(gen, family, cfgs[0])
    E0 = None if E0 is None else _as_params(E0, family.size)
    if not limit._gibbs:
        limits = {limit.cfg: limit}  # one per grid
        trajs = [_e_walk(limits.setdefault(c, ContinuumLimit(gen, family, c)), E0, order)
                 for c, order in zip(cfgs, orders)]
    else:
        fits = [proto != "ode-temperature" or beta0 is None for proto in protocols]
        beta = _as_step(0, limit.cfg.dt, limit._point, E0).beta if any(fits) else None
        starts = [beta if fit else _as_params(beta0, 1) for fit in fits]
        trajs = _gibbs_walk(limit, starts[0] if len(starts) == 1 else np.array(starts), orders, cfgs)
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


def invariant_subspace_matrix(gen: GkslGenerator, observables) -> InvarianceResult:
    """Fit L*(S_i) = sum_j L_ij S_j over the affine basis S = (I, P_1, ..., P_M).

    The returned matrix includes the identity row (exactly zero, since the
    adjoint of a trace-preserving generator kills I).  When the residual is
    at most INVARIANCE_TOL the correction bracket of the second-order velocity
    vanishes identically on the family.
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
    return InvarianceResult(L, residual, residual <= INVARIANCE_TOL, INVARIANCE_TOL)

