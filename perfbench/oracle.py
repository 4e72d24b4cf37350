"""Output checks, computed apart from the program.

Every check rebuilds its operators from the workload parameters with
numpy and scipy (row-major vectorization, scipy.linalg.expm and
expm_frechet) and never imports thermostrobe.  Tolerances come from the
accuracy of the method, not from the bits today's code happens to produce:

- FIT_TOL, the Gibbs fit tolerance: a state handed to the propagator or the
  right-hand side reproduces its parameters only to within it;
- the RK4 step: for linear right-hand sides the RK4 error is computed
  exactly from the RK4 amplification polynomial; for nonlinear ones it is
  estimated by Richardson comparison of steps h and h/2;
- a roundoff floor for closed-form quantities with no fit in them.

check(workload, out_dir, rc) returns a list of failures, each prefixed by
the name of the check that found it; an empty list means the outputs are
correct.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.linalg import expm, expm_frechet

from workloads import FIT_TOL, SIG_M, SIG_P, Workload, gibbs_populations

ROUNDOFF = 1e-12
FIT_SLACK = 10.0 * FIT_TOL     # a quantity that passes through one Gibbs fit
ROUND_SLACK = 100.0 * FIT_TOL  # a quantity that passes through two fits and a propagator
SUBSTEPS = 10                  # program default RK4 substeps per dt when dt <= 0.1


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Reading outputs


def read_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = {name: data[:, j] for j, name in enumerate(header)}
    cols["E"] = np.column_stack([cols[h] for h in header if h.startswith("E_")])
    betas = [h for h in header if h.startswith("beta_")]
    cols["beta"] = np.column_stack([cols[h] for h in betas]) if betas else None
    return cols


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    _require(math.isfinite(err) and err <= tol, f"{name}: max error {err:.3e} above tolerance {tol:.3e}")


def _grid(traj: dict, dt: float, horizon: float, E0) -> None:
    n = int(round(horizon / dt))
    _require(len(traj["t"]) == n + 1, f"{len(traj['t'])} rows, expected {n + 1}")
    _close("time grid", traj["t"], np.arange(n + 1) * dt, ROUNDOFF)
    _close("initial row", traj["E"][0], np.asarray(E0, dtype=float), ROUNDOFF)


def _grid_all(trajs: dict, dt: float, horizon: float, E0, label: str = "") -> None:
    for proto, traj in trajs.items():
        try:
            _grid(traj, dt, horizon, E0)
        except CheckFailed as err:
            raise CheckFailed(f"{label}{proto}: {err}") from None


def _exit_code(rc: int, command: str) -> None:
    _require(rc == 0, f"{command} exited {rc}, expected 0")


# ---------------------------------------------------------------------------
# Operators (row-major vectorization: vec(A X B) = (A kron B^T) vec(X))


def liouvillian(H: np.ndarray, jumps) -> np.ndarray:
    d = H.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L, g in jumps:
        LdL = L.conj().T @ L
        out = out + g * (np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return out


def expect_row(P: np.ndarray) -> np.ndarray:
    """Row vector r with r @ vec(rho) = Tr(P rho)."""
    return P.T.reshape(-1)


def rk4_poly(X: np.ndarray) -> np.ndarray:
    """One RK4 step of x' = A x is exactly x -> R(hA) x with this polynomial."""
    eye = np.eye(X.shape[0], dtype=X.dtype)
    X2 = X @ X
    return eye + X + X2 / 2.0 + X2 @ X / 6.0 + X2 @ X2 / 24.0


def rk4_rows(rhs, x0: np.ndarray, n_rows: int, dt: float, h: float) -> np.ndarray:
    """Classic RK4 at step h, recorded every dt for n_rows intervals."""
    n_sub = int(round(dt / h))
    h = dt / n_sub
    x = np.asarray(x0, dtype=float)
    rows = [x]
    for _ in range(n_rows):
        for _ in range(n_sub):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(x)
    return np.array(rows)


def richardson(rhs, x0: np.ndarray, n_rows: int, dt: float, h: float) -> tuple[np.ndarray, float]:
    """RK4 rows at step h/2 and the estimated error of the rows at step h."""
    coarse = rk4_rows(rhs, x0, n_rows, dt, h)
    fine = rk4_rows(rhs, x0, n_rows, dt, 0.5 * h)
    return fine, float(np.max(np.abs(coarse - fine)))


# ---------------------------------------------------------------------------
# ladder-qubit


def _qubit_superop(p: dict) -> np.ndarray:
    H = p["omega0"] * (SIG_P @ SIG_M) - p["Omega"] * (SIG_P + SIG_M)
    u = math.exp(-p["beta0"] * p["omega0"])
    return liouvillian(H, [(SIG_M, p["gamma"]), (SIG_P, p["gamma"] * u)])


def _relaxation_rows(times, E0: float, c0: float, c1: float, h: float) -> tuple[np.ndarray, float]:
    """Exact solution of dE/dt = c0 - c1 E on the grid, and the RK4 error of step h there."""
    Est = c0 / c1
    exact = Est + (E0 - Est) * np.exp(-c1 * times)
    x = -h * c1
    r = 1.0 + x + x * x / 2.0 + x**3 / 6.0 + x**4 / 24.0
    steps = np.rint(times / h)
    stepped = Est + (E0 - Est) * r**steps
    return exact, float(np.max(np.abs(stepped - exact)))


def check_ladder(w: Workload, out_dir: str, rc: int) -> dict:
    p = w.params
    report = read_json(os.path.join(out_dir, f"{w.stem}_compare.json"))
    lam, E0, omega0 = p["lam"], p["E0"], p["omega0"]
    u = math.exp(-p["beta0"] * omega0)
    rungs = []
    for i, dt in enumerate(p["dts"], start=1):
        rungs.append({proto: read_csv(os.path.join(out_dir, f"{w.stem}_dt{i}_{proto}.csv"))
                      for proto in ("discrete", "ode1", "ode2")})

    def exit_code():
        _exit_code(rc, "compare")
        _require(report.get("ode2_closer") is True, "report says ode2 is not closer than ode1")

    def grid():
        for dt, rung in zip(p["dts"], rungs):
            _grid_all(rung, dt, p["horizon"], [E0], f"dt={dt} ")

    def report_deviations():
        for key, a, b in (("deviation_ode1", "discrete", "ode1"), ("deviation_ode2", "discrete", "ode2")):
            got = np.array(report[key], dtype=float)
            want = np.array([np.max(np.abs(r[a]["E"] - r[b]["E"])) for r in rungs])
            _close(key, got, want, 0.0)

    def ode(order: int):
        for dt, rung in zip(p["dts"], rungs):
            c1 = lam * p["gamma"] * (1.0 + u)
            c0 = lam * p["gamma"] * omega0 * u
            if order == 2:
                alpha = lam * lam * dt
                c1 += 2.0 * alpha * p["Omega"] ** 2
                c0 += alpha * p["Omega"] ** 2 * omega0
            traj = rung[f"ode{order}"]
            exact, rk4_err = _relaxation_rows(traj["t"], E0, c0, c1, dt / SUBSTEPS)
            _close(f"dt={dt} ode{order} vs closed form", traj["E"][:, 0], exact,
                   2.0 * rk4_err + FIT_SLACK)

    def discrete_map():
        for dt, rung in zip(p["dts"], rungs):
            T = expm(lam * dt * _qubit_superop(p))
            E = rung["discrete"]["E"][:, 0]
            # rho(E) = diag(E / omega0, 1 - E / omega0) on the canonical family
            pe = E[:-1] / omega0
            rho = np.zeros((len(pe), 4), dtype=complex)
            rho[:, 0] = pe
            rho[:, 3] = 1.0 - pe
            nxt = rho @ T.T
            _close(f"dt={dt} discrete round", E[1:], omega0 * nxt[:, 0].real, FIT_SLACK)

    return {"exit_code": exit_code, "grid": grid, "report_deviations": report_deviations,
            "ode1_closed_form": lambda: ode(1), "ode2_closed_form": lambda: ode(2),
            "discrete_affine_map": discrete_map}


# ---------------------------------------------------------------------------
# relax-multilevel


def _population_generator(p: dict) -> np.ndarray:
    """Q with dp/dt = Q p; upward rates from detailed balance at beta0."""
    w = np.array(p["omegas"])
    g = np.array(p["base_rates"], dtype=float)
    d = len(w)
    for i in range(d):
        for j in range(i + 1, d):
            g[j, i] = g[i, j] * math.exp(-p["beta0"] * (w[j] - w[i]))
    np.fill_diagonal(g, 0.0)
    return g - np.diag(g.sum(axis=0))


def _beta_velocity(p: dict):
    w = np.array(p["omegas"])
    Q = _population_generator(p)
    wQ = w @ Q
    wQ2 = wQ @ Q
    lam = p["lam"]
    alpha = lam * lam * p["dt"]

    def rhs(b: np.ndarray) -> np.ndarray:
        pop = gibbs_populations(w, b[0])
        mean = w @ pop
        dp = -pop * (w - mean)           # d p / d beta
        dE = w @ dp                       # d E / d beta = -Var(w)
        a = wQ @ pop
        bb = wQ2 @ pop
        W = (wQ @ dp) / dE
        return np.array([(lam * a + 0.5 * alpha * (bb - W * a)) / dE])

    return rhs


def check_relax(w: Workload, out_dir: str, rc: int) -> dict:
    p = w.params
    traj = read_csv(os.path.join(out_dir, f"{w.stem}_ode-temperature.csv"))
    omegas = np.array(p["omegas"])

    def grid():
        _grid({"t": traj["t"], "E": traj["beta"]}, p["dt"], p["horizon"], [p["beta_start"]])

    def beta_integration():
        want, err = richardson(_beta_velocity(p), np.array([p["beta_start"]]),
                               len(traj["t"]) - 1, p["dt"], p["dt"] / SUBSTEPS)
        _close("beta rows", traj["beta"][:, 0], want[:, 0], 2.0 * err + ROUNDOFF)

    def monotone():
        b = traj["beta"][:, 0]
        gap = np.abs(b - p["beta0"])
        step = np.diff(b) * np.sign(p["beta0"] - b[:-1])
        _require(np.all(step >= -ROUNDOFF), f"beta moves away from beta0 (worst {step.min():.3e})")
        _require(np.all(np.diff(gap) <= ROUNDOFF), "beta overshoots beta0")

    def energy_of_beta():
        want = [omegas @ gibbs_populations(omegas, b) for b in traj["beta"][:, 0]]
        _close("E rows vs Gibbs energy of beta", traj["E"][:, 0], want, ROUNDOFF)

    return {"exit_code": lambda: _exit_code(rc, "simulate"), "grid": grid,
            "beta_integration": beta_integration, "monotone_toward_bath": monotone,
            "energy_of_beta": energy_of_beta}


# ---------------------------------------------------------------------------
# gibbs-noncommuting


class GibbsFamily:
    """Generalized Gibbs states exp(-(beta, P)) / Z through scipy's expm."""

    def __init__(self, observables):
        self.P = [np.asarray(P, dtype=complex) for P in observables]
        self._warm = np.zeros(len(self.P))

    def state(self, beta) -> np.ndarray:
        X = expm(-sum(b * P for b, P in zip(beta, self.P)))
        return X / np.trace(X).real

    def expectations(self, rho) -> np.ndarray:
        return np.array([np.trace(P @ rho).real for P in self.P])

    def state_and_derivs(self, beta):
        """rho and d rho / d beta_n via the Frechet derivative of expm."""
        K = -sum(b * P for b, P in zip(beta, self.P))
        derivs = []
        X = None
        for P in self.P:
            X, F = expm_frechet(K, -P)
            derivs.append(F)
        Z = np.trace(X).real
        rho = X / Z
        return rho, [F / Z - rho * (np.trace(F).real / Z) for F in derivs]

    def fit(self, E, tol: float = 1e-14) -> np.ndarray:
        beta = self._warm.copy()
        for _ in range(100):
            rho, D = self.state_and_derivs(beta)
            r = self.expectations(rho) - E
            if np.max(np.abs(r)) <= tol:
                break
            J = np.array([[np.trace(P @ Dn).real for Dn in D] for P in self.P])
            step = np.linalg.solve(J, -r)
            scale = 1.0
            while scale > 1e-6:
                cand = beta + scale * step
                if np.max(np.abs(self.expectations(self.state(cand)) - E)) < np.max(np.abs(r)):
                    break
                scale *= 0.5
            beta = cand
        else:
            raise CheckFailed(f"reference fit did not converge for E = {E}")
        self._warm = beta
        return beta


def _gibbs_velocity(fam: GibbsFamily, S: np.ndarray, lam: float, alpha: float, order: int):
    rows = [expect_row(P) for P in fam.P]
    A = np.array([r @ S for r in rows])          # a_m = A[m] @ vec(rho)
    B = np.array([r @ S @ S for r in rows])

    def rhs(E: np.ndarray) -> np.ndarray:
        beta = fam.fit(E)
        rho, D = fam.state_and_derivs(beta)
        v = rho.reshape(-1)
        a = (A @ v).real
        if order == 1:
            return lam * a
        b = (B @ v).real
        dA = np.array([(A @ Dn.reshape(-1)).real for Dn in D]).T      # d a_m / d beta_n
        J = np.array([[np.trace(P @ Dn).real for Dn in D] for P in fam.P])
        W = dA @ np.linalg.inv(J)
        return lam * a + 0.5 * alpha * (b - W @ a)

    return rhs


def check_noncommuting(w: Workload, out_dir: str, rc: int) -> dict:
    p = w.params
    trajs = {proto: read_csv(os.path.join(out_dir, f"{w.stem}_{proto}.csv"))
             for proto in ("discrete", "ode1", "ode2")}
    fam = GibbsFamily(p["observables"])
    S = liouvillian(p["H"], p["jumps"])
    dt, lam = p["dt"], p["lam"]

    def beta_reproduces_E():
        for proto, traj in trajs.items():
            got = np.array([fam.expectations(fam.state(b)) for b in traj["beta"]])
            _close(f"{proto} E from emitted beta", got, traj["E"], FIT_SLACK)

    def discrete_round():
        T = expm(lam * dt * S)
        traj = trajs["discrete"]
        nxt = np.array([fam.expectations((T @ fam.state(b).reshape(-1)).reshape(fam.P[0].shape))
                        for b in traj["beta"][:-1]])
        _close("discrete round", traj["E"][1:], nxt, ROUND_SLACK)

    def ode_intervals(order: int):
        traj = trajs[f"ode{order}"]
        rhs = _gibbs_velocity(fam, S, lam, lam * lam * dt, order)
        n = len(traj["t"]) - 1
        for k in (0, n - 1):
            want, err = richardson(rhs, traj["E"][k], 1, dt, dt / SUBSTEPS)
            _close(f"ode{order} interval {k}", traj["E"][k + 1], want[1], 2.0 * err + ROUND_SLACK)

    return {"exit_code": lambda: _exit_code(rc, "simulate"),
            "grid": lambda: _grid_all(trajs, dt, p["horizon"], p["E0"]),
            "beta_reproduces_E": beta_reproduces_E, "discrete_round": discrete_round,
            "ode1_intervals": lambda: ode_intervals(1), "ode2_intervals": lambda: ode_intervals(2)}


# ---------------------------------------------------------------------------
# open-factorized


def _factorized_affine(p: dict):
    """rho(E) = (rho0 + sum_j E_j D_j) kron rho_B and the parameter read-out rows."""
    dB = p["dims"][1]
    rho_B = p["rho_B"]
    # E = (rho_S[0,0], 2 Re rho_S[0,1], 2 Im rho_S[0,1])
    base = np.zeros((2, 2), dtype=complex)
    base[1, 1] = 1.0
    D = [np.array([[1, 0], [0, -1]], dtype=complex),
         np.array([[0, 0.5], [0.5, 0]], dtype=complex),
         np.array([[0, 0.5j], [-0.5j, 0]], dtype=complex)]
    P = [np.array([[1, 0], [0, 0]], dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, 1j], [-1j, 0]], dtype=complex)]
    eyeB = np.eye(dB)
    v0 = np.kron(base, rho_B).reshape(-1)
    V = np.column_stack([np.kron(Dj, rho_B).reshape(-1) for Dj in D])
    R = np.array([expect_row(np.kron(Pm, eyeB)) for Pm in P])
    return v0, V, R


def check_factorized(w: Workload, out_dir: str, rc: int) -> dict:
    p = w.params
    trajs = {proto: read_csv(os.path.join(out_dir, f"{w.stem}_{proto}.csv"))
             for proto in ("discrete", "ode1", "ode2")}
    S = liouvillian(p["H"], p["jumps"])
    v0, V, R = _factorized_affine(p)
    dt, lam = p["dt"], p["lam"]
    alpha = lam * lam * dt

    def discrete_linear_map():
        RT = R @ expm(lam * dt * S)
        E = trajs["discrete"]["E"]
        nxt = ((RT @ V) @ E[:-1].T).T.real + (RT @ v0).real
        _close("discrete round", E[1:], nxt, ROUNDOFF)

    def ode_exact(order: int):
        # dE/dt = M E + c, with the affine first and second moments of the family
        a_M, a_c = (R @ S @ V).real, (R @ S @ v0).real
        if order == 1:
            M, c = lam * a_M, lam * a_c
        else:
            b_M, b_c = (R @ S @ S @ V).real, (R @ S @ S @ v0).real
            M = lam * a_M + 0.5 * alpha * (b_M - a_M @ a_M)
            c = lam * a_c + 0.5 * alpha * (b_c - a_M @ a_c)
        m = len(c)
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m], aug[:m, m] = M, c
        x0 = np.append(np.asarray(p["E0"], dtype=float), 1.0)
        traj = trajs[f"ode{order}"]
        h = dt / SUBSTEPS
        exact = np.array([(expm(t * aug) @ x0)[:m] for t in traj["t"]])
        step = rk4_poly(h * aug)
        x, rk4_rows = x0, [x0[:m]]
        for _ in range(len(traj["t"]) - 1):
            for _ in range(SUBSTEPS):
                x = step @ x
            rk4_rows.append(x[:m])
        rk4_err = float(np.max(np.abs(np.array(rk4_rows) - exact)))
        _close(f"ode{order} vs exact affine solution", traj["E"], exact, 2.0 * rk4_err + ROUNDOFF)

    return {"exit_code": lambda: _exit_code(rc, "simulate"),
            "grid": lambda: _grid_all(trajs, dt, p["horizon"], p["E0"]),
            "discrete_linear_map": discrete_linear_map,
            "ode1_exact": lambda: ode_exact(1), "ode2_exact": lambda: ode_exact(2)}


CHECKERS = {"ladder-qubit": check_ladder, "relax-multilevel": check_relax,
            "gibbs-noncommuting": check_noncommuting, "open-factorized": check_factorized}


def named_checks(w: Workload, out_dir: str, rc: int) -> dict:
    """Name -> zero-argument check of this workload's outputs in out_dir."""
    return CHECKERS[w.name](w, out_dir, rc)


def check(w: Workload, out_dir: str, rc: int) -> list[str]:
    """Failures of every check on one operation's outputs (empty when correct)."""
    try:
        checks = named_checks(w, out_dir, rc)
    except (OSError, ValueError, KeyError) as err:
        return [f"outputs: cannot read ({err})"]
    failures = []
    for name, fn in checks.items():
        try:
            fn()
        except CheckFailed as err:
            failures.append(f"{name}: {err}")
        except (OSError, ValueError, KeyError, IndexError, TypeError, np.linalg.LinAlgError) as err:
            failures.append(f"{name}: {type(err).__name__}: {err}")
    return failures
