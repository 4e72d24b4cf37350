"""Ansatz families: parameterized states consistent with a set of observables.

A family maps a parameter vector E (the expectations of its relevant
observables) to a density matrix state_of(E) with Tr(P_m state_of(E)) = E_m.
Families implemented here: generalized Gibbs states exp(-(beta, P))/Z fitted
to the target expectations, the pinching (block-dephasing) family of a
reference observable, the selective (renormalized single-block) family, and
the factorized system-bath family.  The posterior map of a family is
rho -> state_of(Tr(P rho)).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from math import hypot
from numbers import Integral, Real

import numpy as np

from .errors import (
    DegenerateAnsatzError,
    DomainError,
    FitError,
    ValidationError,
    ZeroProbabilityBranchError,
)
from .liouville import require_density
from .matcore import (
    exp_neg_kernel,
    frobenius,
    hermitize,
    kron,
    require_finite,
    require_hermitian,
    require_square,
    scale_of,
)

GRAM_COND_MAX = 1e12
EIG_CLUSTER_TOL = 1e-8
BOUNDARY_MARGIN = 1e-9
PSD_FLOOR = -1e-10
ZERO_BRANCH_TOL = 1e-12
IMAG_TOL = 1e-10
JACOBIAN_RCOND = 1e-12
COMMUTE_TOL = 1e-12
FIT_TOL = 1e-11  # default residual tolerance of a Gibbs family's fits
FIT_MAX_ITER = 200  # Newton iterations of a Gibbs family's fits, and fit_beta's default


@dataclass(frozen=True, eq=False)
class RelevantSet:
    """Hermitian observables whose expectations parameterize an ansatz family.

    The identity is an implicit member of every relevant set (unit trace), so
    the stored observables must be linearly independent from it and from each
    other; the condition number of the Gram matrix of {I, P_1, ..., P_M} under
    the Frobenius pairing is recorded as gram_condition.
    """

    observables: tuple[np.ndarray, ...]
    gram_condition: float = field(init=False)

    def __post_init__(self) -> None:
        obs = tuple(require_hermitian(require_finite(P, f"observable {m}"), name=f"observable {m}")
                    for m, P in enumerate(self.observables))
        if not obs:
            raise ValidationError("a relevant set needs at least one observable")
        d = obs[0].shape[0]
        for m, P in enumerate(obs):
            if P.shape[0] != d:
                raise ValidationError("observables have mismatched dimensions")
            traceless = P - (np.trace(P) / d) * np.eye(d)
            if np.max(np.abs(traceless)) <= 1e-12 * scale_of(P):
                raise ValidationError(f"observable {m} is a multiple of the identity")
        object.__setattr__(self, "observables", obs)
        cond = float(np.linalg.cond(self.gram))
        if not np.isfinite(cond) or cond > GRAM_COND_MAX:
            raise ValidationError(
                f"observables are linearly dependent (with the identity): Gram condition {cond:.3e}"
            )
        object.__setattr__(self, "gram_condition", cond)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.observables)

    @cached_property
    def affine_basis(self) -> tuple[np.ndarray, ...]:
        """(I, P_1, ..., P_M), the basis of the affine span the family's states live in."""
        return (np.eye(self.dim, dtype=complex), *self.observables)

    @cached_property
    def gram(self) -> np.ndarray:
        """Frobenius Gram matrix of affine_basis, G_ab = Re Tr(S_a^dag S_b)."""
        basis = self.affine_basis
        return np.array([[frobenius(x, y).real for y in basis] for x in basis])

    @cached_property
    def stack(self) -> np.ndarray:
        """The observables as one (M, d, d) array."""
        return np.array(self.observables)

    @cached_property
    def spectral_basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Common eigenbasis U and eigenvalue table w[m, i] = (U^dag P_m U)_ii
        when the observables commute, else None.

        U diagonalizes a combination of the observables with incommensurate
        weights, so it diagonalizes each of them when they commute; the
        off-diagonal part of every U^dag P_m U is checked against COMMUTE_TOL
        (relative to the observable's scale).  A second set of weights is
        tried in case the first makes two distinct joint levels nearly
        coincide, which leaves their eigenvectors mixed.
        """
        ranks = np.arange(2.0, self.size + 2.0)
        for weights in (np.sqrt(ranks), np.sqrt(ranks[::-1])):
            C = sum(c * P / scale_of(P) for c, P in zip(weights, self.observables))
            U = np.linalg.eigh(hermitize(C))[1]
            rotated = U.conj().T @ self.stack @ U
            if all(np.max(np.abs(R - np.diag(np.diag(R)))) <= COMMUTE_TOL * scale_of(P)
                   for R, P in zip(rotated, self.observables)):
                return U, np.einsum("mii->mi", rotated).real
        return None

    def point_stack(self, images: np.ndarray | None = None) -> np.ndarray:
        """The stack [P; X] a Gibbs point evaluates, with operators X (n, d, d):
        the operators themselves, or, when the observables commute, the table
        [w; diag(U^dag X_m U)] in their common eigenbasis U.  The table is the
        real part of a complex array, like w: numpy sums each row of a product
        with such a strided array in order, whatever rows are stacked with it."""
        basis = self.spectral_basis
        if basis is None:
            return self.stack if images is None else np.concatenate([self.stack, images])
        U, w = basis
        if images is None:
            return w
        table = np.empty((len(w) + len(images), self.dim), dtype=complex)
        table[:len(w)] = w
        table[len(w):] = np.einsum("ai,mab,bi->mi", U.conj(), images, U)
        return table.real


def _as_relevant(observables) -> RelevantSet:
    if isinstance(observables, RelevantSet):
        return observables
    return RelevantSet(tuple(np.asarray(P, dtype=complex) for P in observables))


def _as_params(E, size: int) -> np.ndarray:
    try:
        x = np.atleast_1d(E)
    except ValueError:  # a ragged nesting has no array shape
        x = None
    if x is None or x.dtype.kind not in "biuf" or x.shape != (size,):  # None and text are not numbers
        raise ValidationError(f"parameter vector must be {size} real numbers, got {E!r}")
    return x.astype(float, copy=False)


def _rotate(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """hermitize(U S U^dag), of S or of each matrix of a stack S."""
    return hermitize(U @ S @ U.conj().T)


# ---------------------------------------------------------------------------
# Generalized Gibbs states


class _GibbsPoint:
    """Every Gibbs quantity at one exponent vector beta (M,), from one
    factorization K = (beta, P) = U diag(k) U^dag; or at every vector of a
    stack beta (..., M) at once, each of its arrays then holding one row per
    vector.

    The point evaluates one operator stack [P; X] (RelevantSet.point_stack,
    by default the observables alone).  When the observables commute, U is
    their cached common eigenbasis, k = beta w and the stack is already a
    table of diagonals in U, so nothing is diagonalized or rotated and a
    stack of exponents is one table product; otherwise every K goes to one
    batched eigh and [P; X] is rotated into every U in one product.  Each
    vector meets P in a vector-matrix product of its own and q in a
    matrix-vector product of its own (one matrix product over the stack
    could sum in another order), and LAPACK and BLAS run matrix by matrix,
    so each row of a stack has the bits of its lone point.  The spectrum k
    is shifted to start at 0, with Z and the populations q taken from the
    shifted weights; means holds Tr(X_m rho) for every row of the operator
    stack, from one product with q.  A non-finite beta, or exponents so
    large that the eigensolve fails or the shifted spectrum overflows, raise
    DomainError.  slopes and jacobian serve a whole stack at once; the other
    derivative quantities are read at one point.  A fit builds each of its
    points with the stack its caller reads (_fit_point), so the accepted
    point is the one read.
    """

    def __init__(self, relevant: RelevantSet, beta: np.ndarray, stack: np.ndarray | None = None):
        M = relevant.size
        basis = relevant.spectral_basis
        X = relevant.point_stack() if stack is None else stack
        with np.errstate(over="ignore", invalid="ignore"):
            rows = beta[..., None, :]  # one (1, M) row per vector
            if basis is not None:
                U = basis[0]
                k = (rows @ X[:M])[..., 0, :]
            else:
                d = X.shape[-1]
                K = (rows @ X[:M].reshape(M, d * d)).reshape(*beta.shape[:-1], d, d)
                require_finite(K, "exponent operator (beta, P)", DomainError)
                try:
                    k, U = np.linalg.eigh(hermitize(K))
                except np.linalg.LinAlgError as err:  # entries near the float range
                    raise DomainError(f"Gibbs exponents {beta}: the eigensolve of (beta, P) failed") from err
                X = U.conj().swapaxes(-1, -2)[..., None, :, :] @ X @ U[..., None, :, :]
            k -= np.minimum.reduce(k, axis=-1, keepdims=True)  # ufunc reduce: no method wrapper
        if not np.maximum.reduce(k, axis=None) < np.inf:  # k >= 0 once shifted: an entry is inf or NaN
            raise DomainError(f"Gibbs exponents {beta} give a non-finite spectrum of (beta, P)")
        q = np.exp(-k)
        Z = np.add.reduce(q, axis=-1, keepdims=True)
        q /= Z
        means = ((X if basis is not None else X.diagonal(0, -2, -1).real) @ q[..., None])[..., 0]
        self.beta, self.diagonal, self.U, self.X = beta, basis is not None, U, X
        self.k, self.Z, self.q, self.means, self.E, self._slopes = k, Z, q, means, means[..., :M], None

    def slopes(self, rows: int) -> np.ndarray:
        """D_mn = d Tr(X_m rho) / d beta_n for the first rows of the operator stack, at
        the point or at every point of a stack (..., rows, M), each row with its lone point's
        bits: one contraction of those rows against P, whose top M x M block is J before
        symmetrization.  The widest block computed is kept for narrower calls.  A table is
        contracted in blocks of M rows, each rounded as a lone block."""
        if self._slopes is None or self._slopes.shape[-2] < rows:
            M = self.E.shape[-1]
            if self.diagonal:
                C = (self.X[:M] - self.E[..., None]).swapaxes(-1, -2)[..., None, :, :]  # (..., 1, d, M)
                blocks = self.X[:rows].reshape(-1, M, C.shape[-2]) * -self.q[..., None, None, :]
                self._slopes = (blocks @ C).reshape(self.E.shape[:-1] + (rows, M))
            else:
                D = np.einsum("...mji,...ij,...nij->...mn", self.X[..., :rows, :, :], exp_neg_kernel(self.k),
                              self.X[..., :M, :, :]).real / self.Z[..., None]
                self._slopes = D + self.means[..., :rows, None] * self.E[..., None, :]
        return self._slopes[..., :rows, :]

    @property
    def jacobian(self) -> np.ndarray:
        """Response matrix J_mn = d E_m / d beta_n, symmetrized, at the point or at each point of a stack."""
        J = self.slopes(self.E.shape[-1])
        return 0.5 * (J + J.swapaxes(-1, -2))

    def state(self) -> np.ndarray:
        return hermitize((self.U * self.q) @ self.U.conj().T)

    def param_derivative(self) -> np.ndarray:
        """Stack of d rho / d beta_n from the Daleckii-Krein kernel of exp(-K);
        it is -U diag(q (w_n - E_n)) U^dag when the observables commute."""
        P = self.X[:len(self.E)]
        if self.diagonal:
            P = np.einsum("mi,ij->mij", P, np.eye(len(self.q)))
        inner = exp_neg_kernel(self.k) * P / self.Z + self.E[:, None, None] * np.diag(self.q)
        return _rotate(self.U, inner)

    def derivative(self) -> np.ndarray:
        """Stack of d rho / d E_j, by the chain rule through beta(E)."""
        return np.einsum("nab,nj->jab", self.param_derivative(), response_inverse(self.jacobian, self.beta))


def response_inverse(J: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """J^-1 of one response matrix J (M, M), a point's jacobian at exponents beta, refused
    when the smallest |eigenvalue| of J is at most JACOBIAN_RCOND times the largest;
    closed forms for M <= 2."""
    entries = J.tolist()  # Python floats: the closed forms cost less than on numpy scalars
    if len(J) == 1:
        small = large = abs(entries[0][0])
    elif len(J) == 2:
        (a, b), (_, c) = entries
        mean, radius = 0.5 * abs(a + c), hypot(0.5 * (a - c), b)
        small, large = abs(mean - radius), mean + radius
    else:
        svals = np.linalg.svd(J, compute_uv=False)
        small, large = svals[-1], svals[0]
    if not small > JACOBIAN_RCOND * large:
        raise DegenerateAnsatzError(
            f"Gibbs response matrix is numerically singular (|eigenvalues| from {small:.3e} "
            f"to {large:.3e}) at beta = {beta}"
        )
    if len(J) == 1:
        return 1.0 / J
    if len(J) == 2:
        return np.array([[c, -b], [-b, a]]) / (a * c - b * b)
    return np.linalg.inv(J)


def _gibbs_point(observables, beta) -> _GibbsPoint:
    relevant = _as_relevant(observables)
    return _GibbsPoint(relevant, _as_params(beta, relevant.size))


def gibbs_state(observables, beta) -> np.ndarray:
    """exp(-(beta, P)) / Z, computed with the exponent shifted by its minimum eigenvalue."""
    return _gibbs_point(observables, beta).state()


def gibbs_expectations(observables, beta) -> np.ndarray:
    """Expectations Tr(P_m rho_Gibbs(beta)) of the relevant observables."""
    return _gibbs_point(observables, beta).E


def gibbs_param_derivative(observables, beta) -> np.ndarray:
    """Stack of derivatives d rho_Gibbs / d beta_n (each traceless)."""
    return _gibbs_point(observables, beta).param_derivative()


def gibbs_jacobian(observables, beta) -> np.ndarray:
    """Response matrix J_mn = d E_m / d beta_n of the Gibbs map (symmetric, negative definite)."""
    return _gibbs_point(observables, beta).jacobian


def _canonical_bounds(relevant: RelevantSet) -> tuple[float, float, float]:
    basis = relevant.spectral_basis
    w = np.linalg.eigvalsh(relevant.observables[0]) if basis is None else basis[1][0]
    margin = BOUNDARY_MARGIN * (1.0 + float(np.max(np.abs(w))))
    return float(w.min()), float(w.max()), margin


def _bisect_beta(relevant: RelevantSet, target: float, tol: float) -> float:
    """Monotone bracketing solve for a single observable; E(beta) is strictly decreasing."""

    def resid(b: float) -> float:
        return gibbs_expectations(relevant, [b])[0] - target

    lo, hi = -1.0, 1.0
    while resid(lo) < 0.0:
        lo *= 2.0
        if lo < -1e9:
            raise FitError(f"bracketing failed toward beta -> -inf for target {target}")
    while resid(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise FitError(f"bracketing failed toward beta -> +inf for target {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = resid(mid)
        if abs(r) <= tol:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    mid = 0.5 * (lo + hi)
    if abs(resid(mid)) <= tol:
        return mid
    raise FitError(f"bisection stalled at residual {abs(resid(mid)):.3e} for target {target}")


def fit_beta(observables, target, beta_init=None, tol: float = 1e-10, max_iter: int = FIT_MAX_ITER,
             full_output: bool = False):
    """Solve Tr(P_m rho_Gibbs(beta)) = target_m for beta.

    Damped Newton iteration with the analytic response matrix: each step is
    halved (up to 60 times) until the max-norm residual decreases.  For a
    single observable an out-of-range target raises immediately, and a
    monotone bisection takes over when Newton meets a singular response
    matrix, stalls, or runs out of iterations.  A negative tol, or a max_iter
    that is not an integer of at least 1, raises ValidationError.
    """
    _check_fit_settings(tol, max_iter)
    point, info = _fit_point(_as_relevant(observables), target, beta_init, tol, max_iter)
    return (point.beta, info) if full_output else point.beta


def _check_fit_settings(tol: float, max_iter: int) -> None:
    if not tol >= 0.0:
        raise ValidationError(f"fit tolerance must be nonnegative, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral):
        raise ValidationError(f"fit max_iter must be an integer, got {max_iter!r}")
    if not max_iter >= 1:
        raise ValidationError(f"fit max_iter must be at least 1, got {max_iter}")


def _fit_point(relevant: RelevantSet, target, beta_init, tol: float, max_iter: int,
               stack: np.ndarray | None = None):
    """fit_beta's solve, returning the Gibbs point at the fitted beta (the one Newton
    accepted last) with the residual and iteration count; every point the solve builds
    evaluates stack, so the point returned is already the one its caller reads."""
    target = require_finite(_as_params(target, relevant.size), "fit target", DomainError)
    if relevant.size == 1:
        kmin, kmax, margin = _canonical_bounds(relevant)
        if not (kmin + margin < target[0] < kmax - margin):
            raise DomainError(
                f"target expectation {target[0]:.12g} is on or outside the feasible-domain "
                f"boundary ({kmin:.12g}, {kmax:.12g})"
            )
    beta = np.zeros(relevant.size) if beta_init is None else _as_params(beta_init, relevant.size).copy()
    point = _GibbsPoint(relevant, beta, stack)
    best = float(np.max(np.abs(point.E - target)))
    failure = f"no convergence after {max_iter} iterations"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if best <= tol:
            break
        try:
            step = np.linalg.solve(point.jacobian, target - point.E)
        except np.linalg.LinAlgError:
            failure = f"singular response matrix at beta {beta}"
            break
        scale = 1.0
        for _ in range(60):
            candidate = _GibbsPoint(relevant, beta + scale * step, stack)
            r = float(np.max(np.abs(candidate.E - target)))
            if r < best:
                beta, point, best = candidate.beta, candidate, r
                break
            scale *= 0.5
        else:
            failure = f"damped Newton stalled after {iterations} iterations"
            break
    if not best <= tol:
        if relevant.size > 1:
            raise FitError(f"{failure}, residual {best:.3e}")
        point = _GibbsPoint(relevant, np.array([_bisect_beta(relevant, float(target[0]), tol)]), stack)
        best = float(abs(point.E[0] - target[0]))
    return point, {"residual": best, "iterations": iterations}


def qubit_beta_closed_form(E: float, omega0: float) -> float:
    """Inverse temperature of a two-level Gibbs state with excitation energy omega0,
    beta = -ln(E / (omega0 - E)) / omega0, defined for E in (0, omega0)."""
    omega0 = float(omega0)
    if omega0 <= 0.0:
        raise ValidationError(f"omega0 must be positive, got {omega0}")
    E = float(E)
    margin = BOUNDARY_MARGIN * (1.0 + omega0)
    if not (margin < E < omega0 - margin):
        raise DomainError(
            f"energy {E:.12g} is on or outside the feasible-domain boundary (0, {omega0:.12g})"
        )
    return -np.log(E / (omega0 - E)) / omega0


# ---------------------------------------------------------------------------
# Family interface


class AnsatzFamily(ABC):
    """Parameterized family of states consistent with its relevant observables."""

    relevant: RelevantSet
    is_linear: bool = False
    label: str = "family"

    @property
    def size(self) -> int:
        return self.relevant.size

    @property
    def dim(self) -> int:
        return self.relevant.dim

    @abstractmethod
    def state_of(self, E) -> np.ndarray:
        """Density matrix with Tr(P_m rho) = E_m."""

    @abstractmethod
    def derivative_of(self, E) -> np.ndarray:
        """Stack of parameter derivatives d state_of / d E_j, shape (M, d, d)."""


def extract_params(family: AnsatzFamily, rho) -> np.ndarray:
    """Expectations of the family's relevant observables in a given state."""
    rho = require_square(rho, "state")
    if rho.shape[0] != family.dim:
        raise ValidationError("state dimension does not match the family")
    return _real_parts(np.array([frobenius(P, rho) for P in family.relevant.observables]), scale_of(rho))


def _real_parts(z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Real parts of expectations z (a vector, or rows of them); ValidationError at the
    first whose imaginary part exceeds IMAG_TOL * scale."""
    bad = np.argwhere(np.abs(z.imag) > IMAG_TOL * scale)
    if bad.size:
        first = tuple(bad[0])
        raise ValidationError(f"extracted parameter {first[-1]} has imaginary part {z.imag[first]:.3e}")
    return z.real.copy()


class GibbsAnsatz(AnsatzFamily):
    """Generalized Gibbs family over a relevant set, with Newton-fitted exponents."""

    def __init__(self, observables, fit_tol: float = FIT_TOL):
        _check_fit_settings(fit_tol, FIT_MAX_ITER)
        self.relevant = _as_relevant(observables)
        self.fit_tol = float(fit_tol)
        self.label = "gibbs-canonical" if self.relevant.size == 1 else "gibbs-generalized"

    @classmethod
    def canonical(cls, hamiltonian, **kwargs) -> "GibbsAnsatz":
        return cls((hamiltonian,), **kwargs)

    def point_of(self, E, beta_init=None, stack: np.ndarray | None = None) -> _GibbsPoint:
        """The Gibbs point at the fitted exponents, as the fit left it, evaluating stack
        (RelevantSet.point_stack, by default the observables alone)."""
        try:
            return _fit_point(self.relevant, E, beta_init, self.fit_tol, FIT_MAX_ITER, stack)[0]
        except FitError as err:
            raise DomainError(f"parameters appear infeasible for the Gibbs family: {err}") from err

    def state_of(self, E) -> np.ndarray:
        return self.point_of(E).state()

    def derivative_of(self, E) -> np.ndarray:
        return self.point_of(E).derivative()


# ---------------------------------------------------------------------------
# Block-coordinate (linear and selective) families


def _eigenbasis(X, name: str) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Eigenvalues w (ascending), eigenvector columns U and eigenvalue clusters of a
    family's reference observable X; a cluster is the indices within EIG_CLUSTER_TOL *
    (1 + max|w|) of its first.  ValidationError, naming X, when X is not finite and Hermitian."""
    X = require_hermitian(require_finite(X, name), name=name)
    w, U = np.linalg.eigh(X)
    tol = EIG_CLUSTER_TOL * (1.0 + float(np.max(np.abs(w))))
    blocks: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[blocks[-1][0]] <= tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return w, U, blocks


class _BlockCoords:
    """Real coordinates for Hermitian matrices supported on given index blocks.

    Per block the upper triangle is walked row-major: the diagonal entry
    first, then (2 Re, 2 Im) pairs for each off-diagonal entry.  Coordinate m
    is the expectation of the observable P[m], and a matrix is rebuilt from
    the coordinates along the dual directions D[m] = P[m] / Tr(P[m]^2).  With
    drop_last_diag the final diagonal coordinate is omitted and recovered
    from the trace, so each diagonal direction also subtracts that entry.
    """

    def __init__(self, blocks: list[list[int]], d: int, drop_last_diag: bool):
        units = np.eye(d, dtype=complex)
        P = []
        for block in blocks:
            for a, i in enumerate(block):
                P.append(np.outer(units[i], units[i]))
                for j in block[a + 1:]:
                    upper = np.outer(units[i], units[j])
                    P += [upper + upper.T, 1j * (upper - upper.T)]
        # the walk ends on the last block's last diagonal entry
        self.dropped_index = blocks[-1][-1] if drop_last_diag else None
        self.P = np.array(P[:-1] if drop_last_diag else P)
        self.D = self.P / np.einsum("mab,mba->m", self.P, self.P).real[:, None, None]
        if drop_last_diag:
            self.D -= np.einsum("maa->m", self.P)[:, None, None] * P[-1]
        self._flat_D = self.D.reshape(len(self.P), d * d)

    def assemble(self, E: np.ndarray, trace: float | None) -> np.ndarray:
        """The matrix of coordinates E, or the stack of matrices of coordinate rows E (n, M)."""
        S = (E @ self._flat_D).reshape(E.shape[:-1] + self.D.shape[1:])
        if self.dropped_index is not None:
            if trace is None:
                raise ValidationError("a trace is required to recover the dropped diagonal entry")
            S[..., self.dropped_index, self.dropped_index] += trace
        return S


def _block_psd_check(S: np.ndarray, what: str) -> None:
    """DomainError when S, or a matrix of a stack S (n, d, d), has a non-finite entry or an
    eigenvalue below PSD_FLOOR * scale_of; the error reports the first such matrix.  Only the
    matrices whose Gershgorin bound min_i (H_ii - sum_{j != i} |H_ij|) on the spectrum of
    H = hermitize(S) is below that floor go to eigvalsh, batched, solving each one alone."""
    S = require_finite(S, what, DomainError).reshape(-1, *S.shape[-2:])
    H, floor = hermitize(S), PSD_FLOOR * (1.0 + np.abs(S).max(axis=(-2, -1)))
    A = np.abs(H)
    radius = A.sum(axis=-1) - np.diagonal(A, axis1=-2, axis2=-1)
    unsure = np.flatnonzero((np.diagonal(H, axis1=-2, axis2=-1).real - radius).min(axis=-1) < floor)
    if unsure.size:
        wmin = np.linalg.eigvalsh(H[unsure])[:, 0]
        bad = np.flatnonzero(wmin < floor[unsure])
        if bad.size:
            raise DomainError(f"{what} lies outside the feasible domain: "
                              f"eigenvalue {wmin[bad[0]]:.3e} < 0")


class _LinearAnsatz(AnsatzFamily):
    """Linear family state_of(E) = embed(S(E)): S(E) is the _BlockCoords matrix at
    unit trace, required positive semidefinite, and embed is a fixed linear map,
    so state_of(E) = R0 + sum_j E_j D_j on the feasible domain (affine_parts).
    """

    is_linear = True
    _domain: str  # named in the DomainError of an infeasible E

    @abstractmethod
    def _embed(self, S: np.ndarray) -> np.ndarray:
        """The full-space operator of a block-coordinate matrix S."""

    def feasible_block(self, E) -> np.ndarray:
        """The block-coordinate matrix S(E); DomainError when E is not finite or S is not
        PSD.  Rows E (n, M) give the stack of their matrices, checked in one batch that
        solves only the matrices its Gershgorin bound cannot clear (_block_psd_check),
        and the error reports the first row that is not PSD."""
        E = require_finite(np.asarray(E, dtype=float), self._domain, DomainError)
        S = self._coords.assemble(E if E.ndim == 2 else _as_params(E, self.size), trace=1.0)
        _block_psd_check(S, self._domain)
        return S

    @cached_property
    def affine_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(R0, D) with state_of(E) = R0 + sum_j E_j D_j; D_j = d state_of / d E_j."""
        R0 = self._embed(self._coords.assemble(np.zeros(self.size), trace=1.0))
        return R0, np.array([self._embed(D) for D in self._coords.D])

    def derivative_of(self, E) -> np.ndarray:
        _as_params(E, self.size)
        return self.affine_parts[1].copy()


class PinchingAnsatz(_LinearAnsatz):
    """Linear family keeping the diagonal blocks of a reference observable's eigenbasis."""

    label = "pinching"
    _domain = "pinching parameter vector"

    def __init__(self, X):
        w, self._U, self._blocks = _eigenbasis(X, "pinched observable")
        self._coords = _BlockCoords(self._blocks, len(w), drop_last_diag=True)
        self.relevant = RelevantSet(tuple(self._embed(P) for P in self._coords.P))

    def _embed(self, S: np.ndarray) -> np.ndarray:
        return _rotate(self._U, S)

    # state_of is defined on each linear family class: perfbench/tracer.py wraps it there
    def state_of(self, E) -> np.ndarray:
        return self._embed(self.feasible_block(E))


class SelectiveAnsatz(AnsatzFamily):
    """Renormalized single-branch family of a reference observable's eigenvalue.

    Parameters are the unnormalized block components; state_of renormalizes
    the block, so consistency with the relevant observables holds on the
    unit-block-trace slice (where every posterior lands).
    """

    label = "selective"
    _domain = "selective parameter vector"

    def __init__(self, X, eigenvalue: float):
        w, self._U, blocks = _eigenbasis(X, "measured observable")
        tol = EIG_CLUSTER_TOL * (1.0 + float(np.max(np.abs(w))))
        selected = None
        for block in blocks:
            if abs(float(np.mean(w[block])) - float(eigenvalue)) <= tol:
                selected = block
                break
        if selected is None:
            raise ValidationError(f"eigenvalue {eigenvalue} is not in the spectrum {w}")
        self._coords = _BlockCoords([selected], len(w), drop_last_diag=False)
        self.relevant = RelevantSet(tuple(_rotate(self._U, self._coords.P)))

    def _sigma_of(self, E: np.ndarray) -> tuple[np.ndarray, float]:
        S = self._coords.assemble(require_finite(E, self._domain, DomainError), trace=None)
        weight = float(S.trace().real)
        if weight < ZERO_BRANCH_TOL:
            raise ZeroProbabilityBranchError(
                f"selected branch has weight {weight:.3e}, below {ZERO_BRANCH_TOL}"
            )
        return S, weight

    def state_of(self, E) -> np.ndarray:
        E = _as_params(E, self.size)
        S, weight = self._sigma_of(E)
        S = S / weight
        _block_psd_check(S, self._domain)
        return _rotate(self._U, S)

    def derivative_of(self, E) -> np.ndarray:
        E = _as_params(E, self.size)
        S, weight = self._sigma_of(E)
        D = self._coords.D
        raw = D / weight - S * (np.einsum("maa->m", D).real / weight**2)[:, None, None]
        return _rotate(self._U, raw)


class FactorizedAnsatz(_LinearAnsatz):
    """Linear family rho_S x rho_B with a fixed bath factor."""

    label = "factorized"
    _domain = "factorized system parameter vector"

    def __init__(self, rho_B, dims: tuple[int, int]):
        if len(dims) != 2 or any(isinstance(n, bool) or not isinstance(n, Real) or not float(n).is_integer()
                                 for n in dims):
            raise ValidationError(f"factorized dims {dims} must be two integers")
        dS, dB = int(dims[0]), int(dims[1])
        if dS < 2 or dB < 1:
            raise ValidationError(f"factorized dims {dims} must have a nontrivial system factor")
        rho_B = require_density(require_finite(rho_B, "bath state"), name="bath state")
        if rho_B.shape[0] != dB:
            raise ValidationError(f"bath state dimension {rho_B.shape[0]} does not match dims {dims}")
        self.dims = (dS, dB)
        self.rho_B = rho_B
        self._coords = _BlockCoords([list(range(dS))], dS, drop_last_diag=True)
        eyeB = np.eye(dB, dtype=complex)
        self.relevant = RelevantSet(tuple(kron(P, eyeB) for P in self._coords.P))

    def _embed(self, S: np.ndarray) -> np.ndarray:
        return kron(hermitize(S), self.rho_B)

    def state_of(self, E) -> np.ndarray:
        return self._embed(self.feasible_block(E))
