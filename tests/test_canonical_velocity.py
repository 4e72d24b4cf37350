"""The canonical beta-route kernel against its numpy reference.

For a one-observable Gibbs family every RHS of the beta-route walk is one
kernel (strob._canonical_kernel): beta to dbeta/dt, with Python floats for
every single IEEE operation and numpy for exp, Z, the means and the slopes.
It must give the bits of strob.beta_velocity on each row of the
gibbs_point, read from the row's views of the point's arrays, and hand the
RHS back exactly when that numpy path raises (a row with a subnormal or zero
J), so the numpy path raises what it always raised.  A canonical walk then
builds no Gibbs point per RHS.
"""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    ContinuumLimit,
    DegenerateAnsatzError,
    DomainError,
    GibbsAnsatz,
    QubitParams,
    StrobConfig,
    qubit_energy_observable,
    qubit_generator,
    strob,
)
from thermostrobe.ansatz import _GibbsPoint
from thermostrobe.cli import main
from thermostrobe.strob import _canonical_kernel, _gibbs_walk, beta_velocity
from reference import point_velocity
from tutil import random_generator, random_hermitian

DRIVEN = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)


def numpy_velocity(limit, beta, order, cfg):
    """beta_velocity on the gibbs_point of beta (a lone row), or None where it raises."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return point_velocity(limit.gibbs_point(beta), order, cfg)
    except (FloatingPointError, DegenerateAnsatzError, DomainError):
        return None


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_float_velocity_is_the_numpy_velocity(d, n, seed):
    """Random canonical tables of 2-9 levels (numpy sums 8 or more pairwise), stacks of 1-6
    exponents (one of them 0, some deep enough that J is subnormal or 0, a few with a
    non-finite spectrum) at random orders,
    each row on its own config, lam = 0 for some (a signed-zero velocity must keep numpy's
    sign): the kernel's rows equal beta_velocity on the point's rows, a lone row its lone velocity,
    and the kernel hands back exactly when a row's numpy velocity raises."""
    rng = np.random.default_rng(seed)
    family = GibbsAnsatz.canonical(random_hermitian(rng, d))
    cfgs = [StrobConfig(lam=float(rng.choice([0.0, 0.4, 1.3, 7.0])), dt=float(rng.choice([0.05, 0.1])))
            for _ in range(n)]
    limit = ContinuumLimit(random_generator(rng, d), family, cfgs[0])
    w = np.sort(family.relevant.spectral_basis[1][0])
    betas = rng.normal(scale=1.5, size=(n, 1))
    deep = rng.random(n) < 0.3  # beta times the gap at the populated end of the spectrum: 600 to 900
    signs = rng.choice([-1.0, 1.0], size=n)
    gaps = np.where(signs > 0, w[1] - w[0], w[-1] - w[-2])
    betas[deep, 0] = (signs * rng.uniform(600.0, 900.0, size=n) / gaps)[deep]
    wild = rng.random(n) < 0.05  # a non-finite beta, or one whose spectrum overflows
    betas[wild, 0] = rng.choice([np.inf, -np.inf, np.nan, 1e308, -1e308], size=n)[wild]
    betas[rng.integers(n)] = 0.0
    orders = [int(o) for o in rng.integers(1, 3, size=n)]
    lone = [numpy_velocity(limit, beta, order, cfg) for beta, order, cfg in zip(betas, orders, cfgs)]
    for beta, order, cfg, slow in zip(betas, orders, cfgs, lone):
        fast = _canonical_kernel(limit, [cfg], [order])(beta)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.shape == (1,) and same_bits(fast, slow)
    fast = _canonical_kernel(limit, cfgs, orders)(betas)
    assert (fast is None) == any(slow is None for slow in lone)
    if fast is not None:
        point = limit.gibbs_point(betas)
        slopes = point.slopes(max(orders))  # as the walk's numpy RHS contracts it
        slow = np.array([beta_velocity(cfg, order, *row) for row, order, cfg in zip(
            zip(betas, point.means, point.jacobian, slopes[:, 1:]), orders, cfgs)])
        assert fast.shape == betas.shape and same_bits(fast, slow)


OVERFLOW = (FloatingPointError, "protocol step 0 (t = 0): overflow encountered in divide")
SINGULAR = (DegenerateAnsatzError, "protocol step 0 (t = 0): Gibbs response matrix is numerically "
                                   "singular (|eigenvalues| from 0.000e+00 to 0.000e+00) at beta = [800.]")


@pytest.mark.parametrize("beta, expected", [
    (710.0, OVERFLOW), (712.0, OVERFLOW), (720.0, OVERFLOW), (740.0, OVERFLOW), (800.0, SINGULAR),
], ids=["710", "712", "720", "740", "800"])
@pytest.mark.parametrize("starts, orders", [([0], [1]), ([0], [2]), ([[0], [0]], [1, 2])],
                         ids=["ode1", "ode2", "stacked"])
def test_a_row_the_floats_cannot_clear_raises_the_numpy_error(beta, expected, starts, orders):
    """Deep in the ground state the qubit's J is subnormal, so 1/J overflows, and at
    beta = 800 it is exactly 0; the kernel hands such a row back to beta_velocity."""
    limit = ContinuumLimit(qubit_generator(DRIVEN), GibbsAnsatz.canonical(qubit_energy_observable(DRIVEN)),
                           StrobConfig(lam=1.3, dt=0.1, horizon=0.3))
    with np.errstate(over="raise", invalid="raise"), pytest.raises(expected[0]) as info:
        _gibbs_walk(limit, np.array(starts, dtype=float) + beta, orders, [limit.cfg] * len(orders))
    assert str(info.value) == expected[1]


QUBIT_PAIR = {
    "name": "pair",
    "model": {"kind": "qubit", "omega0": 1.0, "gamma": 0.5, "beta0": 1.0, "Omega": 0.2},
    "ansatz": {"kind": "gibbs-canonical"},
    "protocols": ["ode1", "ode2"],
    "strob": {"dt": 0.1, "horizon": 0.2},
    "initial": {"E": [0.5]},
}
GENERALIZED_PAIR = {**QUBIT_PAIR,
                    "ansatz": {"kind": "gibbs-generalized",
                               "observables": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]},
                    "initial": {"E": [-0.3, 0.2]}}


@pytest.mark.parametrize("scenario, numpy_rows", [(QUBIT_PAIR, False), (GENERALIZED_PAIR, True)],
                         ids=["canonical", "generalized"])
def test_only_a_family_of_two_observables_reads_numpy_rows(tmp_path, monkeypatch, scenario, numpy_rows):
    calls = [0]
    original = strob.beta_velocity

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(strob, "beta_velocity", counted)
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert (calls[0] > 0) == numpy_rows, calls


@pytest.mark.parametrize("scenario, per_rhs", [(QUBIT_PAIR, False), (GENERALIZED_PAIR, True)],
                         ids=["canonical", "generalized"])
def test_a_canonical_walk_builds_no_gibbs_point_per_rhs(tmp_path, monkeypatch, scenario, per_rhs):
    """ode1 and ode2 walk 20 RK4 steps, 80 RHS: a canonical run builds two Gibbs points, the
    fit of E0 and the final E read, and a two-observable run one point per RHS."""
    built, inside, calls = [], [False], [0]  # per point built: whether an RHS built it
    init, step = _GibbsPoint.__init__, strob.rk4_step

    def counted_init(self, *args):
        built.append(inside[0])
        init(self, *args)

    def counted_step(rhs, x, h):
        def counted_rhs(beta):
            calls[0] += 1
            inside[0] = True
            try:
                return rhs(beta)
            finally:
                inside[0] = False
        return step(counted_rhs, x, h)

    monkeypatch.setattr(_GibbsPoint, "__init__", counted_init)
    monkeypatch.setattr(strob, "rk4_step", counted_step)
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls[0] == 80
    if per_rhs:
        assert sum(built) == 80
    else:
        assert built == [False, False]
