"""The canonical beta-route velocity in Python floats against its numpy reference.

For a one-observable Gibbs family every RHS of the beta-route walk reads
J, G = d<A>/dbeta, <A> and <B> of each row as Python floats and forms
dbeta/dt = J^-1 dE/dt from them (strob._canonical_beta_velocity).  Each
1 x 1 product numpy would make is one IEEE operation, so the floats must give
the bits of ContinuumLimit.beta_velocity on each of the point's rows(); a row
that fails the response-matrix check, or whose velocity is not finite, is
handed back to that numpy path, which raises what it always raised.
"""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    ContinuumLimit,
    DegenerateAnsatzError,
    GibbsAnsatz,
    QubitParams,
    StrobConfig,
    qubit_energy_observable,
    qubit_generator,
)
from thermostrobe.ansatz import _GibbsPoint
from thermostrobe.cli import main
from thermostrobe.strob import _canonical_beta_velocity, _gibbs_walk
from tutil import random_generator, random_hermitian

DRIVEN = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4),
       st.sampled_from([0.0, 1.3]), st.integers(min_value=0, max_value=2**31 - 1))
def test_float_velocity_is_the_numpy_velocity(d, n, lam, seed):
    """Random canonical tables, stacks of 1-4 exponents (one of them 0) at random orders:
    the float rows equal beta_velocity on rows(), and a lone vector its lone velocity.
    lam = 0 makes every velocity a signed zero, which must keep numpy's sign."""
    rng = np.random.default_rng(seed)
    family = GibbsAnsatz.canonical(random_hermitian(rng, d))
    limit = ContinuumLimit(random_generator(rng, d), family, StrobConfig(lam=lam, dt=0.1))
    betas = rng.normal(scale=1.5, size=(n, 1))
    betas[rng.integers(n)] = 0.0
    orders = [int(o) for o in rng.integers(1, 3, size=n)]
    point = limit.gibbs_point(betas)
    point.slopes(max(orders))  # as the walk's RHS contracts it
    fast = _canonical_beta_velocity([limit.cfg] * n, point, orders)
    slow = np.array([limit.beta_velocity(row, order) for row, order in zip(point.rows(), orders)])
    assert fast is not None and fast.shape == betas.shape
    assert np.array_equal(fast, slow) and np.array_equal(np.signbit(fast), np.signbit(slow))
    for beta, order in zip(betas, orders):
        lone = limit.gibbs_point(beta)
        lone.slopes(order)
        fast = _canonical_beta_velocity([limit.cfg], lone, [order])
        slow = limit.beta_velocity(lone, order)
        assert fast is not None and fast.shape == (1,)
        assert np.array_equal(fast, slow) and np.array_equal(np.signbit(fast), np.signbit(slow))


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
    beta = 800 it is exactly 0; the floats hand such a row back to beta_velocity."""
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
    calls = {"response_inverse": 0, "rows": 0}
    for name in calls:
        original = getattr(_GibbsPoint, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_GibbsPoint, name, counted)
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert all((count > 0) == numpy_rows for count in calls.values()), calls
