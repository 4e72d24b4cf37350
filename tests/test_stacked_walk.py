"""The stacked beta-route walk against its own lone walks.

Every Gibbs ODE trajectory on one grid (simulate's ode1, ode2 and
ode-temperature, a compare rung's ode1 and ode2) advances as one row of one
stack: each RK4 stage is one Gibbs point of the whole stack, with one batched
eigh for a family whose observables do not commute.  A row must carry the
bits of the same trajectory walked alone.  A stack that fails raises; the
command line then walks each trajectory alone in listed order, so each
reports its own error at its own step, as a lone run does.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
import yaml

from thermostrobe import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    ContinuumLimit,
    DomainError,
    GibbsAnsatz,
    GkslGenerator,
    MultilevelParams,
    QubitParams,
    StrobConfig,
    ThermostrobeError,
    Trajectory,
    multilevel_energy_observable,
    multilevel_generator,
    qubit_energy_observable,
    qubit_generator,
    run_ode_temperature,
    run_odes,
)
from thermostrobe import ansatz
from thermostrobe.ansatz import _GibbsPoint
from thermostrobe.cli import main
from thermostrobe.matcore import exp_neg_kernel
from thermostrobe.strob import _gibbs_walk
from tutil import random_generator

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
R = 2.0 ** -0.5
SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX1 = np.array([[0.0, R, 0.0], [R, 0.0, R], [0.0, R, 0.0]], dtype=complex)
DRIVEN = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
ML = MultilevelParams(omegas=(0.0, 1.0, 2.0),
                      base_rates=np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
                      beta0=1.0)
CFG = StrobConfig(lam=1.3, dt=0.1, horizon=0.3)


def family_limit(kind: str, cfg: StrobConfig = CFG) -> ContinuumLimit:
    """The qubit and multilevel energy tables, and the dense spin-1 (S_z, S_x) family."""
    if kind == "qubit":
        gen, family = qubit_generator(DRIVEN), GibbsAnsatz.canonical(qubit_energy_observable(DRIVEN))
        return ContinuumLimit(gen, family, cfg)
    if kind == "multilevel":
        gen, family = multilevel_generator(ML), GibbsAnsatz.canonical(multilevel_energy_observable(ML))
        return ContinuumLimit(gen, family, cfg)
    return ContinuumLimit(random_generator(np.random.default_rng(7), 3), GibbsAnsatz((SZ1, SX1)), cfg)


FAMILIES = ("qubit", "multilevel", "spin-1")
# the stacks a walk evaluates: n trajectories at an RK4 stage, and T rows of them at the end
SHAPES = ((2,), (3,), (4, 2), (4, 3), (4,))


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("lead", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_each_row_of_a_stacked_point_is_its_lone_point(kind, lead):
    limit = family_limit(kind)
    relevant, M = limit.family.relevant, limit.family.size
    betas = np.random.default_rng(len(lead) * 10 + lead[-1]).normal(scale=1.5, size=lead + (M,))
    for stack in (limit._point_stack, None):  # [P; A; B] as the RHS reads it, [P] as the rows
        point = _GibbsPoint(relevant, betas, stack)
        width = len(point.means[(0,) * len(lead)])
        point.slopes(width)
        kernels = exp_neg_kernel(point.k)
        for index in np.ndindex(*lead):
            alone = _GibbsPoint(relevant, betas[index], stack)
            for name in ("k", "q", "Z", "means", "E") + (() if point.diagonal else ("U", "X")):
                assert np.array_equal(getattr(point, name)[index], getattr(alone, name)), (name, index)
            assert np.array_equal(point.slopes(width)[index], alone.slopes(width))
            narrow = _GibbsPoint(relevant, betas[index], stack).slopes(M)  # only the P rows contracted
            assert np.array_equal(point.slopes(width)[index][:M], narrow)
            assert np.array_equal(kernels[index], exp_neg_kernel(alone.k))


@pytest.mark.parametrize("kind", FAMILIES)
def test_stacked_walk_rows_equal_lone_walks(kind):
    limit = family_limit(kind)
    rng = np.random.default_rng({"qubit": 1, "multilevel": 2, "spin-1": 3}[kind])
    for _ in range(3):
        n = int(rng.integers(2, 4))
        orders = [int(o) for o in rng.integers(1, 3, size=n)]
        starts = rng.normal(scale=0.8, size=(n, limit.family.size))
        stacked = _gibbs_walk(limit, starts, orders)
        assert stacked.temps.shape == (len(stacked), n, limit.family.size)
        for i, (start, order) in enumerate(zip(starts, orders)):
            alone = _gibbs_walk(limit, start, [order])
            assert np.array_equal(stacked.temps[:, i], alone.temps)
            assert np.array_equal(stacked.params[:, i], alone.params)


def decay_family():
    """A qubit decaying at zero temperature under (S_z, S_x): the walks reach the pure
    ground state, where the response matrix loses rank."""
    return GibbsAnsatz((SIGMA_Z, SIGMA_X))


@pytest.mark.parametrize("hamiltonian, rate, lam, dt, E0, steps", [
    (0.5 * SIGMA_Z, 2.0, 3.0, 0.1, [-0.3, 0.5], (50, 51)),
    (0.5 * SIGMA_Z + 0.5 * SIGMA_X, 5.0, 2.0, 0.2, [0.2, 0.3], (15, None)),
], ids=["both-fail", "ode1-fails"])
def test_a_failing_trajectory_keeps_its_own_error(hamiltonian, rate, lam, dt, E0, steps):
    """ode1 and ode2 walked as one stack raise the first failure; walked alone, each keeps
    its own error at its own step, and one that does not fail keeps its rows."""
    gen = GkslGenerator(hamiltonian, ((SIGMA_MINUS, rate),))
    cfg = StrobConfig(lam=lam, dt=dt, horizon=(max(s or 0 for s in steps) + 5) * dt)
    with pytest.raises(ThermostrobeError) as stacked:
        run_odes(gen, decay_family(), E0, cfg, ["ode1", "ode2"], with_temps=True)
    errors = []
    for proto, step in zip(("ode1", "ode2"), steps):
        if step is None:
            alone, = run_odes(gen, decay_family(), E0, cfg, [proto], with_temps=True)
            assert isinstance(alone, Trajectory) and len(alone) == cfg.n_steps() + 1
            continue
        with pytest.raises(ThermostrobeError, match=rf"^protocol step {step} ") as alone:
            run_odes(gen, decay_family(), E0, cfg, [proto], with_temps=True)
        errors.append(alone.value)
    assert type(stacked.value) is type(errors[0]) and str(stacked.value) == str(errors[0])


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every array np.linalg.eigh receives, seen from thermostrobe.ansatz."""
    shapes = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(ansatz.np.linalg, "eigh", counted)
    return shapes


GENERALIZED = {
    "name": "pair",
    "model": {"kind": "custom-gksl",
              "hamiltonian": [[1.0, 0.2, 0.0], [0.2, 0.0, 0.2], [0.0, 0.2, -1.0]],
              "jumps": [{"operator": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "rate": 0.3},
                        {"operator": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "rate": 0.1}]},
    "ansatz": {"kind": "gibbs-generalized", "observables": [SZ1.real.tolist(), SX1.real.tolist()]},
    "protocols": ["ode1", "ode2"],
    "strob": {"dt": 0.1, "horizon": 0.2},
    "initial": {"E": [-0.1, 0.05]},
}


def test_one_eigh_per_rk4_stage_for_both_trajectories(tmp_path, eigh_shapes):
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(GENERALIZED), encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    stacked = [shape for shape in eigh_shapes if len(shape) > 2]
    # ode1 and ode2 together: 2 intervals of 10 RK4 steps of 4 stages, then the 3 output rows
    assert stacked == [(2, 3, 3)] * (2 * 10 * 4) + [(3, 2, 3, 3)]
    assert len(eigh_shapes) - len(stacked) < 40  # the rest: the one fit of E0


@pytest.mark.parametrize("beta0", [1e308, np.inf, np.nan], ids=["1e308", "inf", "nan"])
def test_zero_step_temperature_run_reads_its_start_as_step_0(beta0):
    cfg = StrobConfig(dt=0.1, horizon=0.0)
    family = GibbsAnsatz.canonical(multilevel_energy_observable(ML))
    with pytest.raises(DomainError, match=r"^protocol step 0 \(t = 0\): .*non-finite"):
        run_ode_temperature(multilevel_generator(ML), family, beta0, cfg)


def run_cli(tmp_path, command: str, scenario: dict):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out, err = tmp_path / "out", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, str(path), "--out-dir", str(out)])
    return code, err.getvalue(), sorted(p.name for p in out.iterdir())


def test_cli_zero_step_run_from_an_overflowing_probe_names_step_0(tmp_path):
    scenario = yaml.safe_load((SCENARIOS / "multilevel_relax.yaml").read_text(encoding="utf-8"))
    scenario["strob"]["horizon"] = 0.0
    scenario["initial"] = {"beta_probe": 1.0e308}
    code, err, _ = run_cli(tmp_path, "simulate", scenario)
    assert code == 3
    assert err.startswith("error: protocol step 0 (t = 0): ") and "non-finite" in err


DECAY = {
    "name": "decay",
    "model": {"kind": "custom-gksl", "hamiltonian": [[0.5, 0.0], [0.0, -0.5]],
              "jumps": [{"operator": [[0.0, 0.0], [1.0, 0.0]], "rate": 2.0}]},
    "ansatz": {"kind": "gibbs-generalized",
               "observables": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]},
    "protocols": ["discrete", "ode1", "ode2"],
    "strob": {"lambda": 3.0, "dt": 0.1, "horizon": 10.0},
    "initial": {"E": [-0.3, 0.5]},
    "compare": {"dts": [0.1, 0.05]},
}
QUBIT_STRONG = {
    "name": "strong",
    "model": {"kind": "qubit", "omega0": 1.0, "gamma": 0.5, "beta0": 1.0, "Omega": 0.2},
    "ansatz": {"kind": "gibbs-canonical"},
    "protocols": ["discrete", "ode1", "ode2"],
    "strob": {"lambda": 200.0, "dt": 0.1, "horizon": 10.0, "ode_step": 0.01},
    "initial": {"E": [0.5]},
    "output": {"emit_beta": True},
    "compare": {"dts": [0.1, 0.05]},
}
# exit code, stderr and files of the runs that walked every trajectory alone
DECAY_ERROR = ("error: protocol step 50 (t = 5): Gibbs response matrix is numerically singular "
               "(|eigenvalues| from 6.287e-14 to 6.292e-02) at beta = [ 1.58929027e+01 -1.85564830e-06]\n")
DECAY_ODE2_ERROR = ("error: protocol step 51 (t = 5.1): Gibbs response matrix is numerically singular "
                    "(|eigenvalues| from 6.194e-14 to 6.289e-02) at beta = [ 1.59007728e+01 -1.66517844e-07]\n")
STRONG_ERROR = ("error: protocol step 0 (t = 0): Gibbs response matrix is numerically singular "
                "(|eigenvalues| from 0.000e+00 to 0.000e+00) at beta = [-110.54776557]\n")


@pytest.mark.parametrize("command, scenario, expected", [
    ("simulate", DECAY, (3, DECAY_ERROR, ["decay_discrete.csv"])),
    ("compare", DECAY, (3, DECAY_ERROR, [])),
    ("simulate", QUBIT_STRONG, (3, STRONG_ERROR, ["strong_discrete.csv", "strong_ode1.csv"])),
    ("compare", QUBIT_STRONG, (3, STRONG_ERROR, [])),
], ids=["decay-simulate", "decay-compare", "strong-simulate", "strong-compare"])
def test_cli_failures_of_a_stacked_walk_are_those_of_lone_walks(tmp_path, command, scenario, expected):
    assert run_cli(tmp_path, command, scenario) == expected


@pytest.mark.parametrize("protocols", [["ode2", "discrete", "ode1"], ["ode2", "ode1"]],
                         ids=["ode2-discrete-ode1", "ode2-ode1"])
def test_cli_reports_the_first_failure_in_listed_order(tmp_path, protocols):
    """ode2 is listed first, so its own step-51 error is reported, not ode1's earlier one."""
    assert run_cli(tmp_path, "simulate", {**DECAY, "protocols": protocols}) == (3, DECAY_ODE2_ERROR, [])
