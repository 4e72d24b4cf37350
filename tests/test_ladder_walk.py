"""The compare ladder's one beta walk against each rung walked alone.

compare walks the ode1 and ode2 trajectories of every rung of its dt ladder as
rows of one stack (run_odes with one config per protocol): each row takes RK4
steps of its own h = dt / substeps, is sampled every substeps steps and leaves
the stack at its horizon.  Each row must carry the bits of its rung walked
alone.  A ladder walk that raises is dropped and every rung runs alone in
order, so the command's exit code, stderr and files are those of rung-by-rung
runs.
"""

import contextlib
import io

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    GibbsAnsatz,
    GkslGenerator,
    QubitParams,
    StrobConfig,
    ValidationError,
    qubit_energy_observable,
    qubit_generator,
    run_odes,
    strob,
)
from thermostrobe.cli import main
from reference import SIGMA_X, SIGMA_Z

DRIVEN = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
FAMILIES = {  # generator, family and E0: the driven qubit's energy table, a qubit's dense (S_z, S_x) family
    "qubit": lambda: (qubit_generator(DRIVEN), GibbsAnsatz.canonical(qubit_energy_observable(DRIVEN)), [0.5]),
    "generalized": lambda: (GkslGenerator(0.5 * SIGMA_Z + 0.1 * SIGMA_X,
                                          ((SIGMA_MINUS, 0.5), (SIGMA_PLUS, 0.2))),
                            GibbsAnsatz((SIGMA_Z, SIGMA_X)), [-0.3, 0.2]),
}


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def assert_rows_walk_alone(kind: str, lam: float, dts: list, horizon: float, protocols: list) -> None:
    """run_odes of protocols[i] on the grid of dts[i], all at once, against each rung's
    protocols walked together on its own grid and each protocol walked alone."""
    gen, family, E0 = FAMILIES[kind]()
    cfgs = [StrobConfig(lam=lam, dt=dt, horizon=horizon) for dt in dts]
    ladder = run_odes(gen, family, E0, cfgs, protocols, with_temps=True)
    for cfg in set(cfgs):
        rows = [i for i, c in enumerate(cfgs) if c == cfg]
        rung = run_odes(gen, family, E0, cfg, [protocols[i] for i in rows], with_temps=True)
        for i, together in zip(rows, rung):
            alone, = run_odes(gen, family, E0, cfg, [protocols[i]], with_temps=True)
            assert len(ladder[i]) == cfg.n_steps() + 1
            for ref in (together, alone):
                assert ladder[i].meta == ref.meta
                for name in ("times", "params", "temps"):
                    assert_same_bits(getattr(ladder[i], name), getattr(ref, name))


@pytest.mark.parametrize("kind, dts, horizon", [
    ("qubit", [0.2, 0.05, 0.1], 0.4),  # unsorted; 20, 10 and 10 RK4 steps per interval
    ("qubit", [0.025, 0.1, 0.05], 0.3),
    ("qubit", [0.1, 0.1], 0.5),  # a duplicate rung
    ("qubit", [0.1, 0.05], 0.5),
    ("qubit", [0.2, 0.05, 0.1], 0.0),  # no step at all
    ("generalized", [0.2, 0.05, 0.1], 0.4),
    ("generalized", [0.05, 0.1], 0.0),
], ids=["unsorted", "three-rungs", "duplicate", "two-rungs", "horizon-0", "generalized",
        "generalized-horizon-0"])
def test_ladder_rows_are_each_rung_walked_alone(kind, dts, horizon):
    dts = [dt for dt in dts for _ in ("ode1", "ode2")]
    assert_rows_walk_alone(kind, 1.3, dts, horizon, ["ode1", "ode2"] * (len(dts) // 2))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(sorted(FAMILIES)), st.floats(min_value=0.0, max_value=3.0),
       st.lists(st.tuples(st.sampled_from([0.2, 0.1, 0.05, 0.025]), st.sampled_from(["ode1", "ode2"])),
                min_size=2, max_size=5),
       st.sampled_from([0.0, 0.2, 0.4]))
def test_any_ladder_rows_are_each_rung_walked_alone(kind, lam, rows, horizon):
    """Rows in any order, each rung with any subset of ode1 and ode2, lam = 0 included."""
    assert_rows_walk_alone(kind, lam, [dt for dt, _ in rows], horizon, [proto for _, proto in rows])


def test_a_config_list_of_another_length_than_protocols_is_refused():
    gen, family, E0 = FAMILIES["qubit"]()
    with pytest.raises(ValidationError, match=r"^1 configs for 2 protocols$"):
        run_odes(gen, family, E0, [StrobConfig(dt=0.1, horizon=0.2)], ["ode1", "ode2"])


def run_compare(tmp_path, scenario: dict):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out, err = tmp_path / "out", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["compare", str(path), "--out-dir", str(out)])
    return code, err.getvalue(), sorted(p.name for p in out.iterdir())


R = 2.0 ** -0.5
QUBIT = {
    "name": "qubit",
    "model": {"kind": "qubit", "omega0": 1.0, "gamma": 0.5, "beta0": 1.0, "Omega": 0.2},
    "ansatz": {"kind": "gibbs-canonical"},
    "strob": {"dt": 0.1, "horizon": 1.0},
    "initial": {"E": [0.5]},
}
SPIN = {
    "name": "spin",
    "model": {"kind": "custom-gksl",
              "hamiltonian": [[1.0, 0.2, 0.0], [0.2, 0.0, 0.2], [0.0, 0.2, -1.0]],
              "jumps": [{"operator": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "rate": 0.3},
                        {"operator": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "rate": 0.1}]},
    "ansatz": {"kind": "gibbs-generalized",
               "observables": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                               [[0.0, R, 0.0], [R, 0.0, R], [0.0, R, 0.0]]]},
    "strob": {"dt": 0.1, "horizon": 1.0},
    "initial": {"E": [-0.1, 0.05]},
}
SINGULAR = ("error: protocol step 0 (t = 0): Gibbs response matrix is numerically singular "
            "(|eigenvalues| from ")


# exit code, stderr and files of each ladder run rung by rung, in order; with
# [0.025, 0.1] the second rung fails, with [0.1, 0.025] the first
@pytest.mark.parametrize("scenario, lam, dts, stderr", [
    (QUBIT, 200.0, [0.025, 0.1], "0.000e+00 to 0.000e+00) at beta = [-110.54776557]\n"),
    (QUBIT, 200.0, [0.1, 0.025], "0.000e+00 to 0.000e+00) at beta = [-110.54776557]\n"),
    (QUBIT, 400.0, [0.025, 0.05, 0.1], "0.000e+00 to 0.000e+00) at beta = [-110.54776557]\n"),
    (QUBIT, 3000.0, [0.05, 0.1], "0.000e+00 to 0.000e+00) at beta = [-155.60707764]\n"),  # every rung
    (SPIN, 50.0, [0.05, 0.2, 0.1], "8.890e-17 to 5.836e-03) at beta = [-55.94926543 161.95887963]\n"),
    (SPIN, 80.0, [0.1, 0.05], "7.112e-17 to 1.777e-02) at beta = [ 15.80882973 -54.0002622 ]\n"),
], ids=["qubit-second", "qubit-first", "qubit-two-of-three", "qubit-all", "spin-1-middle", "spin-1-first"])
def test_a_failing_ladder_fails_as_its_rungs_run_alone(tmp_path, scenario, lam, dts, stderr):
    ladder = {**scenario, "strob": {**scenario["strob"], "lambda": lam}, "compare": {"dts": dts}}
    assert run_compare(tmp_path, ladder) == (3, SINGULAR + stderr, [])


def test_a_ladder_walks_its_longest_rung_once(tmp_path, monkeypatch):
    """Every rung's ode1 and ode2 advance in one walk: as many RK4 steps as the longest
    rung takes (8 intervals of 10 at dt = 0.05), not their sum (40 + 80 + 40), and the
    Heisenberg images A and B built once for the ladder, not once per rung."""
    calls = {"rk4_step": 0, "apply_heisenberg": 0}
    for name in calls:
        original = getattr(strob, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(strob, name, counted)
    ladder = {**QUBIT, "strob": {"dt": 0.2, "horizon": 0.4}, "compare": {"dts": [0.2, 0.05, 0.1]}}
    code, stderr, files = run_compare(tmp_path, ladder)
    assert (code, stderr, len(files)) == (0, "", 10)
    assert calls == {"rk4_step": 80, "apply_heisenberg": 2}
