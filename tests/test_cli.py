import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.linalg import expm

from thermostrobe import cli, strob
from thermostrobe.cli import load_scenario, main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

QUBIT_BASE = {
    "name": "mini",
    "model": {"kind": "qubit", "omega0": 1.0, "gamma": 0.5, "beta0": 1.0, "Omega": 0.2},
    "ansatz": {"kind": "gibbs-canonical"},
    "protocols": ["discrete", "ode2"],
    "strob": {"dt": 0.1, "horizon": 0.5},
    "initial": {"E": [0.5]},
    "output": {"emit_beta": True},
}

MULTILEVEL_BASE = {
    "name": "ml",
    "model": {
        "kind": "multilevel",
        "omegas": [0.0, 1.0, 2.0],
        "base_rates": [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        "beta0": 1.0,
    },
    "ansatz": {"kind": "gibbs-canonical"},
    "protocols": ["ode-temperature"],
    "strob": {"dt": 0.1, "horizon": 0.5},
    "initial": {"beta_probe": 0.5},
    "output": {"emit_beta": True},
}


def scenario_file(tmp_path, scenario, fname="scenario.yaml"):
    path = tmp_path / fname
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    return str(path)


def variant(base, **sections):
    out = copy.deepcopy(base)
    out.update(sections)
    return out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_outputs(tmp_path):
    path = scenario_file(tmp_path, QUBIT_BASE)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "mini_summary.json").read_text())
    assert summary["name"] == "mini"
    assert summary["model"] == "qubit"
    assert summary["ansatz"] == "gibbs-canonical"
    assert summary["protocols"] == ["discrete", "ode2"]
    assert summary["initial_E"] == [0.5]
    assert summary["files_discrete"] == "mini_discrete.csv"
    assert len(summary["stationary_ode2"]) == 1
    assert summary["diagnostics"]["deviation_discrete_vs_ode2"] < 1e-3
    lines = (out / "mini_discrete.csv").read_text().splitlines()
    assert lines[0] == "t,E_1,beta_1"
    assert len(lines) == 7  # header + 6 grid points
    assert float(lines[1].split(",")[1]) == 0.5


def test_simulate_is_byte_deterministic(tmp_path):
    path = scenario_file(tmp_path, QUBIT_BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", path, "--out-dir", str(out1)]) == 0
    assert main(["simulate", path, "--out-dir", str(out2)]) == 0
    for f in sorted(p.name for p in out1.iterdir()):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_simulate_closed_form_protocol(tmp_path):
    sc = variant(QUBIT_BASE, protocols=["closed-form"])
    sc["model"]["Omega"] = 0.0
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "mini_summary.json").read_text())
    assert "stationary_beta_closed-form" in summary
    lines = (out / "mini_closed-form.csv").read_text().splitlines()
    assert lines[0] == "t,E_1,beta_1"


def test_simulate_initial_rho(tmp_path):
    sc = variant(QUBIT_BASE, initial={"rho": [[0.4, 0.0], [0.0, 0.6]]})
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "mini_summary.json").read_text())
    assert summary["initial_E"] == pytest.approx([0.4])


def test_simulate_checks_section(tmp_path):
    sc = variant(QUBIT_BASE, checks={"generic_vs_analytic": True, "fd_mode": True})
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    diag = json.loads((out / "mini_summary.json").read_text())["diagnostics"]
    assert diag["generic_vs_analytic_A"] <= 1e-10
    assert diag["generic_vs_analytic_B"] <= 1e-10
    assert diag["fd_gradient_deviation_ode2"] <= 1e-6


def test_simulate_multilevel_temperature(tmp_path):
    path = scenario_file(tmp_path, MULTILEVEL_BASE)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    rows = (out / "ml_ode-temperature.csv").read_text().splitlines()[1:]
    betas = [float(r.split(",")[2]) for r in rows]
    assert betas[0] == pytest.approx(0.5, abs=1e-12)
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))  # warms toward the bath


def test_simulate_accepts_string_numbers(tmp_path):
    sc = copy.deepcopy(QUBIT_BASE)
    sc["strob"] = {"dt": "0.1", "horizon": "0.3", "ode_step": "1e-2"}
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    assert json.loads((out / "mini_summary.json").read_text())["ode_step"] == 0.01


def test_simulate_custom_gksl_static_state(tmp_path):
    sc = {
        "name": "static",
        "model": {
            "kind": "custom-gksl",
            "hamiltonian": [[0.0, 0.0], [0.0, 0.0]],
            "jumps": [],
            "observable": [[1.0, 0.0], [0.0, -1.0]],
        },
        "ansatz": {"kind": "pinching"},
        "protocols": ["discrete", "ode2"],
        "strob": {"dt": 0.1, "horizon": 0.5},
        "initial": {"E": [0.8]},
    }
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    for proto in ("discrete", "ode2"):
        rows = (out / f"static_{proto}.csv").read_text().splitlines()[1:]
        values = {r.split(",")[1] for r in rows}
        assert len(values) == 1  # nothing moves under the zero generator


def test_factorized_non_integer_dims_is_config_error(tmp_path, capsys):
    sc = {
        "name": "fact",
        "model": {"kind": "custom-gksl", "hamiltonian": np.eye(4).tolist(), "jumps": []},
        "ansatz": {"kind": "factorized", "bath_state": [[0.5, 0.0], [0.0, 0.5]], "dims": [2, "x"]},
        "protocols": ["discrete"],
        "strob": {"dt": 0.1, "horizon": 0.5},
        "initial": {"E": [0.5, 0.0, 0.0]},
    }
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: ansatz.dims must be an integer" in capsys.readouterr().err


SPIN1_Z = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
SPIN1_X = [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]


@pytest.mark.parametrize("command", ["simulate", "analyze-invariance"])
@pytest.mark.parametrize("model, ansatz", [
    (QUBIT_BASE["model"], {"kind": "gibbs-canonical", "observable": SPIN1_Z}),
    ({"kind": "custom-gksl", "hamiltonian": np.eye(2).tolist(), "observable": SPIN1_Z},
     {"kind": "gibbs-canonical"}),
    (QUBIT_BASE["model"], {"kind": "gibbs-generalized", "observables": [SPIN1_Z, SPIN1_X]}),
    (QUBIT_BASE["model"], {"kind": "pinching", "observable": SPIN1_Z}),
    (QUBIT_BASE["model"], {"kind": "selective", "observable": SPIN1_Z, "eigenvalue": 1.0}),
], ids=["gibbs-canonical", "model-observable", "gibbs-generalized", "pinching", "selective"])
def test_family_of_another_dimension_is_config_error(tmp_path, capsys, command, model, ansatz):
    # a qubit model with 3x3 observables: refused when the family is built, before any run
    path = scenario_file(tmp_path, variant(QUBIT_BASE, model=model, ansatz=ansatz))
    assert main([command, path, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid ansatz: its observables are 3x3, the model dimension is 2\n")


FACTORIZED_BASE = {
    "name": "fact",
    "model": {"kind": "custom-gksl", "hamiltonian": np.eye(4).tolist(), "jumps": []},
    "ansatz": {"kind": "factorized", "bath_state": [[0.5, 0.0], [0.0, 0.5]], "dims": [2, 2]},
    "protocols": ["discrete"],
    "strob": {"dt": 0.1, "horizon": 0.5},
    "initial": {"E": [0.5, 0.0, 0.0]},
}


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|, level 0 decays


def test_simulate_factorized_ode_rows_match_exact_affine_solution(tmp_path):
    # qubit system x two-level bath; the factorized family's velocity is affine in
    # E = (rho_S[0,0], 2 Re rho_S[0,1], 2 Im rho_S[0,1]), so dx/dt = aug x on x = (E, 1)
    eye2 = np.eye(2)
    H = (np.kron(0.5 * np.diag([1.0, -1.0]) + 0.3 * SIGMA_X, eye2) + np.kron(eye2, np.diag([0.0, 0.8]))
         + 0.2 * np.kron(SIGMA_X, SIGMA_X))
    jumps = [(np.kron(SIGMA_LOWER, eye2), 0.4), (np.kron(SIGMA_LOWER.T, eye2), 0.1),
             (np.kron(eye2, SIGMA_LOWER), 0.3)]
    rho_B = np.diag([0.7, 0.3])
    E0, lam, dt, horizon = np.array([0.6, 0.2, -0.1]), 1.0, 0.1, 1.0
    sc = {
        "name": "fact",
        "model": {"kind": "custom-gksl", "hamiltonian": H.tolist(),
                  "jumps": [{"operator": L.tolist(), "rate": g} for L, g in jumps]},
        "ansatz": {"kind": "factorized", "bath_state": rho_B.tolist(), "dims": [2, 2]},
        "protocols": ["ode1", "ode2"],
        "strob": {"lambda": lam, "dt": dt, "horizon": horizon},
        "initial": {"E": E0.tolist()},
    }
    out = tmp_path / "out"
    assert main(["simulate", scenario_file(tmp_path, sc), "--out-dir", str(out)]) == 0

    def adjoint(X):
        Y = 1j * (H @ X - X @ H)
        for L, g in jumps:
            Y = Y + g * (L.T @ X @ L - 0.5 * (L.T @ L @ X + X @ L.T @ L))
        return Y

    A = [adjoint(np.kron(P, eye2)) for P in (np.diag([1.0, 0.0]), SIGMA_X, -SIGMA_Y)]
    B = [adjoint(Am) for Am in A]
    # rho_S(E) = diag(0, 1) + E_0 diag(1, -1) + E_1 sigma_x / 2 - E_2 sigma_y / 2
    R0 = np.kron(np.diag([0.0, 1.0]), rho_B)
    D = [np.kron(Q, rho_B) for Q in (np.diag([1.0, -1.0]), SIGMA_X / 2, -SIGMA_Y / 2)]

    def pair(ops, rho):
        return np.array([np.trace(X @ rho).real for X in ops])

    a_M, b_M = (np.array([pair(ops, Dj) for Dj in D]).T for ops in (A, B))
    a_c, b_c = pair(A, R0), pair(B, R0)
    alpha, h = lam**2 * dt, dt / 10
    for order in (1, 2):
        aug = np.zeros((4, 4))
        if order == 1:
            aug[:3, :3], aug[:3, 3] = lam * a_M, lam * a_c
        else:
            aug[:3, :3] = lam * a_M + 0.5 * alpha * (b_M - a_M @ a_M)
            aug[:3, 3] = lam * a_c + 0.5 * alpha * (b_c - a_M @ a_c)
        x0 = np.append(E0, 1.0)
        rows = np.loadtxt(out / f"fact_ode{order}.csv", delimiter=",", skiprows=1)
        exact = np.array([(expm(t * aug) @ x0)[:3] for t in rows[:, 0]])
        X = h * aug
        step = sum(np.linalg.matrix_power(X, k) / f for k, f in enumerate((1, 1, 2, 6, 24)))
        rk4 = np.array([(np.linalg.matrix_power(step, 10 * k) @ x0)[:3] for k in range(len(rows))])
        rk4_err = float(np.max(np.abs(rk4 - exact)))
        assert 0.0 < rk4_err < 1e-8
        assert float(np.max(np.abs(rows[:, 1:] - exact))) <= rk4_err + 1e-12


@pytest.mark.parametrize("command, scenario, section, key, value, message", [
    ("fit", "qubit_fit", "fit", "max_iter", 2.7, "fit.max_iter must be an integer"),
    ("fit", "qubit_fit", "fit", "max_iter", True, "fit.max_iter must be an integer"),
    ("fit", "qubit_fit", "fit", "max_iter", -3, "max_iter must be at least 1"),
    ("fit", "qubit_fit", "fit", "tol", -1, "fit tolerance must be nonnegative"),
    ("simulate", "qubit_standard", "ansatz", "fit_tol", -1, "fit tolerance must be nonnegative"),
    ("simulate", None, "ansatz", "dims", [2.9, 2], "ansatz.dims must be an integer"),
], ids=["fractional-max-iter", "bool-max-iter", "negative-max-iter", "negative-tol",
        "negative-fit-tol", "fractional-dims"])
def test_bad_integer_and_tolerance_settings_are_config_errors(tmp_path, capsys, command, scenario,
                                                              section, key, value, message):
    sc = copy.deepcopy(FACTORIZED_BASE) if scenario is None else \
        load_scenario(str(SCENARIOS / f"{scenario}.yaml"))
    sc[section][key] = value
    path = scenario_file(tmp_path, sc)
    assert main([command, path, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("key, value", [
    ("omegas", 3),
    ("base_rates", 2),
    ("base_rates", [[0.0, 1.0], [0.0]]),
    ("shifts", 3),
], ids=["scalar-omegas", "scalar-base-rates", "ragged-base-rates", "scalar-shifts"])
def test_multilevel_malformed_lists_are_config_errors(tmp_path, capsys, key, value):
    sc = copy.deepcopy(MULTILEVEL_BASE)
    sc["model"][key] = value
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: model.{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("output", "emit_beta", "false"),
    ("output", "emit_beta", 0),
    ("checks", "fd_mode", "yes"),
    ("checks", "generic_vs_analytic", None),
], ids=["string-emit-beta", "integer-emit-beta", "string-fd-mode", "null-generic-vs-analytic"])
def test_scenario_switches_must_be_booleans(tmp_path, capsys, section, key, value):
    sc = variant(QUBIT_BASE, checks={})
    sc[section][key] = value
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {section}.{key} must be true or false" in capsys.readouterr().err


def test_strob_fd_step_is_an_unknown_key(tmp_path, capsys):
    sc = variant(QUBIT_BASE, strob={"dt": 0.1, "horizon": 0.5, "fd_step": 1e-5})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: unknown keys in strob: fd_step" in capsys.readouterr().err


def test_non_dividing_ode_step_is_config_error(tmp_path, capsys):
    sc = variant(QUBIT_BASE, strob={"dt": 0.1, "horizon": 0.5, "ode_step": 0.07})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: invalid strob config: ode_step 0.07 does not divide dt=0.1" in capsys.readouterr().err


def test_non_whole_horizon_is_config_error(tmp_path, capsys):
    sc = variant(QUBIT_BASE, strob={"dt": 0.03, "horizon": 0.5})
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "o"
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    assert ("config error: invalid strob config: horizon 0.5 is not a whole number of "
            "dt=0.03 intervals") in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_compare_checks_every_rung_before_running_any(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_discrete", lambda *args, **kwargs: runs.append(args))
    sc = compare_scenario()
    sc["compare"] = {"dts": [0.2, 0.03]}
    path = scenario_file(tmp_path, sc)
    assert main(["compare", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert ("config error: invalid strob config: horizon 0.8 is not a whole number of "
            "dt=0.03 intervals") in capsys.readouterr().err
    assert runs == []


@pytest.mark.parametrize("blocked", ["out-dir-is-a-file", "out-dir-below-a-file",
                                     "output-is-a-directory"])
def test_unusable_out_dir_is_config_error(tmp_path, capsys, blocked):
    path = scenario_file(tmp_path, QUBIT_BASE)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"out-dir-is-a-file": taken, "out-dir-below-a-file": taken / "out"}.get(blocked)
    if out is None:
        out = tmp_path / "out"
        (out / "mini_discrete.csv").mkdir(parents=True)
    assert main(["simulate", path, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write outputs:") and "Traceback" not in err


def test_simulate_complex_matrix_entries(tmp_path):
    sc = {
        "name": "cplx",
        "model": {
            "kind": "custom-gksl",
            "hamiltonian": [[0.0, [0.0, -0.2]], [[0.0, 0.2], 1.0]],
            "jumps": [{"operator": [[0.0, 0.0], [1.0, 0.0]], "rate": 0.3}],
            "observable": [[1.0, 0.0], [0.0, 0.0]],
        },
        "ansatz": {"kind": "gibbs-canonical"},
        "protocols": ["discrete"],
        "strob": {"dt": 0.1, "horizon": 0.3},
        "initial": {"E": [0.5]},
    }
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0


# ---------------------------------------------------------------------------
# configuration errors (exit 2) and domain errors (exit 3)


def test_unknown_scenario_key_rejected(tmp_path, capsys):
    sc = variant(QUBIT_BASE, modle={"kind": "qubit"})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["name: [unclosed\n", "a: 1\n  b: 2\n", "key: @bad\n"],
                         ids=["unclosed-flow", "bad-indent", "reserved-char"])
def test_malformed_yaml_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: scenario file is not valid YAML" in capsys.readouterr().err


def test_bad_scenario_name(tmp_path):
    sc = variant(QUBIT_BASE, name="a/b")
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_duplicate_protocol_rejected(tmp_path):
    sc = variant(QUBIT_BASE, protocols=["discrete", "discrete"])
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_closed_form_needs_qubit(tmp_path):
    sc = variant(MULTILEVEL_BASE, protocols=["closed-form"])
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_ode_temperature_needs_canonical_gibbs(tmp_path):
    sc = variant(QUBIT_BASE, ansatz={"kind": "pinching"}, protocols=["ode-temperature"])
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_initial_needs_exactly_one_entry(tmp_path):
    sc = variant(QUBIT_BASE, initial={"E": [0.5], "beta_probe": 1.0})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_initial_length_mismatch(tmp_path):
    sc = variant(QUBIT_BASE, initial={"E": [0.5, 0.4]})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_beta_probe_needs_gibbs(tmp_path):
    sc = variant(QUBIT_BASE, ansatz={"kind": "pinching"}, initial={"beta_probe": 1.0})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_exclusive_rate_specifications(tmp_path):
    sc = copy.deepcopy(QUBIT_BASE)
    sc["model"]["bosonic_gamma0"] = 1.0  # together with gamma
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_unknown_model_kind(tmp_path):
    sc = variant(QUBIT_BASE, model={"kind": "oscillator"})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_boundary_initial_energy_is_domain_error(tmp_path, capsys):
    sc = variant(QUBIT_BASE, initial={"E": [0.0]})
    path = scenario_file(tmp_path, sc)
    assert main(["simulate", path, "--out-dir", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "feasible-domain boundary" in err


# ---------------------------------------------------------------------------
# compare


def compare_scenario():
    sc = variant(QUBIT_BASE, name="ladder", compare={"dts": [0.2, 0.1]})
    sc["strob"] = {"dt": 0.2, "horizon": 0.8}
    del sc["protocols"]
    return sc


def test_compare_report(tmp_path):
    path = scenario_file(tmp_path, compare_scenario())
    out = tmp_path / "out"
    assert main(["compare", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "ladder_compare.json").read_text())
    assert report["dts"] == [0.2, 0.1]
    assert len(report["deviation_ode2"]) == 2
    assert report["ode2_closer"] is True
    assert report["ratio_ode2"][0] > 1.0
    assert report["diagnostics"]["min_ratio_ode2"] == report["ratio_ode2"][0]
    for i in (1, 2):
        for proto in ("discrete", "ode1", "ode2"):
            assert (out / f"ladder_dt{i}_{proto}.csv").exists()


def test_compare_rejects_single_dt(tmp_path):
    sc = compare_scenario()
    sc["compare"] = {"dts": [0.1]}
    path = scenario_file(tmp_path, sc)
    assert main(["compare", path, "--out-dir", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# fit


def test_fit_target_energy(tmp_path):
    sc = variant(QUBIT_BASE, name="fit", fit={"target_E": [0.2689414213699951], "tol": 1e-12})
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["fit", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "fit_fit.json").read_text())
    assert report["target_source"] == "target_E"
    assert report["beta"][0] == pytest.approx(1.0, abs=1e-9)
    assert report["residual"] <= 1e-12
    assert report["iterations"] >= 1
    assert report["diagnostics"]["closed_form_beta"] == pytest.approx(1.0, abs=1e-12)


def test_fit_tail_of_protocol(tmp_path):
    sc = variant(QUBIT_BASE, name="fit", fit={"tail_of": "discrete"})
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["fit", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "fit_fit.json").read_text())
    assert report["target_source"] == "tail_of discrete"
    assert 0.0 < report["target"][0] < 1.0


def test_fit_out_of_range_target(tmp_path, capsys):
    sc = variant(QUBIT_BASE, name="fit", fit={"target_E": [1.5]})
    path = scenario_file(tmp_path, sc)
    assert main(["fit", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert "feasible-domain boundary" in capsys.readouterr().err


def test_fit_non_integer_max_iter_is_config_error(tmp_path, capsys):
    sc = variant(QUBIT_BASE, name="fit", fit={"target_E": [0.3], "max_iter": "abc"})
    path = scenario_file(tmp_path, sc)
    assert main(["fit", path, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: fit.max_iter must be an integer" in capsys.readouterr().err


def test_fit_needs_gibbs_ansatz(tmp_path):
    sc = variant(QUBIT_BASE, name="fit", ansatz={"kind": "pinching"}, fit={"target_E": [0.3]})
    path = scenario_file(tmp_path, sc)
    assert main(["fit", path, "--out-dir", str(tmp_path / "o")]) == 2


def test_fit_needs_a_target(tmp_path):
    sc = variant(QUBIT_BASE, name="fit", fit={})
    path = scenario_file(tmp_path, sc)
    assert main(["fit", path, "--out-dir", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# analyze-invariance


def test_invariance_undriven_qubit(tmp_path):
    sc = variant(QUBIT_BASE, name="inv")
    sc["model"]["Omega"] = 0.0
    path = scenario_file(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["analyze-invariance", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "inv_invariance.json").read_text())
    assert report["invariant"] is True
    assert report["residual"] <= 1e-12
    assert report["bracket_norm"] <= 1e-10
    assert report["diagnostics"]["closure_velocity_deviation"] <= 1e-10
    assert report["diagnostics"]["rhs_drop_ode1_vs_ode2"] <= 1e-10
    L = np.array(report["L"])
    assert L.shape == (2, 2)
    assert L[1, 0] == pytest.approx(0.18393972058572117, abs=1e-12)


def test_invariance_driven_qubit_fails(tmp_path):
    # probe away from E = omega0/2, where the correction bracket has a zero
    path = scenario_file(tmp_path, variant(QUBIT_BASE, name="inv", initial={"E": [0.3]}))
    out = tmp_path / "out"
    assert main(["analyze-invariance", path, "--out-dir", str(out)]) == 0
    report = json.loads((out / "inv_invariance.json").read_text())
    assert report["invariant"] is False
    assert report["residual"] > 0.1
    assert report["bracket_norm"] > 1e-3


def test_invariance_bracket_frozen_values(tmp_path):
    # a closed population family: the bracket and the ode2 - ode1 drop are
    # rounding-level, so their exact values pin the arithmetic that forms them
    sc = variant(MULTILEVEL_BASE, ansatz={"kind": "pinching"}, initial={"E": [0.5, 0.3]})
    out = tmp_path / "out"
    assert main(["analyze-invariance", scenario_file(tmp_path, sc), "--out-dir", str(out)]) == 0
    report = json.loads((out / "ml_invariance.json").read_text())
    assert report["invariant"] is True
    assert report["bracket_norm"] == 3.0531133177191805e-16
    assert report["diagnostics"]["rhs_drop_ode1_vs_ode2"] == 1.3877787807814457e-17


# ---------------------------------------------------------------------------
# one continuum-limit object per command: the Heisenberg images are built once


def count_images(monkeypatch) -> list:
    calls = []
    original = strob.apply_heisenberg

    def counted(gen, X):
        calls.append(X)
        return original(gen, X)

    monkeypatch.setattr(strob, "apply_heisenberg", counted)
    return calls


def test_invariance_builds_images_once(tmp_path, monkeypatch):
    calls = count_images(monkeypatch)
    out = tmp_path / "out"
    assert main(["analyze-invariance", str(SCENARIOS / "qubit_invariance.yaml"), "--out-dir", str(out)]) == 0
    assert len(calls) == 4  # L*(I) and L*(H) for the closure, then A = L*(H) and B = L*(A)
    report = json.loads((out / "qubit_invariance_invariance.json").read_text())
    assert report["bracket_norm"] == 0.0
    assert report["diagnostics"]["rhs_drop_ode1_vs_ode2"] == 0.0


def test_analytic_check_builds_images_once(tmp_path, monkeypatch):
    # the closed-form protocol applies no generator, so every image counted is the check's
    sc = variant(QUBIT_BASE, protocols=["closed-form"], checks={"generic_vs_analytic": True})
    path = scenario_file(tmp_path, sc)
    calls = count_images(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out-dir", str(out)]) == 0
    assert len(calls) == 2  # A and B, shared by the 19 sample points
    diag = json.loads((out / "mini_summary.json").read_text())["diagnostics"]
    assert diag["generic_vs_analytic_A"] <= 1e-10
    assert diag["generic_vs_analytic_B"] <= 1e-10


# ---------------------------------------------------------------------------
# module entry point


def test_main_parses_each_call_alone_with_one_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()
    path = scenario_file(tmp_path, variant(QUBIT_BASE, protocols=["closed-form"]))
    invariance = str(SCENARIOS / "qubit_invariance.yaml")
    assert main(["simulate", path, "--out-dir", "a"]) == 0
    for bad in (["fit"], ["simulate", path, "--bogus"], ["nope", path], [],
                ["analyze-invariance", invariance, "--out-dir"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        assert "usage: thermostrobe" in capsys.readouterr().err
    assert main(["analyze-invariance", invariance]) == 0  # no --out-dir left over from a call before
    assert (tmp_path / "a" / "mini_summary.json").exists()
    assert (tmp_path / "qubit_invariance_invariance.json").exists()
    assert cli._build_parser.cache_info().misses == 1


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "thermostrobe", "simulate", str(tmp_path / "nope.yaml")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "config error:" in out.stderr
