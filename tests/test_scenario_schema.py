"""The scenario schema: its null policy, its documentation, and the inputs
that used to escape it.

Every key of every table in thermostrobe.cli is set to null on a scenario
that reads it; null must read as absent for exactly the keys listed in
NULL_AS_ABSENT and be a config error everywhere else.  Every key must also
be named in the README's "Scenario format" section.
"""

import copy
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from thermostrobe import cli
from thermostrobe.cli import Key, main

ROOT = Path(__file__).resolve().parents[1]

# null reads as absent for these keys and sections; elsewhere it is a config error
NULL_AS_ABSENT = {
    "strob.ode_step", "model.shifts", "model.observable", "model.jumps",
    "ansatz.observable", "initial.E", "initial.beta_probe", "initial.rho",
    "fit.target_E", "fit.tail_of", "scenario.output", "scenario.checks", "scenario.compare",
    "scenario.fit",
}


def committed(name: str) -> dict:
    scenario = yaml.safe_load((ROOT / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8"))
    scenario["strob"]["horizon"] = 0.2  # every key is read by then; the run itself is not tested
    return scenario


def with_sections(base: dict, **sections) -> dict:
    out = copy.deepcopy(base)
    out.update(sections)
    return out


R = 2.0 ** -0.5
SZ1 = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
SX1 = [[0.0, R, 0.0], [R, 0.0, R], [0.0, R, 0.0]]
STANDARD = committed("qubit_standard")
STATIC = committed("custom_static")
CUSTOM = with_sections(STATIC, ansatz={"kind": "pinching", "observable": [[1.0, 0.0], [0.0, -1.0]]})
JUMPY = copy.deepcopy(CUSTOM)
JUMPY["model"]["jumps"] = [{"operator": [[0.0, 0.0], [1.0, 0.0]], "rate": 0.3}]
GENERALIZED = with_sections(STATIC, ansatz={"kind": "gibbs-generalized", "observables": [SZ1, SX1],
                                            "fit_tol": 1e-11},
                            model={"kind": "custom-gksl", "hamiltonian": np.diag([1.0, 0.0, -1.0]).tolist()},
                            initial={"E": [-0.1, 0.05]})
SELECTIVE = with_sections(STANDARD, ansatz={"kind": "selective", "eigenvalue": 1.0})
FACTORIZED = with_sections(STATIC, model={"kind": "custom-gksl", "hamiltonian": np.eye(4).tolist()},
                           ansatz={"kind": "factorized", "bath_state": [[0.5, 0.0], [0.0, 0.5]],
                                   "dims": [2, 2]},
                           initial={"E": [0.5, 0.0, 0.0]})
FIT_BOTH = with_sections(committed("qubit_fit"), initial={"E": [0.5]},
                         fit={"target_E": [0.2689414213699951], "tail_of": "discrete"})

# table -> (the section's name in messages, where the section sits, a scenario
# giving every required key of the table, and the command that reads it)
CASES = {
    "SCENARIO": ("scenario", (), STANDARD, "simulate"),
    "STROB": ("strob", ("strob",), STANDARD, "simulate"),
    "MODELS[qubit]": ("model", ("model",), STANDARD, "simulate"),
    "MODELS[multilevel]": ("model", ("model",), committed("multilevel_relax"), "simulate"),
    "MODELS[custom-gksl]": ("model", ("model",), CUSTOM, "simulate"),
    "JUMP": ("model.jumps[0]", ("model", "jumps", 0), JUMPY, "simulate"),
    "ANSATZES[gibbs-canonical]": ("ansatz", ("ansatz",), STANDARD, "simulate"),
    "ANSATZES[gibbs-generalized]": ("ansatz", ("ansatz",), GENERALIZED, "simulate"),
    "ANSATZES[pinching]": ("ansatz", ("ansatz",), STATIC, "simulate"),
    "ANSATZES[selective]": ("ansatz", ("ansatz",), SELECTIVE, "analyze-invariance"),
    "ANSATZES[factorized]": ("ansatz", ("ansatz",), FACTORIZED, "simulate"),
    "INITIAL": ("initial", ("initial",), STANDARD, "simulate"),
    "OUTPUT": ("output", ("output",), STANDARD, "simulate"),
    "CHECKS": ("checks", ("checks",), with_sections(STANDARD, checks={}), "simulate"),
    "COMPARE": ("compare", ("compare",), committed("qubit_ladder"), "compare"),
    "FIT": ("fit", ("fit",), FIT_BOTH, "fit"),
}
# initial.E is read as absent on a scenario that gives beta_probe instead
OTHER_INITIAL = {"E": committed("multilevel_relax")}


def schema_tables():
    """Every table of the schema, the per-kind ones under NAME[kind]."""
    for name, obj in vars(cli).items():
        if not isinstance(obj, dict) or not obj or name.startswith("_"):
            continue
        values = list(obj.values())
        if all(isinstance(v, Key) for v in values):
            yield name, obj
        elif all(isinstance(v, dict) and all(isinstance(k, Key) for k in v.values()) for v in values):
            for kind, table in obj.items():
                yield f"{name}[{kind}]", table


def null_cases():
    for table_name, table in schema_tables():
        what, where, base, command = CASES[table_name]
        keys = list(table) + (["kind"] if "[" in table_name else [])
        for key in keys:
            yield pytest.param(what, where, OTHER_INITIAL.get(key, base) if what == "initial" else base,
                               command, key, id=f"{table_name}.{key}")


def run(tmp_path, scenario: dict, command: str, capsys) -> tuple[int, str]:
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_every_table_has_a_null_case():
    assert {name for name, _ in schema_tables()} == set(CASES)


@pytest.mark.parametrize("what, where, base, command, key", null_cases())
def test_null_reads_as_absent_only_where_listed(tmp_path, capsys, what, where, base, command, key):
    scenario = copy.deepcopy(base)
    section = scenario
    for step in where:
        section = section[step]
    section[key] = None
    code, err = run(tmp_path, scenario, command, capsys)
    if f"{what}.{key}" in NULL_AS_ABSENT:
        assert code == 0, err
    else:
        assert code == 2 and err.startswith("config error:"), err


def test_every_schema_key_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario format", 1)[1].split("\n## ", 1)[0]
    for table_name, table in schema_tables():
        for key in table:
            assert re.search(rf"`{re.escape(key)}`|\b{re.escape(key)}:", section), \
                f"{table_name}.{key} is not in the README's scenario format"
    for kind in list(cli.MODELS) + list(cli.ANSATZES):
        assert kind in section


# ---------------------------------------------------------------------------
# inputs that escaped the schema as raw exceptions or warnings


@pytest.mark.parametrize("name, section, key, value, message", [
    ("qubit_standard", "strob", "lambda", 1e200, "invalid strob config: lam^2 dt overflows"),
    ("custom_static", "model", "jumps", 2.5, "model.jumps must be a list"),
    ("custom_static", "model", "jumps", True, "model.jumps must be a list"),
    ("qubit_standard", "strob", "dt", True, "strob.dt must be a number, got True"),
    ("qubit_standard", "model", "gamma", False, "model.gamma must be a number, got False"),
    ("qubit_standard", "strob", 1, 2, "unknown keys in strob: 1"),
], ids=["lambda-overflow", "float-jumps", "bool-jumps", "bool-dt", "bool-gamma", "int-key"])
def test_escaped_inputs_are_config_errors(tmp_path, capsys, name, section, key, value, message):
    scenario = committed(name)
    scenario[section][key] = value
    code, err = run(tmp_path, scenario, "simulate", capsys)
    assert code == 2 and err.startswith("config error:") and message in err, err


@pytest.mark.parametrize("name, command, section, key, value", [
    ("qubit_standard", "simulate", "model", "omega0", 1e308),
    ("qubit_fit", "fit", "model", "beta0", -1e308),
    ("multilevel_relax", "simulate", "model", "beta0", 1e308),
    ("qubit_invariance", "analyze-invariance", "model", "gamma", 1e308),
], ids=["qubit-omega0", "qubit-beta0", "multilevel-beta0", "invariance-gamma"])
def test_numerical_overflow_is_a_runtime_error(tmp_path, capsys, name, command, section, key, value):
    # these used to pass numpy warnings, and the invariance report wrote NaN and Infinity
    scenario = committed(name)
    scenario[section][key] = value
    code, err = run(tmp_path, scenario, command, capsys)
    assert code == 3 and err.startswith("error:") and "overflow" in err, err
    for path in (tmp_path / "out").glob("*.json"):
        json.loads(path.read_text(), parse_constant=pytest.fail)


def test_overflow_inside_a_walk_names_the_step(tmp_path, capsys):
    scenario = committed("multilevel_relax")
    scenario["model"]["base_rates"][0][1] = 1e308
    code, err = run(tmp_path, scenario, "simulate", capsys)
    assert code == 3 and err.startswith("error: protocol step 0 (t = 0): overflow"), err


def test_python_float_overflow_is_a_runtime_error(tmp_path, capsys):
    # the selective family squares its branch weight as a Python float, which raises OverflowError
    scenario = with_sections(SELECTIVE, initial={"E": [1e308]})
    code, err = run(tmp_path, scenario, "analyze-invariance", capsys)
    assert code == 3 and err.startswith("error:") and "out of range" in err, err


def test_non_finite_report_value_is_a_runtime_error(tmp_path, capsys):
    # the bracket comes from a matrix product, which numpy's error state does not see
    scenario = with_sections(committed("multilevel_relax"), ansatz={"kind": "pinching"},
                             initial={"E": [0.5, 0.3]})
    scenario["model"]["base_rates"][1][2] = 1e154
    code, err = run(tmp_path, scenario, "analyze-invariance", capsys)
    assert code == 3 and err.startswith("error: a reported value is not finite"), err
    assert not list((tmp_path / "out").glob("*.json"))


def test_factorized_dims_must_match_the_model(tmp_path, capsys):
    # a system factor of 20 on a 4-dimensional model used to build its 399 observables first
    scenario = copy.deepcopy(FACTORIZED)
    scenario["ansatz"]["dims"] = [20, 2]
    code, err = run(tmp_path, scenario, "simulate", capsys)
    assert code == 2 and "ansatz.dims must multiply to the model dimension 4" in err, err


def test_failed_gibbs_eigensolve_is_a_runtime_error(tmp_path, capsys):
    # a generalized target near the float range drives Newton to exponents eigh cannot diagonalize
    scenario = with_sections(GENERALIZED, initial={"E": [-0.1, 1e308]}, protocols=["discrete"])
    code, err = run(tmp_path, scenario, "simulate", capsys)
    assert code == 3 and err.startswith("error: protocol step 0") and "eigensolve" in err, err


def test_default_sections_are_each_callers_own():
    path = str(ROOT / "scenarios" / "qubit_fit.yaml")  # gives no output, checks or initial
    first = cli.load_scenario(path)
    first["output"]["emit_beta"] = True
    first["initial"]["E"] = [0.5]
    second = cli.load_scenario(path)
    assert second["output"] == {} and second["initial"] == {}
