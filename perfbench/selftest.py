"""Self-test of the output checks: none of them passes vacuously.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it runs the
command once, requires every check to pass on the real outputs, then for
each check perturbs the outputs (or the exit code) in the way that check
guards against and requires that check to fail.  Where a check has a
tolerance, the perturbation is about a hundred times it, so the self-test
also shows that the checks are sharp.  Exit code 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import yaml  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

# The workload seed of the self-test; the rows perturbed below are rows of
# this seed's outputs.
SEED = 1

# check name -> (file suffix, row, column, delta), or ("rc", exit code)
PERTURB = {
    "ladder-qubit": {
        "exit_code": ("rc", 1),
        "grid": ("_dt1_ode2.csv", 3, "t", 1e-9),
        "report_deviations": ("_compare.json", 0, "deviation_ode2", 1e-15),
        "ode1_closed_form": ("_dt3_ode1.csv", 5, "E_1", 1e-8),
        "ode2_closed_form": ("_dt2_ode2.csv", 7, "E_1", 1e-8),
        "discrete_affine_map": ("_dt1_discrete.csv", 4, "E_1", 1e-8),
    },
    "relax-multilevel": {
        "exit_code": ("rc", 3),
        "grid": ("_ode-temperature.csv", 2, "t", 1e-9),
        "beta_integration": ("_ode-temperature.csv", 12, "beta_1", 1e-8),
        "monotone_toward_bath": ("_ode-temperature.csv", 20, "beta_1", -0.05),
        "energy_of_beta": ("_ode-temperature.csv", 30, "E_1", 1e-10),
    },
    "gibbs-noncommuting": {
        "exit_code": ("rc", 3),
        "grid": ("_discrete.csv", 0, "E_2", 1e-10),
        "beta_reproduces_E": ("_ode1.csv", 6, "beta_2", 1e-8),
        "discrete_round": ("_discrete.csv", 9, "E_1", 1e-7),
        "ode1_intervals": ("_ode1.csv", 1, "E_1", 1e-7),
        "ode2_intervals": ("_ode2.csv", -1, "E_2", 1e-7),
    },
    "open-factorized": {
        "exit_code": ("rc", 3),
        "grid": ("_ode1.csv", 0, "E_3", 1e-10),
        "discrete_linear_map": ("_discrete.csv", 11, "E_2", 1e-10),
        "ode1_exact": ("_ode1.csv", 50, "E_1", 1e-8),
        "ode2_exact": ("_ode2.csv", 77, "E_3", 1e-8),
    },
}


def _perturb_csv(path: str, row: int, column: str, delta: float) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    body = lines[1:]
    fields = body[row].split(",")
    j = header.index(column)
    fields[j] = format(float(fields[j]) + delta, ".17g")
    body[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0], *body]) + "\n")


def _perturb_json(path: str, index: int, key: str, rel: float) -> None:
    import json
    report = oracle.read_json(path)
    report[key][index] *= 1.0 + rel
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def selftest(name: str, root: str) -> list[str]:
    from thermostrobe import cli

    with open(os.path.join(root, "scenarios", "multilevel_relax.yaml"), encoding="utf-8") as fh:
        wl = workloads.build(name, SEED, yaml.safe_load(fh))
    work = os.path.join(root, ".perfbench", f"selftest-{name}")
    shutil.rmtree(work, ignore_errors=True)
    out = os.path.join(work, "out")
    os.makedirs(out)
    scenario = os.path.join(work, "scenario.yaml")
    with open(scenario, "w", encoding="utf-8") as fh:
        yaml.safe_dump(wl.scenario, fh)
    rc = cli.main([wl.command, scenario, "--out-dir", out])
    errors = [f"{name}: correct outputs rejected: {msg}" for msg in oracle.check(wl, out, rc)]
    checks = oracle.named_checks(wl, out, rc)
    if set(checks) != set(PERTURB[name]):
        errors.append(f"{name}: perturbations {sorted(PERTURB[name])} do not match checks {sorted(checks)}")
    bad = os.path.join(work, "perturbed")
    for check_name, how in PERTURB[name].items():
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        bad_rc = rc
        if how[0] == "rc":
            bad_rc = how[1]
            what = f"exit code {bad_rc}"
        elif how[0].endswith(".json"):
            _perturb_json(os.path.join(bad, wl.stem + how[0]), *how[1:])
            what = f"{how[2]}[{how[1]}] scaled by 1 + {how[3]:g}"
        else:
            _perturb_csv(os.path.join(bad, wl.stem + how[0]), *how[1:])
            what = f"{how[2]} row {how[1]} of *{how[0]} moved by {how[3]:g}"
        try:
            oracle.named_checks(wl, bad, bad_rc)[check_name]()
        except oracle.CheckFailed as err:
            print(f"PASS {name} {check_name}: rejects {what} ({err})")
            continue
        errors.append(f"{name}: check {check_name} accepted {what}")
    shutil.rmtree(work, ignore_errors=True)
    return errors


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    errors = []
    for name in workloads.WORKLOADS:
        errors += selftest(name, root)
    for msg in errors:
        print(f"FAIL {msg}")
    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
