"""Scenario-driven command line: parse a YAML scenario, run protocols, emit
CSV trajectories and JSON reports.

Commands: simulate, compare, fit, analyze-invariance; all take a scenario
file and an optional --out-dir.  Outputs are deterministic: identical inputs
give byte-identical files (17-significant-digit CSV fields, sorted JSON keys,
no timestamps or absolute paths).  Exit codes: 0 ok, 1 failed comparison
check, 2 config error, 3 runtime error (with the protocol step in the
message), numerical overflow included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from copy import copy
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import isfinite

import numpy as np
import yaml

from .ansatz import (
    FIT_TOL,
    AnsatzFamily,
    FactorizedAnsatz,
    GibbsAnsatz,
    PinchingAnsatz,
    SelectiveAnsatz,
    _check_fit_settings,
    extract_params,
    fit_beta,
    gibbs_expectations,
    qubit_beta_closed_form,
)
from .errors import ConfigError, DomainError, ThermostrobeError, ValidationError
from .liouville import GkslGenerator
from .models import (
    MultilevelParams,
    QubitParams,
    bosonic_gamma,
    multilevel_A_analytic,
    multilevel_B_analytic,
    multilevel_energy_observable,
    multilevel_generator,
    qubit_A_analytic,
    qubit_B_analytic,
    qubit_E_closed_form,
    qubit_energy_observable,
    qubit_generator,
)
from .strob import (
    ODE_ORDERS,
    ContinuumLimit,
    StrobConfig,
    Trajectory,
    _as_step,
    _velocity,
    invariant_subspace_matrix,
    run_discrete,
    run_odes,
)

PROTOCOLS = ("discrete", "ode1", "ode2", "ode-temperature", "closed-form")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not isfinite(obj):  # JSON has no NaN or infinity
        raise DomainError(f"a reported value is not finite: {obj}")
    return obj


def _dump_json(path: str, obj: dict) -> None:
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Scenario schema: one table per section (and per model or ansatz kind) maps each
# key to a converter, (value, what) -> typed value or ConfigError, and a default.


def _raw(value, what: str):
    return value


def _float(value, what: str) -> float:
    """A finite number or numeric string; booleans are refused rather than read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            out = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if not isfinite(out):
                raise ConfigError(f"{what} must be finite, got {out}")
            return out
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _int(value, what: str) -> int:
    """An integer, an integral float or an integer string; bools and fractions are refused."""
    if not isinstance(value, bool):
        try:
            out = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if out == value or isinstance(value, str):
                return out
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _bool(value, what: str) -> bool:
    """A YAML boolean; strings, numbers and null are refused rather than read for truth."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _complex(value, what: str) -> complex:
    """A number, or an [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{what}: complex entries are [re, im] pairs, got {value!r}")
        return complex(_float(value[0], what), _float(value[1], what))
    return complex(_float(value, what))


def _list(convert):
    """The converter of a list whose items convert reads."""
    def read_list(value, what: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{what} must be a list, got {value!r}")
        return tuple(convert(item, f"{what}[{i}]") for i, item in enumerate(value))
    return read_list


def _square(entry):
    """The converter of a nonempty square matrix, given as a list of rows of entries."""
    def read_matrix(value, what: str) -> np.ndarray:
        rows = _list(_list(entry))(value, what)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ConfigError(f"{what} must be a nonempty square matrix (a list of equal-length rows)")
        return np.array(rows)
    return read_matrix


_floats = _list(_float)
_matrix = _square(_complex)


def _vector(value, what: str) -> np.ndarray:
    """A number or a list of numbers, as a 1-D array."""
    return np.array(_floats(value if isinstance(value, (list, tuple)) else [value], what))


def _dims(value, what: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be [system, bath], got {value!r}")
    return tuple(_int(n, what) for n in value)


def _stem(value, what: str) -> str:
    if not isinstance(value, str) or not value or os.sep in value or "/" in value:
        raise ConfigError(f"scenario name must be a plain file stem, got {value!r}")
    return value


REQUIRED = object()  # the default of a key that must be given
# a scenario key: its converter, its default, and whether null reads as absent;
# any other null goes to the converter, which refuses it
Key = namedtuple("Key", "convert default null_is_absent", defaults=(REQUIRED, False))


def _optional(convert, default=None) -> Key:
    """A key for which both absence and null give default."""
    return Key(convert, default, True)


# sections are read when a command needs them, by the builders and commands below
SCENARIO = {
    "name": Key(_stem), "model": Key(_raw), "ansatz": Key(_raw), "strob": Key(_raw),
    "protocols": Key(_raw, None), "initial": Key(_raw, {}),
    "output": _optional(_raw, {}), "checks": _optional(_raw, {}),
    "compare": _optional(_raw, {}), "fit": _optional(_raw, {}),
}
STROB = {
    "lambda": Key(_float, 1.0), "dt": Key(_float), "horizon": Key(_float),
    "ode_step": _optional(_float),
}
MODELS = {  # one table per model.kind
    "qubit": {
        "omega0": Key(_float, 1.0), "gamma": Key(_float, 0.5), "bosonic_gamma0": Key(_float, None),
        "beta0": Key(_float, 1.0), "Omega": Key(_float, 0.0), "delta_omega": Key(_float, 0.0),
    },
    "multilevel": {
        "omegas": Key(_floats), "base_rates": Key(_square(_float)), "beta0": Key(_float, 1.0),
        "shifts": _optional(_floats),
    },
    "custom-gksl": {
        "hamiltonian": Key(_matrix),
        "jumps": _optional(_list(lambda value, what: read(JUMP, value, what)), ()),
        "observable": _optional(_matrix),
    },
}
JUMP = {"operator": Key(_matrix), "rate": Key(_float)}
ANSATZES = {  # one table per ansatz.kind; a null observable is the model's energy observable
    "gibbs-canonical": {"observable": _optional(_matrix), "fit_tol": Key(_float, FIT_TOL)},
    "gibbs-generalized": {"observables": Key(_list(_matrix)), "fit_tol": Key(_float, FIT_TOL)},
    "pinching": {"observable": _optional(_matrix)},
    "selective": {"observable": _optional(_matrix), "eigenvalue": Key(_float)},
    "factorized": {"bath_state": Key(_matrix), "dims": Key(_dims)},
}
INITIAL = {"E": _optional(_vector), "beta_probe": _optional(_float), "rho": _optional(_matrix)}
OUTPUT = {"emit_beta": Key(_bool, False)}
CHECKS = {"fd_mode": Key(_bool, False), "generic_vs_analytic": Key(_bool, False)}
COMPARE = {"dts": Key(_floats)}
FIT = {
    "target_E": _optional(_vector), "tail_of": _optional(_raw),
    "tol": Key(_float, 1e-10), "max_iter": Key(_int, 200),
}


def read(table: dict, section, what: str) -> dict:
    """The typed values of one scenario section, read against its table.

    Every check of a section's shape is made here: it must be a mapping,
    with no unknown keys and every required key; each given value goes
    through its key's converter and each absent one takes its default.  A
    table of tables (MODELS, ANSATZES) is chosen from by the section's kind,
    which comes back under "kind".
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(section).__name__}")
    if not isinstance(next(iter(table.values())), Key):
        kind = section.get("kind")
        if not (isinstance(kind, str) and kind in table):
            raise ConfigError(f"{what}.kind must be one of {tuple(table)}, got {kind!r}")
        table = {"kind": Key(_raw), **table[kind]}
    unknown = sorted(str(key) for key in section if key not in table)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {', '.join(unknown)}")
    out = {}
    for key, (convert, default, null_is_absent) in table.items():
        if key in section and not (section[key] is None and null_is_absent):
            out[key] = convert(section[key], f"{what}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{what} is missing the required key {key!r}")
        else:
            out[key] = copy(default)  # a section's {} is the caller's own to change
    return out


def load_scenario(path: str) -> dict:
    """The scenario's top level, read against SCENARIO; its sections stay as written."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as err:
        raise ConfigError(f"cannot read scenario file: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"scenario file is not valid YAML: {err}") from err
    return read(SCENARIO, raw, "scenario")


# ---------------------------------------------------------------------------
# Builders


@dataclass
class ModelBundle:
    kind: str
    generator: GkslGenerator
    energy_observable: np.ndarray | None
    qubit: QubitParams | None = None
    multilevel: MultilevelParams | None = None


def build_model(section, dt: float) -> ModelBundle:
    v = read(MODELS, section, "model")
    kind = v["kind"]
    if v.get("bosonic_gamma0") is not None and "gamma" in section:
        raise ConfigError("give model.gamma or model.bosonic_gamma0, not both")
    try:
        if kind == "qubit":
            gamma = v["gamma"] if v["bosonic_gamma0"] is None else (
                bosonic_gamma(v["bosonic_gamma0"], v["beta0"], v["omega0"]))
            params = QubitParams(omega0=v["omega0"], gamma=gamma, beta0=v["beta0"], dt=dt,
                                 Omega=v["Omega"], delta_omega=v["delta_omega"])
            return ModelBundle(kind, qubit_generator(params), qubit_energy_observable(params),
                               qubit=params)
        if kind == "multilevel":
            params = MultilevelParams(omegas=v["omegas"], base_rates=v["base_rates"],
                                      beta0=v["beta0"], shifts=v["shifts"])
            return ModelBundle(kind, multilevel_generator(params),
                               multilevel_energy_observable(params), multilevel=params)
        jumps = tuple((jump["operator"], jump["rate"]) for jump in v["jumps"])
        return ModelBundle(kind, GkslGenerator(v["hamiltonian"], jumps), v["observable"])
    except ThermostrobeError as err:
        raise ConfigError(f"invalid model: {err}") from err


def build_ansatz(section, model: ModelBundle) -> AnsatzFamily:
    v = read(ANSATZES, section, "ansatz")
    kind = v["kind"]
    if "observable" in v and v["observable"] is None:
        if model.energy_observable is None:
            raise ConfigError(f"{kind}: a custom-gksl model needs model.observable or an "
                              "explicit ansatz observable")
        v["observable"] = model.energy_observable
    d = model.generator.dim
    try:
        if kind == "gibbs-canonical":
            family = GibbsAnsatz.canonical(v["observable"], fit_tol=v["fit_tol"])
        elif kind == "gibbs-generalized":
            family = GibbsAnsatz(v["observables"], fit_tol=v["fit_tol"])
        elif kind == "pinching":
            family = PinchingAnsatz(v["observable"])
        elif kind == "selective":
            family = SelectiveAnsatz(v["observable"], v["eigenvalue"])
        elif v["dims"][0] * v["dims"][1] != d:  # before dS^2 - 1 observables are built
            raise ConfigError(f"ansatz.dims must multiply to the model dimension {d}")
        else:
            family = FactorizedAnsatz(v["bath_state"], v["dims"])
    except ThermostrobeError as err:
        raise ConfigError(f"invalid ansatz: {err}") from err
    if family.dim != d:
        raise ConfigError(f"invalid ansatz: its observables are {family.dim}x{family.dim}, "
                          f"the model dimension is {d}")
    return family


def build_config(section, dt: float | None = None) -> StrobConfig:
    """Protocol scales; a given dt (a compare rung's) also resets ode_step to its default."""
    v = read(STROB, section, "strob")
    if dt is not None:
        v.update(dt=dt, ode_step=None)
    try:
        cfg = StrobConfig(lam=v["lambda"], dt=v["dt"], horizon=v["horizon"], ode_step=v["ode_step"])
        cfg.n_steps()  # the horizon must be a whole number of dt intervals
    except ValidationError as err:
        raise ConfigError(f"invalid strob config: {err}") from err
    return cfg


def build_initial(section, family: AnsatzFamily) -> tuple[np.ndarray, float | None]:
    """Initial parameter vector and, when given directly, the probe temperature."""
    v = read(INITIAL, section, "initial")
    given = [key for key, value in v.items() if value is not None]
    if len(given) != 1:
        raise ConfigError(f"initial needs exactly one of E, beta_probe, rho; got {given}")
    if v["E"] is not None:
        if v["E"].shape != (family.size,):
            raise ConfigError(f"initial.E has {v['E'].shape[0]} entries, the ansatz has {family.size}")
        return v["E"], None
    if v["beta_probe"] is not None:
        if not isinstance(family, GibbsAnsatz) or family.size != 1:
            raise ConfigError("initial.beta_probe needs a gibbs-canonical ansatz")
        # the start point of every protocol: its failure is protocol step 0 (t = 0)
        return _as_step(0, 0.0, gibbs_expectations, family.relevant, [v["beta_probe"]]), v["beta_probe"]
    try:
        return extract_params(family, v["rho"]), None
    except ValidationError as err:
        raise ConfigError(f"invalid initial.rho: {err}") from err


# ---------------------------------------------------------------------------
# Protocol running and output


def _check_protocols(protocols, model: ModelBundle, family: AnsatzFamily) -> list[str]:
    if not isinstance(protocols, (list, tuple)) or not protocols:
        raise ConfigError(f"protocols must be a nonempty list, got {protocols!r}")
    out = []
    for proto in protocols:
        if proto not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {proto!r}; choose from {PROTOCOLS}")
        if proto == "closed-form" and model.kind != "qubit":
            raise ConfigError("the closed-form protocol is defined for the qubit model only")
        if proto == "ode-temperature" and not (isinstance(family, GibbsAnsatz) and family.size == 1):
            raise ConfigError("the ode-temperature protocol needs a gibbs-canonical ansatz")
        if proto in out:
            raise ConfigError(f"protocol {proto!r} is listed twice")
        out.append(proto)
    return out


def run_protocol(proto: str, model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig,
                 E0: np.ndarray, beta_probe: float | None, emit_beta: bool) -> Trajectory:
    if proto == "discrete":
        return run_discrete(model.generator, family, E0, cfg, with_temps=emit_beta)
    if proto in ODE_ORDERS:
        return run_odes(model.generator, family, E0, cfg, [proto], beta_probe, emit_beta)[0]
    times = np.arange(cfg.n_steps() + 1) * cfg.dt  # closed-form
    params = qubit_E_closed_form(times, float(E0[0]), model.qubit).reshape(-1, 1)
    temps = None
    if emit_beta:
        temps = np.array([[qubit_beta_closed_form(E, model.qubit.omega0)] for E in params[:, 0]])
    return Trajectory(times, params, temps, meta={"protocol": "closed-form"})


def run_protocols(protocols, model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig,
                  E0: np.ndarray, beta_probe: float | None, emit_beta: bool):
    """The trajectory of each protocol, in listed order.  The continuum-limit ones
    are walked together up front (run_odes); if that walk raises, it is dropped and every
    protocol runs alone in order (run_protocol), so the first failure raises as a lone run's."""
    odes = [proto for proto in protocols if proto in ODE_ORDERS]
    try:
        walked = dict(zip(odes, run_odes(model.generator, family, E0, cfg, odes, beta_probe, emit_beta)))
    except (ThermostrobeError, ArithmeticError):
        walked = {}
    for proto in protocols:
        yield walked[proto] if proto in walked else \
            run_protocol(proto, model, family, cfg, E0, beta_probe, emit_beta)


def write_csv(path: str, traj: Trajectory) -> None:
    header = ["t"] + [f"E_{m + 1}" for m in range(traj.params.shape[1])]
    if traj.temps is not None:
        header += [f"beta_{m + 1}" for m in range(traj.temps.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(traj.times):
            row = [_fmt(t)] + [_fmt(v) for v in traj.params[i]]
            if traj.temps is not None:
                row += [_fmt(v) for v in traj.temps[i]]
            fh.write(",".join(row) + "\n")


def estimate_tau(traj: Trajectory) -> float | None:
    """Relaxation time from the least-squares slope of log successive-difference norms."""
    diffs = np.linalg.norm(np.diff(traj.params, axis=0), axis=1)
    if len(diffs) < 2:
        return None
    top = float(diffs.max())
    if top <= 0.0:
        return None
    # cut before the convergence noise floor
    good = diffs > top * 1e-9
    stop = int(np.argmin(good)) if not good.all() else len(diffs)
    if stop < 2:
        return None
    t = traj.times[:stop]
    slope = float(np.polyfit(t, np.log(diffs[:stop]), 1)[0])
    if slope >= 0.0:
        return None
    return -1.0 / slope


def _grid_deviation(a: Trajectory, b: Trajectory) -> float:
    n = min(len(a), len(b))
    return float(np.max(np.abs(a.params[:n] - b.params[:n])))


def _analytic_check(model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig) -> dict:
    if model.kind not in ("qubit", "multilevel"):
        raise ConfigError("generic_vs_analytic is defined for qubit and multilevel models")
    if not (isinstance(family, GibbsAnsatz) and family.size == 1):
        raise ConfigError("generic_vs_analytic needs a gibbs-canonical ansatz over the "
                          "model energy observable")
    limit = ContinuumLimit(model.generator, family, cfg)
    dev_a = dev_b = 0.0
    if model.kind == "qubit":
        p = model.qubit
        for E in np.linspace(0.05, 0.95, 19) * p.omega0:
            a, b, _ = limit.moments([E], gradient=False)
            dev_a = max(dev_a, abs(a[0] - float(qubit_A_analytic(E, p))))
            dev_b = max(dev_b, abs(b[0] - float(qubit_B_analytic(E, p))))
    else:
        p = model.multilevel
        for beta in p.beta0 + np.linspace(-0.5, 0.5, 11):
            a, b, _ = limit.moments(gibbs_expectations(family.relevant, [beta]), gradient=False)
            dev_a = max(dev_a, abs(a[0] - multilevel_A_analytic(beta, p)))
            dev_b = max(dev_b, abs(b[0] - multilevel_B_analytic(beta, p)))
    return {"generic_vs_analytic_A": dev_a, "generic_vs_analytic_B": dev_b}


def _scenario_context(scenario: dict, dt: float | None = None):
    cfg = build_config(scenario["strob"], dt)
    model = build_model(scenario["model"], cfg.dt)
    family = build_ansatz(scenario["ansatz"], model)
    return model, family, cfg, read(CHECKS, scenario["checks"], "checks")


def cmd_simulate(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    model, family, cfg, checks = _scenario_context(scenario)
    protocols = _check_protocols(scenario["protocols"], model, family)
    emit_beta = read(OUTPUT, scenario["output"], "output")["emit_beta"]
    E0, beta_probe = build_initial(scenario["initial"], family)

    summary: dict = {
        "name": name, "model": model.kind, "ansatz": family.label,
        "protocols": list(protocols), "dt": cfg.dt, "lambda": cfg.lam,
        "alpha": cfg.alpha, "horizon": cfg.horizon, "ode_step": cfg.ode_step,
        "initial_E": E0,
    }
    diagnostics: dict = {}
    trajectories: dict[str, Trajectory] = {}
    runs = run_protocols(protocols, model, family, cfg, E0, beta_probe, emit_beta)
    for proto, traj in zip(protocols, runs):
        trajectories[proto] = traj
        fname = f"{name}_{proto}.csv"
        write_csv(os.path.join(out_dir, fname), traj)
        summary[f"files_{proto}"] = fname
        summary[f"stationary_{proto}"] = traj.params[-1]
        if traj.temps is not None:
            summary[f"stationary_beta_{proto}"] = traj.temps[-1]
        summary[f"tau_{proto}"] = estimate_tau(traj)
        diagnostics[f"final_step_delta_{proto}"] = (
            float(np.linalg.norm(traj.params[-1] - traj.params[-2])) if len(traj) > 1 else 0.0)
        if proto == "ode2" and checks["fd_mode"]:
            limit, E = ContinuumLimit(model.generator, family, cfg), traj.params[-1]
            diagnostics["fd_gradient_deviation_ode2"] = float(np.max(np.abs(
                limit.fd_gradient(E) - limit.moments(E)[2])))
    for p1, p2 in combinations(protocols, 2):
        diagnostics[f"deviation_{p1}_vs_{p2}"] = _grid_deviation(trajectories[p1], trajectories[p2])
    if checks["generic_vs_analytic"]:
        diagnostics.update(_analytic_check(model, family, cfg))
    summary["diagnostics"] = diagnostics
    _dump_json(os.path.join(out_dir, f"{name}_summary.json"), summary)
    return 0


def _compare_point(model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig, E0) -> dict:
    disc, ode1, ode2 = run_protocols(("discrete", "ode1", "ode2"), model, family, cfg, E0, None, False)
    return {
        "alpha": cfg.alpha, "trajectories": (disc, ode1, ode2),
        "deviation_ode1": _grid_deviation(disc, ode1),
        "deviation_ode2": _grid_deviation(disc, ode2),
        "deviation_ode1_vs_ode2": _grid_deviation(ode1, ode2),
    }


def cmd_compare(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    dts = read(COMPARE, scenario["compare"], "compare")["dts"]
    if len(dts) < 2:
        raise ConfigError("compare.dts must list at least two dt values")
    rungs = []  # every rung is configured before any runs, so a bad one fails up front
    for dt in dts:
        model, family, cfg, _ = _scenario_context(scenario, dt)
        rungs.append((model, family, cfg, build_initial(scenario["initial"], family)[0]))
    points = [_compare_point(*rung) for rung in rungs]

    report: dict = {"name": name, "dts": dts, "model": scenario["model"]["kind"],
                    "ansatz": scenario["ansatz"]["kind"]}
    for key in ("alpha", "deviation_ode1", "deviation_ode2", "deviation_ode1_vs_ode2"):
        report[key] = [pt[key] for pt in points]
    dev1, dev2 = report["deviation_ode1"], report["deviation_ode2"]
    ratios = [a / b if b > 0.0 else None for a, b in zip(dev2, dev2[1:])]
    report["ratio_ode2"] = ratios
    report["order_ode2"] = [None if r is None or r <= 0.0 else float(np.log2(r)) for r in ratios]
    ode2_closer = all(b < a for a, b in zip(dev1, dev2))
    report["ode2_closer"] = ode2_closer
    for i, pt in enumerate(points, start=1):
        for proto, traj in zip(("discrete", "ode1", "ode2"), pt["trajectories"]):
            fname = f"{name}_dt{i}_{proto}.csv"
            write_csv(os.path.join(out_dir, fname), traj)
            report[f"files_dt{i}_{proto}"] = fname
    report["diagnostics"] = {
        "max_deviation_ode2": max(dev2),
        "min_ratio_ode2": min((r for r in ratios if r is not None), default=None),
    }
    _dump_json(os.path.join(out_dir, f"{name}_compare.json"), report)
    return 0 if ode2_closer else 1


def cmd_fit(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    model, family, cfg, _ = _scenario_context(scenario)
    if not isinstance(family, GibbsAnsatz):
        raise ConfigError("the fit command needs a Gibbs ansatz")
    fit = read(FIT, scenario["fit"], "fit")
    try:
        _check_fit_settings(fit["tol"], fit["max_iter"])
    except ValidationError as err:
        raise ConfigError(f"invalid fit settings: {err}") from err
    report: dict = {"name": name, "model": model.kind, "ansatz": family.label}
    if fit["target_E"] is not None:
        target = fit["target_E"]
        report["target_source"] = "target_E"
    elif fit["tail_of"] is not None:
        proto = _check_protocols([fit["tail_of"]], model, family)[0]
        E0, beta_probe = build_initial(scenario["initial"], family)
        target = run_protocol(proto, model, family, cfg, E0, beta_probe, False).params[-1]
        report["target_source"] = f"tail_of {proto}"
    else:
        raise ConfigError("fit needs fit.target_E or fit.tail_of")
    if target.shape != (family.size,):
        raise ConfigError(f"fit target has {target.shape[0]} entries, the ansatz has {family.size}")
    beta, info = fit_beta(family.relevant, target, tol=fit["tol"], max_iter=fit["max_iter"],
                          full_output=True)
    report.update(target=target, beta=beta, residual=info["residual"],
                  iterations=info["iterations"])
    diagnostics: dict = {"fit_tol": fit["tol"]}
    if model.kind == "qubit" and family.size == 1:
        diagnostics["closed_form_beta"] = qubit_beta_closed_form(float(target[0]),
                                                                 model.qubit.omega0)
    report["diagnostics"] = diagnostics
    _dump_json(os.path.join(out_dir, f"{name}_fit.json"), report)
    return 0


def cmd_analyze_invariance(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    model, family, cfg, _ = _scenario_context(scenario)
    result = invariant_subspace_matrix(model.generator, family.relevant)
    report: dict = {
        "name": name, "model": model.kind, "ansatz": family.label,
        "L": result.matrix, "residual": result.residual,
        "invariant": result.invariant, "tolerance": result.tolerance,
    }
    diagnostics: dict = {}
    if scenario["initial"] != {}:  # the initial point is optional here: it adds the bracket
        E0, _ = build_initial(scenario["initial"], family)
        a, b, W = ContinuumLimit(model.generator, family, cfg).moments(E0)
        Wa = W @ a
        report["bracket_norm"] = float(np.max(np.abs(b - Wa)))
        if result.invariant:
            # closure predicts the velocity affinely: a_m = L[m+1, 0] + sum_j L[m+1, j+1] E_j
            predicted = result.matrix[1:, 0] + result.matrix[1:, 1:] @ E0
            diagnostics["closure_velocity_deviation"] = float(np.max(np.abs(predicted - a)))
            diagnostics["rhs_drop_ode1_vs_ode2"] = float(np.max(np.abs(
                _velocity(cfg, 2, a, b, Wa) - _velocity(cfg, 1, a, b, None))))
    report["diagnostics"] = diagnostics
    _dump_json(os.path.join(out_dir, f"{name}_invariance.json"), report)
    return 0


# ---------------------------------------------------------------------------
# Entry point


@cache  # one parser per process: main runs once per command in a long-lived caller too
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermostrobe",
        description="Repeated-measurement thermometry protocols and their continuum limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, helptext in (
        ("simulate", "run the scenario's protocols and write CSV trajectories plus a JSON summary"),
        ("compare", "run the discrete/ode1/ode2 ladder over compare.dts and report convergence"),
        ("fit", "fit Gibbs exponents to a target parameter vector and report beta"),
        ("analyze-invariance", "fit the adjoint generator on span{I, P} and report the closure"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("scenario", help="path to a YAML scenario file")
        p.add_argument("--out-dir", default=".", help="directory for output files (default: .)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "fit": cmd_fit,
        "analyze-invariance": cmd_analyze_invariance,
    }
    try:
        # a numerical overflow or invalid operation anywhere stops the command
        # (exit 3) instead of passing a warning and a non-finite value on
        with np.errstate(over="raise", invalid="raise"):
            scenario = load_scenario(args.scenario)
            os.makedirs(args.out_dir, exist_ok=True)
            return handlers[args.command](scenario, args.out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"config error: cannot write outputs: {err}", file=sys.stderr)
        return 2
    except (ThermostrobeError, ArithmeticError) as err:  # numpy's, and Python's float overflow
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
