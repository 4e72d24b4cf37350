"""Scenario-driven command line: parse a YAML scenario, run protocols, emit
CSV trajectories and JSON reports.

Commands: simulate, compare, fit, analyze-invariance; all take a scenario
file and an optional --out-dir.  Outputs are deterministic: identical inputs
give byte-identical files (17-significant-digit CSV fields, sorted JSON keys,
no timestamps or absolute paths).  Exit codes: 0 ok, 1 failed comparison
check, 2 config error, 3 runtime error (with the protocol step in the
message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .ansatz import (
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
from .errors import ConfigError, ThermostrobeError, ValidationError
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
    ContinuumLimit,
    StrobConfig,
    Trajectory,
    _second_order,
    invariant_subspace_matrix,
    run_discrete,
    run_ode,
    run_ode_temperature,
)

MODEL_KINDS = ("qubit", "multilevel", "custom-gksl")
ANSATZ_KINDS = ("gibbs-canonical", "gibbs-generalized", "pinching", "selective", "factorized")
PROTOCOLS = ("discrete", "ode1", "ode2", "ode-temperature", "closed-form")

SCENARIO_KEYS = {"name", "model", "ansatz", "protocols", "strob", "initial", "output",
                 "checks", "compare", "fit"}


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
        return obj.item()
    return obj


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(_jsonify(obj), sort_keys=True, indent=2))
        fh.write("\n")


def _require_map(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(obj).__name__}")
    return obj


def _known_keys(section: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {', '.join(unknown)}")


def _as_float(value, what: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {out}")
    return out


def _as_list(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _as_floats(value, what: str) -> tuple[float, ...]:
    return tuple(_as_float(x, what) for x in _as_list(value, what))


def _as_int(value, what: str) -> int:
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


def _as_bool(value, what: str) -> bool:
    """A YAML boolean; strings, numbers and null are refused rather than read for truth."""
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _parse_entry(entry, what: str) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ConfigError(f"{what}: complex entries are [re, im] pairs, got {entry!r}")
        return complex(_as_float(entry[0], what), _as_float(entry[1], what))
    return complex(_as_float(entry, what))


def _parse_matrix(obj, what: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{what} must be a nonempty list of rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != len(obj):
            raise ConfigError(f"{what} must be square; row {r} is not length {len(obj)}")
        rows.append([_parse_entry(e, f"{what}[{r}]") for e in row])
    return np.array(rows, dtype=complex)


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as err:
        raise ConfigError(f"cannot read scenario file: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"scenario file is not valid YAML: {err}") from err
    scenario = _require_map(raw, "the scenario")
    _known_keys(scenario, SCENARIO_KEYS, "the scenario")
    for key in ("name", "model", "ansatz", "strob"):
        if key not in scenario:
            raise ConfigError(f"scenario is missing the required key {key!r}")
    name = scenario["name"]
    if not isinstance(name, str) or not name or os.sep in name or "/" in name:
        raise ConfigError(f"scenario name must be a plain file stem, got {name!r}")
    return scenario


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
    section = dict(_require_map(section, "model"))
    kind = section.pop("kind", None)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    try:
        if kind == "qubit":
            _known_keys(section, {"omega0", "gamma", "bosonic_gamma0", "beta0", "Omega",
                                  "delta_omega"}, "model")
            beta0 = _as_float(section.get("beta0", 1.0), "model.beta0")
            omega0 = _as_float(section.get("omega0", 1.0), "model.omega0")
            if "bosonic_gamma0" in section:
                if "gamma" in section:
                    raise ConfigError("give model.gamma or model.bosonic_gamma0, not both")
                gamma = bosonic_gamma(_as_float(section["bosonic_gamma0"], "model.bosonic_gamma0"),
                                      beta0, omega0)
            else:
                gamma = _as_float(section.get("gamma", 0.5), "model.gamma")
            params = QubitParams(
                omega0=omega0, gamma=gamma, beta0=beta0, dt=dt,
                Omega=_as_float(section.get("Omega", 0.0), "model.Omega"),
                delta_omega=_as_float(section.get("delta_omega", 0.0), "model.delta_omega"),
            )
            return ModelBundle(kind, qubit_generator(params), qubit_energy_observable(params),
                               qubit=params)
        if kind == "multilevel":
            _known_keys(section, {"omegas", "base_rates", "beta0", "shifts"}, "model")
            if "omegas" not in section or "base_rates" not in section:
                raise ConfigError("multilevel model needs omegas and base_rates")
            omegas = _as_floats(section["omegas"], "model.omegas")
            rates = [_as_floats(row, "model.base_rates")
                     for row in _as_list(section["base_rates"], "model.base_rates")]
            if any(len(row) != len(rates) for row in rates):
                raise ConfigError("model.base_rates must be a square matrix")
            shifts = section.get("shifts")
            if shifts is not None:
                shifts = _as_floats(shifts, "model.shifts")
            params = MultilevelParams(
                omegas=omegas, base_rates=np.array(rates),
                beta0=_as_float(section.get("beta0", 1.0), "model.beta0"), shifts=shifts,
            )
            return ModelBundle(kind, multilevel_generator(params),
                               multilevel_energy_observable(params), multilevel=params)
        _known_keys(section, {"hamiltonian", "jumps", "observable"}, "model")
        if "hamiltonian" not in section:
            raise ConfigError("custom-gksl model needs a hamiltonian")
        H = _parse_matrix(section["hamiltonian"], "model.hamiltonian")
        jumps = []
        for k, jump in enumerate(section.get("jumps", []) or []):
            jump = _require_map(jump, f"model.jumps[{k}]")
            _known_keys(jump, {"operator", "rate"}, f"model.jumps[{k}]")
            if "operator" not in jump or "rate" not in jump:
                raise ConfigError(f"model.jumps[{k}] needs operator and rate")
            jumps.append((_parse_matrix(jump["operator"], f"model.jumps[{k}].operator"),
                          _as_float(jump["rate"], f"model.jumps[{k}].rate")))
        gen = GkslGenerator(H, tuple(jumps))
        obs = section.get("observable")
        obs = None if obs is None else _parse_matrix(obs, "model.observable")
        return ModelBundle(kind, gen, obs)
    except ConfigError:
        raise
    except ThermostrobeError as err:
        raise ConfigError(f"invalid model: {err}") from err


def _default_observable(model: ModelBundle, what: str) -> np.ndarray:
    if model.energy_observable is None:
        raise ConfigError(f"{what}: a custom-gksl model needs model.observable or an "
                          "explicit ansatz observable")
    return model.energy_observable


def build_ansatz(section, model: ModelBundle) -> AnsatzFamily:
    section = dict(_require_map(section, "ansatz"))
    kind = section.pop("kind", None)
    if kind not in ANSATZ_KINDS:
        raise ConfigError(f"ansatz.kind must be one of {ANSATZ_KINDS}, got {kind!r}")
    try:
        if kind == "gibbs-canonical":
            _known_keys(section, {"observable", "fit_tol"}, "ansatz")
            obs = section.get("observable")
            P = _default_observable(model, "gibbs-canonical") if obs is None else \
                _parse_matrix(obs, "ansatz.observable")
            kwargs = {}
            if "fit_tol" in section:
                kwargs["fit_tol"] = _as_float(section["fit_tol"], "ansatz.fit_tol")
            return GibbsAnsatz.canonical(P, **kwargs)
        if kind == "gibbs-generalized":
            _known_keys(section, {"observables", "fit_tol"}, "ansatz")
            if not section.get("observables"):
                raise ConfigError("gibbs-generalized needs ansatz.observables")
            obs = tuple(_parse_matrix(P, f"ansatz.observables[{m}]")
                        for m, P in enumerate(section["observables"]))
            kwargs = {}
            if "fit_tol" in section:
                kwargs["fit_tol"] = _as_float(section["fit_tol"], "ansatz.fit_tol")
            return GibbsAnsatz(obs, **kwargs)
        if kind == "pinching":
            _known_keys(section, {"observable"}, "ansatz")
            obs = section.get("observable")
            X = _default_observable(model, "pinching") if obs is None else \
                _parse_matrix(obs, "ansatz.observable")
            return PinchingAnsatz(X)
        if kind == "selective":
            _known_keys(section, {"observable", "eigenvalue"}, "ansatz")
            if "eigenvalue" not in section:
                raise ConfigError("selective needs ansatz.eigenvalue")
            obs = section.get("observable")
            X = _default_observable(model, "selective") if obs is None else \
                _parse_matrix(obs, "ansatz.observable")
            return SelectiveAnsatz(X, _as_float(section["eigenvalue"], "ansatz.eigenvalue"))
        _known_keys(section, {"bath_state", "dims"}, "ansatz")
        if "bath_state" not in section or "dims" not in section:
            raise ConfigError("factorized needs ansatz.bath_state and ansatz.dims")
        dims = section["dims"]
        if not isinstance(dims, (list, tuple)) or len(dims) != 2:
            raise ConfigError(f"ansatz.dims must be [system, bath], got {dims!r}")
        return FactorizedAnsatz(_parse_matrix(section["bath_state"], "ansatz.bath_state"),
                                tuple(_as_int(n, "ansatz.dims") for n in dims))
    except ConfigError:
        raise
    except ThermostrobeError as err:
        raise ConfigError(f"invalid ansatz: {err}") from err


def build_config(section) -> StrobConfig:
    section = dict(_require_map(section, "strob"))
    _known_keys(section, {"lambda", "dt", "horizon", "alpha", "ode_step"}, "strob")
    for key in ("dt", "horizon"):
        if key not in section:
            raise ConfigError(f"strob is missing the required key {key!r}")
    kwargs = {
        "lam": _as_float(section.get("lambda", 1.0), "strob.lambda"),
        "dt": _as_float(section["dt"], "strob.dt"),
        "horizon": _as_float(section["horizon"], "strob.horizon"),
    }
    if section.get("alpha") is not None:
        kwargs["alpha"] = _as_float(section["alpha"], "strob.alpha")
    if section.get("ode_step") is not None:
        kwargs["ode_step"] = _as_float(section["ode_step"], "strob.ode_step")
    try:
        cfg = StrobConfig(**kwargs)
        cfg.n_steps()  # the horizon must be a whole number of dt intervals
    except ValidationError as err:
        raise ConfigError(f"invalid strob config: {err}") from err
    return cfg


def build_initial(section, family: AnsatzFamily) -> tuple[np.ndarray, float | None]:
    """Initial parameter vector and, when given directly, the probe temperature."""
    section = dict(_require_map(section, "initial"))
    _known_keys(section, {"E", "beta_probe", "rho"}, "initial")
    given = [k for k in ("E", "beta_probe", "rho") if section.get(k) is not None]
    if len(given) != 1:
        raise ConfigError(f"initial needs exactly one of E, beta_probe, rho; got {given}")
    if given[0] == "E":
        E = section["E"]
        if not isinstance(E, (list, tuple)):
            E = [E]
        E0 = np.array([_as_float(e, "initial.E") for e in E])
        if E0.shape != (family.size,):
            raise ConfigError(f"initial.E has {E0.shape[0]} entries, the ansatz has {family.size}")
        return E0, None
    if given[0] == "beta_probe":
        beta = _as_float(section["beta_probe"], "initial.beta_probe")
        if not isinstance(family, GibbsAnsatz) or family.size != 1:
            raise ConfigError("initial.beta_probe needs a gibbs-canonical ansatz")
        return gibbs_expectations(family.relevant, [beta]), beta
    rho = _parse_matrix(section["rho"], "initial.rho")
    try:
        return extract_params(family, rho), None
    except ValidationError as err:
        raise ConfigError(f"invalid initial.rho: {err}") from err


# ---------------------------------------------------------------------------
# Protocol running and output


def _check_protocols(protocols, model: ModelBundle, family: AnsatzFamily) -> list[str]:
    if not protocols:
        raise ConfigError("the scenario lists no protocols")
    if not isinstance(protocols, (list, tuple)):
        raise ConfigError("protocols must be a list")
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


def _closed_form_trajectory(model: ModelBundle, cfg: StrobConfig, E0: float,
                            emit_beta: bool) -> Trajectory:
    n = cfg.n_steps()
    times = np.arange(n + 1) * cfg.dt
    params = qubit_E_closed_form(times, E0, model.qubit).reshape(-1, 1)
    temps = None
    if emit_beta:
        temps = np.array([[qubit_beta_closed_form(E, model.qubit.omega0)] for E in params[:, 0]])
    return Trajectory(times, params, temps, meta={"protocol": "closed-form"})


def run_protocol(proto: str, model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig,
                 E0: np.ndarray, beta_probe: float | None, emit_beta: bool) -> Trajectory:
    if proto == "discrete":
        return run_discrete(model.generator, family, E0, cfg, with_temps=emit_beta)
    if proto == "ode1":
        return run_ode(model.generator, family, E0, cfg, order=1, with_temps=emit_beta)
    if proto == "ode2":
        return run_ode(model.generator, family, E0, cfg, order=2, with_temps=emit_beta)
    if proto == "ode-temperature":
        beta0 = beta_probe if beta_probe is not None else float(family.beta_of(E0)[0])
        return run_ode_temperature(model.generator, family, beta0, cfg)
    return _closed_form_trajectory(model, cfg, float(E0[0]), emit_beta)


def write_csv(path: str, traj: Trajectory) -> None:
    M = traj.params.shape[1]
    header = ["t"] + [f"E_{m + 1}" for m in range(M)]
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
    dev_a = 0.0
    dev_b = 0.0
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


def _scenario_context(scenario: dict, dt_override: float | None = None):
    strob_section = dict(_require_map(scenario["strob"], "strob"))
    if dt_override is not None:
        strob_section["dt"] = dt_override
        strob_section.pop("alpha", None)
        strob_section.pop("ode_step", None)
    cfg = build_config(strob_section)
    model = build_model(scenario["model"], cfg.dt)
    family = build_ansatz(scenario["ansatz"], model)
    checks = dict(_require_map(scenario.get("checks", {}) or {}, "checks"))
    _known_keys(checks, {"fd_mode", "generic_vs_analytic"}, "checks")
    checks = {key: _as_bool(value, f"checks.{key}") for key, value in checks.items()}
    return model, family, cfg, checks


def cmd_simulate(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    model, family, cfg, checks = _scenario_context(scenario)
    protocols = _check_protocols(scenario.get("protocols"), model, family)
    output = dict(_require_map(scenario.get("output", {}) or {}, "output"))
    _known_keys(output, {"emit_beta"}, "output")
    emit_beta = _as_bool(output.get("emit_beta", False), "output.emit_beta")
    if "initial" not in scenario:
        raise ConfigError("scenario is missing the required key 'initial'")
    E0, beta_probe = build_initial(scenario["initial"], family)

    summary: dict = {
        "name": name, "model": model.kind, "ansatz": family.label,
        "protocols": list(protocols), "dt": cfg.dt, "lambda": cfg.lam,
        "alpha": cfg.alpha, "horizon": cfg.horizon, "ode_step": cfg.ode_step,
        "initial_E": E0,
    }
    diagnostics: dict = {}
    trajectories: dict[str, Trajectory] = {}
    for proto in protocols:
        traj = run_protocol(proto, model, family, cfg, E0, beta_probe, emit_beta)
        trajectories[proto] = traj
        fname = f"{name}_{proto}.csv"
        write_csv(os.path.join(out_dir, fname), traj)
        summary[f"files_{proto}"] = fname
        summary[f"stationary_{proto}"] = traj.params[-1]
        if traj.temps is not None:
            summary[f"stationary_beta_{proto}"] = traj.temps[-1]
        tau = estimate_tau(traj)
        summary[f"tau_{proto}"] = tau
        diagnostics[f"final_step_delta_{proto}"] = (
            float(np.linalg.norm(traj.params[-1] - traj.params[-2])) if len(traj) > 1 else 0.0)
        if proto == "ode2" and checks.get("fd_mode"):
            limit, E = ContinuumLimit(model.generator, family, cfg), traj.params[-1]
            diagnostics["fd_gradient_deviation_ode2"] = float(np.max(np.abs(
                limit.fd_gradient(E) - limit.moments(E)[2])))
    for i, p1 in enumerate(protocols):
        for p2 in protocols[i + 1:]:
            diagnostics[f"deviation_{p1}_vs_{p2}"] = _grid_deviation(trajectories[p1],
                                                                     trajectories[p2])
    if checks.get("generic_vs_analytic"):
        diagnostics.update(_analytic_check(model, family, cfg))
    summary["diagnostics"] = diagnostics
    _dump_json(os.path.join(out_dir, f"{name}_summary.json"), summary)
    return 0


def _compare_point(model: ModelBundle, family: AnsatzFamily, cfg: StrobConfig, E0) -> dict:
    disc = run_discrete(model.generator, family, E0, cfg)
    ode1 = run_ode(model.generator, family, E0, cfg, order=1)
    ode2 = run_ode(model.generator, family, E0, cfg, order=2)
    return {
        "dt": cfg.dt, "alpha": cfg.alpha, "trajectories": (disc, ode1, ode2),
        "deviation_ode1": _grid_deviation(disc, ode1),
        "deviation_ode2": _grid_deviation(disc, ode2),
        "deviation_ode1_vs_ode2": _grid_deviation(ode1, ode2),
    }


def cmd_compare(scenario: dict, out_dir: str) -> int:
    name = scenario["name"]
    compare = dict(_require_map(scenario.get("compare", {}) or {}, "compare"))
    _known_keys(compare, {"dts"}, "compare")
    dts = compare.get("dts")
    if not dts or not isinstance(dts, (list, tuple)) or len(dts) < 2:
        raise ConfigError("compare.dts must list at least two dt values")
    dts = [_as_float(dt, "compare.dts") for dt in dts]
    if "initial" not in scenario:
        raise ConfigError("scenario is missing the required key 'initial'")
    rungs = []  # every rung is configured before any runs, so a bad one fails up front
    for dt in dts:
        model, family, cfg, _ = _scenario_context(scenario, dt_override=dt)
        rungs.append((model, family, cfg, build_initial(scenario["initial"], family)[0]))
    points = [_compare_point(*rung) for rung in rungs]

    report: dict = {"name": name, "dts": dts,
                    "model": _require_map(scenario["model"], "model").get("kind"),
                    "ansatz": _require_map(scenario["ansatz"], "ansatz").get("kind")}
    dev1 = [pt["deviation_ode1"] for pt in points]
    dev2 = [pt["deviation_ode2"] for pt in points]
    report["deviation_ode1"] = dev1
    report["deviation_ode2"] = dev2
    report["deviation_ode1_vs_ode2"] = [pt["deviation_ode1_vs_ode2"] for pt in points]
    report["alpha"] = [pt["alpha"] for pt in points]
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
    fit_section = dict(_require_map(scenario.get("fit", {}) or {}, "fit"))
    _known_keys(fit_section, {"target_E", "tail_of", "tol", "max_iter"}, "fit")
    tol = _as_float(fit_section.get("tol", 1e-10), "fit.tol")
    max_iter = _as_int(fit_section.get("max_iter", 200), "fit.max_iter")
    try:
        _check_fit_settings(tol, max_iter)
    except ValidationError as err:
        raise ConfigError(f"invalid fit settings: {err}") from err
    report: dict = {"name": name, "model": model.kind, "ansatz": family.label}
    if fit_section.get("target_E") is not None:
        target = fit_section["target_E"]
        if not isinstance(target, (list, tuple)):
            target = [target]
        target = np.array([_as_float(e, "fit.target_E") for e in target])
        report["target_source"] = "target_E"
    elif fit_section.get("tail_of"):
        proto = fit_section["tail_of"]
        protocols = _check_protocols([proto], model, family)
        if "initial" not in scenario:
            raise ConfigError("scenario is missing the required key 'initial'")
        E0, beta_probe = build_initial(scenario["initial"], family)
        traj = run_protocol(protocols[0], model, family, cfg, E0, beta_probe, False)
        target = traj.params[-1]
        report["target_source"] = f"tail_of {proto}"
    else:
        raise ConfigError("fit needs fit.target_E or fit.tail_of")
    if target.shape != (family.size,):
        raise ConfigError(f"fit target has {target.shape[0]} entries, the ansatz has {family.size}")
    beta, info = fit_beta(family.relevant, target, tol=tol, max_iter=max_iter, full_output=True)
    report["target"] = target
    report["beta"] = beta
    report["residual"] = info["residual"]
    report["iterations"] = info["iterations"]
    diagnostics: dict = {"fit_tol": tol}
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
    if "initial" in scenario:
        E0, _ = build_initial(scenario["initial"], family)
        a, b, W = ContinuumLimit(model.generator, family, cfg).moments(E0)
        report["bracket_norm"] = float(np.max(np.abs(b - W @ a)))
        if result.invariant:
            # closure predicts the velocity affinely: a_m = L[m+1, 0] + sum_j L[m+1, j+1] E_j
            predicted = result.matrix[1:, 0] + result.matrix[1:, 1:] @ E0
            diagnostics["closure_velocity_deviation"] = float(np.max(np.abs(predicted - a)))
            diagnostics["rhs_drop_ode1_vs_ode2"] = float(np.max(np.abs(
                _second_order(cfg, a, b, W) - cfg.lam * a)))
    report["diagnostics"] = diagnostics
    _dump_json(os.path.join(out_dir, f"{name}_invariance.json"), report)
    return 0


# ---------------------------------------------------------------------------
# Entry point


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
        scenario = load_scenario(args.scenario)
        out_dir = args.out_dir
        if out_dir != "." and not os.path.isdir(out_dir):
            os.makedirs(out_dir, exist_ok=True)
        return handlers[args.command](scenario, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"config error: cannot write outputs: {err}", file=sys.stderr)
        return 2
    except ThermostrobeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
