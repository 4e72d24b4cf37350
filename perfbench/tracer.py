"""Spans around the package's layer boundaries, installed from outside.

The package binds names with `from .x import y`, so one function object is
reachable from several module namespaces.  install() replaces the object in
every thermostrobe module that holds it, wraps family and propagator
methods on their classes, and counts numpy's Hermitian eigensolvers, which
the package calls as np.linalg.eigh / eigvalsh.  uninstall() restores every
binding, so untraced operations in the same process run the original code.

A span is [name, parent index, start, end, raised]; spans stay in memory
and layer_metrics() folds one operation's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from statistics import median
from time import perf_counter

import numpy as np

# (module, attribute, span name); the attribute may be "Class.method"
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "cli.build"),
    ("cli", "build_config", "cli.build"),
    ("cli", "build_model", "cli.build"),
    ("cli", "build_ansatz", "cli.build"),
    ("cli", "build_initial", "cli.build"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "_dump_json", "cli.write"),
    ("cli", "run_protocol", "cli.run_protocol"),
    ("models", "qubit_generator", "models.build"),
    ("models", "qubit_energy_observable", "models.build"),
    ("models", "multilevel_generator", "models.build"),
    ("models", "multilevel_energy_observable", "models.build"),
    ("models", "multilevel_rates", "models.build"),
    ("models", "bosonic_gamma", "models.build"),
    ("strob", "run_discrete", "strob.run_discrete"),
    ("strob", "run_ode", "strob.run_ode"),
    ("strob", "run_ode_temperature", "strob.run_ode_temperature"),
    ("strob", "_temps_for", "strob.temps_for"),
    ("ansatz", "gibbs_state", "ansatz.gibbs_state"),
    ("ansatz", "gibbs_expectations", "ansatz.gibbs_expectations"),
    ("ansatz", "gibbs_param_derivative", "ansatz.gibbs_derivative"),
    ("ansatz", "gibbs_jacobian", "ansatz.gibbs_jacobian"),
    ("ansatz", "_bisect_beta", "ansatz.bisect"),
    ("ansatz", "extract_params", "ansatz.extract"),
    ("ansatz", "FactorizedAnsatz.state_of", "ansatz.linear_state"),
    ("ansatz", "PinchingAnsatz.state_of", "ansatz.linear_state"),
    ("liouville", "Propagator.build", "liouville.propagator_build"),
    ("liouville", "Propagator.apply", "liouville.propagator_apply"),
    ("liouville", "apply_heisenberg", "liouville.heisenberg"),
    ("liouville", "require_density", "matcore.validate"),
    ("matcore", "exp_general", "matcore.exp_general"),
    ("matcore", "dexp_neg", "matcore.dexp_neg"),
    ("matcore", "frobenius", "matcore.frobenius"),
    ("matcore", "require_square", "matcore.validate"),
    ("matcore", "require_hermitian", "matcore.validate"),
    ("matcore", "require_same_shape", "matcore.validate"),
)

# Per-layer metrics reported by the traced run, with their units.
LAYER_UNITS = {
    "cli.import_s": "s", "cli.build_s": "s", "models.build_s": "s",
    "matcore.exp_general_s": "s", "liouville.propagator_build_s": "s",
    "liouville.propagator_build_calls": "count",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "strob.rhs_calls": "count", "strob.rhs_us": "us", "strob.rk4_self_s": "s",
    "strob.rounds": "count", "strob.round_us": "us",
    "ansatz.fit_calls": "count", "ansatz.fit_cold_calls": "count", "ansatz.fit_s": "s",
    "ansatz.newton_iters": "count", "ansatz.newton_accept_ratio": "ratio",
    "ansatz.bisect_fallbacks": "count",
    "ansatz.gibbs_state_s": "s", "ansatz.gibbs_state_calls": "count",
    "ansatz.gibbs_derivative_s": "s", "ansatz.gibbs_derivative_calls": "count",
    "ansatz.gibbs_jacobian_s": "s", "ansatz.gibbs_jacobian_calls": "count",
    "ansatz.linear_state_s": "s", "ansatz.extract_s": "s",
    "liouville.propagator_apply_s": "s", "liouville.propagator_apply_calls": "count",
    "liouville.heisenberg_calls": "count",
    "matcore.eigh_calls": "count", "matcore.eigh_per_rhs": "ratio", "matcore.eigh_s": "s",
    "matcore.dexp_neg_s": "s", "matcore.dexp_neg_calls": "count",
    "matcore.frobenius_s": "s", "matcore.frobenius_calls": "count",
    "matcore.validate_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def _fit_wrapper(self, fn):
        warm = self.wrap("ansatz.fit_warm", fn)
        cold = self.wrap("ansatz.fit_cold", fn)

        @functools.wraps(fn)
        def traced(observables, target, beta_init=None, *args, **kwargs):
            return (cold if beta_init is None else warm)(observables, target, beta_init, *args, **kwargs)

        return traced

    def _rk4_wrapper(self, fn):
        wrap = self.wrap

        def stepper(rhs, x, h):
            return fn(wrap("strob.rhs", rhs), x, h)

        return self.wrap("strob.rk4_step", functools.wraps(fn)(stepper))

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Point every thermostrobe namespace that holds original at replacement."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermostrobe" or mod_name.startswith("thermostrobe.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, replacement)
                    hits += 1
        return hits

    def install(self) -> None:
        import thermostrobe
        import thermostrobe.ansatz
        import thermostrobe.strob

        for mod_name, attr, span in TARGETS:
            mod = sys.modules[f"thermostrobe.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(mod, attr)
            if self._rebind(original, self.wrap(span, original)) == 0:
                raise RuntimeError(f"no namespace holds thermostrobe.{mod_name}.{attr}")
        self._rebind(thermostrobe.ansatz.fit_beta, self._fit_wrapper(thermostrobe.ansatz.fit_beta))
        self._rebind(thermostrobe.strob.rk4_step, self._rk4_wrapper(thermostrobe.strob.rk4_step))
        for fname in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, fname)
            self._restore.append((np.linalg, fname, original))
            setattr(np.linalg, fname, self.wrap("matcore.eigh", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# Folding spans into per-layer metrics

FITS = ("ansatz.fit_warm", "ansatz.fit_cold")


def layer_metrics(spans: list[list]) -> dict:
    """Per-operation layer metrics from one operation's spans (self time
    is a span's duration minus the time its direct children cover)."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    children: dict[int, list[int]] = {}
    in_rhs = [False] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            children.setdefault(parent, []).append(i)
            in_rhs[i] = in_rhs[parent] or spans[parent][0] == "strob.rhs"
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]

    def c(name):
        return calls.get(name, 0)

    def st(*names):
        return sum(self_t.get(x, 0.0) for x in names)

    # Newton bookkeeping: inside a fit, each gibbs_jacobian child is one
    # iteration; its step was accepted unless a bisection (or an error)
    # follows it.  gibbs_expectations children are the initial residual,
    # the damped candidates, and one residual after each bisection.
    iters = accepted = candidates = 0
    for i, s in enumerate(spans):
        if s[0] not in FITS:
            continue
        kids = [spans[k][0] for k in children.get(i, [])]
        candidates += max(0, kids.count("ansatz.gibbs_expectations") - 1 - kids.count("ansatz.bisect"))
        for j, kid in enumerate(kids):
            if kid != "ansatz.gibbs_jacobian":
                continue
            iters += 1
            nxt = next((k for k in kids[j + 1:] if k in ("ansatz.gibbs_jacobian", "ansatz.bisect")), None)
            if nxt == "ansatz.gibbs_jacobian" or (nxt is None and not s[4]):
                accepted += 1

    rounds = 0
    round_time = 0.0
    for i, s in enumerate(spans):
        if s[0] != "strob.run_discrete":
            continue
        round_time += dur[i]
        for k in children.get(i, []):
            kid = spans[k][0]
            if kid == "liouville.propagator_apply":
                rounds += 1
            elif kid in ("liouville.propagator_build", "strob.temps_for"):
                round_time -= dur[k]

    rhs_calls = c("strob.rhs")
    eigh_in_rhs = sum(1 for i, s in enumerate(spans) if s[0] == "matcore.eigh" and in_rhs[i])
    return {
        "cli.build_s": st("cli.build"),
        "models.build_s": st("models.build"),
        "matcore.exp_general_s": st("matcore.exp_general"),
        "liouville.propagator_build_s": st("liouville.propagator_build"),
        "liouville.propagator_build_calls": c("liouville.propagator_build"),
        "cli.write_s": st("cli.write"),
        "strob.rhs_calls": rhs_calls,
        "strob.rhs_us": 1e6 * incl.get("strob.rhs", 0.0) / rhs_calls if rhs_calls else 0.0,
        "strob.rk4_self_s": st("strob.rk4_step"),
        "strob.rounds": rounds,
        "strob.round_us": 1e6 * round_time / rounds if rounds else 0.0,
        "ansatz.fit_calls": c("ansatz.fit_warm") + c("ansatz.fit_cold"),
        "ansatz.fit_cold_calls": c("ansatz.fit_cold"),
        "ansatz.fit_s": incl.get("ansatz.fit_warm", 0.0) + incl.get("ansatz.fit_cold", 0.0),
        "ansatz.newton_iters": iters,
        "ansatz.newton_accept_ratio": accepted / candidates if candidates else 0.0,
        "ansatz.bisect_fallbacks": c("ansatz.bisect"),
        "ansatz.gibbs_state_s": st("ansatz.gibbs_state"),
        "ansatz.gibbs_state_calls": c("ansatz.gibbs_state"),
        "ansatz.gibbs_derivative_s": st("ansatz.gibbs_derivative"),
        "ansatz.gibbs_derivative_calls": c("ansatz.gibbs_derivative"),
        "ansatz.gibbs_jacobian_s": st("ansatz.gibbs_jacobian"),
        "ansatz.gibbs_jacobian_calls": c("ansatz.gibbs_jacobian"),
        "ansatz.linear_state_s": st("ansatz.linear_state"),
        "ansatz.extract_s": st("ansatz.extract"),
        "liouville.propagator_apply_s": st("liouville.propagator_apply"),
        "liouville.propagator_apply_calls": c("liouville.propagator_apply"),
        "liouville.heisenberg_calls": c("liouville.heisenberg"),
        "matcore.eigh_calls": c("matcore.eigh"),
        "matcore.eigh_per_rhs": eigh_in_rhs / rhs_calls if rhs_calls else 0.0,
        "matcore.eigh_s": st("matcore.eigh"),
        "matcore.dexp_neg_s": st("matcore.dexp_neg"),
        "matcore.dexp_neg_calls": c("matcore.dexp_neg"),
        "matcore.frobenius_s": st("matcore.frobenius"),
        "matcore.frobenius_calls": c("matcore.frobenius"),
        "matcore.validate_s": st("matcore.validate"),
    }


def median_metrics(per_op: list[dict]) -> dict:
    """Per-operation medians over the traced operations of a run."""
    return {k: median(m[k] for m in per_op) for k in per_op[0]}


def write_spans(path: str, spans: list[list]) -> None:
    """Spans of one operation as JSON: names once, then rows of
    [name index, parent index, start, end, raised]."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][2] if spans else 0.0
    rows = [[index[s[0]], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9), int(s[4])] for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
