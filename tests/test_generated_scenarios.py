"""Generated valid scenarios: stacked runs against the same protocols run alone.

A hypothesis strategy builds scenarios that are valid by construction: a
qubit, multilevel or custom GKSL model, any family kind the model admits, a
random subset and order of the protocols allowed on them (closed-form only for
a canonical family over the qubit's energy observable), lambda from 0.5 to
30 (so some runs fail at run time) and an in-domain initial point.  Two
relations between command runs then need no oracle, and hold byte for byte:

- simulate's CSV of each protocol is that protocol's lone simulate CSV; a
  failing simulate has the exit code and stderr of the first protocol, in
  listed order, that fails alone, and the files of the protocols before it;
- compare's three CSVs of each rung are simulate's at that dt with
  [discrete, ode1, ode2]; a failing ladder has the exit code and stderr of
  its first failing rung and writes nothing.

Every run's output is also checked on its own: each CSV field is finite, and
the first row of each discrete, ode1 and ode2 CSV holds the summary's
initial_E bit for bit.

No example is filtered by its outcome, and every run is made with warnings
raised as errors.
"""

import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from thermostrobe.ansatz import GibbsAnsatz, extract_params
from thermostrobe.cli import _over_energy, build_ansatz, build_model, main
from tutil import random_complex, random_density, random_hermitian

DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
FAMILIES = ("gibbs-canonical", "gibbs-generalized", "pinching", "selective", "factorized")
LADDER = ("discrete", "ode1", "ode2")


def matrix_yaml(M) -> list:
    """Scenario encoding of a matrix: rows of floats or [re, im] pairs."""
    return [[float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(M, dtype=complex)]


def model_section(kind: str, rng) -> dict:
    if kind == "qubit":
        return {"kind": "qubit", "omega0": 1.0, "gamma": float(rng.uniform(0.2, 1.0)),
                "beta0": float(rng.uniform(0.5, 2.0)), "Omega": float(rng.uniform(0.0, 0.3)),
                "delta_omega": float(rng.uniform(-0.1, 0.1))}
    if kind == "multilevel":
        d = int(rng.integers(2, 5))
        rates = np.triu(rng.uniform(0.2, 1.0, size=(d, d)), 1)
        return {"kind": "multilevel", "omegas": np.cumsum(rng.uniform(0.5, 1.5, size=d)).tolist(),
                "base_rates": rates.tolist(), "beta0": float(rng.uniform(0.5, 2.0))}
    d = int(rng.integers(2, 5))
    jumps = [{"operator": matrix_yaml(random_complex(rng, d) / d), "rate": float(rng.uniform(0.1, 1.0))}
             for _ in range(int(rng.integers(1, 3)))]
    return {"kind": "custom-gksl", "hamiltonian": matrix_yaml(random_hermitian(rng, d, 0.5)),
            "jumps": jumps, "observable": matrix_yaml(random_hermitian(rng, d))}


def spectral_observable(rng, d: int) -> tuple[np.ndarray, list]:
    """An observable in a random basis with at least two distinct, possibly repeated, levels."""
    levels = np.concatenate([[0.0, 1.0], rng.integers(-1, 3, size=d - 2)])[rng.permutation(d)]
    U, _ = np.linalg.qr(random_complex(rng, d))
    return U @ np.diag(levels) @ U.conj().T, sorted(set(levels.tolist()))


def ansatz_section(kind: str, d: int, rng) -> dict:
    if kind == "gibbs-canonical":
        return {"kind": kind, "observable": None if rng.random() < 0.5 else matrix_yaml(random_hermitian(rng, d))}
    if kind == "gibbs-generalized":
        count = int(rng.integers(1, 3))
        return {"kind": kind, "observables": [matrix_yaml(random_hermitian(rng, d)) for _ in range(count)]}
    if kind == "pinching":
        return {"kind": kind, "observable": None if rng.random() < 0.5 else
                matrix_yaml(spectral_observable(rng, d)[0])}
    if kind == "selective":
        X, levels = spectral_observable(rng, d)
        return {"kind": kind, "observable": matrix_yaml(X), "eigenvalue": float(rng.choice(levels))}
    dS = int(rng.choice([n for n in range(2, d + 1) if d % n == 0]))  # factorized
    return {"kind": kind, "bath_state": matrix_yaml(random_density(rng, d // dS)), "dims": [dS, d // dS]}


@st.composite
def scenarios(draw):
    """A valid scenario and the protocols it admits, each drawn by hypothesis; the matrices come
    from a numpy generator on a drawn seed."""
    model_kind = draw(st.sampled_from(("qubit", "multilevel", "custom-gksl")))
    family_kind = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = model_section(model_kind, rng)
    dt = draw(st.sampled_from((0.1, 0.2)))
    strob = {"lambda": draw(st.floats(0.5, 30.0)), "dt": dt, "horizon": draw(st.sampled_from((0.2, 0.4)))}
    built = build_model(model, dt)
    d = built.generator.dim
    ansatz = ansatz_section(family_kind, d, rng)
    family = build_ansatz(ansatz, built)
    rho = random_density(rng, d)
    canonical = isinstance(family, GibbsAnsatz) and family.size == 1  # one observable, of either kind
    start = draw(st.sampled_from(("rho", "E") + ("beta_probe",) * canonical))
    initial = {"rho": {"rho": matrix_yaml(rho)}, "E": {"E": extract_params(family, rho).tolist()},
               "beta_probe": {"beta_probe": float(rng.uniform(-2.0, 2.0))}}[start]
    allowed = list(LADDER) + ["ode-temperature"] * canonical + \
        ["closed-form"] * (model_kind == "qubit" and _over_energy(built, family))
    protocols = draw(st.permutations(allowed))[:draw(st.integers(2, len(allowed)))]  # companions
    return {"name": "gen", "model": model, "ansatz": ansatz, "strob": strob, "initial": initial,
            "protocols": protocols, "output": {"emit_beta": draw(st.booleans())}}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


def run(work, command: str, scenario: dict) -> tuple[int, str, dict]:
    """Exit code, stderr and {file name: bytes} of one command in a fresh output directory."""
    path, out = work / "scenario.yaml", work / "out"
    path.write_text(yaml.dump(scenario, Dumper=DUMPER), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, str(path), "--out-dir", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    check_outputs(files)
    return code, err.getvalue(), files


def csvs(files: dict) -> dict:
    return {name: data for name, data in files.items() if name.endswith(".csv")}


def check_outputs(files: dict) -> None:
    """Every CSV field is finite, and a summary's initial_E is the first row's E of each
    discrete, ode1 and ode2 CSV, sign bits included."""
    tables = {name: np.array([line.split(",") for line in data.decode().splitlines()[1:]], dtype=float)
              for name, data in csvs(files).items()}
    for name, table in tables.items():
        assert table.size and np.isfinite(table).all(), name
    summary = files.get("gen_summary.json")
    if summary is not None:
        E0 = np.array(json.loads(summary)["initial_E"], dtype=float)
        for proto in LADDER:
            if f"gen_{proto}.csv" in tables:
                assert tables[f"gen_{proto}.csv"][0, 1:1 + E0.size].tobytes() == E0.tobytes(), proto


@settings(max_examples=16, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_each_simulated_protocol_is_its_lone_run(work, scenario):
    code, stderr, files = run(work, "simulate", scenario)
    before = {}  # the CSVs of the protocols listed before the first that fails alone
    for proto in scenario["protocols"]:
        lone = run(work, "simulate", {**scenario, "protocols": [proto]})
        if lone[0] != 0:
            assert (code, stderr, csvs(files)) == (lone[0], lone[1], before)
            return
        before.update(csvs(lone[2]))
    assert (code, stderr, csvs(files)) == (0, "", before)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(scenarios(), st.lists(st.sampled_from((0.2, 0.1, 0.05)), min_size=2, max_size=3))
def test_each_compare_rung_is_its_simulate(work, scenario, dts):
    code, stderr, files = run(work, "compare", {**scenario, "compare": {"dts": dts}})
    rungs = {}
    for i, dt in enumerate(dts, start=1):
        rung = run(work, "simulate", {**scenario, "protocols": list(LADDER), "output": {},
                                      "strob": {**scenario["strob"], "dt": dt}})
        if rung[0] != 0:
            assert (code, stderr, files) == (rung[0], rung[1], {})
            return
        rungs.update({f"gen_dt{i}_{proto}.csv": rung[2][f"gen_{proto}.csv"] for proto in LADDER})
    assert code in (0, 1) and stderr == ""
    assert csvs(files) == rungs
