"""Seeded inputs for the four benchmark workloads.

Each builder turns a seed into a scenario (the YAML the program reads) plus
the physical parameters the output checks need.  The checks rebuild every
operator from these parameters themselves; nothing here calls thermostrobe.

Parameter ranges are narrow on purpose: the seed changes the numbers the
program works on, not the amount of work, so run-to-run spread stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ladder-qubit", "relax-multilevel", "gibbs-noncommuting", "open-factorized")

# Default Gibbs fit tolerance of the program (GibbsAnsatz.fit_tol).  The
# output checks scale their tolerances from it.
FIT_TOL = 1e-11

LADDER_DTS = (0.1, 0.05, 0.025)
LADDER_HORIZON = 0.5
RELAX_HORIZON = 4.0
NONCOMMUTING_HORIZON = 2.0
FACTORIZED_HORIZON = 10.0
DT = 0.1


@dataclass
class Workload:
    """One generated input: the command to run and what the checks need."""

    name: str
    command: str                 # thermostrobe subcommand
    scenario: dict               # written to YAML for the program
    params: dict = field(default_factory=dict)

    @property
    def stem(self) -> str:
        return self.scenario["name"]


# ---------------------------------------------------------------------------
# Matrix helpers (benchmark side, independent of the package)

SZ1 = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
SPLUS1 = np.sqrt(2.0) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
SIG_P = np.array([[0, 1], [0, 0]], dtype=complex)   # |e><g|, index 0 = excited
SIG_M = SIG_P.T.copy()
SIG_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per workload; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**63, stream])


def _herm(rng, d: int) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = 0.5 * (G + G.conj().T)
    return H / np.linalg.norm(H, 2)


def _cplx(rng, d: int) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return G / np.linalg.norm(G, 2)


def matrix_yaml(M) -> list:
    """Scenario encoding of a matrix: rows of floats or [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    return [[float(z.real) if z.imag == 0.0 else [float(z.real), float(z.imag)] for z in row]
            for row in M]


def gibbs_populations(energies: np.ndarray, beta: float) -> np.ndarray:
    x = -beta * (energies - energies.min())
    p = np.exp(x)
    return p / p.sum()


# ---------------------------------------------------------------------------
# Builders


def ladder_qubit(seed: int) -> Workload:
    """Driven qubit dt ladder at lambda = 1 over the canonical Gibbs family."""
    rng = _rng(seed, 1)
    p = {
        "omega0": 1.0,
        "gamma": float(rng.uniform(0.45, 0.55)),
        "beta0": float(rng.uniform(0.9, 1.1)),
        "Omega": float(rng.uniform(0.18, 0.22)),
    }
    E0 = float(rng.uniform(0.45, 0.55))
    scenario = {
        "name": "ladder",
        "model": {"kind": "qubit", **p},
        "ansatz": {"kind": "gibbs-canonical"},
        "strob": {"lambda": 1.0, "dt": LADDER_DTS[0], "horizon": LADDER_HORIZON},
        "initial": {"E": [E0]},
        "compare": {"dts": list(LADDER_DTS)},
    }
    return Workload("ladder-qubit", "compare", scenario,
                    {**p, "E0": E0, "lam": 1.0, "dts": LADDER_DTS, "horizon": LADDER_HORIZON})


def relax_multilevel(seed: int, base: dict) -> Workload:
    """Three-level detailed-balance probe from the reference scenario, with
    the seed scaling the base rates and moving the start temperature."""
    rng = _rng(seed, 2)
    omegas = [float(w) for w in base["model"]["omegas"]]
    rates = np.array(base["model"]["base_rates"], dtype=float)
    rates = np.triu(rates * rng.uniform(0.9, 1.1, size=rates.shape), 1)
    beta0 = float(base["model"].get("beta0", 1.0))
    beta_start = float(base["initial"]["beta_probe"]) + float(rng.uniform(-0.05, 0.05))
    scenario = {
        "name": "relax",
        "model": {"kind": "multilevel", "omegas": omegas,
                  "base_rates": [[float(x) for x in row] for row in rates], "beta0": beta0},
        "ansatz": {"kind": "gibbs-canonical"},
        "protocols": ["ode-temperature"],
        "strob": {"lambda": 1.0, "dt": DT, "horizon": RELAX_HORIZON},
        "initial": {"beta_probe": beta_start},
        "output": {"emit_beta": True},
    }
    return Workload("relax-multilevel", "simulate", scenario,
                    {"omegas": omegas, "base_rates": rates, "beta0": beta0,
                     "beta_start": beta_start, "lam": 1.0, "dt": DT, "horizon": RELAX_HORIZON})


def gibbs_noncommuting(seed: int) -> Workload:
    """Spin-1 probe under a random GKSL generator; generalized Gibbs family
    over the non-commuting pair (S_z, S_x)."""
    rng = _rng(seed, 3)
    omega = float(rng.uniform(0.9, 1.1))
    H = omega * SZ1 + float(rng.uniform(0.15, 0.25)) * SX1 + 0.1 * _herm(rng, 3)
    gamma = float(rng.uniform(0.3, 0.4))
    beta_bath = float(rng.uniform(0.8, 1.0))
    jumps = [(SPLUS1.conj().T, gamma), (SPLUS1, gamma * np.exp(-beta_bath * omega)),
             (_cplx(rng, 3), float(rng.uniform(0.05, 0.1)))]
    beta_init = np.array([rng.uniform(0.3, 0.5), rng.uniform(-0.3, 0.3)])
    K = beta_init[0] * SZ1 + beta_init[1] * SX1
    w, U = np.linalg.eigh(K)
    rho = (U * gibbs_populations(w, 1.0)) @ U.conj().T
    E0 = [float(np.trace(P @ rho).real) for P in (SZ1, SX1)]
    scenario = {
        "name": "noncomm",
        "model": {"kind": "custom-gksl", "hamiltonian": matrix_yaml(H),
                  "jumps": [{"operator": matrix_yaml(L), "rate": float(g)} for L, g in jumps]},
        "ansatz": {"kind": "gibbs-generalized", "observables": [matrix_yaml(SZ1), matrix_yaml(SX1)]},
        "protocols": ["discrete", "ode1", "ode2"],
        "strob": {"lambda": 1.0, "dt": DT, "horizon": NONCOMMUTING_HORIZON},
        "initial": {"E": E0},
        "output": {"emit_beta": True},
    }
    return Workload("gibbs-noncommuting", "simulate", scenario,
                    {"H": H, "jumps": jumps, "observables": (SZ1, SX1), "E0": E0,
                     "lam": 1.0, "dt": DT, "horizon": NONCOMMUTING_HORIZON})


def open_factorized(seed: int) -> Workload:
    """Qubit system coupled to a three-level bath under a random GKSL
    generator (36 x 36 Liouvillian); factorized family with a fixed bath
    factor."""
    rng = _rng(seed, 4)
    dS, dB = 2, 3
    eyeS, eyeB = np.eye(dS), np.eye(dB)
    omega_s = float(rng.uniform(0.9, 1.1))
    eps = np.array([0.0, *np.sort(rng.uniform(0.5, 1.5, size=2))])
    beta_bath = float(rng.uniform(0.8, 1.2))
    H = (np.kron(omega_s * SIG_P @ SIG_M + 0.2 * SIG_X, eyeB) + np.kron(eyeS, np.diag(eps))
         + float(rng.uniform(0.1, 0.2)) * np.kron(SIG_X, _herm(rng, dB)))
    u = np.exp(-beta_bath * omega_s)
    gamma_s = float(rng.uniform(0.3, 0.5))
    jumps = [(np.kron(SIG_M, eyeB), gamma_s), (np.kron(SIG_P, eyeB), gamma_s * u)]
    for i in range(dB):
        for j in range(i + 1, dB):
            down = np.zeros((dB, dB), dtype=complex)
            down[i, j] = 1.0
            g = float(rng.uniform(0.2, 0.4))
            jumps.append((np.kron(eyeS, down), g))
            jumps.append((np.kron(eyeS, down.T), g * np.exp(-beta_bath * (eps[j] - eps[i]))))
    jumps.append((_cplx(rng, dS * dB), float(rng.uniform(0.05, 0.1))))
    rho_B = np.diag(gibbs_populations(eps, beta_bath)).astype(complex)
    bloch = rng.normal(size=3)
    bloch *= float(rng.uniform(0.3, 0.6)) / np.linalg.norm(bloch)
    # E = (rho_S[0,0], 2 Re rho_S[0,1], 2 Im rho_S[0,1]) for rho_S = (I + r.sigma) / 2
    E0 = [float(0.5 * (1.0 + bloch[2])), float(bloch[0]), float(-bloch[1])]
    scenario = {
        "name": "factorized",
        "model": {"kind": "custom-gksl", "hamiltonian": matrix_yaml(H),
                  "jumps": [{"operator": matrix_yaml(L), "rate": float(g)} for L, g in jumps]},
        "ansatz": {"kind": "factorized", "bath_state": matrix_yaml(rho_B), "dims": [dS, dB]},
        "protocols": ["discrete", "ode1", "ode2"],
        "strob": {"lambda": 1.0, "dt": DT, "horizon": FACTORIZED_HORIZON},
        "initial": {"E": E0},
    }
    return Workload("open-factorized", "simulate", scenario,
                    {"H": H, "jumps": jumps, "rho_B": rho_B, "dims": (dS, dB), "E0": E0,
                     "lam": 1.0, "dt": DT, "horizon": FACTORIZED_HORIZON})


def build(name: str, seed: int, multilevel_base: dict) -> Workload:
    """The generated input of one workload; multilevel_base is the parsed
    reference scenario scenarios/multilevel_relax.yaml."""
    if name == "ladder-qubit":
        return ladder_qubit(seed)
    if name == "relax-multilevel":
        return relax_multilevel(seed, multilevel_base)
    if name == "gibbs-noncommuting":
        return gibbs_noncommuting(seed)
    if name == "open-factorized":
        return open_factorized(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
