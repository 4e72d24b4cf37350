"""Acceptance gate: every release criterion with its pinned tolerance.

Each test prints one PASS line with the measured numbers once its assertions
hold, so a verbose run reads as a checklist.  Tolerances are fixed here and
must not be loosened to make a failing build pass.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from thermostrobe import (
    ContinuumLimit,
    FactorizedAnsatz,
    GibbsAnsatz,
    MultilevelParams,
    PinchingAnsatz,
    QubitParams,
    SelectiveAnsatz,
    StrobConfig,
    apply_heisenberg,
    extract_params,
    fit_beta,
    gibbs_expectations,
    gibbs_jacobian,
    kron,
    multilevel_A_analytic,
    multilevel_B_analytic,
    multilevel_energy_observable,
    multilevel_generator,
    qubit_A_analytic,
    qubit_B_analytic,
    qubit_beta_stationary,
    qubit_E_closed_form,
    qubit_E_stationary,
    qubit_energy_observable,
    qubit_generator,
    qubit_rate_closed_form,
    qubit_tau,
    run_discrete,
    run_ode,
    run_ode_temperature,
)
from thermostrobe.cli import main
from reference import apply_schrodinger, choi_psd_check, feasible, posterior, project, propagate
from tutil import commutator_norm, random_density, random_generator, random_hermitian

REPO = Path(__file__).resolve().parents[1]
STANDARD = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
ML = MultilevelParams(
    omegas=(0.0, 1.0, 2.0),
    base_rates=np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
    beta0=1.0,
)


def test_criterion_1_closed_form_rate():
    """The closed-form qubit rate, its solution, and the derived scales."""
    p = STANDARD
    E0, T, h = 0.5, 10.0, 1e-3
    n = round(T / h)
    E = E0
    dev = 0.0
    for k in range(n):
        # classic RK4 on the scalar closed-form rate
        k1 = qubit_rate_closed_form(E, p)
        k2 = qubit_rate_closed_form(E + 0.5 * h * k1, p)
        k3 = qubit_rate_closed_form(E + 0.5 * h * k2, p)
        k4 = qubit_rate_closed_form(E + h * k3, p)
        E = E + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        dev = max(dev, abs(E - qubit_E_closed_form((k + 1) * h, E0, p)))
    assert dev <= 1e-8
    E_st = qubit_E_stationary(p)
    beta_st = qubit_beta_stationary(p)
    tau = qubit_tau(p)
    assert abs(E_st - 0.2742232151435881) <= 1e-8
    assert abs(beta_st - 0.9733000801276801) <= 1e-6
    assert abs(tau - 1.4286944583787635) <= 1e-6
    print(f"CRITERION 1 PASS: rk4-vs-closed-form {dev:.3e}, "
          f"E_st {E_st:.16g}, beta_st {beta_st:.16g}, tau {tau:.16g}")


def test_printed_drive_term_is_twice_the_derived_one():
    """The closed form keeps the printed drive term 2 Omega^2 dt (omega0 - 2E);
    on the Gibbs-canonical qubit the generic bracket (alpha/2)(<B> - W<A>)
    reduces to Omega^2 dt (omega0 - 2E), and both the discrete protocol and
    ode2 settle at the fixed point of that derived velocity."""
    p = STANDARD
    u = p.excitation_weight
    drive = p.Omega**2 * p.dt
    E_derived = (p.gamma * p.omega0 * u + drive * p.omega0) / (p.gamma * (1.0 + u) + 2.0 * drive)
    assert abs(E_derived - 0.27161285151636) <= 1e-13
    gen = qubit_generator(p)
    fam = GibbsAnsatz.canonical(qubit_energy_observable(p))
    cfg = StrobConfig(lam=1.0, dt=p.dt, horizon=40.0)
    E_disc = run_discrete(gen, fam, [0.5], cfg).params[-1, 0]
    E_ode2 = run_ode(gen, fam, [0.5], cfg, order=2).params[-1, 0]
    gap = qubit_E_stationary(p) - E_derived
    assert abs(E_ode2 - E_derived) <= 1e-9
    assert abs(E_disc - E_derived) <= 1e-5
    assert abs(gap - 2.6e-3) <= 2e-5
    print(f"PRINTED-FORMULA GAP PASS: derived fixed point {E_derived:.14f}, ode2 off by "
          f"{abs(E_ode2 - E_derived):.1e}, discrete by {abs(E_disc - E_derived):.1e}, "
          f"printed closed form by {gap:.4e}")


def test_criterion_2_zero_drive_is_unbiased():
    """Without driving the protocol relaxes exactly to the bath temperature."""
    p = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.0)
    assert abs(qubit_beta_stationary(p) - p.beta0) <= 1e-12
    fam = GibbsAnsatz.canonical(qubit_energy_observable(p), fit_tol=1e-13)
    limit = ContinuumLimit(qubit_generator(p), fam, StrobConfig())
    worst = 0.0
    for E in np.linspace(0.05, 0.95, 19):
        a, b, W = limit.moments([E])
        worst = max(worst, float(np.max(np.abs(b - W @ a))))
    assert worst <= 1e-12
    print(f"CRITERION 2 PASS: beta_st == beta0 to 1e-12, max bracket {worst:.3e}")


def test_criterion_3_reset_spacing_ladder():
    """Halving dt at fixed coupling shrinks the discrete-vs-ode2 gap at
    second order, and ode2 beats ode1 on every rung."""
    t0 = time.perf_counter()
    gen = qubit_generator(STANDARD)
    fam = GibbsAnsatz.canonical(qubit_energy_observable(STANDARD))
    dev2, dev1 = [], []
    for dt in (0.1, 0.05, 0.025):
        cfg = StrobConfig(lam=1.0, dt=dt, horizon=5.0)
        disc = run_discrete(gen, fam, [0.5], cfg)
        ode1 = run_ode(gen, fam, [0.5], cfg, order=1)
        ode2 = run_ode(gen, fam, [0.5], cfg, order=2)
        dev1.append(float(np.max(np.abs(disc.params - ode1.params))))
        dev2.append(float(np.max(np.abs(disc.params - ode2.params))))
    elapsed = time.perf_counter() - t0
    ratios = [a / b for a, b in zip(dev2, dev2[1:])]
    assert all(o2 < o1 for o1, o2 in zip(dev1, dev2))
    assert all(r >= 3.0 for r in ratios)
    assert elapsed < 30.0
    print(f"CRITERION 3 PASS: deviations {[f'{d:.6e}' for d in dev2]}, "
          f"ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s")


def test_criterion_4_generic_matches_analytic_qubit():
    """The generic adjoint-generator moments equal the hand-derived qubit
    formulas over the full parameter grid."""
    worst_a = worst_b = 0.0
    for omega0 in (0.5, 1.0, 2.0):
        fam = None
        for beta0 in (0.5, 1.0, 2.0):
            for gamma in (0.1, 0.5):
                for Omega in (0.0, 0.2, 0.5):
                    for dt in (0.05, 0.1):
                        p = QubitParams(omega0=omega0, gamma=gamma, beta0=beta0,
                                        dt=dt, Omega=Omega)
                        if fam is None:
                            fam = GibbsAnsatz.canonical(qubit_energy_observable(p),
                                                        fit_tol=1e-13)
                        limit = ContinuumLimit(qubit_generator(p), fam, StrobConfig())
                        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                            E = frac * omega0
                            (a,), (b,), _ = limit.moments([E], gradient=False)
                            worst_a = max(worst_a, abs(a - qubit_A_analytic(E, p)))
                            worst_b = max(worst_b, abs(b - qubit_B_analytic(E, p)))
    assert worst_a <= 1e-10
    assert worst_b <= 1e-10
    print(f"CRITERION 4 PASS: max |A| gap {worst_a:.3e}, max |B| gap {worst_b:.3e} "
          f"over 360 grid points")


def test_criterion_5_multilevel_relaxation():
    """The three-level probe's velocity vanishes at the bath temperature and
    the temperature protocol converges there monotonically from both sides."""
    assert abs(multilevel_A_analytic(ML.beta0, ML)) <= 1e-12
    assert abs(multilevel_B_analytic(ML.beta0, ML)) <= 1e-12
    gen = multilevel_generator(ML)
    fam = GibbsAnsatz.canonical(multilevel_energy_observable(ML), fit_tol=1e-12)
    E_at_bath = gibbs_expectations(fam.relevant, [ML.beta0])
    assert abs(ContinuumLimit(gen, fam, StrobConfig()).moments(E_at_bath, gradient=False)[0][0]) <= 1e-12
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=50.0)
    terminals = []
    for beta0, sign in ((ML.beta0 - 0.5, +1.0), (ML.beta0 + 0.5, -1.0)):
        traj = run_ode_temperature(gen, fam, beta0, cfg)
        steps = np.diff(traj.temps[:, 0])
        assert np.all(sign * steps >= -1e-12)  # monotone toward the bath
        terminal = abs(traj.temps[-1, 0] - ML.beta0)
        assert terminal <= 1e-6
        terminals.append(terminal)
    print(f"CRITERION 5 PASS: velocity at bath 0 to 1e-12, terminal gaps "
          f"{terminals[0]:.3e} (from below), {terminals[1]:.3e} (from above)")


def test_criterion_6_gibbs_fit_roundtrip():
    """Exponent fitting inverts the expectation map on random relevant sets,
    and the analytic response matrix matches finite differences."""
    rng = np.random.default_rng(20260819)
    worst_fit = 0.0
    worst_jac = 0.0
    noncommuting_seen = 0
    for case in range(200):
        if case == 0:
            obs = (kron(np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex)),
                   kron(np.array([[0, 1], [1, 0]], dtype=complex),
                        np.array([[0, 1], [1, 0]], dtype=complex)))
            d, M = 4, 2
        else:
            d = int(rng.integers(2, 7))
            M = int(rng.integers(1, 4))
            obs = tuple(random_hermitian(rng, d) for _ in range(M))
        if any(commutator_norm(obs[i], obs[j]) > 0.1
               for i in range(len(obs)) for j in range(i + 1, len(obs))):
            noncommuting_seen += 1
        beta = np.clip(rng.normal(size=M), -1.5, 1.5)
        try:
            E = gibbs_expectations(obs, beta)
        except Exception:
            continue
        fit = fit_beta(obs, E, tol=1e-12)
        worst_fit = max(worst_fit, float(np.max(np.abs(fit - beta))))
        if case % 10 == 0:
            J = gibbs_jacobian(obs, beta)
            h = 1e-5
            Jfd = np.empty_like(J)
            for n in range(M):
                db = np.zeros(M)
                db[n] = h
                Jfd[:, n] = (gibbs_expectations(obs, beta + db)
                             - gibbs_expectations(obs, beta - db)) / (2 * h)
            rel = float(np.max(np.abs(J - Jfd))) / max(1.0, float(np.max(np.abs(J))))
            worst_jac = max(worst_jac, rel)
    assert noncommuting_seen >= 1
    assert worst_fit <= 1e-8
    assert worst_jac <= 1e-6
    print(f"CRITERION 6 PASS: 200 roundtrips, max |beta gap| {worst_fit:.3e}, "
          f"max response-matrix FD error {worst_jac:.3e}, "
          f"{noncommuting_seen} noncommuting sets")


def test_criterion_7_structural_batteries():
    """Randomized invariants: duality, trace preservation, complete positivity,
    posterior idempotence, differentiated consistency, projector idempotence."""
    rng = np.random.default_rng(20260819)

    worst_duality = worst_trace = 0.0
    for _ in range(120):
        d = int(rng.integers(2, 6))
        gen = random_generator(rng, d, n_jumps=int(rng.integers(0, 4)))
        rho = random_density(rng, d)
        X = random_hermitian(rng, d)
        lhs = np.trace(X @ apply_schrodinger(gen, rho))
        rhs = np.trace(apply_heisenberg(gen, X) @ rho)
        worst_duality = max(worst_duality, abs(lhs - rhs))
        worst_trace = max(worst_trace, abs(np.trace(apply_schrodinger(gen, rho))),
                          abs(np.trace(propagate(gen, rho, 0.4)).real - 1.0))
    assert worst_duality <= 1e-10
    assert worst_trace <= 1e-10

    worst_choi = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        gen = random_generator(rng, d, n_jumps=int(rng.integers(0, 3)))
        t = float(rng.uniform(0.0, 1.5))
        worst_choi = min(worst_choi, choi_psd_check(gen, t))
    assert worst_choi >= -1e-8

    def family_draw(k):
        d = int(rng.integers(2, 5))
        if k == 0:
            return PinchingAnsatz(random_hermitian(rng, d)), d
        if k == 1:
            X = random_hermitian(rng, d)
            w = np.linalg.eigvalsh(X)
            return SelectiveAnsatz(X, float(w[-1])), d
        if k == 2:
            dB = int(rng.integers(2, 4))
            return FactorizedAnsatz(random_density(rng, dB), (d, dB)), d * dB
        return GibbsAnsatz((random_hermitian(rng, d),), fit_tol=1e-12), d

    worst_idem = 0.0
    for case in range(100):
        fam, d = family_draw(case % 4)
        rho = random_density(rng, d)
        once = posterior(fam, rho)
        worst_idem = max(worst_idem, float(np.max(np.abs(posterior(fam, once) - once))))
    assert worst_idem <= 1e-10

    worst_consistency = 0.0
    for case in range(100):
        d = int(rng.integers(2, 5))
        kind = case % 4
        if kind == 0:
            fam = PinchingAnsatz(random_hermitian(rng, d))
            E = extract_params(fam, random_density(rng, d))
        elif kind == 1:
            dB = int(rng.integers(2, 4))
            fam = FactorizedAnsatz(random_density(rng, dB), (d, dB))
            E = extract_params(fam, random_density(rng, d * dB))
        elif kind == 2:
            fam = GibbsAnsatz((random_hermitian(rng, d),), fit_tol=1e-13)
            E = extract_params(fam, random_density(rng, d))
        else:
            fam = GibbsAnsatz(tuple(random_hermitian(rng, d) for _ in range(2)),
                              fit_tol=1e-13)
            E = extract_params(fam, random_density(rng, d))
        if not feasible(fam, E):
            continue
        D = fam.derivative_of(E)
        for m, P in enumerate(fam.relevant.observables):
            for j in range(fam.size):
                gap = abs(np.trace(P @ D[j]).real - float(m == j))
                worst_consistency = max(worst_consistency, gap)
    assert worst_consistency <= 1e-8

    worst_pinch = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        fam = PinchingAnsatz(random_hermitian(rng, d))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        once = project(fam, M)
        worst_pinch = max(worst_pinch, float(np.max(np.abs(project(fam, once) - once))))
    assert worst_pinch <= 1e-12

    print(f"CRITERION 7 PASS: duality {worst_duality:.3e}, trace {worst_trace:.3e}, "
          f"choi floor {worst_choi:.3e}, idempotence {worst_idem:.3e}, "
          f"consistency {worst_consistency:.3e}, pinch idempotence {worst_pinch:.3e}")


def test_criterion_8_cli_determinism_and_golden(tmp_path):
    """Reference scenarios produce byte-identical outputs across runs and the
    standard qubit summary matches the committed golden file."""
    scenarios = ["qubit_standard.yaml", "custom_static.yaml"]
    for fname in scenarios:
        spath = str(REPO / "scenarios" / fname)
        out1 = tmp_path / (fname + "_1")
        out2 = tmp_path / (fname + "_2")
        assert main(["simulate", spath, "--out-dir", str(out1)]) == 0
        assert main(["simulate", spath, "--out-dir", str(out2)]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for f in names1:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f
    produced = (tmp_path / "qubit_standard.yaml_1" / "qubit_standard_summary.json").read_bytes()
    golden = (REPO / "tests" / "golden" / "qubit_standard_summary.json").read_bytes()
    assert produced == golden
    print("CRITERION 8 PASS: byte-identical reruns for "
          f"{scenarios}, summary matches the golden file")
