"""Reference run for the driven qubit probe.

Prints the closed-form working point (stationary energy, apparent inverse
temperature, relaxation time), checks the RK4 integration of the closed-form
rate against its analytic solution, and compares with the discrete protocol
and the generic second-order velocity.
"""

import numpy as np

from thermostrobe.ansatz import GibbsAnsatz, qubit_beta_closed_form
from thermostrobe.models import (
    QubitParams,
    qubit_E_closed_form,
    qubit_E_stationary,
    qubit_beta_stationary,
    qubit_energy_observable,
    qubit_generator,
    qubit_rate_closed_form,
    qubit_tau,
)
from thermostrobe.strob import StrobConfig, integrate, run_discrete, run_ode


def main():
    p = QubitParams(omega0=1.0, gamma=0.5, beta0=1.0, dt=0.1, Omega=0.2)
    print("working point:", p)
    print(f"  E_st    = {qubit_E_stationary(p):.12f}")
    print(f"  beta_st = {qubit_beta_stationary(p):.12f}")
    print(f"  tau     = {qubit_tau(p):.12f}")
    print(f"  E_eq    = {p.equilibrium_energy:.12f} (undriven Gibbs energy)")

    E0 = 0.5
    T = 10.0
    cfg_fine = StrobConfig(lam=1.0, dt=0.1, horizon=T, ode_step=1e-3)
    traj = integrate(lambda E: qubit_rate_closed_form(E, p), [E0], cfg_fine)
    exact = qubit_E_closed_form(traj.times, E0, p)
    print(f"\nRK4 (h=1e-3) vs closed-form solution over T={T}:")
    print(f"  max deviation = {np.max(np.abs(traj.params[:, 0] - exact)):.3e}")

    gen = qubit_generator(p)
    fam = GibbsAnsatz.canonical(qubit_energy_observable(p))
    cfg = StrobConfig(lam=1.0, dt=0.1, horizon=60.0)
    disc = run_discrete(gen, fam, [E0], cfg)
    ode2 = run_ode(gen, fam, [E0], cfg, order=2)
    e_disc = disc.params[-1, 0]
    e_ode2 = ode2.params[-1, 0]
    print(f"\nlong-run terminal energies (T={cfg.horizon}):")
    print(f"  discrete protocol: E = {e_disc:.12f}  beta = {qubit_beta_closed_form(e_disc, p.omega0):.12f}")
    print(f"  second-order ODE:  E = {e_ode2:.12f}  beta = {qubit_beta_closed_form(e_ode2, p.omega0):.12f}")
    print(f"  closed-form rate:  E = {qubit_E_stationary(p):.12f}  beta = {qubit_beta_stationary(p):.12f}")


if __name__ == "__main__":
    main()
