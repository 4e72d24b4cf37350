"""The discrete protocol in the Heisenberg picture against the Schrödinger picture.

run_discrete reads each round from the images Phi*(P_m) of the relevant
observables, E_{k+1,m} = Tr(Phi*(P_m) rho(E_k)).  The reference here runs
the rounds as the protocol is stated: build state_of(E_k) (for a Gibbs family
the state of the point fitted warm to E_k), propagate it with
Propagator.apply and extract its parameters.  Rows must agree to rounding for
the linear and selective families, and to the fit tolerance for Gibbs
families, whose warm fits may stop anywhere within it; a run that fails must
fail with the same error text and protocol step.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from thermostrobe import (
    DomainError,
    GibbsAnsatz,
    GkslGenerator,
    Propagator,
    SelectiveAnsatz,
    StrobConfig,
    ThermostrobeError,
    extract_params,
    gibbs_expectations,
    gibbs_jacobian,
    run_discrete,
)
from tutil import (
    random_complex,
    random_density,
    random_factorized,
    random_generator,
    random_hermitian,
    random_pinching,
)

CFG = StrobConfig(lam=1.3, dt=0.1, horizon=2.0)
FIT_TOL = GibbsAnsatz((np.diag([1.0, -1.0]),)).fit_tol


def schrodinger_run(gen, family, E0, cfg):
    """(rows, betas) of the discrete protocol run on states, or the failure's (type, text)."""
    propagator = Propagator.build(gen, cfg.lam * cfg.dt)
    rows, betas = [np.asarray(E0, dtype=float)], []
    for k in range(cfg.n_steps()):
        try:
            if isinstance(family, GibbsAnsatz):
                point = family.point_of(rows[-1], beta_init=betas[-1] if betas else None)
                betas.append(point.beta)
                rho = point.state()
            else:
                rho = family.state_of(rows[-1])
            rows.append(extract_params(family, propagator.apply(rho)))
        except (ThermostrobeError, ArithmeticError) as err:
            return type(err), f"protocol step {k} (t = {k * cfg.dt:.9g}): {err}"
    if isinstance(family, GibbsAnsatz):
        betas.append(family.point_of(rows[-1], beta_init=betas[-1] if betas else None).beta)
    return np.array(rows), np.array(betas)


def heisenberg_run(gen, family, E0, cfg):
    try:
        traj = run_discrete(gen, family, E0, cfg, with_temps=True)
    except (ThermostrobeError, ArithmeticError) as err:
        return type(err), str(err)
    return traj.params, traj.temps


def pump_generator(rng, d):
    """A random generator whose first jump has a negative rate: not completely positive,
    so the rows of a run may leave the family's domain."""
    gen = random_generator(rng, d)
    (L, g), *rest = gen.jumps
    return GkslGenerator(gen.hamiltonian, ((L, -5.0 * g), *rest), check_rates=False)


def linear_family(rng, kind):
    return random_pinching(rng, int(rng.integers(2, 5))) if kind == "pinching" else \
        random_factorized(rng, int(rng.integers(1, 3)))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.sampled_from(["pinching", "factorized", "selective"]), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_heisenberg_rounds_match_schrodinger_rounds(kind, pumped, seed):
    rng = np.random.default_rng(seed)
    if kind == "selective":
        X = random_hermitian(rng, 3)
        family = SelectiveAnsatz(X, float(np.linalg.eigvalsh(X)[int(rng.integers(0, 3))]))
    else:
        family = linear_family(rng, kind)
    gen = (pump_generator if pumped else random_generator)(rng, family.dim)
    E0 = extract_params(family, random_density(rng, family.dim))
    ref = schrodinger_run(gen, family, E0, CFG)
    got = heisenberg_run(gen, family, E0, CFG)
    if isinstance(ref[0], type):
        assert got == ref
        return
    assert got[1] is None and not isinstance(got[0], type), got
    scale = 1.0 + float(np.max(np.abs(ref[0])))
    assert float(np.max(np.abs(got[0] - ref[0]))) <= 1e-14 * scale


def random_gibbs(rng, kind):
    if kind == "canonical":
        return GibbsAnsatz((random_hermitian(rng, int(rng.integers(2, 4))),))
    if kind == "commuting":
        return GibbsAnsatz(tuple(np.diag(rng.normal(size=3)).astype(complex) for _ in range(2)))
    return GibbsAnsatz((random_hermitian(rng, 3), random_hermitian(rng, 3)))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.sampled_from(["canonical", "commuting", "generalized"]),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_heisenberg_gibbs_rounds_match_schrodinger_rounds(kind, seed):
    rng = np.random.default_rng(seed)
    family = random_gibbs(rng, kind)
    gen = random_generator(rng, family.dim)
    beta0 = rng.uniform(-1.0, 1.0, size=family.size)
    E0 = gibbs_expectations(family.relevant, beta0)
    ref = schrodinger_run(gen, family, E0, CFG)
    got = heisenberg_run(gen, family, E0, CFG)
    if isinstance(ref[0], type):
        assert got == ref
        return
    # warm fits stop anywhere within the fit tolerance: beta moves by up to
    # FIT_TOL |J^-1|, and the next row by J times that
    J_inv = max(np.linalg.norm(np.linalg.inv(gibbs_jacobian(family.relevant, b)), 2) for b in ref[1])
    assert float(np.max(np.abs(got[1] - ref[1]))) <= 10 * FIT_TOL * J_inv
    assert float(np.max(np.abs(got[0] - ref[0]))) <= 10 * FIT_TOL * (1.0 + np.max(np.abs(ref[0])))


def test_gibbs_rounds_fail_as_schrodinger_rounds_do():
    # the qubit's excited population is pumped past the family's open domain
    family = GibbsAnsatz((np.diag([1.0, 0.0]).astype(complex),))
    pump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    gen = GkslGenerator(np.zeros((2, 2)), ((pump, 10.0),))
    ref = schrodinger_run(gen, family, [0.5], CFG)
    assert ref[0] is DomainError and ref[1].startswith("protocol step ")
    assert heisenberg_run(gen, family, [0.5], CFG) == ref


def test_heisenberg_rounds_use_no_state_propagation(monkeypatch, rng):
    def refused(*args, **kwargs):
        raise AssertionError("a round propagated a state")

    monkeypatch.setattr(Propagator, "apply", refused)
    for family in (linear_family(rng, "pinching"), random_gibbs(rng, "generalized"),
                   SelectiveAnsatz(np.diag([1.0, 1.0, 0.0]), 1.0)):
        gen = random_generator(rng, family.dim)
        E0 = extract_params(family, random_density(rng, family.dim))
        run_discrete(gen, family, E0, CFG)


def test_heisenberg_images_pair_as_the_propagated_state(rng):
    gen = random_generator(rng, 3)
    propagator = Propagator.build(gen, 0.37)
    X = np.array([random_complex(rng, 3) for _ in range(2)])
    rho = random_density(rng, 3)
    images = propagator.adjoint(X)
    lhs = np.einsum("mab,ab->m", images.conj(), rho)
    rhs = np.einsum("mab,ab->m", X.conj(), propagator.apply(rho))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)
