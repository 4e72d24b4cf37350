"""Shared helpers for the test suite: seeded random operators and generators."""

import numpy as np

from thermostrobe import FactorizedAnsatz, GkslGenerator, PinchingAnsatz, hermitize


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d, scale=1.0):
    return scale * hermitize(random_complex(rng, d))


def random_density(rng, d):
    G = random_complex(rng, d)
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_generator(rng, d, n_jumps=2, rate_scale=1.0):
    H = random_hermitian(rng, d)
    jumps = tuple(
        (random_complex(rng, d), float(rng.uniform(0.1, 1.0)) * rate_scale)
        for _ in range(n_jumps)
    )
    return GkslGenerator(hamiltonian=H, jumps=jumps)


def random_pinching(rng, d):
    """Pinching family of an observable with L distinct levels in a random
    basis; levels repeat (degenerate blocks) whenever L < d."""
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    L = int(rng.integers(1, d + 1))
    levels = rng.permutation(L).astype(float)
    w = levels[rng.permutation(np.concatenate([np.arange(L), rng.integers(0, L, size=d - L)]))]
    return PinchingAnsatz(U @ np.diag(w) @ U.conj().T)


def random_factorized(rng, dB):
    return FactorizedAnsatz(random_density(rng, dB), (2, dB))


def commutator_norm(A, B):
    return float(np.linalg.norm(A @ B - B @ A))
