"""Seeded random states and unitaries shared by the tests.

Each sampler draws from the generator it is given, in a fixed order, so
a test that seeds its generator gets the same states on every run.
"""

import numpy as np

from qdiscord.states import DensityMatrix, bell_diagonal


def ginibre(rng, d, rank=None):
    """Normalized G G^dag for a d x rank complex Gaussian G (rank d by
    default): a random d x d density matrix of at most that rank."""
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ginibre_state(rng, dims=(2, 2), rank=None):
    """`ginibre` as a DensityMatrix with subsystem dimensions dims."""
    return DensityMatrix(dims, ginibre(rng, dims[0] * dims[1], rank))


def haar_unitary(rng):
    """Haar-random 2 x 2 unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_valid_omega(rng):
    """Uniform draws from [-1, 1]^3 until one is a Bell-diagonal state."""
    while True:
        omega = rng.uniform(-1, 1, 3)
        try:
            bell_diagonal(omega)
        except ValueError:
            continue
        return omega
