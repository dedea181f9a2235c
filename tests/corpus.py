"""Seeded random states and unitaries shared by the tests, and states
with known traps.

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


# X states whose optimal measurement lies off every axis, so the best of
# the six axis measurements (Ali, Rau & Alber, Phys. Rev. A 81, 042105
# (2010)) is above the minimum (Lu, Ma, Xi & Wang, Phys. Rev. A 83,
# 012327 (2011)).  Each entry: the diagonal, rho_03 = rho_30 and rho_12 =
# rho_21 of x_state, the minimum conditional entropy in bits, and the
# best axis value's gap above it.  Literals, so no test searches for them.
X_STATE_TRAPS = (
    ((0.0929, 0.8345, 0.0546, 0.0180), 0.0183, 0.1362,
     0.265561239597230, 5.558412e-4),
)


def x_state(diagonal, rho03, rho12):
    """Two-qubit X state with real coherences rho03 and rho12."""
    rho = np.diag(np.asarray(diagonal, dtype=complex))
    rho[0, 3] = rho[3, 0] = rho03
    rho[1, 2] = rho[2, 1] = rho12
    return DensityMatrix((2, 2), rho)
