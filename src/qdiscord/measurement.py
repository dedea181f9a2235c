"""Parameterized von Neumann measurements on subsystem B.

A measurement basis is the pair of rank-1 projectors obtained by
conjugating |0><0|, |1><1| with V = r I + i (y . sigma), where
(r, y1, y2, y3) is a point on the unit 3-sphere.  Optimizer-facing
coordinates are three unconstrained hyperspherical angles; the sphere
constraint holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, PROB_FLOOR, binary_entropy, spectral_entropy
from .states import DensityMatrix

# The m > 2 batch holds about 80 B per direction per entry of an m x m
# block (measured peak RSS of grid scans); a batch that would need more
# than this many bytes is refused before it allocates.
SCAN_MEMORY_BUDGET = 10 ** 9


@dataclass(frozen=True)
class VonNeumannMeasurement:
    """Unit 4-vector (r, y) defining the measurement basis on B."""

    r: float
    y: tuple[float, float, float]

    def __post_init__(self):
        norm = self.r ** 2 + sum(c * c for c in self.y)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"(r, y) has squared norm {norm}, expected 1")

    def unitary(self) -> np.ndarray:
        v = self.r * np.eye(2, dtype=complex)
        for c, s in zip(self.y, PAULIS):
            v = v + 1j * c * s
        return v

    def bloch_direction(self) -> np.ndarray:
        """Bloch vector of the first projector: the image of z under
        conjugation by the measurement unitary."""
        return np.array(_bloch_of_unit(self.r, *self.y))


def _unit_of_angles(phi):
    p1, p2, p3 = map(float, phi)
    s1 = math.sin(p1)
    return (math.cos(p1), s1 * math.cos(p2),
            s1 * math.sin(p2) * math.cos(p3), s1 * math.sin(p2) * math.sin(p3))


def _bloch_of_unit(r, y1, y2, y3):
    """Bloch direction of the first projector of the measurement (r, y):
    z rotated by V = r I + i (y . sigma), written out."""
    return (2.0 * (-r * y2 + y1 * y3),
            2.0 * (r * y1 + y2 * y3),
            r * r + y3 * y3 - y1 * y1 - y2 * y2)


def from_angles(phi) -> VonNeumannMeasurement:
    """Hyperspherical map from three unconstrained angles onto the sphere."""
    r, y1, y2, y3 = _unit_of_angles(phi)
    return VonNeumannMeasurement(r, (y1, y2, y3))


def bloch_of_angles(phi) -> tuple[float, float, float]:
    """Bloch direction of from_angles(phi)'s first projector as a 3-tuple,
    with the same arithmetic but without building the measurement."""
    return _bloch_of_unit(*_unit_of_angles(phi))


def hyperspherical_angles(meas: VonNeumannMeasurement) -> np.ndarray:
    """Inverse of from_angles (one representative of the fiber)."""
    r = max(min(meas.r, 1.0), -1.0)
    y1, y2, y3 = meas.y
    p1 = math.acos(r)
    s1 = math.sin(p1)
    if s1 < 1e-14:
        return np.array([p1, 0.0, 0.0])
    p2 = math.acos(max(min(y1 / s1, 1.0), -1.0))
    s2 = math.sin(p2)
    if s1 * s2 < 1e-14:
        return np.array([p1, p2, 0.0])
    p3 = math.atan2(y3 / (s1 * s2), y2 / (s1 * s2))
    return np.array([p1, p2, p3])


def from_bloch(direction) -> VonNeumannMeasurement:
    """Measurement whose first projector has the given Bloch direction."""
    d = np.asarray(direction, dtype=float)
    d = d / math.sqrt(float(d @ d))
    theta = math.acos(max(min(d[2], 1.0), -1.0))
    phi = math.atan2(d[1], d[0])
    half = theta / 2.0
    return VonNeumannMeasurement(
        math.cos(half),
        (math.sin(half) * math.sin(phi), -math.sin(half) * math.cos(phi), 0.0),
    )


def conditional_entropy_fn(rho: DensityMatrix):
    """Precompiled conditional-entropy evaluator for a fixed state.

    The conditioned A-marginal is affine in the Bloch direction z of the
    measured projector: 0.5 (Tr_B rho +- sum_k z_k Tr_B[(I x s_k) rho])
    for the two outcomes.  Contracting the B indices against I and the
    three Paulis once makes each later evaluation a few m x m operations.
    This is the package's one conditional-entropy route; the tests check
    it against the independent routes in tests/reference.py.

    The evaluator takes a VonNeumannMeasurement or a 3-tuple of floats,
    one unit Bloch direction (the form bloch_of_angles returns), and
    returns a float; or an (N, 3) array of unit Bloch directions, and
    returns the N entropies in one vectorised pass (the grid oracle's
    form).
    """
    m, n = rho.dims
    if n != 2:
        raise ValueError("measurement acts on a 2-dimensional subsystem B")
    r4 = np.asarray(rho.matrix).reshape(m, 2, m, 2)
    t_id = np.einsum("abcb->ac", r4)
    t_pauli = np.array([np.einsum("abcd,db->ac", r4, s) for s in PAULIS])
    signs = np.array([[1.0], [-1.0]])  # the two outcomes, along axis 0

    if m != 2:
        flat_pauli = t_pauli.reshape(3, m * m)
        tr_id = np.trace(t_id).real
        tr_pauli = np.trace(t_pauli, axis1=1, axis2=2).real

        def evaluate_batch(directions: np.ndarray) -> np.ndarray:
            need = len(directions) * m * m * 80
            if need > SCAN_MEMORY_BUDGET:
                raise ValueError(
                    f"a scan of {len(directions)} directions on a {m}x2 "
                    f"state needs about {need / 1e9:.1f} GB, above the "
                    f"{SCAN_MEMORY_BUDGET / 1e9:g} GB scan memory budget")
            zs = (directions @ flat_pauli).reshape(-1, m, m)
            blocks = 0.5 * (t_id + signs[..., None, None] * zs)
            p = 0.5 * (tr_id + signs * (directions @ tr_pauli))
            ent = spectral_entropy(np.linalg.eigvalsh(blocks), p)
            return ent.sum(axis=0)

        def evaluate_one(z1, z2, z3):
            return float(evaluate_batch(np.array([(z1, z2, z3)]))[0])

        return _evaluator(evaluate_one, evaluate_batch)

    # Two-dimensional A: each contracted matrix is Hermitian, so carry
    # its real diagonal and one off-diagonal entry as plain scalars and
    # evaluate a single measurement without any per-call array work.
    log2 = math.log2
    mats = (t_id,) + tuple(t_pauli)
    aa = tuple(float(t[0, 0].real) for t in mats)
    dd = tuple(float(t[1, 1].real) for t in mats)
    bb = tuple(complex(t[0, 1]) for t in mats)
    # Columns: the slopes of a, d, Re b and Im b along z.
    slopes = np.array([aa[1:], dd[1:], [b.real for b in bb[1:]],
                       [b.imag for b in bb[1:]]]).T

    def evaluate_batch(directions: np.ndarray) -> np.ndarray:
        az, dz, bz_re, bz_im = (directions @ slopes).T
        a = 0.5 * (aa[0] + signs * az)
        d = 0.5 * (dd[0] + signs * dz)
        b_re = 0.5 * (bb[0].real + signs * bz_re)
        b_im = 0.5 * (bb[0].imag + signs * bz_im)
        p = a + d
        disc = np.sqrt(np.maximum((a - d) ** 2
                                  + 4.0 * (b_re ** 2 + b_im ** 2), 0.0))
        disc = np.minimum(disc, p)  # a PSD block's eigenvalues lie in [0, p]
        lam = 0.5 * np.stack((p - disc, p + disc), axis=-1)
        return spectral_entropy(lam, p).sum(axis=0)

    def evaluate_one(z1, z2, z3):
        az = z1 * aa[1] + z2 * aa[2] + z3 * aa[3]
        dz = z1 * dd[1] + z2 * dd[2] + z3 * dd[3]
        bz = z1 * bb[1] + z2 * bb[2] + z3 * bb[3]
        total = 0.0
        for sign in (1.0, -1.0):
            a = 0.5 * (aa[0] + sign * az)
            d = 0.5 * (dd[0] + sign * dz)
            b = 0.5 * (bb[0] + sign * bz)
            p = a + d
            if p < PROB_FLOOR:
                continue
            disc = math.sqrt(max((a - d) ** 2
                                 + 4.0 * (b.real ** 2 + b.imag ** 2), 0.0))
            disc = min(disc, p)  # a PSD block's eigenvalues lie in [0, p]
            for lam in (0.5 * (p - disc), 0.5 * (p + disc)):
                if lam > 0.0:
                    total -= lam * log2(lam / p)
        return total

    return _evaluator(evaluate_one, evaluate_batch)


def _evaluator(evaluate_one, evaluate_batch):
    """One entry point for the three input forms of the evaluator."""

    def evaluate(z):
        if isinstance(z, tuple):
            return evaluate_one(*z)
        if isinstance(z, VonNeumannMeasurement):
            return evaluate_one(*_bloch_of_unit(z.r, *z.y))
        return evaluate_batch(np.asarray(z, dtype=float))

    return evaluate


def bell_conditional_entropy(omega, meas: VonNeumannMeasurement) -> float:
    """Closed-form cost for states (1/4)(I + sum w_j s_j x s_j).

    Both outcomes are equiprobable and share the entropy of a qubit with
    Bloch length xi = |(w_1 z_1, w_2 z_2, w_3 z_3)|, where z is the
    measurement direction obtained by conjugation (S. Luo, Phys. Rev. A
    77, 042303, 2008).  A test reference for conditional_entropy_fn; no
    production path calls it.  It stays in the package because
    perfbench/tracing.py names it; its gradient is in tests/reference.py.
    """
    omega = np.asarray(omega, dtype=float)
    z = meas.bloch_direction()
    xi = math.sqrt(float(np.sum((omega * z) ** 2)))
    xi = min(xi, 1.0)
    return binary_entropy((1.0 + xi) / 2.0)
