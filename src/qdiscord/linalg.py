"""Dense complex linear algebra and entropy primitives.

Everything in this package works on small dense complex matrices
(nothing exceeds 16x16), stored row-major as numpy arrays.  All
entropies are in bits (base-2 logarithms).  Spectra come from numpy's
LAPACK Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances used throughout; see module docstrings for rationale.
HERMITICITY_TOL = 1e-9
# The entropy floors: an eigenvalue above -PSD_TOL is eigensolver
# round-off and counts as zero; a measurement outcome of weight below
# PROB_FLOOR contributes nothing.
PSD_TOL = 1e-8
PROB_FLOOR = 1e-12

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def partial_trace(rho: np.ndarray, keep: str, dims: tuple[int, int]) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator on an m*n space.

    keep='A' returns the m x m reduction, keep='B' the n x n one.
    """
    m, n = dims
    rho = np.asarray(rho)
    if rho.shape != (m * n, m * n):
        raise ValueError(
            f"operator shape {rho.shape} does not match dims ({m},{n})"
        )
    r = rho.reshape(m, n, m, n)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError("keep must be 'A' or 'B'")


def hermiticity_defect(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy's eigh).

    Returns (eigenvalues, eigenvectors): the eigenvalues ascending, and
    orthonormal eigenvectors as the columns of a matrix in that order.
    The input is symmetrized by (H + H^dag)/2 first; inputs that are
    non-Hermitian beyond HERMITICITY_TOL (relative to the largest entry)
    are rejected.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(h))) if h.size else 0.0
    if hermiticity_defect(h) > HERMITICITY_TOL * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    return vals, vecs


def spectral_entropy(lam: np.ndarray, p=1.0) -> np.ndarray:
    """sum_i -lam_i log2(lam_i / p) over the last axis of `lam`, which
    holds spectra of weight `p` (the unnormalised blocks of measurement
    outcomes, or a density matrix's spectrum at the default p = 1).

    Non-positive eigenvalues contribute 0 (0 log 0 = 0), and spectra
    with p below PROB_FLOOR contribute nothing.
    """
    kept = p >= PROB_FLOOR
    p = np.where(kept, p, 1.0)[..., None]
    lam = np.where(lam > 0.0, lam, p)  # -p log2(p / p) = 0
    return np.where(kept, -(lam * np.log2(lam / p)).sum(axis=-1), 0.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr(rho log2 rho) in bits.

    Eigenvalues in (-PSD_TOL, 0) count as zero (eigensolver round-off);
    anything below -PSD_TOL is a genuine PSD violation.
    """
    vals, _ = hermitian_eig(rho)
    if vals[0] < -PSD_TOL:
        raise ValueError(f"negative eigenvalue {vals[0]}: "
                         "not positive semidefinite")
    return float(spectral_entropy(vals))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), clamped within 1e-12 of [0,1]."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary entropy argument {x} outside [0,1]")
    x = min(max(x, 0.0), 1.0)
    return float(spectral_entropy(np.array([x, 1.0 - x])))


@dataclass(frozen=True)
class ValidityReport:
    """Defects of a candidate density matrix against a tolerance."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def valid(self) -> bool:
        return (self.hermiticity_defect <= self.tol
                and self.trace_defect <= self.tol
                and self.min_eigenvalue >= -self.tol)

    def describe(self) -> str:
        return (f"hermiticity defect {self.hermiticity_defect:.3e}, "
                f"trace defect {self.trace_defect:.3e}, "
                f"min eigenvalue {self.min_eigenvalue:.3e} "
                f"(tol {self.tol:.1e})")


def is_density_matrix(m: np.ndarray, tol: float = 1e-9) -> ValidityReport:
    """Report Hermiticity, trace and positivity defects of a square matrix."""
    return _validity_and_eig(m, tol)[0]


def _validity_and_eig(m: np.ndarray, tol: float):
    """is_density_matrix's report, and the hermitian_eig of the Hermitian
    part (M + M^dag)/2 that its minimum eigenvalue comes from."""
    # Below 1 the trace defect keeps Re Tr > 0, so the clipped spectrum
    # that load_state renormalizes has a positive sum.
    if not 0 < tol < 1:
        raise ValueError(f"input tolerance must be positive and finite, "
                         f"below 1, not {tol}")
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("density matrix candidate must be square")
    herm = hermiticity_defect(m)
    tr = abs(complex(np.trace(m)) - 1.0)
    sym = 0.5 * (m + m.conj().T)
    vals, vecs = hermitian_eig(sym)
    return ValidityReport(herm, tr, float(vals[0]), tol), vals, vecs
