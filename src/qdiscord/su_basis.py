"""SU(N) generator bases and bipartite operator decompositions.

Generators follow the standard construction from the projector set
P_jk = |j><k|: symmetric pairs U_jk, antisymmetric pairs V_jk, and the
diagonal W_l with prefactor sqrt(2/(l(l+1))).  Ordering is fixed
(U-block, then V-block, then W-block, each lexicographic) so that
decompositions are reproducible.

The decomposition convention is fixed by requiring an exact round trip

    rho = (1/mn) (I + sum_i alpha_i L_i x I + sum_j beta_j I x L_j
                    + sum_ij corr_ij L_i x L_j)

with Tr(L_i L_j) = 2 d_ij, which forces

    alpha_i = (m/2) Tr(rho L_i x I),   beta_j = (n/2) Tr(rho I x L_j),
    corr_ij = (mn/4) Tr(rho L_i x L_j).

For two qubits this reduces to the familiar Pauli expansion where alpha
and beta are the subsystem Bloch vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COEFF_IMAG_TOL = 1e-8


def generators(n: int) -> tuple[np.ndarray, ...]:
    """The N^2 - 1 generators of SU(N), orthogonal under Tr(L_i L_j) = 2 d_ij."""
    if n < 2:
        raise ValueError("generator dimension must be at least 2")

    def proj(j, k):
        p = np.zeros((n, n), dtype=complex)
        p[j, k] = 1.0
        return p

    mats = []
    for j in range(n - 1):
        for k in range(j + 1, n):
            mats.append(proj(j, k) + proj(k, j))
    for j in range(n - 1):
        for k in range(j + 1, n):
            mats.append(-1j * (proj(j, k) - proj(k, j)))
    for l in range(1, n):
        w = np.zeros((n, n), dtype=complex)
        for i in range(l):
            w[i, i] = 1.0
        w[l, l] = -l
        mats.append(math.sqrt(2.0 / (l * (l + 1))) * w)
    return tuple(mats)


@dataclass(frozen=True)
class SuDecomposition:
    """Coefficients of a bipartite operator in the generator basis."""

    dims: tuple[int, int]
    alpha: np.ndarray
    beta: np.ndarray
    corr: np.ndarray


def _real_coeff(value: complex, what: str) -> float:
    if abs(value.imag) > COEFF_IMAG_TOL:
        raise ValueError(f"{what} coefficient has imaginary part {value.imag}")
    return value.real


def decompose(rho: np.ndarray, dims: tuple[int, int]) -> SuDecomposition:
    m, n = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (m * n, m * n):
        raise ValueError(f"state shape {rho.shape} does not match dims ({m},{n})")
    gen_a = generators(m)
    gen_b = generators(n)
    im = np.eye(m)
    iN = np.eye(n)
    alpha = np.array([
        _real_coeff(0.5 * m * complex(np.trace(rho @ np.kron(g, iN))), "alpha")
        for g in gen_a
    ])
    beta = np.array([
        _real_coeff(0.5 * n * complex(np.trace(rho @ np.kron(im, g))), "beta")
        for g in gen_b
    ])
    corr = np.array([
        [_real_coeff(0.25 * m * n * complex(np.trace(rho @ np.kron(ga, gb))), "corr")
         for gb in gen_b]
        for ga in gen_a
    ])
    return SuDecomposition((m, n), alpha, beta, corr)


def reconstruct(d: SuDecomposition) -> np.ndarray:
    m, n = d.dims
    if d.alpha.shape != (m * m - 1,) or d.beta.shape != (n * n - 1,):
        raise ValueError("coefficient lengths do not match dims")
    if d.corr.shape != (m * m - 1, n * n - 1):
        raise ValueError("correlation matrix shape does not match dims")
    gen_a = generators(m)
    gen_b = generators(n)
    im = np.eye(m)
    iN = np.eye(n)
    rho = np.kron(im, iN).astype(complex)
    for ai, ga in zip(d.alpha, gen_a):
        rho += ai * np.kron(ga, iN)
    for bj, gb in zip(d.beta, gen_b):
        rho += bj * np.kron(im, gb)
    for i, ga in enumerate(gen_a):
        for j, gb in enumerate(gen_b):
            rho += d.corr[i, j] * np.kron(ga, gb)
    return rho / (m * n)
