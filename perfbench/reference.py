"""Independent answers that the benchmark checks the program against.

Nothing here imports qdiscord: the checks must not share code with what
they check.  Two references are used.

- Bell-diagonal states (1/4)(I + sum_j w_j s_j x s_j) and their local
  unitary orbit have the closed-form minimum conditional entropy
  h((1 + max_j |w_j|) / 2) (S. Luo, Phys. Rev. A 77, 042303, 2008).
- Any m x 2 state: a brute-force minimum over projective measurements
  on B, on the same cell-centre grid in (cos theta, phi) with the same
  three levels of 3x refinement as the program's grid oracle, evaluated
  for all grid directions at once with numpy.
"""

from __future__ import annotations

import math

import numpy as np

PAULIS = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

GRID_RESOLUTION = 200
REFINE_LEVELS = 3
# Outcomes less likely than this carry no entropy (same floor as the
# program, so both skip the same near-impossible outcomes).
PROB_FLOOR = 1e-12

_REFINE_OFFSETS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)],
                           dtype=float)


def binary_entropy(x: float) -> float:
    """h(x) in bits."""
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


def luo_min_conditional_entropy(omega) -> float:
    """Closed-form minimum for a Bell-diagonal state and its LU orbit."""
    c = float(np.max(np.abs(np.asarray(omega, dtype=float))))
    return binary_entropy((1.0 + min(c, 1.0)) / 2.0)


def _entropy_bits(vals: np.ndarray) -> float:
    vals = vals[vals > 0.0]
    return float(-np.sum(vals * np.log2(vals)))


def marginal_entropy_a(matrix: np.ndarray, dims) -> float:
    """S(rho_A) in bits."""
    m, n = dims
    rho_a = np.trace(np.asarray(matrix).reshape(m, n, m, n), axis1=1, axis2=3)
    return _entropy_bits(np.linalg.eigvalsh(rho_a))


def _contractions(matrix: np.ndarray, m: int):
    """Tr_B rho and Tr_B[(I x s_k) rho], k = x, y, z."""
    r4 = np.asarray(matrix, dtype=complex).reshape(m, 2, m, 2)
    t_id = np.einsum("abcb->ac", r4)
    t_pauli = np.einsum("abcd,kdb->kac", r4, PAULIS)
    return t_id, t_pauli


def _entropy_terms(spectrum, p: np.ndarray) -> np.ndarray:
    """sum_i -lam_i log2(lam_i / p) for each outcome, where `spectrum`
    holds one array per eigenvalue index; zero where p is below the floor."""
    safe_p = np.where(p > 0.0, p, 1.0)
    total = np.zeros_like(p)
    for lam in spectrum:
        pos = lam > 0.0
        total -= np.where(pos, lam * np.log2(np.where(pos, lam, 1.0) / safe_p),
                          0.0)
    return np.where(p >= PROB_FLOOR, total, 0.0)


def conditional_entropies(t_id, t_pauli, directions: np.ndarray) -> np.ndarray:
    """sum_j p_j S(rho_A|j) for projective measurements along each row
    of `directions` (unit Bloch vectors, shape (N, 3))."""
    if t_id.shape == (2, 2):
        return _qubit_conditional_entropies(t_id, t_pauli, directions)
    zs = np.einsum("nk,kac->nac", directions, t_pauli)
    total = np.zeros(len(directions))
    for sign in (1.0, -1.0):
        red = 0.5 * (t_id + sign * zs)
        p = np.einsum("naa->n", red).real
        total += _entropy_terms(np.linalg.eigvalsh(red).T, p)
    return total


def _qubit_conditional_entropies(t_id, t_pauli, directions):
    """Two-dimensional A, with the closed-form 2x2 spectrum.

    Batched LAPACK spends about 60 ms on the 80k matrices of one grid,
    which would make checking a run cost more than the run.
    """
    a0, d0, b0 = t_id[0, 0].real, t_id[1, 1].real, t_id[0, 1]
    az = directions @ t_pauli[:, 0, 0].real
    dz = directions @ t_pauli[:, 1, 1].real
    bz = directions @ t_pauli[:, 0, 1].real, directions @ t_pauli[:, 0, 1].imag
    total = np.zeros(len(directions))
    for sign in (1.0, -1.0):
        a = 0.5 * (a0 + sign * az)
        d = 0.5 * (d0 + sign * dz)
        b_re = 0.5 * (b0.real + sign * bz[0])
        b_im = 0.5 * (b0.imag + sign * bz[1])
        p = a + d
        disc = np.sqrt(np.maximum(0.25 * (a - d) ** 2 + b_re ** 2 + b_im ** 2,
                                  0.0))
        total += _entropy_terms((0.5 * p - disc, 0.5 * p + disc), p)
    return total


def measured_direction(r: float, y) -> np.ndarray:
    """Bloch vector of the first projector of the basis V|0>, V|1> with
    V = r I + i (y . sigma), read off V sigma_z V^dag."""
    v = r * np.eye(2) + 1j * np.einsum("k,kab->ab", np.asarray(y), PAULIS)
    m = v @ PAULIS[2] @ v.conj().T
    return np.einsum("kab,ba->k", PAULIS, m).real / 2.0


def conditional_entropy_at(matrix: np.ndarray, dims, direction) -> float:
    """Conditional entropy of one projective measurement on B."""
    t_id, t_pauli = _contractions(matrix, dims[0])
    d = np.asarray(direction, dtype=float)
    d = d[None, :] / np.linalg.norm(d)
    return float(conditional_entropies(t_id, t_pauli, d)[0])


def _directions(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    u = np.clip(u, -1.0, 1.0)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=1)


def _cell_centres():
    """Cell centres (u, phi) in row-major (u, phi) order, and their
    directions; the same for every state, so built once."""
    cells = np.arange(GRID_RESOLUTION) + 0.5
    u, phi = np.meshgrid(-1.0 + cells * (2.0 / GRID_RESOLUTION),
                         cells * (2.0 * math.pi / GRID_RESOLUTION),
                         indexing="ij")
    u, phi = u.ravel(), phi.ravel()
    return u, phi, _directions(u, phi)


_GRID = _cell_centres()


def grid_min_conditional_entropy(matrix: np.ndarray, dims) -> float:
    """Minimum conditional entropy over measurements on the qubit B.

    Cell centres of a GRID_RESOLUTION x GRID_RESOLUTION grid uniform in
    (cos theta, phi), then REFINE_LEVELS levels of 3x3 points around the
    best point, each level a third the size of the one before.
    """
    m, n = dims
    if n != 2:
        raise ValueError("the reference measures a qubit B")
    t_id, t_pauli = _contractions(matrix, m)
    u, phi, directions = _GRID
    vals = conditional_entropies(t_id, t_pauli, directions)
    k = int(np.argmin(vals))
    best = float(vals[k])
    u0, phi0 = u[k], phi[k]
    wu, wphi = 2.0 / GRID_RESOLUTION, 2.0 * math.pi / GRID_RESOLUTION
    for _ in range(REFINE_LEVELS):
        uc = u0 + _REFINE_OFFSETS[:, 0] * wu / 3.0
        pc = phi0 + _REFINE_OFFSETS[:, 1] * wphi / 3.0
        vals = conditional_entropies(t_id, t_pauli, _directions(uc, pc))
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        u0, phi0 = uc[k], pc[k]
        wu /= 3.0
        wphi /= 3.0
    return best
