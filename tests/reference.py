"""Reference implementations that tests compare the package against.

Nothing in the package imports this module.  The package computes the
conditional entropy one way, through the evaluator that
`qdiscord.measurement.conditional_entropy_fn` compiles per state; the
routes here are independent of it, and the acceptance criteria and
tests check it against them.

- `conditional_entropy`: the direct route, an einsum that sandwiches
  the B indices of rho between the measured kets.
- `vectorize`, `devectorize`, `VectorizedState`, `projectors`,
  `apply_superop_vectorized` and `vectorized_conditional_entropy`: the
  doubled-Hilbert-space route, where Pi rho Pi becomes (Pi x Pi^T)|rho>.
- `analytic_gradient_bell` (with `_bloch_jacobian` and `GRAD_CLAMP`):
  the gradient of the Bell-diagonal closed-form cost
  `qdiscord.measurement.bell_conditional_entropy`; `finite_diff_gradient`
  checks it.
- `reconstruct`: the inverse of `qdiscord.su_basis.decompose`.
- `nelder_mead`: the simplex search over numpy arrays, as it was before
  the package's version moved to tuples of floats.  The two must take
  the same path: same points, same values, same iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdiscord.linalg import von_neumann_entropy
from qdiscord.measurement import (PROB_FLOOR, VonNeumannMeasurement,
                                  _unit_of_angles, bloch_of_angles)
from qdiscord.optimizer import OptimizationResult, OptimizerConfig
from qdiscord.states import DensityMatrix
from qdiscord.su_basis import SuDecomposition, generators

GRAD_CLAMP = 1e6


def projectors(meas: VonNeumannMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """The two rank-1 projectors (Pi0, Pi1) of the measurement."""
    v = meas.unitary()
    return tuple(np.outer(v[:, j], v[:, j].conj()) for j in range(2))


def conditional_entropy(rho: DensityMatrix,
                        meas: VonNeumannMeasurement) -> float:
    """sum_j p_j S(rho_j) for the two projective outcomes on B.

    The entropy is evaluated on the A-marginal of each outcome; after a
    rank-1 projection on B the outcome factorizes with a pure B part, so
    this equals the entropy of the full post-measurement state.
    """
    m, n = rho.dims
    if n != 2:
        raise ValueError("measurement acts on a 2-dimensional subsystem B")
    v = meas.unitary()
    r4 = np.asarray(rho.matrix).reshape(m, 2, m, 2)
    total = 0.0
    for j in range(2):
        ket = v[:, j]
        # A-marginal of (I x Pi_j) rho (I x Pi_j): sandwich the B indices.
        red = np.einsum("b,abcd,d->ac", ket.conj(), r4, ket)
        p = float(np.trace(red).real)
        if p < PROB_FLOOR:
            continue
        total += p * von_neumann_entropy(red / p)
    return total


def _bloch_jacobian(phi) -> np.ndarray:
    """d bloch_of_angles(phi) / d phi as a 3x3 matrix, by the chain rule
    d z/d(r, y) times the hyperspherical Jacobian d(r, y)/d phi."""
    r, y1, y2, y3 = _unit_of_angles(phi)
    dz_du = 2.0 * np.array([[-y2, y3, -r, y1],
                            [y1, r, y3, y2],
                            [r, -y1, -y2, y3]])
    c1, c2, c3 = (math.cos(float(p)) for p in phi)
    s1, s2, s3 = (math.sin(float(p)) for p in phi)
    du_dphi = np.array([
        [-s1, 0.0, 0.0],
        [c1 * c2, -s1 * s2, 0.0],
        [c1 * s2 * c3, s1 * c2 * c3, -s1 * s2 * s3],
        [c1 * s2 * s3, s1 * c2 * s3, s1 * s2 * c3],
    ])
    return dz_du @ du_dphi


def analytic_gradient_bell(omega, phi):
    """Gradient of bell_conditional_entropy at from_angles(phi), that is
    of h((1 + xi)/2) with xi = |omega * z(phi)|.

    Near xi = 1 the binary-entropy derivative diverges; components are
    clamped to +-GRAD_CLAMP so that they stay finite.
    """
    omega = np.asarray(omega, dtype=float)
    z = np.array(bloch_of_angles(phi))
    wz = omega * z
    xi = math.sqrt(float(wz @ wz))
    if xi < 1e-12:
        return np.zeros(3)
    dxi = (omega ** 2 * z) @ _bloch_jacobian(phi) / xi
    one_minus = max(1.0 - xi, 1e-300)
    dh = 0.5 * math.log2(one_minus / (1.0 + xi))
    return np.clip(dh * dxi, -GRAD_CLAMP, GRAD_CLAMP)


@dataclass(frozen=True)
class VectorizedState:
    """Row-major flattening of a matrix, scaled to a unit vector.

    `normalization` keeps the original Frobenius norm so the matrix can
    be recovered exactly.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray
    normalization: float


def vectorize(rho: DensityMatrix) -> VectorizedState:
    flat = np.asarray(rho.matrix, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise ValueError("cannot vectorize the zero matrix")
    return VectorizedState(rho.dims, flat / norm, norm)


def devectorize(v: VectorizedState) -> np.ndarray:
    """Inverse of vectorize; returns the dense matrix."""
    m, n = v.dims
    d = m * n
    if v.amplitudes.shape != (d * d,):
        raise ValueError(
            f"amplitude length {v.amplitudes.shape} does not match dims {v.dims}"
        )
    return (v.amplitudes * v.normalization).reshape(d, d)


def apply_superop_vectorized(v: VectorizedState,
                             pair: tuple[np.ndarray, np.ndarray]):
    """Vectorized route: Pi rho Pi becomes (Pi x Pi^T) |rho>.

    `pair` holds the projectors (Pi0, Pi1), as projectors returns them.
    Returns, per outcome, the probability weight and the image as a
    VectorizedState whose devectorization equals (I x Pi_j) rho (I x Pi_j).
    """
    m, n = v.dims
    if n != 2:
        raise ValueError("measurement acts on a 2-dimensional subsystem B")
    d = m * n
    if v.amplitudes.shape != (d * d,):
        raise ValueError("vectorized state length does not match dims")
    im = np.eye(m)
    results = []
    for pi in pair:
        full = np.kron(im, pi)
        superop = np.kron(full, full.T)
        image = superop @ v.amplitudes
        norm = math.sqrt(float(np.sum(np.abs(image) ** 2)))
        # Probability: trace of the devectorized (unnormalized) image.
        weight = float((image.reshape(d, d).trace() * v.normalization).real)
        if norm == 0.0:
            results.append((max(weight, 0.0),
                            VectorizedState(v.dims, image, 0.0)))
        else:
            results.append((weight,
                            VectorizedState(v.dims, image / norm,
                                            norm * v.normalization)))
    return results


def vectorized_conditional_entropy(v: VectorizedState,
                                   meas: VonNeumannMeasurement) -> float:
    """Conditional entropy computed entirely through the vectorized route."""
    total = 0.0
    for weight, image in apply_superop_vectorized(v, projectors(meas)):
        if weight < PROB_FLOOR:
            continue
        mat = devectorize(image) / weight
        red = np.trace(mat.reshape(v.dims[0], 2, v.dims[0], 2),
                       axis1=1, axis2=3)
        total += weight * von_neumann_entropy(red)
    return total


def finite_diff_gradient(cost, theta, h: float):
    """Central differences, one coordinate at a time."""
    if h <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for k in range(theta.size):
        e = np.zeros_like(theta)
        e[k] = h
        g[k] = (cost(theta + e) - cost(theta - e)) / (2.0 * h)
    return g


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


def nelder_mead(cost, theta0, cfg: OptimizerConfig) -> OptimizationResult:
    """Simplex search: reflection 1, expansion 2, contraction 1/2,
    shrink 1/2; converged when the simplex diameter falls below cfg.tol."""
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    simplex = [theta0.copy()]
    for k in range(n):
        p = theta0.copy()
        p[k] += 0.5
        simplex.append(p)
    values = [cost(p) for p in simplex]
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            math.sqrt(float((p - simplex[0]) @ (p - simplex[0])))
            for p in simplex[1:]
        )
        if diameter < cfg.tol:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst, f_worst = simplex[-1], values[-1]
        xr = centroid + (centroid - worst)
        fr = cost(xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = cost(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < f_worst:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (worst - centroid)
            fc = cost(xc)
            if fc < min(fr, f_worst):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = cost(simplex[i])
    best = int(np.argmin(values))
    return OptimizationResult(simplex[best], values[best], it, converged)
