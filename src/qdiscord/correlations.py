"""Top-level correlation quantities of bipartite states.

Mutual information is computed from marginals; classical correlation by
minimizing the measurement-conditioned entropy over von Neumann
measurements on B; discord is their difference, by subtraction, so the
identity I = C + QD holds exactly in every report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import von_neumann_entropy
from .measurement import (VonNeumannMeasurement, bell_conditional_entropy,
                          conditional_entropy_fn, from_angles,
                          hyperspherical_angles)
from .optimizer import (OptimizerConfig, analytic_gradient_bell,
                        finite_diff_gradient, gradient_descent, grid_oracle,
                        multi_start, nelder_mead)
from .states import DensityMatrix
from .su_basis import decompose

BELL_DETECT_TOL = 1e-9
NEGATIVE_CLAMP = 1e-9


@dataclass(frozen=True)
class OptimizerStats:
    method: str
    iterations: int
    restarts: int
    converged: bool
    used_bell_fast_path: bool
    clamped_values: tuple = ()
    oracle_gap: float | None = None


@dataclass(frozen=True)
class CorrelationReport:
    mutual_information: float
    classical_correlation: float
    discord: float
    min_conditional_entropy: float
    optimal_measurement: VonNeumannMeasurement
    optimizer_stats: OptimizerStats


def mutual_information(rho: DensityMatrix) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    return (von_neumann_entropy(rho.marginal("A"))
            + von_neumann_entropy(rho.marginal("B"))
            - von_neumann_entropy(rho.matrix))


def _bell_diagonal_form(rho: DensityMatrix):
    """The omega vector if rho is Bell diagonal within tolerance, else None."""
    if rho.dims != (2, 2):
        return None
    d = decompose(rho.matrix, rho.dims)
    if np.max(np.abs(d.alpha)) > BELL_DETECT_TOL:
        return None
    if np.max(np.abs(d.beta)) > BELL_DETECT_TOL:
        return None
    off = d.corr - np.diag(np.diag(d.corr))
    if np.max(np.abs(off)) > BELL_DETECT_TOL:
        return None
    return np.diag(d.corr).copy()


def minimize_conditional_entropy(rho: DensityMatrix, cfg: OptimizerConfig):
    """Minimum conditional entropy and the optimizing measurement.

    Detects the Bell-diagonal family and switches to the closed-form
    cost (with its analytic gradient) there; otherwise minimizes the
    general cost with finite-difference gradients.
    """
    omega = _bell_diagonal_form(rho)
    fast = omega is not None
    if fast:
        def cost(theta):
            return bell_conditional_entropy(omega, from_angles(theta))

        def grad(theta):
            return analytic_gradient_bell(omega, theta)
    else:
        evaluate = conditional_entropy_fn(rho)

        def cost(theta):
            return evaluate(from_angles(theta))

        def grad(theta):
            return finite_diff_gradient(cost, theta, cfg.fd_step)

    if cfg.method == "gradient_descent":
        def inner(c, theta0, c_cfg):
            return gradient_descent(c, grad, theta0, c_cfg)
    elif cfg.method == "nelder_mead":
        inner = nelder_mead
    else:  # grid_then_polish
        def inner(c, theta0, c_cfg):
            _, coarse = grid_oracle(
                lambda meas: c(hyperspherical_angles(meas)), resolution=24)
            return nelder_mead(c, hyperspherical_angles(coarse), c_cfg)

    if cfg.method == "grid_then_polish":
        # The coarse grid already covers the sphere; restarts add nothing.
        res = inner(cost, np.zeros(3), cfg)
    else:
        res = multi_start(inner, cost, cfg)
    meas = from_angles(res.best_params)
    stats = OptimizerStats(
        method=cfg.method,
        iterations=res.iterations,
        restarts=cfg.restarts,
        converged=res.converged,
        used_bell_fast_path=fast,
    )
    return res.best_value, meas, stats


def _clamp_small_negative(value: float, clamped: list, name: str) -> float:
    if -NEGATIVE_CLAMP < value < 0.0:
        clamped.append(name)
        return 0.0
    return value


def classical_correlation(rho: DensityMatrix, cfg: OptimizerConfig):
    """S(rho_A) minus the minimum conditional entropy over measurements."""
    min_ent, meas, stats = minimize_conditional_entropy(rho, cfg)
    clamped: list = []
    value = _clamp_small_negative(
        von_neumann_entropy(rho.marginal("A")) - min_ent, clamped,
        "classical_correlation")
    if clamped:
        stats = OptimizerStats(stats.method, stats.iterations, stats.restarts,
                               stats.converged, stats.used_bell_fast_path,
                               tuple(clamped), stats.oracle_gap)
    return value, meas, stats


def quantum_discord(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
                    oracle_resolution: int | None = None) -> CorrelationReport:
    """Full report: I, C, QD = I - C, and optimizer diagnostics.

    When oracle_resolution is given the grid oracle is also run and its
    gap to the optimizer recorded in the stats.
    """
    cfg = cfg or OptimizerConfig()
    mi = mutual_information(rho)
    min_ent, meas, stats = minimize_conditional_entropy(rho, cfg)
    clamped = list(stats.clamped_values)
    c = _clamp_small_negative(
        von_neumann_entropy(rho.marginal("A")) - min_ent, clamped,
        "classical_correlation")
    qd = _clamp_small_negative(mi - c, clamped, "discord")
    gap = None
    if oracle_resolution is not None:
        oracle_val, _ = grid_oracle(conditional_entropy_fn(rho),
                                    oracle_resolution)
        gap = min_ent - oracle_val
    stats = OptimizerStats(stats.method, stats.iterations, stats.restarts,
                           stats.converged, stats.used_bell_fast_path,
                           tuple(clamped), gap)
    return CorrelationReport(mi, c, qd, min_ent, meas, stats)
