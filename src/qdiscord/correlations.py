"""Top-level correlation quantities of bipartite states.

Mutual information is computed from marginals; classical correlation by
minimizing the measurement-conditioned entropy over von Neumann
measurements on B; discord is their difference, by subtraction, so the
identity I = C + QD holds exactly in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .linalg import von_neumann_entropy
from .measurement import (VonNeumannMeasurement, bloch_of_angles,
                          conditional_entropy_fn, from_angles,
                          hyperspherical_angles)
from .optimizer import OptimizerConfig, grid_oracle, multi_start, nelder_mead
from .states import DensityMatrix

NEGATIVE_CLAMP = 1e-9


@dataclass(frozen=True)
class OptimizerStats:
    method: str
    iterations: int
    restarts: int
    converged: bool
    used_bell_fast_path: bool = False  # always: there is one cost route
    clamped_values: tuple = ()
    oracle_gap: float | None = None
    oracle_min_conditional_entropy: float | None = None


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


def minimize_conditional_entropy(evaluate, cfg: OptimizerConfig):
    """Minimum conditional entropy and the optimizing measurement.

    `evaluate` is a state's evaluator from conditional_entropy_fn.  It is
    minimized by Nelder-Mead from multiple starts or from the best point
    of a coarse grid.  The cost maps the angles straight to a Bloch
    direction; only the reported measurement is built.
    """
    def cost(theta):
        return evaluate(bloch_of_angles(theta))

    if cfg.method == "grid_then_polish":
        # The coarse grid already covers the sphere; restarts add nothing.
        _, coarse = grid_oracle(evaluate, resolution=24)
        res = nelder_mead(cost, hyperspherical_angles(coarse), cfg)
    else:  # nelder_mead
        res = multi_start(nelder_mead, cost, cfg)
    meas = from_angles(res.best_params)
    stats = OptimizerStats(
        method=cfg.method,
        iterations=res.iterations,
        restarts=cfg.restarts,
        converged=res.converged,
    )
    return res.best_value, meas, stats


def _clamp_small_negative(value: float, clamped: list, name: str) -> float:
    if -NEGATIVE_CLAMP < value < 0.0:
        clamped.append(name)
        return 0.0
    return value


def quantum_discord(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
                    oracle_resolution: int | None = None) -> CorrelationReport:
    """Full report: I, C, QD = I - C, and optimizer diagnostics.

    C is S(rho_A) minus the minimum conditional entropy over
    measurements.  When oracle_resolution is given the grid oracle is
    also run, on the minimizer's own evaluator, and its minimum and its
    gap to the optimizer are recorded in the stats.  It runs first, so a
    resolution out of range fails before the search; the evaluator is
    pure, so the order changes no value.
    """
    cfg = cfg or OptimizerConfig()
    evaluate = conditional_entropy_fn(rho)
    oracle_val = gap = None
    if oracle_resolution is not None:
        oracle_val, _ = grid_oracle(evaluate, oracle_resolution)
    mi = mutual_information(rho)
    min_ent, meas, stats = minimize_conditional_entropy(evaluate, cfg)
    clamped: list = []
    c = _clamp_small_negative(
        von_neumann_entropy(rho.marginal("A")) - min_ent, clamped,
        "classical_correlation")
    qd = _clamp_small_negative(mi - c, clamped, "discord")
    if oracle_val is not None:
        gap = min_ent - oracle_val
    stats = replace(stats, clamped_values=tuple(clamped), oracle_gap=gap,
                    oracle_min_conditional_entropy=oracle_val)
    return CorrelationReport(mi, c, qd, min_ent, meas, stats)
