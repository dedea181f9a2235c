"""Minimizers for the conditional-entropy cost over measurement angles.

Costs are pure functions of a 3-vector of unconstrained hyperspherical
angles.  `minimize` is the search that reports use: Nelder-Mead, from
multiple starts or polishing a coarse grid point.  A brute-force sphere
grid with local refinement, evaluated in batches of Bloch directions,
serves as the independent verification oracle.  Gradient descent is a
test reference; finite differences are in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import add

import numpy as np

from .measurement import (bloch_of_angles, from_angles, from_bloch,
                          hyperspherical_angles)

METHODS = ("nelder_mead", "grid_then_polish")
# grid_oracle's resolution range.  A scan holds resolution**2 directions
# at once, about 80 B x m**2 each on an m x 2 state, so its memory grows
# with m**2: at the cap, about 330 MB on 2x2 and 780 MB on 3x2, but a
# 16x2 state takes about 820 MB already at resolution 200.  The cap
# bounds the resolution; measurement.SCAN_MEMORY_BUDGET bounds the
# memory, refusing an m > 2 scan above 1 GB (a 64x2 state at 200).
MIN_ORACLE_RESOLUTION, MAX_ORACLE_RESOLUTION = 8, 1000


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "nelder_mead"
    tol: float = 1e-8
    max_iter: int = 5000
    restarts: int = 8
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, "
                             f"not {self.tol}")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected "
                             f"one of {', '.join(METHODS)}")


@dataclass(frozen=True)
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    iterations: int
    converged: bool
    trace: tuple = ()


def minimize(evaluate, cfg: OptimizerConfig):
    """The OptimizationResult of minimizing a state's conditional entropy
    over measurements, and the optimizing measurement.

    `evaluate` is a state's evaluator from conditional_entropy_fn.  It is
    minimized by Nelder-Mead from multiple starts or from the best point
    of a coarse grid.  The cost maps the angles straight to a Bloch
    direction; only the reported measurement is built.
    """
    def cost(theta):
        return evaluate(bloch_of_angles(theta))

    if cfg.method == "grid_then_polish":
        # The coarse grid already covers the sphere; restarts add nothing.
        _, d = grid_oracle(evaluate, 24)
        res = nelder_mead(cost, hyperspherical_angles(from_bloch(d)), cfg)
    else:  # nelder_mead
        res = multi_start(nelder_mead, cost, cfg)
    return res, from_angles(res.best_params)


def gradient_descent(cost, grad, theta0, cfg: OptimizerConfig,
                     eta: float = 0.05) -> OptimizationResult:
    """Fixed-step descent with backtracking from step size eta.

    A step that would increase the cost is rejected and eta halved (up
    to 20 halvings), so the accepted values never increase.  A step that
    gains less than cfg.tol counts as converged, so it can stop on a
    stall above the minimum.  No report uses it.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    theta = np.asarray(theta0, dtype=float).copy()
    f = cost(theta)
    halvings = 0
    trace = [(0, f)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        g = np.asarray(grad(theta), dtype=float)
        gnorm = math.sqrt(float(g @ g))
        if gnorm < cfg.tol:
            converged = True
            break
        cand = theta - eta * g
        fc = cost(cand)
        if fc <= f + 1e-15:
            delta = f - fc
            theta, f = cand, fc
            trace.append((it, f))
            if delta < cfg.tol:
                converged = True
                break
        else:
            halvings += 1
            if halvings > 20:
                break
            eta /= 2.0
    return OptimizationResult(theta, f, it, converged, tuple(trace))


def nelder_mead(cost, theta0, cfg: OptimizerConfig) -> OptimizationResult:
    """Simplex search: reflection 1, expansion 2, contraction 1/2,
    shrink 1/2; converged when the simplex diameter falls below cfg.tol.

    The simplex is kept as tuples of floats, so `cost` receives a tuple;
    `best_params` is an array.  Sums run left to right, as numpy's mean
    over the vertices does.  (A BLAS dot may fuse the diameter's
    multiply-adds and round it one ulp apart; only the test against
    cfg.tol reads it.)
    """
    x0 = tuple(np.asarray(theta0, dtype=float).tolist())
    n = len(x0)
    simplex = [x0] + [x0[:k] + (x0[k] + 0.5,) + x0[k + 1:] for k in range(n)]
    values = [cost(p) for p in simplex]
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        order = sorted(range(n + 1), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best = simplex[0]
        diameter = max(
            math.sqrt(reduce(add, [(a - b) * (a - b)
                                   for a, b in zip(p, best)]))
            for p in simplex[1:]
        )
        if diameter < cfg.tol:
            converged = True
            break
        centroid = [reduce(add, c) / n for c in zip(*simplex[:-1])]
        worst, f_worst = simplex[-1], values[-1]
        xr = tuple(c + (c - w) for c, w in zip(centroid, worst))
        fr = cost(xr)
        if fr < values[0]:
            xe = tuple(c + 2.0 * (c - w) for c, w in zip(centroid, worst))
            fe = cost(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            toward = xr if fr < f_worst else worst
            xc = tuple(c + 0.5 * (t - c) for c, t in zip(centroid, toward))
            fc = cost(xc)
            if fc < min(fr, f_worst):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = tuple(b + 0.5 * (a - b)
                                       for a, b in zip(simplex[i], best))
                    values[i] = cost(simplex[i])
    k = min(range(n + 1), key=values.__getitem__)
    return OptimizationResult(np.array(simplex[k]), values[k], it, converged)


_AXIS_DIRECTIONS = (
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
)


def multi_start(inner, cost, cfg: OptimizerConfig) -> OptimizationResult:
    """Best result over six axis-aligned starts plus seeded random ones.

    Ties resolve to the earliest start, so the outcome is deterministic
    for a fixed seed regardless of evaluation order.
    """
    starts = [hyperspherical_angles(from_bloch(d)) for d in _AXIS_DIRECTIONS]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        starts.append(rng.uniform(0.0, 2.0 * math.pi, size=3))
    best = None
    total_iter = 0
    for theta0 in starts:
        res = inner(cost, theta0, cfg)
        total_iter += res.iterations
        if best is None or res.best_value < best.best_value:
            best = res
    return replace(best, iterations=total_iter)


@lru_cache(maxsize=2)
def _cell_grid(resolution: int):
    """Cell centres (u, phi) of a resolution x resolution grid uniform in
    (u = cos theta, phi), in row-major (u, phi) order, and their Bloch
    directions.  The two most recent resolutions stay cached, enough for
    the grid_then_polish seed and a report's oracle."""
    cells = np.arange(resolution) + 0.5
    u = np.repeat(-1.0 + cells * (2.0 / resolution), resolution)
    phi = np.tile(cells * (2.0 * math.pi / resolution), resolution)
    grid = (u, phi, _bloch_directions(u, phi))
    for a in grid:
        a.setflags(write=False)
    return grid


def _bloch_directions(u, phi):
    u = np.clip(u, -1.0, 1.0)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), u], axis=1)


def grid_oracle(cost_of_directions, resolution: int):
    """Brute-force minimum of a measurement cost over the Bloch sphere.

    `cost_of_directions` maps an (N, 3) array of unit Bloch directions
    to N costs, as the evaluator of conditional_entropy_fn does.  It is
    called once on the cell centres of a resolution x resolution grid
    uniform in (cos theta, phi), then once per level of three levels of
    3x3 refinement around the best point.  Ties go to the first point in
    row-major order.  Returns (min value, argmin direction as a 3-tuple).
    """
    if not MIN_ORACLE_RESOLUTION <= resolution <= MAX_ORACLE_RESOLUTION:
        raise ValueError("oracle resolution must be from "
                         f"{MIN_ORACLE_RESOLUTION} to {MAX_ORACLE_RESOLUTION}, "
                         f"not {resolution}")
    u, phi, directions = _cell_grid(resolution)
    values = cost_of_directions(directions)
    k = int(np.argmin(values))
    best_val, best_dir = float(values[k]), directions[k]
    u0, phi0 = u[k], phi[k]
    wu, wphi = 2.0 / resolution, 2.0 * math.pi / resolution
    # The 3x3 steps in row-major order, so ties again go to the first.
    di, dj = np.repeat([-1.0, 0.0, 1.0], 3), np.tile([-1.0, 0.0, 1.0], 3)
    for _ in range(3):
        uc = u0 + di * wu / 3.0
        pc = phi0 + dj * wphi / 3.0
        level_dirs = _bloch_directions(uc, pc)
        values = cost_of_directions(level_dirs)
        k = int(np.argmin(values))
        if values[k] < best_val:
            best_val, best_dir = float(values[k]), level_dirs[k]
        u0, phi0 = uc[k], pc[k]
        wu /= 3.0
        wphi /= 3.0
    return best_val, tuple(best_dir.tolist())
