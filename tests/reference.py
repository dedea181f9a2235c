"""Reference implementations that tests compare the package against.

Nothing in the package imports this module.

- `nelder_mead`: the simplex search over numpy arrays, as it was before
  the package's version moved to tuples of floats.  The two must take
  the same path: same points, same values, same iteration count.
"""

from __future__ import annotations

import math

import numpy as np

from qdiscord.optimizer import OptimizationResult, OptimizerConfig


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
