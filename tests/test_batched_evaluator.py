"""The array form of the conditional-entropy evaluator and the grid
oracle built on it.

`conditional_entropy_fn(rho)` returns an evaluator that takes either one
unit Bloch direction as a 3-tuple or an (N, 3) array of them.  These tests
pin the array form to the scalar form and to the direct route on random
2x2 and 3x2 states, and the vectorised oracle to the per-point search it
replaced.  Non-negativity of the array form on pure blocks is checked
beside the scalar form's in test_measurement.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord import measurement
from qdiscord.measurement import conditional_entropy_fn, from_bloch
from qdiscord.optimizer import grid_oracle
from qdiscord.states import DensityMatrix
from tests.corpus import ginibre, ginibre_state
from tests.reference import conditional_entropy

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def unit_directions(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


@PROPERTY
@given(seed=seeds, m=st.sampled_from([2, 3]))
def test_batch_matches_scalar_and_direct_route(seed, m):
    rng = np.random.default_rng(seed)
    rho = ginibre_state(rng, (m, 2))
    dirs = unit_directions(rng, 16)
    evaluate = conditional_entropy_fn(rho)
    batch = evaluate(dirs)
    assert batch.shape == (16,)
    scalar = [evaluate(tuple(from_bloch(d).bloch_direction().tolist()))
              for d in dirs]
    direct = [conditional_entropy(rho, from_bloch(d)) for d in dirs]
    assert np.max(np.abs(batch - scalar)) < 1e-12
    assert np.max(np.abs(batch - direct)) < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_batch_keeps_an_outcome_of_tiny_weight(m):
    # B is |1> with weight 1e-8 beside a mixed A, so along z the rare
    # outcome adds about 1e-8 bits: it must count, since its weight is far
    # above PROB_FLOOR.
    rng = np.random.default_rng(31)
    eps = 1e-8
    rho = DensityMatrix((m, 2),
                        (1 - eps) * np.kron(ginibre(rng, m), np.diag([1, 0]))
                        + eps * np.kron(ginibre(rng, m), np.diag([0, 1])))
    dirs = np.array([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    evaluate = conditional_entropy_fn(rho)
    batch = evaluate(dirs)
    for d, value in zip(dirs, batch):
        assert abs(value - evaluate(tuple(d))) < 1e-12
        assert abs(value - conditional_entropy(rho, from_bloch(d))) < 1e-12


def per_point_oracle(evaluate, resolution):
    """The grid oracle as a loop over single measurements: cell centres
    uniform in (cos theta, phi), then three levels of 3x3 refinement."""

    def at(u, phi):
        u = max(min(u, 1.0), -1.0)
        s = math.sqrt(max(1.0 - u * u, 0.0))
        meas = from_bloch((s * math.cos(phi), s * math.sin(phi), u))
        return evaluate(tuple(meas.bloch_direction().tolist())), meas

    best_val, best_meas, cell = math.inf, None, None
    du, dphi = 2.0 / resolution, 2.0 * math.pi / resolution
    for i in range(resolution):
        for j in range(resolution):
            u, phi = -1.0 + (i + 0.5) * du, (j + 0.5) * dphi
            val, meas = at(u, phi)
            if val < best_val:
                best_val, best_meas, cell = val, meas, (u, phi)
    (u0, phi0), wu, wphi = cell, du, dphi
    for _ in range(3):
        level = None
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                uc, pc = u0 + i * wu / 3.0, phi0 + j * wphi / 3.0
                val, meas = at(uc, pc)
                if level is None or val < level[0]:
                    level = (val, meas, uc, pc)
        if level[0] < best_val:
            best_val, best_meas = level[0], level[1]
        u0, phi0 = level[2], level[3]
        wu, wphi = wu / 3.0, wphi / 3.0
    return best_val, best_meas


# The oracle scans half the grid at even resolution and all of it at odd
# resolution; the loop always scans all of it.
@pytest.mark.parametrize("m,seed,resolution", [
    *(pytest.param(m, seed, 16, id=f"{m}-{seed}")
      for m, seed in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]),
    *(pytest.param(m, 0, 15, id=f"{m}-0-odd") for m in (2, 3)),
])
def test_vectorised_oracle_matches_per_point_search(m, seed, resolution):
    evaluate = conditional_entropy_fn(
        ginibre_state(np.random.default_rng(seed), (m, 2)))
    val, z = grid_oracle(evaluate, resolution)
    loop_val, loop_meas = per_point_oracle(evaluate, resolution)
    assert val == pytest.approx(loop_val, abs=1e-12)
    # z and -z name the same pair of projectors, so the cost cannot tell
    # the two cells apart and rounding decides which one a search keeps.
    z, loop_z = np.array(z), loop_meas.bloch_direction()
    assert min(np.max(np.abs(z - loop_z)), np.max(np.abs(z + loop_z))) < 1e-9


def test_scan_memory_budget_refuses_only_above_it(monkeypatch):
    # An m > 2 batch of N directions is charged N * m**2 * 80 bytes.  At
    # exactly the budget it runs; one byte less refuses, naming N and m.
    evaluate = conditional_entropy_fn(
        ginibre_state(np.random.default_rng(4), (3, 2)))
    dirs = unit_directions(np.random.default_rng(5), 10)
    monkeypatch.setattr(measurement, "SCAN_MEMORY_BUDGET", 10 * 9 * 80)
    assert evaluate(dirs).shape == (10,)
    monkeypatch.setattr(measurement, "SCAN_MEMORY_BUDGET", 10 * 9 * 80 - 1)
    with pytest.raises(ValueError, match="10 directions on a 3x2 state"):
        evaluate(dirs)
