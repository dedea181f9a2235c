"""Properties of the m > 2 route: a qutrit A measured through a qubit B.

The evaluator from `conditional_entropy_fn` takes a separate branch
when A is not a qubit; these tests pin it to the direct route and to
the physical invariants on random 3x2 states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.correlations import quantum_discord
from qdiscord.linalg import von_neumann_entropy
from qdiscord.measurement import (bloch_of_angles, conditional_entropy_fn,
                                  from_angles)
from qdiscord.optimizer import grid_oracle
from qdiscord.states import DensityMatrix
from tests.corpus import ginibre
from tests.reference import conditional_entropy

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
angles = st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3)


@PROPERTY
@given(seed=seeds, phi=angles)
def test_evaluator_matches_direct_route(seed, phi):
    rho = DensityMatrix((3, 2), ginibre(np.random.default_rng(seed), 6))
    meas = from_angles(phi)
    assert conditional_entropy_fn(rho)(bloch_of_angles(phi)) == pytest.approx(
        conditional_entropy(rho, meas), abs=1e-12)


@PROPERTY
@given(seed=seeds, phi=angles)
def test_product_state_conditions_to_marginal_entropy(seed, phi):
    rng = np.random.default_rng(seed)
    rho_a = ginibre(rng, 3)
    rho = DensityMatrix((3, 2), np.kron(rho_a, ginibre(rng, 2)))
    meas = from_angles(phi)
    s_a = von_neumann_entropy(rho_a)
    assert conditional_entropy_fn(rho)(bloch_of_angles(phi)) == pytest.approx(
        s_a, abs=1e-12)
    assert conditional_entropy(rho, meas) == pytest.approx(s_a, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discord_invariants(seed):
    rho = DensityMatrix((3, 2), ginibre(np.random.default_rng(seed), 6))
    report = quantum_discord(rho)
    s_a = von_neumann_entropy(rho.marginal("A"))
    mi = report.mutual_information
    c = report.classical_correlation
    qd = report.discord
    assert abs(mi - (c + qd)) < 1e-9
    assert -1e-9 <= c <= s_a + 1e-9
    assert qd >= -1e-9
    assert report.min_conditional_entropy == pytest.approx(
        s_a - c, abs=1e-9)
    # The optimizer must not end above a coarse grid over the sphere.
    oracle, _ = grid_oracle(conditional_entropy_fn(rho), resolution=24)
    assert report.min_conditional_entropy <= oracle + 1e-9
