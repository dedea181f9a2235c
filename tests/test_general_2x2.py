"""Physical invariants of quantum_discord on general two-qubit states.

Ginibre states of every rank 1-4 under the default optimizer settings:
the report must satisfy I = C + QD, 0 <= C <= min(S(rho_A), 1) and
QD >= 0, and a local unitary U_A x U_B must leave I, C and QD unchanged.
On X states whose optimum lies off every axis, each method must find the
recorded minimum, below the best axis measurement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiscord.correlations import quantum_discord
from qdiscord.linalg import von_neumann_entropy
from qdiscord.measurement import conditional_entropy_fn
from qdiscord.optimizer import METHODS, OptimizerConfig
from qdiscord.states import DensityMatrix
from tests.corpus import X_STATE_TRAPS, ginibre, haar_unitary, x_state

PROPERTY = settings(max_examples=16, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
ranks = st.integers(min_value=1, max_value=4)


def assert_invariants(rho):
    report = quantum_discord(rho)
    mi = report.mutual_information
    c = report.classical_correlation
    qd = report.discord
    s_a = von_neumann_entropy(rho.marginal("A"))
    assert abs(mi - (c + qd)) < 1e-9
    assert -1e-9 <= c <= min(s_a, 1.0) + 1e-9
    assert qd >= -1e-9
    return np.array([mi, c, qd])


@PROPERTY
@given(seed=seeds, rank=ranks)
def test_invariants_and_local_unitary_invariance(seed, rank):
    rng = np.random.default_rng(seed)
    matrix = ginibre(rng, 4, rank)
    u = np.kron(haar_unitary(rng), haar_unitary(rng))
    base = assert_invariants(DensityMatrix((2, 2), matrix))
    rotated = assert_invariants(
        DensityMatrix((2, 2), u @ matrix @ u.conj().T))
    assert np.max(np.abs(rotated - base)) < 1e-9


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("trap", X_STATE_TRAPS)
def test_x_state_trap_minimum_lies_off_every_axis(trap, method):
    diagonal, rho03, rho12, minimum, axis_gap = trap
    rho = x_state(diagonal, rho03, rho12)
    report = quantum_discord(rho, OptimizerConfig(method=method))
    assert report.optimizer_stats.converged
    assert abs(report.min_conditional_entropy - minimum) < 1e-12
    axes = np.vstack((np.eye(3), -np.eye(3)))
    best_axis = float(np.min(conditional_entropy_fn(rho)(axes)))
    assert abs(best_axis - report.min_conditional_entropy - axis_gap) < 1e-9
