"""Properties of quantum_discord on the local-unitary orbit of the
Bell-diagonal states (1/4)(I + sum w_j s_j x s_j).

These states take the same general evaluator as every other state, so
Luo's closed form h((1 + max|w_j|)/2) for their minimum conditional
entropy (S. Luo, Phys. Rev. A 77, 042303, 2008) is an independent check
of the optimizer, on the states as built and after a random local
unitary.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdiscord.correlations import quantum_discord
from qdiscord.linalg import binary_entropy, von_neumann_entropy
from qdiscord.states import DensityMatrix, bell_diagonal
from tests.corpus import haar_unitary

PROPERTY = settings(max_examples=17, deadline=None, derandomize=True,
                    database=None)

# Weights of the Bell projectors |psi->, |phi->, |phi+>, |psi+>: any
# non-zero non-negative 4-vector, normalized below.
weights = st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def omega_of(w):
    n1, n2, n3, n4 = np.asarray(w) / sum(w)
    return (n3 + n4 - n1 - n2, n2 + n4 - n1 - n3, n2 + n3 - n1 - n4)


@pytest.mark.parametrize("rotated", [False, True])
@PROPERTY
@given(w=weights, seed=seeds)
@example(w=(1.0, 0.0, 0.0, 0.0), seed=0)   # the singlet
@example(w=(0.0, 0.0, 0.0, 1.0), seed=0)   # |psi+>
@example(w=(1.0, 1.0, 1.0, 1.0), seed=0)   # I/4
def test_discord_matches_luo_closed_form(rotated, w, seed):
    omega = omega_of(w)
    rho = bell_diagonal(omega)
    if rotated:
        rng = np.random.default_rng(seed)
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rho = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
    report = quantum_discord(rho)
    assert report.min_conditional_entropy == pytest.approx(
        binary_entropy((1 + max(abs(x) for x in omega)) / 2), abs=1e-9)
    mi = report.mutual_information
    c = report.classical_correlation
    qd = report.discord
    s_a = von_neumann_entropy(rho.marginal("A"))
    assert abs(mi - (c + qd)) < 1e-9
    assert -1e-9 <= c <= min(s_a, 1.0) + 1e-9
    assert qd >= -1e-9
