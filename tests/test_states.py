import json
import math

import numpy as np
import pytest

from qdiscord.linalg import hermitian_eig
from qdiscord.states import (DensityMatrix, bell_diagonal, fixed_random_state,
                             load_state, mixed_bell_family, save_state, werner)
from tests.reference import devectorize, vectorize


def test_werner_endpoints():
    assert np.allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)
    psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
    assert np.allclose(werner(1.0).matrix, np.outer(psi, psi), atol=1e-15)
    with pytest.raises(ValueError):
        werner(1.2)


def test_werner_marginals_maximally_mixed():
    for a in np.linspace(0, 1, 11):
        rho = werner(a)
        for keep in "AB":
            assert np.allclose(rho.marginal(keep), np.eye(2) / 2, atol=1e-12)


def test_constructors_are_valid_states():
    candidates = [werner(0.4), mixed_bell_family(0.6),
                  bell_diagonal((0.3, -0.2, 0.1)), fixed_random_state()]
    for rho in candidates:
        assert rho.validity(1e-9).valid


def test_mixed_bell_trace_and_limit():
    for a in (0.05, 0.3, 1.0):
        assert np.trace(mixed_bell_family(a).matrix).real == pytest.approx(
            1.0, abs=1e-12)
    psi = np.array([0, 1, 1, 0]) / math.sqrt(2)
    k11 = np.zeros(4)
    k11[3] = 1
    expected = (2 * np.outer(psi, psi) + np.outer(k11, k11)) / 3
    assert np.allclose(mixed_bell_family(1.0).matrix, expected, atol=1e-12)
    with pytest.raises(ValueError):
        mixed_bell_family(0.0)


def test_mixed_bell_spectrum_at_one():
    lam, _ = hermitian_eig(mixed_bell_family(1.0).matrix)
    assert np.allclose(lam, [0.0, 0.0, 1 / 3, 2 / 3], atol=1e-12)


def test_bell_diagonal_cases():
    assert np.allclose(bell_diagonal((0, 0, 0)).matrix, np.eye(4) / 4,
                       atol=1e-15)
    a = 0.6
    assert np.allclose(bell_diagonal((-a, -a, -a)).matrix, werner(a).matrix,
                       atol=1e-12)
    # (1,1,-1) is the |psi+> Bell projector; (1,1,1) is not a state.
    assert bell_diagonal((1, 1, -1)).validity(1e-9).valid
    with pytest.raises(ValueError):
        bell_diagonal((1, 1, 1))


def test_bell_diagonal_refuses_non_finite_omega():
    with pytest.raises(ValueError, match=r"omega \(nan, 0.0, 0.0\) is not "
                                         "finite"):
        bell_diagonal((math.nan, 0, 0))


def test_fixed_random_state_entries():
    rho = fixed_random_state()
    assert rho.matrix[0, 0].real == pytest.approx(0.437, abs=2e-3)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert rho.matrix[0, 1] == pytest.approx(0.126 + 0.197j, abs=2e-3)


def test_vectorize_basics():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1
    v = vectorize(DensityMatrix((1, 2), ket0))
    assert np.allclose(v.amplitudes, [1, 0, 0, 0])
    assert v.normalization == pytest.approx(1.0)

    v2 = vectorize(DensityMatrix((1, 2), np.eye(2, dtype=complex) / 2))
    assert np.allclose(v2.amplitudes, [1 / math.sqrt(2), 0, 0,
                                       1 / math.sqrt(2)])
    assert v2.normalization == pytest.approx(1 / math.sqrt(2))


def test_vectorize_roundtrip_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        dm = DensityMatrix((2, 2), rho)
        v = vectorize(dm)
        assert abs(np.sum(np.abs(v.amplitudes) ** 2) - 1.0) < 1e-12
        assert np.max(np.abs(devectorize(v) - rho)) < 1e-12


def test_vectorize_rejects_zero():
    with pytest.raises(ValueError):
        vectorize(DensityMatrix((1, 2), np.zeros((2, 2), dtype=complex)))


def test_json_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    rho = mixed_bell_family(0.4)
    save_state(rho, path)
    back = load_state(path)
    assert back.dims == (2, 2)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_load_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    data = {"dims": [2, 2], "re": (np.eye(4) * 0.3).tolist(),
            "im": np.zeros((4, 4)).tolist()}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="trace"):
        load_state(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"dims": [2, 2], "re": [[1]]}))
    with pytest.raises(ValueError):
        load_state(path)
