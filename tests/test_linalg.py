import math

import numpy as np
import pytest

from qdiscord.linalg import (binary_entropy, hermitian_eig, is_density_matrix,
                             partial_trace, von_neumann_entropy)
from qdiscord.states import werner

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g + g.conj().T


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = gb @ gb.conj().T
    rho_b /= np.trace(rho_b)
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, "A", (2, 2)), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(rho, "B", (2, 2)), rho_b, atol=1e-12)


def test_partial_trace_singlet_marginal():
    psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
    rho = np.outer(psi, psi)
    assert np.allclose(partial_trace(rho, "A", (2, 2)), I2 / 2, atol=1e-12)


def _partial_trace_oracle_B(rho, m, n):
    # Direct index summation, independent of the reshape-based route.
    out = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for c in range(m):
            out[a, c] = sum(rho[a * n + b, c * n + b] for b in range(n))
    return out


def test_partial_trace_werner_against_summation_oracle():
    rho = werner(0.3).matrix
    direct = _partial_trace_oracle_B(rho, 2, 2)
    assert np.allclose(partial_trace(rho, "A", (2, 2)), direct, atol=1e-14)
    assert np.allclose(direct, I2 / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = g @ g.conj().T
        for keep in "AB":
            assert abs(np.trace(partial_trace(rho, keep, (2, 3)))
                       - np.trace(rho)) < 1e-12 * abs(np.trace(rho))


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), "A", (2, 3))


def test_eig_diagonal():
    vals, _ = hermitian_eig(np.diag([0.9, 0.1]).astype(complex))
    assert np.allclose(vals, [0.1, 0.9], atol=1e-14)


def test_eig_pauli_x():
    vals, _ = hermitian_eig(SIGMA_X)
    assert np.allclose(vals, [-1, 1], atol=1e-12)


def test_eig_werner_half_spectrum():
    # (1-a)/4 three times plus (1+3a)/4 at a = 0.5.
    vals, _ = hermitian_eig(werner(0.5).matrix)
    assert np.allclose(vals, [0.125, 0.125, 0.125, 0.625],
                       atol=1e-12)


def test_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        vals, v = hermitian_eig(h)
        assert np.max(np.abs(v @ np.diag(vals) @ v.conj().T - h)) \
            < 1e-10 * np.linalg.norm(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10


def test_eig_matches_lapack():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 8, 16):
        h = random_hermitian(rng, n)
        assert np.allclose(hermitian_eig(h)[0],
                           np.linalg.eigvalsh(h), atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_entropy_pure_and_maximally_mixed():
    ket0 = np.zeros((2, 2))
    ket0[0, 0] = 1
    assert von_neumann_entropy(ket0) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_zero_entropy_is_positive_zero():
    # A zero entropy must not print as -0.0000000000.
    ket0 = np.diag([1.0, 0.0, 0.0, 0.0])
    for value in (von_neumann_entropy(ket0), binary_entropy(0.0),
                  binary_entropy(1.0)):
        assert math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_entropy_refuses_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="non-finite"):
        von_neumann_entropy(np.diag([bad, 1.0]))


def test_entropy_werner_half():
    # -sum lam log2 lam over {0.625, 0.125 x3}.
    expected = -(0.625 * math.log2(0.625) + 3 * 0.125 * math.log2(0.125))
    assert von_neumann_entropy(werner(0.5).matrix) == pytest.approx(
        expected, abs=1e-4)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        s1 = von_neumann_entropy(rho)
        s2 = von_neumann_entropy(q @ rho @ q.conj().T)
        assert abs(s1 - s2) < 1e-9
        assert 0.0 <= s1 <= 2.0 + 1e-12


def test_entropy_rejects_negative_spectrum():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1]).astype(complex))


def test_entropy_of_spectrum_clamps_round_off_only():
    # Eigenvalues above -PSD_TOL are eigensolver round-off and count as
    # zero; -1e-6 is a genuine violation.
    assert von_neumann_entropy(np.diag([0.5, 0.5, -1e-9])) == 1.0
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([0.5, 0.5, -1e-6]))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_binary_entropy_refuses_nan():
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(math.nan)


def test_density_matrix_report():
    assert is_density_matrix(I2 / 2).valid
    bad = is_density_matrix(SIGMA_X)
    assert not bad.valid
    assert bad.trace_defect == pytest.approx(1.0)
    assert bad.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    assert is_density_matrix(werner(1.0).matrix).valid


def test_density_matrix_report_of_nan_matrix_is_invalid():
    # The eigensolver is not called on a non-finite matrix: numpy's eigh
    # raised LinAlgError on the all-NaN one.
    for m in (np.diag([math.nan, 1.0, 0.0, 0.0]), np.full((4, 4), math.nan),
              np.full((4, 4), math.inf)):
        assert not is_density_matrix(m).valid


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1.0])
def test_density_matrix_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        is_density_matrix(werner(0.5).matrix, tol)
