
import numpy as np
import pytest

from qdiscord.states import werner
from qdiscord.su_basis import decompose, generators, reconstruct
from tests.corpus import ginibre

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_generators_su2_are_paulis():
    gen = generators(2)
    assert len(gen) == 3
    for got, want in zip(gen, PAULIS):
        assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_orthogonality(n):
    gen = generators(n)
    assert len(gen) == n * n - 1
    for i, gi in enumerate(gen):
        assert abs(np.trace(gi)) < 1e-12
        assert np.max(np.abs(gi - gi.conj().T)) < 1e-12
        for j, gj in enumerate(gen):
            want = 2.0 if i == j else 0.0
            assert abs(np.trace(gi @ gj) - want) < 1e-12


def test_generators_reject_dim_one():
    with pytest.raises(ValueError):
        generators(1)


def test_decompose_maximally_mixed():
    d = decompose(np.eye(4) / 4, (2, 2))
    assert np.allclose(d.alpha, 0, atol=1e-12)
    assert np.allclose(d.beta, 0, atol=1e-12)
    assert np.allclose(d.corr, 0, atol=1e-12)


def test_decompose_werner_correlation():
    # |psi-><psi-| = (I - sum s_j x s_j)/4, so the correlation diagonal
    # is -a; checked against explicit trace evaluation.
    for a in (0.2, 0.7, 1.0):
        rho = werner(a).matrix
        d = decompose(rho, (2, 2))
        assert np.allclose(d.alpha, 0, atol=1e-12)
        assert np.allclose(d.beta, 0, atol=1e-12)
        assert np.allclose(d.corr, np.diag([-a, -a, -a]), atol=1e-12)
        for i in range(3):
            direct = np.trace(rho @ np.kron(PAULIS[i], PAULIS[i])).real
            assert d.corr[i, i] == pytest.approx(direct, abs=1e-12)


def test_decompose_product_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    d = decompose(rho, (2, 2))
    assert np.allclose(d.alpha, [0, 0, 1], atol=1e-12)
    assert np.allclose(d.beta, [0, 0, 1], atol=1e-12)
    assert d.corr[2, 2] == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_two_qubit():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rho = ginibre(rng, 4)
        back = reconstruct(decompose(rho, (2, 2)))
        assert np.max(np.abs(back - rho)) < 1e-10


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 4)])
def test_roundtrip_general_dims(dims):
    rng = np.random.default_rng(dims[0] * 10 + dims[1])
    m, n = dims
    rho = ginibre(rng, m * n)
    back = reconstruct(decompose(rho, dims))
    assert np.max(np.abs(back - rho)) < 1e-10


def test_reconstruct_zero_coefficients():
    from qdiscord.su_basis import SuDecomposition

    d = SuDecomposition((2, 2), np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.allclose(reconstruct(d), np.eye(4) / 4, atol=1e-15)


def test_reconstruct_singlet_from_coefficients():
    from qdiscord.su_basis import SuDecomposition

    d = SuDecomposition((2, 2), np.zeros(3), np.zeros(3),
                        np.diag([-1.0, -1.0, -1.0]))
    assert np.max(np.abs(reconstruct(d) - werner(1.0).matrix)) < 1e-12
