import math

import numpy as np
import pytest

from qdiscord.linalg import PAULIS, binary_entropy, von_neumann_entropy
from qdiscord.measurement import (PROB_FLOOR, bell_conditional_entropy,
                                  bloch_of_angles, conditional_entropy_fn,
                                  from_angles, from_bloch,
                                  hyperspherical_angles, VonNeumannMeasurement)
from qdiscord.states import (DensityMatrix, bell_diagonal, fixed_random_state,
                             werner)
from tests.corpus import ginibre_state, random_valid_omega
from tests.reference import (_bloch_jacobian, apply_superop_vectorized,
                             conditional_entropy, projectors,
                             vectorize, vectorized_conditional_entropy)


def random_measurement(rng):
    return from_angles(rng.uniform(0, 2 * math.pi, 3))


def test_from_angles_special_points():
    m = from_angles((0, 1.3, 2.7))
    assert m.r == pytest.approx(1.0)
    assert np.allclose(m.y, 0, atol=1e-15)
    assert np.allclose(m.unitary(), np.eye(2), atol=1e-15)

    m2 = from_angles((math.pi / 2, math.pi / 2, math.pi / 2))
    assert abs(m2.r) < 1e-15
    assert np.allclose(m2.y, (0, 0, 1), atol=1e-15)


def test_from_angles_always_on_sphere():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = random_measurement(rng)
        norm = m.r ** 2 + sum(c * c for c in m.y)
        assert abs(norm - 1.0) < 1e-12
        v = m.unitary()
        assert np.max(np.abs(v @ v.conj().T - np.eye(2))) < 1e-10


def test_hyperspherical_angles_inverse():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_measurement(rng)
        m2 = from_angles(hyperspherical_angles(m))
        assert m2.r == pytest.approx(m.r, abs=1e-10)
        assert np.allclose(m2.y, m.y, atol=1e-10)


def test_from_bloch_direction_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(50):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        m = from_bloch(d)
        assert np.allclose(m.bloch_direction(), d, atol=1e-12)


def test_projectors_identity_basis():
    pi0, pi1 = projectors(from_angles((0, 0, 0)))
    assert np.allclose(pi0, [[1, 0], [0, 0]], atol=1e-15)
    assert np.allclose(pi1, [[0, 0], [0, 1]], atol=1e-15)


def test_projectors_hadamard_like():
    # r = y2 = 1/sqrt(2) maps |0>,|1> onto the x-basis.
    m = VonNeumannMeasurement(1 / math.sqrt(2), (0.0, 1 / math.sqrt(2), 0.0))
    pi0, pi1 = projectors(m)
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert (np.allclose(pi0, plus, atol=1e-12)
            and np.allclose(pi1, minus, atol=1e-12)) or \
           (np.allclose(pi0, minus, atol=1e-12)
            and np.allclose(pi1, plus, atol=1e-12))


def test_projector_pair_properties():
    rng = np.random.default_rng(12)
    for _ in range(25):
        pi0, pi1 = projectors(random_measurement(rng))
        for pi in (pi0, pi1):
            assert np.max(np.abs(pi @ pi - pi)) < 1e-10
            assert np.max(np.abs(pi - pi.conj().T)) < 1e-12
        assert np.max(np.abs(pi0 + pi1 - np.eye(2))) < 1e-12
        assert np.max(np.abs(pi0 @ pi1)) < 1e-12


def test_measurement_rejects_off_sphere():
    with pytest.raises(ValueError):
        VonNeumannMeasurement(1.0, (0.5, 0.0, 0.0))


def test_conditional_entropy_product_state():
    rng = np.random.default_rng(19)
    for _ in range(50):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = ga @ ga.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = gb @ gb.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix((2, 2), np.kron(rho_a, rho_b))
        s_a = von_neumann_entropy(rho_a)
        assert conditional_entropy(rho, random_measurement(rng)) == \
            pytest.approx(s_a, abs=1e-9)


def test_conditional_entropy_werner_flat():
    rng = np.random.default_rng(20)
    a = 0.5
    for _ in range(20):
        got = conditional_entropy(werner(a), random_measurement(rng))
        assert got == pytest.approx(binary_entropy((1 + a) / 2), abs=1e-12)


def test_conditional_entropy_matches_ensemble_route():
    # Cross-check the fast marginal contraction against the full
    # projected states kron(I, Pi) rho kron(I, Pi) of both outcomes.
    rng = np.random.default_rng(30)
    for _ in range(20):
        rho = ginibre_state(rng)
        meas = random_measurement(rng)
        direct = conditional_entropy(rho, meas)
        slow = 0.0
        for pi in projectors(meas):
            full = np.kron(np.eye(2), pi)
            projected = full @ rho.matrix @ full
            p = float(np.trace(projected).real)
            if p >= PROB_FLOOR:
                slow += p * von_neumann_entropy(projected / p)
        assert direct == pytest.approx(slow, abs=1e-10)


def test_conditional_entropy_bounds():
    rng = np.random.default_rng(40)
    for _ in range(30):
        val = conditional_entropy(ginibre_state(rng), random_measurement(rng))
        assert -1e-12 <= val <= 1.0 + 1e-12


def test_global_phase_gauge_invariance():
    m = from_angles((0.7, 1.2, 0.4))
    # iV realizes the same projectors as V.
    v = m.unitary()
    flipped = VonNeumannMeasurement(-m.r, tuple(-c for c in m.y))
    assert np.allclose(flipped.unitary(), -v, atol=1e-12)
    assert np.allclose(projectors(m)[0], projectors(flipped)[0], atol=1e-12)
    rho = fixed_random_state()
    assert conditional_entropy(rho, m) == pytest.approx(
        conditional_entropy(rho, flipped), abs=1e-12)


def test_bell_conditional_entropy_special_cases():
    rng = np.random.default_rng(50)
    for _ in range(10):
        meas = random_measurement(rng)
        assert bell_conditional_entropy((0, 0, 0), meas) == pytest.approx(
            1.0, abs=1e-12)
        a = rng.uniform(0, 1)
        assert bell_conditional_entropy((-a, -a, -a), meas) == pytest.approx(
            binary_entropy((1 + a) / 2), abs=1e-12)


def test_bell_fast_path_equals_general():
    rng = np.random.default_rng(60)
    for _ in range(100):
        omega = random_valid_omega(rng)
        meas = random_measurement(rng)
        fast = bell_conditional_entropy(omega, meas)
        general = conditional_entropy(bell_diagonal(omega), meas)
        assert abs(fast - general) < 1e-9


def test_precompiled_conditional_entropy_nonnegative_on_pure_blocks():
    # Both states condition to rank-1 blocks, where rounding can push
    # the 2x2 closed form's larger eigenvalue past the outcome weight.
    rng = np.random.default_rng(65)
    for rho in (werner(1.0), bell_diagonal((1, 1, -1))):
        evaluate = conditional_entropy_fn(rho)
        for _ in range(2000):
            assert evaluate(random_measurement(rng)) >= 0.0
        # The array form, on 2,000 unit Bloch directions at once.
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        assert np.min(evaluate(dirs)) >= 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_evaluator_takes_bloch_tuple_of_angles(m):
    rng = np.random.default_rng(80 + m)
    evaluate = conditional_entropy_fn(ginibre_state(rng, (m, 2)))
    for phi in rng.uniform(-2 * math.pi, 2 * math.pi, (50, 3)):
        z = bloch_of_angles(phi)
        assert type(z) is tuple and len(z) == 3
        meas = from_angles(phi)
        value = evaluate(z)
        assert type(value) is float
        assert value == evaluate(meas)
        # The written-out map against its definition, U sigma_z U^dag.
        v = meas.unitary()
        m_z = v @ PAULIS[2] @ v.conj().T
        want = np.array([0.5 * np.trace(s @ m_z).real for s in PAULIS])
        assert np.max(np.abs(np.array(z) - want)) < 1e-14
        assert np.max(np.abs(meas.bloch_direction() - want)) < 1e-14


def test_bloch_jacobian_matches_central_differences():
    rng = np.random.default_rng(88)
    h = 1e-6
    for phi in rng.uniform(-2 * math.pi, 2 * math.pi, (200, 3)):
        jac = _bloch_jacobian(phi)
        for k, step in enumerate(h * np.eye(3)):
            diff = (np.array(bloch_of_angles(phi + step))
                    - np.array(bloch_of_angles(phi - step))) / (2 * h)
            assert np.max(np.abs(jac[:, k] - diff)) < 1e-8


def test_measurement_direction_unit_norm():
    rng = np.random.default_rng(70)
    for _ in range(100):
        z = random_measurement(rng).bloch_direction()
        assert abs(float(z @ z) - 1.0) < 1e-12


def test_superop_identity_basis_on_product_state():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1
    rho = DensityMatrix((2, 2), np.kron(np.eye(2) / 2, ket0))
    v = vectorize(rho)
    out = apply_superop_vectorized(v, projectors(from_angles((0, 0, 0))))
    w0, img0 = out[0]
    assert w0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(img0.amplitudes * img0.normalization,
                       v.amplitudes * v.normalization, atol=1e-12)


def test_superop_matches_direct_route():
    from tests.reference import devectorize

    rng = np.random.default_rng(80)
    for _ in range(100):
        rho = ginibre_state(rng)
        meas = random_measurement(rng)
        pair = projectors(meas)
        vec = vectorize(rho)
        vec_out = apply_superop_vectorized(vec, pair)
        im = np.eye(2)
        for (weight, image), pi in zip(vec_out, pair):
            full = np.kron(im, pi)
            direct = full @ rho.matrix @ full
            assert np.max(np.abs(devectorize(image) - direct)) < 1e-10
            assert weight == pytest.approx(np.trace(direct).real, abs=1e-10)


def test_precompiled_conditional_entropy_agrees():
    rng = np.random.default_rng(85)
    for _ in range(100):
        rho = ginibre_state(rng)
        fast = conditional_entropy_fn(rho)
        meas = random_measurement(rng)
        assert fast(meas) == pytest.approx(conditional_entropy(rho, meas),
                                           abs=1e-12)


def test_vectorized_conditional_entropy_agrees():
    rng = np.random.default_rng(90)
    for _ in range(30):
        rho = ginibre_state(rng)
        meas = random_measurement(rng)
        assert vectorized_conditional_entropy(vectorize(rho), meas) == \
            pytest.approx(conditional_entropy(rho, meas), abs=1e-10)
