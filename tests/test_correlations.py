import math

import numpy as np
import pytest

from qdiscord.correlations import (CorrelationReport, _clamp_small_negative,
                                   mutual_information, quantum_discord)
from qdiscord.linalg import binary_entropy, von_neumann_entropy
from qdiscord.measurement import conditional_entropy_fn
from qdiscord.optimizer import OptimizerConfig, grid_oracle, minimize
from qdiscord.states import (DensityMatrix, bell_diagonal, fixed_random_state,
                             mixed_bell_family, werner)
from tests.corpus import random_valid_omega


def werner_mutual_information(a):
    lams = [(1 - a) / 4] * 3 + [(1 + 3 * a) / 4]
    return 2.0 + sum(l * math.log2(l) for l in lams if l > 0)


def test_mutual_information_product_state():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = ga @ ga.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = gb @ gb.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix((2, 2), np.kron(rho_a, rho_b))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_singlet():
    assert mutual_information(werner(1.0)) == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_werner_closed_form():
    for a in (0.1, 0.5, 0.9):
        assert mutual_information(werner(a)) == pytest.approx(
            werner_mutual_information(a), abs=1e-9)


def bell_mutual_information(omega):
    # Maximally mixed marginals, so I = 2 + sum nu log2 nu over the
    # closed-form spectrum of (1/4)(I + sum w_j s_j x s_j).
    w1, w2, w3 = omega
    nus = [(1 - w1 - w2 - w3) / 4, (1 - w1 + w2 + w3) / 4,
           (1 + w1 - w2 + w3) / 4, (1 + w1 + w2 - w3) / 4]
    return 2.0 + sum(nu * math.log2(nu) for nu in nus if nu > 0)


def test_mutual_information_bell_matches_general():
    rng = np.random.default_rng(2)
    for _ in range(50):
        omega = random_valid_omega(rng)
        assert abs(bell_mutual_information(omega)
                   - mutual_information(bell_diagonal(omega))) < 1e-9


def test_minimize_werner_closed_form():
    cfg = OptimizerConfig()
    for a in (0.2, 0.5, 0.8):
        res, _ = minimize(conditional_entropy_fn(werner(a)), cfg)
        assert res.best_value == pytest.approx(binary_entropy((1 + a) / 2),
                                               abs=1e-9)


def test_classical_correlation_werner():
    cfg = OptimizerConfig()
    for a in (0.3, 0.7):
        c = quantum_discord(werner(a), cfg).classical_correlation
        assert c == pytest.approx(1.0 - binary_entropy((1 + a) / 2), abs=1e-8)


def test_classical_correlation_nonnegative_and_bounded():
    rng = np.random.default_rng(5)
    cfg = OptimizerConfig(restarts=4)
    for _ in range(5):
        omega = random_valid_omega(rng)
        rho = bell_diagonal(omega)
        c = quantum_discord(rho, cfg).classical_correlation
        assert 0.0 <= c <= mutual_information(rho) + 1e-9


def test_discord_identity_and_report():
    report = quantum_discord(werner(0.5))
    assert isinstance(report, CorrelationReport)
    assert report.mutual_information == pytest.approx(
        report.classical_correlation + report.discord, abs=1e-12)
    assert report.min_conditional_entropy == pytest.approx(
        binary_entropy(0.75), abs=1e-9)


def test_discord_zero_for_product_state():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1
    rho = DensityMatrix((2, 2), np.kron(np.eye(2) / 2, ket0))
    report = quantum_discord(rho)
    assert report.discord == pytest.approx(0.0, abs=1e-8)
    assert report.classical_correlation == pytest.approx(0.0, abs=1e-8)


def test_discord_zero_for_classical_classical_state():
    # Diagonal in a product basis: all correlation is classical.
    rho = DensityMatrix((2, 2), np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex))
    report = quantum_discord(rho)
    assert report.discord == pytest.approx(0.0, abs=1e-7)
    assert report.classical_correlation == pytest.approx(
        report.mutual_information, abs=1e-7)


def test_discord_singlet():
    report = quantum_discord(werner(1.0))
    assert report.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert report.classical_correlation == pytest.approx(1.0, abs=1e-8)
    assert report.discord == pytest.approx(1.0, abs=1e-8)


def test_discord_werner_monotone_in_a():
    values = [quantum_discord(werner(a)).discord
              for a in (0.2, 0.4, 0.6, 0.8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_discord_local_unitary_invariance():
    rng = np.random.default_rng(9)
    base = quantum_discord(mixed_bell_family(0.5))
    for _ in range(3):
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q1, _ = np.linalg.qr(g1)
        q2, _ = np.linalg.qr(g2)
        u = np.kron(q1, q2)
        rot = DensityMatrix((2, 2), u @ mixed_bell_family(0.5).matrix
                            @ u.conj().T)
        report = quantum_discord(rot)
        assert report.discord == pytest.approx(base.discord, abs=1e-6)
        assert report.classical_correlation == pytest.approx(
            base.classical_correlation, abs=1e-6)


def test_discord_methods_agree():
    rho = mixed_bell_family(0.4)
    vals = []
    for method in ("nelder_mead", "grid_then_polish"):
        report = quantum_discord(rho, OptimizerConfig(method=method))
        vals.append(report.min_conditional_entropy)
    assert max(vals) - min(vals) < 1e-6


def test_report_compiles_one_evaluator_for_search_and_oracle(monkeypatch):
    from qdiscord import correlations

    compiled = []

    def counting(rho):
        compiled.append(rho)
        return conditional_entropy_fn(rho)

    monkeypatch.setattr(correlations, "conditional_entropy_fn", counting)
    for method in ("nelder_mead", "grid_then_polish"):
        compiled.clear()
        quantum_discord(werner(0.5), OptimizerConfig(method=method),
                        oracle_resolution=24)
        assert len(compiled) == 1, method


@pytest.mark.parametrize("rho", [werner(1.0), fixed_random_state()])
def test_report_carries_the_oracle_minimum_exactly(rho):
    report = quantum_discord(rho, oracle_resolution=32)
    stats = report.optimizer_stats
    oracle, _ = grid_oracle(conditional_entropy_fn(rho), 32)
    assert stats.oracle_min_conditional_entropy == oracle
    assert stats.oracle_gap == report.min_conditional_entropy - oracle
    assert quantum_discord(rho).optimizer_stats \
        .oracle_min_conditional_entropy is None


def test_discord_oracle_gap_reported():
    report = quantum_discord(werner(0.6), oracle_resolution=48)
    gap = report.optimizer_stats.oracle_gap
    assert gap is not None
    assert abs(gap) < 1e-6


def test_discord_fixed_random_state_vs_oracle():
    report = quantum_discord(fixed_random_state(), oracle_resolution=64)
    assert report.optimizer_stats.oracle_gap <= 1e-5
    s_a = von_neumann_entropy(fixed_random_state().marginal("A"))
    assert report.classical_correlation == pytest.approx(
        s_a - report.min_conditional_entropy, abs=1e-12)


def test_discord_maximally_mixed_all_zero():
    report = quantum_discord(DensityMatrix((2, 2), np.eye(4) / 4))
    assert report.mutual_information == pytest.approx(0.0, abs=1e-10)
    assert report.classical_correlation == pytest.approx(0.0, abs=1e-10)
    assert report.discord == pytest.approx(0.0, abs=1e-10)


def test_clamp_only_round_off_negatives():
    # Only values above -NEGATIVE_CLAMP are round-off: -5e-7 is reported
    # as it is, and -5e-10 becomes 0 and is named in the stats.
    clamped = []
    assert _clamp_small_negative(-5e-7, clamped, "discord") == -5e-7
    assert clamped == []
    assert _clamp_small_negative(-5e-10, clamped, "discord") == 0.0
    assert clamped == ["discord"]
