"""End-to-end acceptance checks.

Each test covers one numbered criterion and writes a single PASS/FAIL
line directly to the terminal (bypassing output capture) so the result
summary is visible in any pytest run.
"""

import math
import sys
import time

import numpy as np
import pytest

from qdiscord.correlations import mutual_information, quantum_discord
from qdiscord.linalg import von_neumann_entropy
from qdiscord.measurement import (bell_conditional_entropy,
                                  conditional_entropy_fn, from_angles)
from qdiscord.optimizer import (OptimizerConfig, grid_oracle, multi_start,
                                nelder_mead)
from qdiscord.states import (DensityMatrix, bell_diagonal, fixed_random_state,
                             mixed_bell_family, werner)
from qdiscord.su_basis import decompose, generators
from tests.corpus import ginibre, ginibre_state, random_valid_omega
from tests.reference import (analytic_gradient_bell, apply_superop_vectorized,
                             conditional_entropy, devectorize,
                             finite_diff_gradient, projectors, reconstruct,
                             vectorize)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_terminal(capfd):
    # Keep a handle so _report can step outside fd-level capture and
    # write the summary line to the real terminal.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] {name}{suffix}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, f"{name}{suffix}"


def _oracle_c_qd(rho):
    oracle_min, _ = grid_oracle(conditional_entropy_fn(rho), 200)
    c = von_neumann_entropy(rho.marginal("A")) - oracle_min
    return max(c, 0.0), mutual_information(rho) - max(c, 0.0)


def test_criterion_1_werner_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    endpoints_ok = True
    for a in np.arange(0.0, 1.0 + 1e-9, 0.05):
        report = quantum_discord(werner(float(a)))
        c_oracle, qd_oracle = _oracle_c_qd(werner(float(a)))
        worst = max(worst,
                    abs(report.classical_correlation - c_oracle),
                    abs(report.discord - qd_oracle))
        if abs(a) < 1e-12:
            endpoints_ok &= (abs(report.classical_correlation) < 1e-6
                             and abs(report.discord) < 1e-6)
        if abs(a - 1.0) < 1e-12:
            endpoints_ok &= (abs(report.classical_correlation - 1) < 1e-6
                             and abs(report.discord - 1) < 1e-6)
    elapsed = time.perf_counter() - t0
    _report("criterion 1: Werner sweep, optimizer vs grid oracle",
            worst <= 1e-5 and endpoints_ok and elapsed < 60,
            f"worst gap {worst:.2e}, endpoints {'ok' if endpoints_ok else 'bad'}, "
            f"{elapsed:.1f} s")


def test_criterion_2_mixed_bell_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    for a in np.arange(0.05, 1.0 + 1e-9, 0.05):
        rho = mixed_bell_family(float(a))
        report = quantum_discord(rho)
        oracle_min, _ = grid_oracle(conditional_entropy_fn(rho), 200)
        worst = max(worst, report.min_conditional_entropy - oracle_min)
    elapsed = time.perf_counter() - t0
    _report("criterion 2: mixed-Bell sweep, optimizer vs grid oracle",
            worst <= 1e-5 and elapsed < 60,
            f"worst gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_fixed_random_state():
    t0 = time.perf_counter()
    rho = fixed_random_state()

    def cost(theta):
        return conditional_entropy(rho, from_angles(theta))

    nm = multi_start(nelder_mead, cost, OptimizerConfig())
    oracle_val, _ = grid_oracle(conditional_entropy_fn(rho), 200)
    # Reference value is quoted in natural-log units.
    nm_nats = nm.best_value * math.log(2)
    oracle_nats = oracle_val * math.log(2)
    elapsed = time.perf_counter() - t0
    ok = (abs(nm_nats - 0.24) <= 0.01 and abs(oracle_nats - 0.24) <= 0.01
          and elapsed < 10)
    _report("criterion 3: fixed random state minimum conditional entropy",
            ok, f"nelder-mead {nm_nats:.4f}, oracle {oracle_nats:.4f}, "
                f"{elapsed:.1f} s")


def test_criterion_4a_bell_fast_path_vs_general():
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(100):
        omega = random_valid_omega(rng)
        meas = from_angles(rng.uniform(0, 2 * math.pi, 3))
        worst = max(worst, abs(bell_conditional_entropy(omega, meas)
                               - conditional_entropy(bell_diagonal(omega),
                                                     meas)))
    _report("criterion 4a: Bell closed form vs general conditional entropy",
            worst <= 1e-9, f"worst gap {worst:.2e} over 100 cases")


def test_criterion_4b_superoperator_vs_direct():
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(100):
        rho = ginibre_state(rng)
        pair = projectors(from_angles(rng.uniform(0, 2 * math.pi, 3)))
        out = apply_superop_vectorized(vectorize(rho), pair)
        for (weight, image), pi in zip(out, pair):
            full = np.kron(np.eye(2), pi)
            direct = full @ rho.matrix @ full
            worst = max(worst,
                        float(np.max(np.abs(devectorize(image) - direct))),
                        abs(weight - np.trace(direct).real))
    _report("criterion 4b: vectorized superoperator vs direct projection",
            worst <= 1e-10, f"worst gap {worst:.2e} over 100 cases")


def test_criterion_4c_analytic_vs_finite_difference_gradient():
    rng = np.random.default_rng(403)
    worst = 0.0
    checked = 0
    while checked < 100:
        omega = random_valid_omega(rng)
        theta = rng.uniform(0, 2 * math.pi, 3)
        z = from_angles(theta).bloch_direction()
        xi = math.sqrt(float(np.sum((omega * z) ** 2)))
        if xi > 1 - 1e-6:
            continue

        def cost(t):
            return bell_conditional_entropy(omega, from_angles(t))

        ga = analytic_gradient_bell(omega, theta)
        gf = finite_diff_gradient(cost, theta, 1e-6)
        scale = max(float(np.max(np.abs(gf))), 1e-8)
        worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
        checked += 1
    _report("criterion 4c: analytic vs finite-difference gradient",
            worst <= 1e-4, f"worst relative gap {worst:.2e} over 100 cases")


def test_criterion_4d_decompose_reconstruct_roundtrip():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        rho = ginibre(rng, 4)
        back = reconstruct(decompose(rho, (2, 2)))
        worst = max(worst, float(np.max(np.abs(back - rho))))
    _report("criterion 4d: generator-basis decompose/reconstruct round trip",
            worst <= 1e-10, f"worst gap {worst:.2e} over 100 cases")


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(500)
    ok = True
    detail = []

    # Product-state conditional entropy equals the A-marginal entropy.
    worst = 0.0
    for _ in range(50):
        ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = ga @ ga.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = gb @ gb.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix((2, 2), np.kron(rho_a, rho_b))
        meas = from_angles(rng.uniform(0, 2 * math.pi, 3))
        worst = max(worst, abs(conditional_entropy(rho, meas)
                               - von_neumann_entropy(rho_a)))
    ok &= worst <= 1e-9
    detail.append(f"product-state gap {worst:.1e}")

    # Werner landscape is flat.
    vals = [conditional_entropy(werner(0.5),
                                from_angles(rng.uniform(0, 2 * math.pi, 3)))
            for _ in range(500)]
    spread = max(vals) - min(vals)
    ok &= spread <= 1e-9
    detail.append(f"Werner spread {spread:.1e}")

    # Generator orthogonality Tr(g_i g_j) = 2 delta_ij.
    worst = 0.0
    for n in (2, 3, 4):
        gen = generators(n)
        for i, gi in enumerate(gen):
            for j, gj in enumerate(gen):
                want = 2.0 if i == j else 0.0
                worst = max(worst, abs(np.trace(gi @ gj).real - want))
    ok &= worst <= 1e-12
    detail.append(f"orthogonality defect {worst:.1e}")

    _report("criterion 5: structural invariants", ok, ", ".join(detail))


def test_criterion_6_sweep_determinism(tmp_path):
    from qdiscord.cli import main

    argv_base = ["sweep", "--family", "mixed_bell", "--start", "0.1",
                 "--end", "0.9", "--step", "0.2", "--seed", "42"]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for p in paths:
        assert main(argv_base + ["--out", str(p)]) == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report("criterion 6: seeded sweeps are byte-identical", identical)
