import math

import numpy as np
import pytest

from qdiscord.linalg import binary_entropy
from qdiscord.measurement import (bell_conditional_entropy, bloch_of_angles,
                                  conditional_entropy_fn, from_angles,
                                  from_bloch, hyperspherical_angles)
from qdiscord.optimizer import (OptimizerConfig, gradient_descent, _cell_grid,
                                grid_oracle, multi_start, nelder_mead)
from qdiscord.states import DensityMatrix, bell_diagonal, werner
from tests.corpus import ginibre_state, random_valid_omega
from tests.reference import (analytic_gradient_bell, conditional_entropy,
                             finite_diff_gradient)
from tests.reference import nelder_mead as array_nelder_mead


def quadratic(theta):
    return float(np.sum(np.asarray(theta) ** 2))


def test_config_validation():
    with pytest.raises(ValueError):
        gradient_descent(quadratic, lambda t: 2.0 * t, np.array([1.0]),
                         OptimizerConfig(), eta=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(method="newton")
    with pytest.raises(ValueError, match="nelder_mead.*grid_then_polish"):
        OptimizerConfig(method="gradient_descent")


def test_finite_diff_quadratic():
    g = finite_diff_gradient(quadratic, np.array([1.0, 2.0]), 1e-5)
    assert np.allclose(g, [2.0, 4.0], atol=1e-6)
    g0 = finite_diff_gradient(lambda t: 3.0, np.array([0.3, 0.4]), 1e-5)
    assert np.allclose(g0, 0, atol=1e-9)


def test_finite_diff_flat_werner_cost():
    w = werner(0.6)

    def cost(theta):
        return conditional_entropy(w, from_angles(theta))

    g = finite_diff_gradient(cost, np.array([0.4, 1.0, 2.2]), 1e-6)
    assert np.allclose(g, 0, atol=1e-6)


def test_analytic_gradient_isotropic_zero():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0, 2 * math.pi, 3)
        g = analytic_gradient_bell((-a, -a, -a), theta)
        assert np.allclose(g, 0, atol=1e-9)


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
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
        assert float(np.max(np.abs(ga - gf))) / scale < 1e-4
        checked += 1


def test_analytic_gradient_stationary_at_oracle_argmin():
    omega = np.array([0.8, 0.1, 0.1])
    _, argmin = grid_oracle(conditional_entropy_fn(bell_diagonal(omega)), 64)
    from qdiscord.measurement import hyperspherical_angles

    g = analytic_gradient_bell(omega,
                               hyperspherical_angles(from_bloch(argmin)))
    # The argmin is only grid-cell accurate, so the gradient is small
    # but not machine zero.
    assert float(np.max(np.abs(g))) < 1e-2


def test_gradient_descent_quadratic_bowl():
    cfg = OptimizerConfig(tol=1e-10, max_iter=200)
    res = gradient_descent(quadratic,
                           lambda t: finite_diff_gradient(quadratic, t, 1e-6),
                           np.array([2.0, -1.5]), cfg, eta=0.1)
    assert res.converged
    assert res.best_value < 1e-8
    # Accepted values never increase.
    values = [v for _, v in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_gradient_descent_flat_werner():
    a = 0.5
    w = werner(a)

    def cost(theta):
        return conditional_entropy(w, from_angles(theta))

    cfg = OptimizerConfig()
    res = gradient_descent(cost,
                           lambda t: finite_diff_gradient(cost, t, 1e-6),
                           np.array([0.3, 0.9, 1.4]), cfg)
    assert res.converged
    assert res.best_value == pytest.approx(binary_entropy((1 + a) / 2),
                                           abs=1e-9)


def test_gradient_descent_bell_vs_oracle():
    omega = np.array([0.8, 0.1, 0.1])

    def cost(theta):
        return bell_conditional_entropy(omega, from_angles(theta))

    cfg = OptimizerConfig(max_iter=5000)
    res = multi_start(
        lambda c, t0, cc: gradient_descent(
            c, lambda t: analytic_gradient_bell(omega, t), t0, cc),
        cost, cfg)
    oracle_val, _ = grid_oracle(conditional_entropy_fn(bell_diagonal(omega)),
                                200)
    assert abs(res.best_value - oracle_val) < 1e-5


def test_nelder_mead_parabola():
    cfg = OptimizerConfig(tol=1e-8, max_iter=500)
    res = nelder_mead(lambda t: (t[0] - 0.0) ** 2, np.array([3.0]), cfg)
    assert res.converged
    assert abs(res.best_params[0]) < 1e-6


def assert_same_path(cost, reference_cost, theta0, cfg):
    """The tuple simplex ends where the array simplex ends, bit for bit,
    after the same number of iterations."""
    res = nelder_mead(cost, theta0, cfg)
    ref = array_nelder_mead(reference_cost, theta0, cfg)
    assert isinstance(res.best_params, np.ndarray)
    assert res.best_params.tolist() == ref.best_params.tolist()
    assert res.best_value == ref.best_value
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged


def test_nelder_mead_takes_the_array_path_on_test_functions():
    def parabola(t):
        return (t[0] - 0.0) * (t[0] - 0.0)

    def rosenbrock(t):
        return ((1.0 - t[0]) * (1.0 - t[0])
                + 100.0 * (t[1] - t[0] * t[0]) * (t[1] - t[0] * t[0]))

    cfg = OptimizerConfig(tol=1e-8, max_iter=500)
    assert_same_path(parabola, parabola, np.array([3.0]), cfg)
    assert_same_path(rosenbrock, rosenbrock, np.array([-1.2, 1.0]),
                     OptimizerConfig())


@pytest.mark.parametrize("m, seed", [(2, 0), (2, 1), (2, 2), (3, 0)])
def test_nelder_mead_takes_the_array_path_on_measurement_costs(m, seed):
    # The production cost (angles straight to a Bloch tuple) against the
    # array simplex driving the measurement-building cost it replaced.
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
    rho = g @ g.conj().T
    evaluate = conditional_entropy_fn(
        DensityMatrix((m, 2), rho / np.trace(rho).real))
    axes = np.vstack([np.eye(3), -np.eye(3)])
    starts = [hyperspherical_angles(from_bloch(d)) for d in axes]
    starts += list(rng.uniform(0.0, 2.0 * math.pi, size=(2, 3)))

    def via_measurement(t):
        return evaluate(tuple(from_angles(t).bloch_direction().tolist()))

    for theta0 in starts:
        assert_same_path(lambda t: evaluate(bloch_of_angles(t)),
                         via_measurement, theta0, OptimizerConfig())


def test_nelder_mead_matches_gradient_descent():
    from qdiscord.states import mixed_bell_family

    rho = mixed_bell_family(0.5)

    def cost(theta):
        return conditional_entropy(rho, from_angles(theta))

    cfg = OptimizerConfig()
    nm = multi_start(nelder_mead, cost, cfg)
    gd = multi_start(
        lambda c, t0, cc: gradient_descent(
            c, lambda t: finite_diff_gradient(c, t, 1e-6), t0, cc),
        cost, OptimizerConfig())
    assert abs(nm.best_value - gd.best_value) < 1e-6


def test_result_value_consistent_with_params():
    def cost(theta):
        return quadratic(theta) + 1.0

    cfg = OptimizerConfig()
    res = nelder_mead(cost, np.array([1.0, 1.0, -2.0]), cfg)
    assert res.best_value == pytest.approx(cost(res.best_params), abs=1e-12)


def test_grid_oracle_flat_costs():
    a = 0.5
    w = werner(a)
    val, _ = grid_oracle(conditional_entropy_fn(w), 16)
    assert val == pytest.approx(binary_entropy((1 + a) / 2), abs=1e-12)
    with pytest.raises(ValueError):
        grid_oracle(conditional_entropy_fn(w), 4)


def test_grid_oracle_ties_go_to_the_first_cell():
    # On a constant cost every grid point and every refinement point
    # ties, so the answer is the first cell centre in row-major order.
    val, direction = grid_oracle(lambda d: np.ones(len(d)), 8)
    assert val == 1.0
    assert np.allclose(direction, _cell_grid(8)[2][0], atol=1e-12)


@pytest.mark.parametrize("resolution", [8, 15, 16, 200])
def test_cell_grid_scans_one_hemisphere_at_even_resolution(resolution):
    # The full grid in row-major (u, phi) order, built here cell by cell.
    # At even resolution the scan is its first half, the u < 0 rows, and
    # the antipode of cell (i, j) is cell (res-1-i, j+res/2), so the
    # scanned cells and their negatives cover the full grid.  At odd
    # resolution the scan is the full grid.
    du, dphi = 2.0 / resolution, 2.0 * math.pi / resolution
    full = []
    for i in range(resolution):
        u = -1.0 + (i + 0.5) * du
        s = math.sqrt(1.0 - u * u)
        for j in range(resolution):
            phi = (j + 0.5) * dphi
            full.append((s * math.cos(phi), s * math.sin(phi), u))
    full = np.array(full)
    scanned = _cell_grid(resolution)[2]
    if resolution % 2:
        assert len(scanned) == resolution ** 2
        assert np.max(np.abs(scanned - full)) < 1e-15
        return
    half = resolution // 2
    assert len(scanned) == resolution * half
    mirror = [(resolution - 1 - i) * resolution + (j + half) % resolution
              for i in range(half) for j in range(resolution)]
    assert sorted(list(range(len(scanned))) + mirror) \
        == list(range(resolution ** 2))
    assert np.max(np.abs(scanned - full[:len(scanned)])) < 1e-15
    # u = -1 + (i + 0.5) du and -u of the mirror row round apart, and
    # sqrt(1 - u**2) amplifies that near the poles.
    assert np.max(np.abs(-scanned - full[mirror])) < 2e-15


@pytest.mark.parametrize("m", [2, 3])
def test_grid_oracle_returns_its_direction_as_a_tuple(m):
    evaluate = conditional_entropy_fn(
        ginibre_state(np.random.default_rng(m), (m, 2)))
    val, direction = grid_oracle(evaluate, 16)
    assert type(direction) is tuple and len(direction) == 3
    assert all(type(c) is float for c in direction)
    assert evaluate(direction) == pytest.approx(val, abs=1e-12)
    with pytest.raises(TypeError):
        grid_oracle(evaluate)


def test_grid_oracle_rejects_resolution_above_cap_before_scanning():
    def cost(directions):
        raise AssertionError("the cost must not be called")

    with pytest.raises(ValueError, match="from 8 to 1000"):
        grid_oracle(cost, 1001)


def test_cell_grid_cache_keeps_two_resolutions():
    evaluate = conditional_entropy_fn(werner(0.5))
    _cell_grid.cache_clear()
    for resolution in (16, 24, 32):
        grid_oracle(evaluate, resolution)
    info = _cell_grid.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (2, 2, 3)
    grid_oracle(evaluate, 24)
    assert _cell_grid.cache_info().hits == 1


def test_config_tolerance_must_be_finite():
    for tol in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            OptimizerConfig(tol=tol)


def test_grid_oracle_dominant_axis():
    # No state has this omega (bell_diagonal rejects it), but the closed
    # form is defined for it; the oracle takes it one direction at a time.
    omega = np.array([0.9, 0.2, 0.1])
    val, argmin = grid_oracle(
        lambda dirs: np.array([bell_conditional_entropy(omega, from_bloch(d))
                               for d in dirs]), 128)
    assert val == pytest.approx(binary_entropy((1 + 0.9) / 2), abs=1e-6)
    assert abs(abs(argmin[0]) - 1.0) < 1e-2


def test_multi_start_deterministic():
    rho = bell_diagonal((0.6, -0.3, 0.2))

    def cost(theta):
        return conditional_entropy(rho, from_angles(theta))

    cfg = OptimizerConfig(restarts=3, seed=123)
    r1 = multi_start(nelder_mead, cost, cfg)
    r2 = multi_start(nelder_mead, cost, cfg)
    assert np.array_equal(r1.best_params, r2.best_params)
    assert r1.best_value == r2.best_value
    assert r1.iterations == r2.iterations


def test_multi_start_ties_go_to_the_first_start():
    def cost(theta):
        return 0.25

    cfg = OptimizerConfig(restarts=3, seed=5)
    starts = [hyperspherical_angles(from_bloch(d))
              for d in ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0))]
    first, last_axis = (nelder_mead(cost, s, cfg) for s in starts)
    assert not np.array_equal(first.best_params, last_axis.best_params)
    res = multi_start(nelder_mead, cost, cfg)
    assert np.array_equal(res.best_params, first.best_params)
    assert res.best_value == first.best_value


def test_multi_start_beats_single_starts():
    rho = bell_diagonal((0.7, 0.2, -0.4))

    def cost(theta):
        return conditional_entropy(rho, from_angles(theta))

    cfg = OptimizerConfig(restarts=4, seed=7)
    best = multi_start(nelder_mead, cost, cfg)
    single = nelder_mead(cost, np.zeros(3), cfg)
    assert best.best_value <= single.best_value + 1e-12


def test_multi_start_matches_oracle_mixed_bell():
    from qdiscord.states import mixed_bell_family

    rho = mixed_bell_family(0.3)

    def cost(theta):
        return conditional_entropy(rho, from_angles(theta))

    res = multi_start(nelder_mead, cost, OptimizerConfig())
    oracle_val, _ = grid_oracle(conditional_entropy_fn(rho), 200)
    assert abs(res.best_value - oracle_val) < 1e-5
