"""Checks of the benchmark itself: its reference, its tracer and its
output contract.  Run with `python3 -m pytest perfbench/tests`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from qdiscord import cli, correlations, optimizer  # noqa: E402
from qdiscord.measurement import conditional_entropy_fn  # noqa: E402
from qdiscord.states import DensityMatrix  # noqa: E402


def _bench_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("index", range(3))
def test_grid_reference_matches_program_oracle(index):
    case = workloads.make_case("general_2x2", 7, index)
    rho = DensityMatrix(case.dims, case.matrix)
    oracle, _ = optimizer.grid_oracle(conditional_entropy_fn(rho), 200)
    ours = reference.grid_min_conditional_entropy(case.matrix, case.dims)
    assert abs(ours - oracle) < 1e-8


@pytest.mark.parametrize("index", range(4))
def test_grid_reference_matches_luo_on_bell_orbit(index):
    # Even indices are Bell diagonal as built, odd ones LU-rotated.
    case = workloads.make_case("bell_orbit", 3, index)
    grid = reference.grid_min_conditional_entropy(case.matrix, case.dims)
    assert abs(grid - reference.luo_min_conditional_entropy(case.omega)) < 1e-6


def test_qubit_closed_form_spectrum_matches_eigvalsh():
    case = workloads.make_case("general_2x2", 5, 0)
    t_id, t_pauli = reference._contractions(case.matrix, 2)
    dirs = np.random.default_rng(0).normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    closed = reference.conditional_entropies(t_id, t_pauli, dirs)
    zs = np.einsum("nk,kac->nac", dirs, t_pauli)
    general = sum(
        reference._entropy_terms(np.linalg.eigvalsh(red).T,
                                 np.einsum("naa->n", red).real)
        for red in (0.5 * (t_id + zs), 0.5 * (t_id - zs)))
    assert np.allclose(closed, general, atol=1e-12)


def test_check_accepts_a_verified_point_below_the_grid():
    # On this state the res-200 grid ends 1.8e-5 bits above the minimum
    # that Nelder-Mead finds; the check confirms the program's point.
    from dataclasses import replace

    case = workloads.make_case("general_2x2", 1, 325)
    report = correlations.quantum_discord(DensityMatrix(case.dims, case.matrix))
    answer = workloads._read_report(report)
    grid, exact, s_a = workloads.expected(case)
    assert grid - answer.min_conditional_entropy > workloads.ANSWER_TOL
    assert workloads.check(case, answer, grid, exact, s_a)[0] == []
    low = replace(answer, min_conditional_entropy=grid - 1e-4)
    defects, gap = workloads.check(case, low, grid, exact, s_a)
    assert "measurement does not give the minimum" in defects
    assert "gap to reference" in defects


def test_check_compares_the_program_oracle_with_the_reference_grid(
        tmp_path):
    from dataclasses import replace

    case = workloads.make_case("oracle_verify", 1, 0)
    call, read = workloads.prepare("oracle_verify", case, str(tmp_path))
    answer = read(call())
    assert answer.oracle_gap is not None
    ref = workloads.expected(case)
    assert workloads.check(case, answer, *ref)[0] == []
    off = replace(answer, oracle_gap=answer.oracle_gap + 1e-6)
    assert workloads.check(case, off, *ref)[0] == [
        "oracle differs from reference grid"]


@pytest.mark.parametrize("n", (10, 11, 12))
@pytest.mark.parametrize("workload", sorted(run.TAIL))
def test_tail_is_the_maximum_with_fewer_than_ten_above(workload, n):
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    assert run.tail(values, run.TAIL[workload][1]) == n


@pytest.mark.parametrize("workload", sorted(run.TAIL))
def test_tail_has_ten_samples_above_at_its_sample_count(workload):
    n, percentile = run.TAIL[workload]
    values = list(np.random.default_rng(n).permutation(n) + 1.0)
    # Values 1..n: ten lie above n - 10; fewer than ten give the maximum.
    assert run.tail(values, percentile) == (n - 10 if n > 10 else n)


def test_tracer_patches_every_namespace_and_restores():
    original = optimizer.grid_oracle
    tracer = Tracer()
    with tracer.installed():
        assert correlations.grid_oracle is cli.grid_oracle
        assert correlations.grid_oracle is not original
        assert optimizer.grid_oracle is not original
    assert correlations.grid_oracle is original
    assert cli.grid_oracle is original
    assert tracer.absent == []


def test_tracer_self_time_and_absent_names(monkeypatch):
    from qdiscord import measurement

    monkeypatch.delattr(measurement, "bell_conditional_entropy")
    tracer = Tracer()
    with tracer.installed():
        case = workloads.make_case("general_2x2", 1, 0)
        rho = DensityMatrix(case.dims, case.matrix)
        tracer.state = 0
        correlations.quantum_discord(rho)
    assert tracer.absent == ["measurement.bell_conditional_entropy"]
    spans = tracer.summary({0: 1.0})
    qd = spans["correlations.quantum_discord"]
    assert qd["calls"] == 1
    inner = sum(v["total_s"] for k, v in spans.items()
                if k in ("correlations.mutual_information",
                         "su_basis.decompose"))
    assert qd["self_s"] < qd["total_s"] - inner
    assert spans["measurement.cost_eval"]["calls"] > 100
    for v in spans.values():
        assert v["self_s"] >= 0.0


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in
                                      _bench_json()["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    group = _bench_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") for line in lines[:-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("general_2x2", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
