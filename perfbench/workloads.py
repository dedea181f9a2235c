"""The benchmark's workloads: the states each makes from the seed, how
each hands a state to qdiscord, and how each answer is checked.

Every call uses the program's defaults (`OptimizerConfig()`, default
method), so a change of default shows.  The program receives only the
generated states.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import reference
from qdiscord import cli, correlations
from qdiscord.states import (DensityMatrix, bell_diagonal, mixed_bell_family,
                             save_state)

# Why each exists is in BENCHMARK.json.  The position seeds the states.
WORKLOADS = ("general_2x2", "bell_orbit", "oracle_verify", "qutrit_qubit")

# <s_k x s_k> of the Bell states Phi+, Phi-, Psi+, Psi-: a mixture with
# weights p has omega = p @ BELL_SIGNS, valid for every probability p.
BELL_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]],
                      dtype=float)

INVARIANT_TOL = 1e-9
ANSWER_TOL = 1e-5
# The program's grid oracle and the reference grid visit the same points.
ORACLE_TOL = 1e-8
ORACLE_RESOLUTION = 200


@dataclass(frozen=True)
class Case:
    """One generated state.  `omega` is set for Bell-diagonal states and
    their LU orbit, whose reference is Luo's closed form."""

    index: int
    dims: tuple
    matrix: np.ndarray
    omega: np.ndarray | None = None


@dataclass(frozen=True)
class Answer:
    """What the program reported for one state."""

    mutual_information: float
    classical_correlation: float
    discord: float
    min_conditional_entropy: float
    measurement: tuple  # (r, y1, y2, y3) of the reported optimal basis
    converged: bool
    fast_path: bool | None
    iterations: int
    exit_code: int = 0
    # Reported minimum minus the program's grid-oracle minimum, when the
    # oracle ran.
    oracle_gap: float | None = None


def _ginibre(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def make_case(workload: str, seed: int, index: int) -> Case:
    """State `index` of a workload; it depends only on (workload, seed,
    index), so a run's first states do not depend on its length."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "general_2x2":
        return Case(index, (2, 2), _ginibre(rng, 4))
    if workload == "qutrit_qubit":
        return Case(index, (3, 2), _ginibre(rng, 6))
    if workload == "oracle_verify":
        if index % 2 == 0:
            return Case(index, (2, 2), _ginibre(rng, 4))
        rho = mixed_bell_family(rng.uniform(0.05, 1.0))
        return Case(index, (2, 2), rho.matrix)
    if workload == "bell_orbit":
        omega = rng.dirichlet(np.ones(4)) @ BELL_SIGNS
        matrix = bell_diagonal(omega).matrix
        if index % 2 == 1:
            u = np.kron(_haar_unitary(rng, 2), _haar_unitary(rng, 2))
            matrix = u @ matrix @ u.conj().T
        return Case(index, (2, 2), matrix, omega)
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, case: Case, workdir: str):
    """Everything before the timed call: returns (call, read), where
    `call()` is the timed call into qdiscord and `read(result)` turns
    what it returned into an Answer."""
    rho = DensityMatrix(case.dims, case.matrix)
    if workload != "oracle_verify":
        return (lambda: correlations.quantum_discord(rho)), _read_report
    state_path = os.path.join(workdir, f"state_{case.index}.json")
    report_path = os.path.join(workdir, f"report_{case.index}.json")
    save_state(rho, state_path)
    argv = ["compute", "--state", state_path, "--oracle",
            "--oracle-resolution", str(ORACLE_RESOLUTION),
            "--out", report_path]

    def call():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def read(exit_code):
        with open(report_path) as f:
            d = json.load(f)
        stats = d["optimizer_stats"]
        meas = d["optimal_measurement"]
        if stats["oracle_gap"] is None:
            raise ValueError("the report has no oracle result")
        return Answer(d["mutual_information"], d["classical_correlation"],
                      d["discord"], d["min_conditional_entropy"],
                      (meas["r"], *meas["y"]), stats["converged"],
                      stats.get("used_bell_fast_path"), stats["iterations"],
                      exit_code, stats["oracle_gap"])

    return call, read


def _read_report(report) -> Answer:
    stats = report.optimizer_stats
    meas = report.optimal_measurement
    return Answer(report.mutual_information, report.classical_correlation,
                  report.discord, report.min_conditional_entropy,
                  (meas.r, *meas.y), stats.converged,
                  getattr(stats, "used_bell_fast_path", None),
                  stats.iterations)


def expected(case: Case) -> tuple[float, bool, float]:
    """(reference minimum, whether it is exact, S(rho_A)) for a state.

    Luo's closed form is exact; the grid minimum is an upper bound."""
    if case.omega is not None:
        ref, exact = reference.luo_min_conditional_entropy(case.omega), True
    else:
        ref = reference.grid_min_conditional_entropy(case.matrix, case.dims)
        exact = False
    return ref, exact, reference.marginal_entropy_a(case.matrix, case.dims)


def check(case: Case, answer: Answer, ref: float, exact: bool,
          s_a: float) -> tuple[list[str], float]:
    """The defects of one answer, and its gap to the reference in bits.

    Where the reference is only an upper bound, the lower of it and the
    reference's own value at the measurement the program reported is
    used: a program that beats the grid has found a better point, which
    the reference confirms by evaluating it.  Where the program's grid
    oracle ran, its minimum must match the reference grid (oracle_verify
    has no Bell-orbit states, so `ref` is the grid there)."""
    r, *y = answer.measurement
    achieved = reference.conditional_entropy_at(
        case.matrix, case.dims, reference.measured_direction(r, y))
    best = ref if exact else min(ref, achieved)
    gap = abs(answer.min_conditional_entropy - best)
    i, c, qd = (answer.mutual_information, answer.classical_correlation,
                answer.discord)
    tol = INVARIANT_TOL
    defects = [name for name, broken in (
        ("exit code", answer.exit_code != 0),
        ("I != C + QD", abs(i - c - qd) > tol),
        ("C < 0", c < -tol),
        ("C > S(rho_A)", c > s_a + tol),
        ("C > 1", c > 1.0 + tol),
        ("QD < 0", qd < -tol),
        ("measurement does not give the minimum",
         abs(achieved - answer.min_conditional_entropy) > tol),
        ("gap to reference", gap > ANSWER_TOL),
        ("oracle differs from reference grid",
         answer.oracle_gap is not None and abs(
             answer.min_conditional_entropy - answer.oracle_gap - ref)
         > ORACLE_TOL),
    ) if broken]
    return defects, gap
