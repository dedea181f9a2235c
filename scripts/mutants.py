"""Mutation check: every mutant in MUTANTS must fail the Tier-1 suite.

Each mutant is (file, old text, new text, reason, killer).  For each, the
script copies what Tier-1 reads (`src/`, `tests/`, `pyproject.toml` and
`README.md`) to a temporary directory and replaces the one occurrence of
the old text in the file.  It then runs the killer, the pytest node id of
the test that killed the mutant last time, and, only if that test
passes (or no killer is recorded), the whole Tier-1 suite with -x.  So a
mutant the killer no longer catches still faces every test, and a
mutant the suite passes has survived.  A kill by another test than the
recorded one is printed with that test's node id, to record instead.

The script exits 1 if a survivor is not marked equivalent (a reason
starting with "equivalent:" that says why no test can tell it apart),
and 2 if an old text no longer occurs exactly once, or if on the
unmutated tree the suite fails or a recorded killer fails or no longer
exists.  Standard library only:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 300
# Address-space cap for each suite run, so that a mutant which lifts a
# memory refusal fails its test instead of exhausting the machine.
MEMORY_LIMIT_B = 4 * 2 ** 30

M = "src/qdiscord/measurement.py"
O = "src/qdiscord/optimizer.py"
L = "src/qdiscord/linalg.py"
# Prefixes of the killers' node ids.
TA, TB = "tests/test_acceptance.py::", "tests/test_batched_evaluator.py::"
TC, TL = "tests/test_cli.py::", "tests/test_linalg.py::"
TM, TO = "tests/test_measurement.py::", "tests/test_optimizer.py::"
TR = "tests/test_correlations.py::"

MUTANTS = (
    # The conditional-entropy evaluator.
    (M, "d = 0.5 * (dd[0] + signs * dz)", "d = 0.5 * (dd[0] + signs * az)",
     "2x2 batch contraction: the lower diagonal follows the upper's slope",
     TA + "test_criterion_1_werner_sweep"),
    (M, "dz = z1 * dd[1] + z2 * dd[2] + z3 * dd[3]",
     "dz = z1 * dd[1] + z2 * dd[3] + z3 * dd[2]",
     "2x2 scalar contraction: y and z slopes of the lower diagonal swapped",
     TA + "test_criterion_1_werner_sweep"),
    (M, "blocks = 0.5 * (t_id + signs[..., None, None] * zs)",
     "blocks = 0.5 * (t_id - signs[..., None, None] * zs)",
     "m > 2 contraction: outcome blocks swapped against their weights",
     TB + "test_batch_matches_scalar_and_direct_route"),
    (M, "p = 0.5 * (tr_id + signs * (directions @ tr_pauli))",
     "p = 0.5 * (tr_id - signs * (directions @ tr_pauli))",
     "m > 2 weights: outcome weights swapped against their blocks",
     TB + "test_batch_matches_scalar_and_direct_route"),
    (M, "disc = np.minimum(disc, p)", "disc = disc",
     "2x2 batch: no disc <= p clip, so round-off gives negative entropies",
     TM + "test_precompiled_conditional_entropy_nonnegative_on_pure_blocks"),
    (M, "disc = min(disc, p)", "disc = disc",
     "2x2 scalar: no disc <= p clip, so round-off gives negative entropies",
     TC + "test_sweep_matches_golden_csv[werner]"),
    (M, "if p < PROB_FLOOR:", "if p < 1e-6:",
     "2x2 scalar: outcomes of weight below 1e-6 dropped",
     TB + "test_batch_keeps_an_outcome_of_tiny_weight[2]"),
    (L, "kept = p >= PROB_FLOOR", "kept = p >= 1e-6",
     "batch: outcomes of weight below 1e-6 dropped",
     TB + "test_batch_keeps_an_outcome_of_tiny_weight[2]"),
    (L, "lam = np.where(lam > 0.0, lam, p)",
     "lam = np.where(lam >= 0.0, lam, p)",
     "spectral entropy: a zero eigenvalue's 0 log 0 taken as 0 * -inf",
     TA + "test_criterion_1_werner_sweep"),
    (M, "if need > SCAN_MEMORY_BUDGET:", "if need >= SCAN_MEMORY_BUDGET:",
     "scan budget: a batch of exactly the budget refused",
     TB + "test_scan_memory_budget_refuses_only_above_it"),
    (M, "need = len(directions) * m * m * 80",
     "need = len(directions) * m * 80",
     "scan budget: memory charged as m, not m**2",
     TB + "test_scan_memory_budget_refuses_only_above_it"),
    (M, "-math.sin(half) * math.cos(phi), 0.0)",
     "math.sin(half) * math.cos(phi), 0.0)",
     "from_bloch: the measurement's y2 sign flipped",
     TB + "test_batch_matches_scalar_and_direct_route"),
    (M, "if z.ndim != 2 or z.shape[1] != 3:", "if False:",
     "evaluator: a (3,) array taken as a batch of one",
     TM + "test_evaluator_refuses_all_but_a_tuple_and_an_n_by_3_array[2]"),
    # Refusals of NaN, zero and non-finite inputs.
    (M, "if not abs(norm - 1.0) <= 1e-12:", "if abs(norm - 1.0) > 1e-12:",
     "VonNeumannMeasurement: a NaN norm passes the check",
     TM + "test_measurement_refuses_nan"),
    (M, "if not 0.0 < norm < math.inf:", "if False:",
     "from_bloch: a zero or non-finite direction divided by its length",
     TM + "test_from_bloch_refuses_zero_and_non_finite_directions[d0]"),
    (M, "if not 0.0 < norm < math.inf:",
     "if norm == 0.0 or norm == math.inf:",
     "from_bloch: a NaN length passes the check",
     TM + "test_from_bloch_refuses_zero_and_non_finite_directions[d1]"),
    (L, "if not np.isfinite(rho).all():", "if False:",
     "von_neumann_entropy: a non-finite matrix reaches the eigensolver",
     TL + "test_entropy_refuses_non_finite_matrix[nan]"),
    (L, "if not np.isfinite(m).all():", "if False:",
     "is_density_matrix: a non-finite matrix reaches the eigensolver",
     TL + "test_density_matrix_report_of_nan_matrix_is_invalid"),
    (L, "if not -1e-12 <= x <= 1.0 + 1e-12:",
     "if x < -1e-12 or x > 1.0 + 1e-12:",
     "binary_entropy: NaN passes the range check",
     TL + "test_binary_entropy_refuses_nan"),
    (L, "np.subtract(0.0, (lam * np.log2(lam / p)).sum(axis=-1))",
     "-(lam * np.log2(lam / p)).sum(axis=-1)",
     "spectral_entropy: a zero entropy comes out as -0.0",
     TC + "test_pure_product_state_prints_no_negative_zero"),
    # The grid oracle and Nelder-Mead.
    (O, "    values = cost_of_directions(directions)\n"
        "    k = int(np.argmin(values))",
        "    values = cost_of_directions(directions)\n"
        "    k = len(values) - 1 - int(np.argmin(values[::-1]))",
     "grid_oracle: ties go to the last grid point, not the first",
     TO + "test_grid_oracle_ties_go_to_the_first_cell"),
    (O, "wu, wphi = 2.0 / resolution,", "wu, wphi = 1.0 / resolution,",
     "grid_oracle: refinement cells half as tall as grid cells",
     TB + "test_vectorised_oracle_matches_per_point_search[2-1]"),
    (O, "uc = u0 + di * wu / 3.0", "uc = u0 + di * wu / 2.0",
     "grid_oracle: refinement steps in u too wide",
     TB + "test_vectorised_oracle_matches_per_point_search[2-0]"),
    (O, "if values[k] < best_val:", "if values[k] <= best_val:",
     "grid_oracle: a refinement tie replaces the grid point",
     TO + "test_grid_oracle_ties_go_to_the_first_cell"),
    (O, "rows = cells[:resolution // 2] if resolution % 2 == 0 else cells",
     "rows = cells[:resolution // 2]",
     "grid_oracle: odd resolutions, whose cells have no antipode, halved",
     TB + "test_vectorised_oracle_matches_per_point_search[2-0-odd]"),
    (O, "cells[:resolution // 2] if", "cells[:resolution // 2 - 1] if",
     "grid_oracle: the last u < 0 row of an even grid not scanned",
     TC + "test_scan_above_the_memory_budget_is_an_error[argv0]"),
    (O, "xe = tuple(c + 2.0 * (c - w)", "xe = tuple(c + 3.0 * (c - w)",
     "Nelder-Mead expansion coefficient 3, not 2",
     TC + "test_sweep_matches_golden_csv[bell_diagonal]"),
    (O, "xc = tuple(c + 0.5 * (t - c)", "xc = tuple(c + 0.25 * (t - c)",
     "Nelder-Mead contraction coefficient 1/4, not 1/2",
     TC + "test_sweep_matches_golden_csv[bell_diagonal]"),
    (O, "tuple(b + 0.5 * (a - b)", "tuple(b + 0.75 * (a - b)",
     "Nelder-Mead shrink coefficient 3/4, not 1/2",
     TC + "test_sweep_matches_golden_csv[bell_diagonal]"),
    (O, "if best is None or res.best_value < best.best_value:",
     "if best is None or res.best_value <= best.best_value:",
     "multi_start: ties go to the last start, not the earliest",
     TO + "test_multi_start_ties_go_to_the_first_start"),
    # Tolerances and clamps.
    ("src/qdiscord/correlations.py", "NEGATIVE_CLAMP = 1e-9",
     "NEGATIVE_CLAMP = 1e-6", "a C or QD of -5e-7 reported as 0",
     TR + "test_clamp_only_round_off_negatives"),
    (L, "PSD_TOL = 1e-8", "PSD_TOL = 1e-4",
     "von_neumann_entropy accepts an eigenvalue of -1e-6",
     TL + "test_entropy_of_spectrum_clamps_round_off_only"),
    (L, "if vals[0] < -PSD_TOL:", "if vals[-1] < -PSD_TOL:",
     "von_neumann_entropy checks the largest eigenvalue, not the smallest",
     TL + "test_entropy_rejects_negative_spectrum"),
    (L, "if not 0 < tol < 1:",
     "if not 0 < tol <= 1:",
     "an input tolerance of 1 lets a zero-trace matrix through",
     TL + "test_density_matrix_tolerance_must_be_positive[1.0]"),
    ("src/qdiscord/states.py", "lam = np.clip(lam, 0.0, None)",
     "lam = np.clip(lam, -1.0, None)",
     "load_state keeps negative eigenvalues within tolerance",
     TC + "test_validate_accepted_states_can_be_computed"),
    ("src/qdiscord/states.py", "if not np.isfinite(omega).all():",
     "if not np.isfinite(omega).any():",
     "bell_diagonal builds a matrix from a partly non-finite omega",
     TC + "test_non_finite_omega_is_refused_before_the_matrix"),
    # The command line.
    ("src/qdiscord/cli.py", "for k in range(MAX_SWEEP_ROWS + 1):",
     "for k in range(MAX_SWEEP_ROWS + 2):",
     "sweep cap: one row past the cap admitted",
     TC + "test_sweep_cap_counts_the_final_row_slack"),
    ("src/qdiscord/cli.py", "last = end + 1e-12", "last = end",
     "sweep: no round-off slack for the final row",
     TC + "test_sweep_cap_counts_the_final_row_slack"),
    ("src/qdiscord/cli.py", "ok = type(value) in types",
     "ok = isinstance(value, types)",
     "config files: true accepted as an integer",
     TC + "test_config_values_are_type_"
     "checked[config8-'optimizer.tol'-exits8]"),
    ("src/qdiscord/cli.py",
     '    if isinstance(value, bool):  # before int: a bool is an int\n'
     '        return "true" if value else "false"\n'
     '    return str(value) if isinstance(value, int) else _fmt(value)',
     '    if isinstance(value, int):\n'
     '        return str(value)\n'
     '    return ("true" if value else "false") if isinstance(value, bool) '
     'else _fmt(value)',
     "CSV: int tested before bool, so converged prints as True",
     TC + "test_sweep_csv_columns_and_values"),
    ("src/qdiscord/cli.py", 'if value is None:\n        return ""',
     'if value is None:\n        return "None"',
     "CSV: an absent oracle minimum printed as None",
     TC + "test_sweep_matches_golden_csv[bell_diagonal]"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_B, MEMORY_LIMIT_B))


def _first_failure(tree: Path, tests=()):
    """Run Tier-1, or only `tests`, in `tree`.  Returns None if it
    passes, else the node id of the first failing test ("" if none is
    named, as on a timeout)."""
    env = dict(os.environ, PYTHONPATH="src")
    try:
        run = subprocess.run(TIER1 + list(tests), cwd=tree, env=env,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             preexec_fn=_limit_memory, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ""
    if run.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", run.stdout,
                       re.MULTILINE)
    return failed.group(1) if failed else ""


def main() -> int:
    for path, old, _, reason, _ in MUTANTS:
        if (ROOT / path).read_text().count(old) != 1:
            print(f"stale mutant, old text not found once in {path}: "
                  f"{reason}")
            return 2
    killers = sorted({k for *_, k in MUTANTS if k})
    start_all = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qdiscord-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        if _first_failure(base) is not None:
            print("the unmutated suite fails (run Tier-1 to see why); "
                  "no mutant was run")
            return 2
        if killers and _first_failure(base, killers) is not None:
            print("a recorded killer fails or no longer exists on the "
                  "unmutated tree; no mutant was run")
            return 2
        survivors = []
        for i, (path, old, new, reason, killer) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            failure = _first_failure(tree, [killer]) if killer else None
            if failure is None:
                failure = _first_failure(tree)
                if failure is not None and failure != killer:
                    reason += f" [killed by {failure or 'a timeout'}]"
            shutil.rmtree(tree)
            verdict = "SURVIVED" if failure is None else "killed"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  "
                  f"{path}: {reason}", flush=True)
            if failure is None and not reason.startswith("equivalent:"):
                survivors.append(reason)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} unexplained survivors, "
          f"{time.perf_counter() - start_all:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
