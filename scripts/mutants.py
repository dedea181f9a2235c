"""Mutation check: every mutant in MUTANTS must fail the Tier-1 suite.

For each mutant (file, old text, new text, reason) the script copies what
Tier-1 reads (`src/`, `tests/`, `pyproject.toml` and `README.md`) to a
temporary directory, replaces
the one occurrence of the old text in the file, and runs Tier-1 there
with -x.  A mutant the suite passes has survived.  The script exits 1
if a survivor is not marked equivalent (a reason starting with
"equivalent:" that says why no test can tell it apart), and 2 if the
unmutated suite fails or an old text no longer occurs exactly once.
Standard library only:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
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

MUTANTS = (
    # The conditional-entropy evaluator.
    (M, "d = 0.5 * (dd[0] + signs * dz)", "d = 0.5 * (dd[0] + signs * az)",
     "2x2 batch contraction: the lower diagonal follows the upper's slope"),
    (M, "dz = z1 * dd[1] + z2 * dd[2] + z3 * dd[3]",
     "dz = z1 * dd[1] + z2 * dd[3] + z3 * dd[2]",
     "2x2 scalar contraction: y and z slopes of the lower diagonal swapped"),
    (M, "blocks = 0.5 * (t_id + signs[..., None, None] * zs)",
     "blocks = 0.5 * (t_id - signs[..., None, None] * zs)",
     "m > 2 contraction: outcome blocks swapped against their weights"),
    (M, "p = 0.5 * (tr_id + signs * (directions @ tr_pauli))",
     "p = 0.5 * (tr_id - signs * (directions @ tr_pauli))",
     "m > 2 weights: outcome weights swapped against their blocks"),
    (M, "disc = np.minimum(disc, p)", "disc = disc",
     "2x2 batch: no disc <= p clip, so round-off gives negative entropies"),
    (M, "disc = min(disc, p)", "disc = disc",
     "2x2 scalar: no disc <= p clip, so round-off gives negative entropies"),
    (M, "if p < PROB_FLOOR:", "if p < 1e-6:",
     "2x2 scalar: outcomes of weight below 1e-6 dropped"),
    (L, "kept = p >= PROB_FLOOR", "kept = p >= 1e-6",
     "batch: outcomes of weight below 1e-6 dropped"),
    (L, "lam = np.where(lam > 0.0, lam, p)",
     "lam = np.where(lam >= 0.0, lam, p)",
     "spectral entropy: a zero eigenvalue's 0 log 0 taken as 0 * -inf"),
    (M, "if need > SCAN_MEMORY_BUDGET:", "if need >= SCAN_MEMORY_BUDGET:",
     "scan budget: a batch of exactly the budget refused"),
    (M, "need = len(directions) * m * m * 80",
     "need = len(directions) * m * 80",
     "scan budget: memory charged as m, not m**2"),
    (M, "-math.sin(half) * math.cos(phi), 0.0)",
     "math.sin(half) * math.cos(phi), 0.0)",
     "from_bloch: the measurement's y2 sign flipped"),
    # The grid oracle and Nelder-Mead.
    (O, "    values = cost_of_directions(directions)\n"
        "    k = int(np.argmin(values))",
        "    values = cost_of_directions(directions)\n"
        "    k = len(values) - 1 - int(np.argmin(values[::-1]))",
     "grid_oracle: ties go to the last grid point, not the first"),
    (O, "wu, wphi = 2.0 / resolution,", "wu, wphi = 1.0 / resolution,",
     "grid_oracle: refinement cells half as tall as grid cells"),
    (O, "uc = u0 + di * wu / 3.0", "uc = u0 + di * wu / 2.0",
     "grid_oracle: refinement steps in u too wide"),
    (O, "if values[k] < best_val:", "if values[k] <= best_val:",
     "grid_oracle: a refinement tie replaces the grid point"),
    (O, "xe = tuple(c + 2.0 * (c - w)", "xe = tuple(c + 3.0 * (c - w)",
     "Nelder-Mead expansion coefficient 3, not 2"),
    (O, "xc = tuple(c + 0.5 * (t - c)", "xc = tuple(c + 0.25 * (t - c)",
     "Nelder-Mead contraction coefficient 1/4, not 1/2"),
    (O, "tuple(b + 0.5 * (a - b)", "tuple(b + 0.75 * (a - b)",
     "Nelder-Mead shrink coefficient 3/4, not 1/2"),
    (O, "if best is None or res.best_value < best.best_value:",
     "if best is None or res.best_value <= best.best_value:",
     "multi_start: ties go to the last start, not the earliest"),
    # Tolerances and clamps.
    ("src/qdiscord/correlations.py", "NEGATIVE_CLAMP = 1e-9",
     "NEGATIVE_CLAMP = 1e-6", "a C or QD of -5e-7 reported as 0"),
    (L, "PSD_TOL = 1e-8", "PSD_TOL = 1e-4",
     "von_neumann_entropy accepts an eigenvalue of -1e-6"),
    (L, "if vals[0] < -PSD_TOL:", "if vals[-1] < -PSD_TOL:",
     "von_neumann_entropy checks the largest eigenvalue, not the smallest"),
    (L, "if not 0 < tol < 1:",
     "if not 0 < tol <= 1:",
     "an input tolerance of 1 lets a zero-trace matrix through"),
    ("src/qdiscord/states.py", "lam = np.clip(lam, 0.0, None)",
     "lam = np.clip(lam, -1.0, None)",
     "load_state keeps negative eigenvalues within tolerance"),
    ("src/qdiscord/states.py", "if not np.isfinite(omega).all():",
     "if not np.isfinite(omega).any():",
     "bell_diagonal builds a matrix from a partly non-finite omega"),
    # The command line.
    ("src/qdiscord/cli.py", "for k in range(MAX_SWEEP_ROWS + 1):",
     "for k in range(MAX_SWEEP_ROWS + 2):",
     "sweep cap: one row past the cap admitted"),
    ("src/qdiscord/cli.py", "last = end + 1e-12", "last = end",
     "sweep: no round-off slack for the final row"),
    ("src/qdiscord/cli.py", "ok = type(value) in types",
     "ok = isinstance(value, types)",
     "config files: true accepted as an integer"),
    ("src/qdiscord/cli.py",
     '    if isinstance(value, bool):  # before int: a bool is an int\n'
     '        return "true" if value else "false"\n'
     '    return str(value) if isinstance(value, int) else _fmt(value)',
     '    if isinstance(value, int):\n'
     '        return str(value)\n'
     '    return ("true" if value else "false") if isinstance(value, bool) '
     'else _fmt(value)',
     "CSV: int tested before bool, so converged prints as True"),
    ("src/qdiscord/cli.py", 'if value is None:\n        return ""',
     'if value is None:\n        return "None"',
     "CSV: an absent oracle minimum printed as None"),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_B, MEMORY_LIMIT_B))


def _suite_passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH="src")
    try:
        return subprocess.run(TIER1, cwd=tree, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory,
                              timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    for path, old, _, reason in MUTANTS:
        if (ROOT / path).read_text().count(old) != 1:
            print(f"stale mutant, old text not found once in {path}: "
                  f"{reason}")
            return 2
    with tempfile.TemporaryDirectory(prefix="qdiscord-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        if not _suite_passes(base):
            print("the unmutated suite fails (run Tier-1 to see why); "
                  "no mutant was run")
            return 2
        survivors = []
        for i, (path, old, new, reason) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            survived = _suite_passes(tree)
            shutil.rmtree(tree)
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  "
                  f"{path}: {reason}", flush=True)
            if survived and not reason.startswith("equivalent:"):
                survivors.append(reason)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} unexplained survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
