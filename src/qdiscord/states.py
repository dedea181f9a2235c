"""Built-in state families, vectorization and the JSON state format.

States are carried as a DensityMatrix: a bipartite dimension tag plus
the dense matrix.  Construction here does not validate; the built-in
families are valid by construction and externally loaded matrices are
checked explicitly through `load_state` / `is_density_matrix`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, hermitian_eig, is_density_matrix, partial_trace

KET_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
KET_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)

@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix with subsystem dimension tags."""

    dims: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        m, n = self.dims
        if self.matrix.shape != (m * n, m * n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dims {self.dims}"
            )

    def validity(self, tol: float = 1e-9):
        return is_density_matrix(self.matrix, tol)

    def marginal(self, keep: str) -> np.ndarray:
        return partial_trace(self.matrix, keep, self.dims)


def werner(a: float) -> DensityMatrix:
    """Mixture of the singlet with the maximally mixed state, weight a."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter {a} outside [0,1]")
    singlet = np.outer(KET_PSI_MINUS, KET_PSI_MINUS.conj())
    rho = a * singlet + (1.0 - a) * np.eye(4) / 4.0
    return DensityMatrix((2, 2), rho.astype(complex))


def mixed_bell_family(a: float) -> DensityMatrix:
    """Rank-3 mixture of |00>, the Bell state |psi+>, and |11>.

    rho(a) = (1/3) [ (1-a)|00><00| + 2|psi+><psi+| + a|11><11| ],
    0 < a <= 1.  The factor 2 on the Bell projector keeps the trace at 1
    (equivalently the Bell ket enters unnormalized).
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"mixing parameter {a} outside (0,1]")
    k00 = np.zeros(4)
    k00[0] = 1.0
    k11 = np.zeros(4)
    k11[3] = 1.0
    rho = ((1.0 - a) * np.outer(k00, k00)
           + 2.0 * np.outer(KET_PSI_PLUS, KET_PSI_PLUS)
           + a * np.outer(k11, k11)) / 3.0
    return DensityMatrix((2, 2), rho.astype(complex))


def bell_diagonal(omega) -> DensityMatrix:
    """(1/4)(I + sum_j w_j s_j x s_j); rejects parameter triples that
    produce a negative eigenvalue."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise ValueError("omega must be a real 3-vector")
    rho = np.eye(4, dtype=complex)
    for w, s in zip(omega, PAULIS):
        rho += w * np.kron(s, s)
    rho /= 4.0
    lam, _ = hermitian_eig(rho)
    if lam[0] < -1e-9:
        raise ValueError(
            f"omega {tuple(omega.tolist())} gives negative eigenvalue {lam[0]}"
        )
    return DensityMatrix((2, 2), rho)


# Fixed 4x4 benchmark state (entries quoted to three significant digits,
# hence the symmetrize-and-renormalize repair below).
_FIXED_RANDOM_ENTRIES = [
    [0.437, 0.126 + 0.197j, 0.0271 - 0.0258j, -0.247 + 0.0997j],
    [0.126 - 0.197j, 0.154, -0.0115 - 0.0187j, -0.0315 + 0.170j],
    [0.0271 + 0.0258j, -0.0115 + 0.0187j, 0.0370, 0.00219 - 0.0367j],
    [-0.247 - 0.0997j, -0.0315 - 0.170j, 0.00219 + 0.0367j, 0.372],
]


def fixed_random_state() -> DensityMatrix:
    """A fixed mixed two-qubit benchmark state.

    The raw entries are only three significant digits, so the matrix is
    symmetrized and trace-normalized; construction aborts if the result
    is still far from positive semidefinite.
    """
    raw = np.array(_FIXED_RANDOM_ENTRIES, dtype=complex)
    sym = 0.5 * (raw + raw.conj().T)
    rho = sym / np.trace(sym).real
    lam, _ = hermitian_eig(rho)
    if lam[0] < -1e-3:
        raise ValueError("benchmark state irreparably non-positive")
    return DensityMatrix((2, 2), rho)


@dataclass(frozen=True)
class VectorizedState:
    """Row-major flattening of a matrix, scaled to a unit vector.

    `normalization` keeps the original Frobenius norm so the matrix can
    be recovered exactly.
    """

    dims: tuple[int, int]
    amplitudes: np.ndarray
    normalization: float


def vectorize(rho: DensityMatrix) -> VectorizedState:
    flat = np.asarray(rho.matrix, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise ValueError("cannot vectorize the zero matrix")
    return VectorizedState(rho.dims, flat / norm, norm)


def devectorize(v: VectorizedState) -> np.ndarray:
    """Inverse of vectorize; returns the dense matrix."""
    m, n = v.dims
    d = m * n
    if v.amplitudes.shape != (d * d,):
        raise ValueError(
            f"amplitude length {v.amplitudes.shape} does not match dims {v.dims}"
        )
    return (v.amplitudes * v.normalization).reshape(d, d)


def to_json_dict(rho: DensityMatrix) -> dict:
    m = np.asarray(rho.matrix)
    return {
        "dims": list(rho.dims),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w") as f:
        json.dump(to_json_dict(rho), f, indent=1)
        f.write("\n")


def read_state(path) -> DensityMatrix:
    """Parse the JSON density-matrix format without checking validity.

    Raises ValueError if the file cannot be read or parsed, if its
    blocks do not match its dims, or if B is not a qubit.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc
    try:
        m, n = (int(x) for x in data["dims"])
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state file: {exc}") from exc
    if re.shape != (m * n, m * n) or im.shape != re.shape:
        raise ValueError(
            f"matrix blocks {re.shape}/{im.shape} do not match dims ({m},{n})"
        )
    if n != 2:
        raise ValueError("measurement acts on a 2-dimensional subsystem B")
    return DensityMatrix((m, n), re + 1j * im)


def load_state(path, tol: float = 1e-6) -> DensityMatrix:
    """Load the JSON density-matrix format, validate it and repair it.

    Raises ValueError naming the defect if the matrix fails Hermiticity,
    trace or positivity checks at `tol`.  An accepted matrix is replaced
    by its projection onto the density matrices: the Hermitian part with
    negative eigenvalues clipped to zero and the trace renormalized to
    one, so defects within `tol` never reach the entropy routines.
    """
    rho = read_state(path)
    report = rho.validity(tol)
    if not report.valid:
        raise ValueError(f"not a density matrix: {report.describe()}")
    lam, v = hermitian_eig(0.5 * (rho.matrix + rho.matrix.conj().T))
    lam = np.clip(lam, 0.0, None)
    return DensityMatrix(rho.dims, (v * (lam / lam.sum())) @ v.conj().T)
