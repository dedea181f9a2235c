"""Classical correlation and quantum discord of bipartite quantum states.

The package optimizes parameterized von Neumann measurements on
subsystem B to minimize the measurement-conditioned entropy, from which
classical correlation and quantum discord follow.  See the README for
the CLI and the acceptance suite.

`__all__` is the surface the README documents.  Internals stay
importable from their modules.
"""

from .correlations import (CorrelationReport, mutual_information,
                           quantum_discord)
from .linalg import (binary_entropy, is_density_matrix, partial_trace,
                     von_neumann_entropy)
from .measurement import (VonNeumannMeasurement, conditional_entropy_fn,
                          from_bloch)
from .optimizer import OptimizerConfig, grid_oracle
from .states import (DensityMatrix, bell_diagonal, fixed_random_state,
                     load_state, mixed_bell_family, save_state, werner)

__all__ = [
    "CorrelationReport", "OptimizerConfig", "quantum_discord",
    "mutual_information",
    "DensityMatrix", "werner", "mixed_bell_family", "bell_diagonal",
    "fixed_random_state", "load_state", "save_state",
    "VonNeumannMeasurement", "from_bloch", "conditional_entropy_fn",
    "grid_oracle",
    "von_neumann_entropy", "binary_entropy", "partial_trace",
    "is_density_matrix",
]

__version__ = "0.1.0"
