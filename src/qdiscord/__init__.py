"""Classical correlation and quantum discord of bipartite quantum states.

The package optimizes parameterized von Neumann measurements on
subsystem B to minimize the measurement-conditioned entropy, from which
classical correlation and quantum discord follow.  See the README for
the CLI and the acceptance suite.
"""

from .correlations import (CorrelationReport, mutual_information,
                           quantum_discord)
from .linalg import (binary_entropy, hermitian_eig, is_density_matrix,
                     partial_trace, von_neumann_entropy)
from .measurement import (VonNeumannMeasurement, analytic_gradient_bell,
                          bell_conditional_entropy, bloch_of_angles,
                          conditional_entropy, conditional_entropy_fn,
                          from_angles, from_bloch, projectors)
from .optimizer import (OptimizationResult, OptimizerConfig,
                        finite_diff_gradient, gradient_descent, grid_oracle,
                        multi_start, nelder_mead)
from .states import (DensityMatrix, VectorizedState, bell_diagonal,
                     devectorize, fixed_random_state, load_state,
                     mixed_bell_family, save_state, vectorize, werner)
from .su_basis import SuDecomposition, decompose, generators, reconstruct

__version__ = "0.1.0"
