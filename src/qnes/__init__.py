"""Natural evolution strategies for parameterized quantum circuits.

Library + CLI for optimizing randomly initialized circuits with the separable
and exponential (full-covariance) natural evolution strategies on an exact
statevector simulator; includes parameter-shift gradients, a gradient-descent
baseline, batch optimization for deep circuits, and experiment presets.
"""

__version__ = "0.1.0"

from .ansatz import (
    AnsatzSpec,
    CircuitTemplate,
    build_alpqc,
    build_rpqc,
    template_to_text,
)
from .batching import BatchSchedule, PartitionStrategy, batch_optimize, make_partition
from .gradients import (
    GdConfig,
    VarianceScanConfig,
    gradient_descent,
    hybrid_optimize,
    loss_functions,
    parameter_shift_expectation_gradient,
    surrogate_gradient_variance_scan,
)
from .hamiltonian import exact_ground_energy, load_pauli_file, parse_pauli_file
from .nes import (
    FullDistribution,
    NesConfig,
    SeparableDistribution,
    compute_utilities,
    default_learning_rates,
    optimize,
)
from .numerics import SeededRng, matrix_exponential_symmetric
from .simulator import (
    Gate,
    PauliSum,
    vacuum_projector_expectation,
)
from .trace import GradientSnapshot, RunTrace
