"""Learn, compress and continue open-quantum-system dynamics.

Short exact simulations of a small open system are condensed into a
family of transfer tensors; the tensors extrapolate the dynamics far
beyond the simulated window at negligible cost and expose the sampled
memory kernel of the underlying time-convolution equation.
"""

from .analysis import (
    DeviationMeasurement,
    EquilibriumReport,
    OscillationMetrics,
    canonical_state,
    detect_equilibrium,
    noncanonical_angle,
    oscillation_metrics,
)
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    DimensionError,
    DivergenceError,
    InsufficientLearningError,
    NotSettledError,
    NumericalError,
    SchemaError,
    TtmError,
)
from .fileio import (
    load_basis_trajectories,
    load_kernel,
    load_state_trajectory,
    load_tensors,
    save_basis_trajectories,
    save_kernel,
    save_state_trajectory,
    save_tensors,
    write_table,
)
from .generators import (
    gen_dephasing_analytic,
    gen_lindblad,
    gen_unitary,
    lindblad_superop,
)
from .heom import HeomConfig, gen_heom
from .kernels import (
    KernelSequence,
    LiouvillianFit,
    extract_kernel,
    extract_liouvillian,
    kernel_element_series,
    kernel_norms,
    kernel_to_tensors,
)
from .liouville import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_axis,
    bloch_vector,
    choi_matrix,
    devectorize,
    liouvillian_superop,
    spost,
    spre,
    superop_norm,
    unitary_superop,
    validate_state,
    vectorize,
)
from .maps import MapValidationReport, extract_maps, validate_maps
from .models import (
    SpinBosonParams,
    bath_correlation_modes,
    tls_hamiltonian,
)
from .tensors import (
    TransferTensorSequence,
    choose_cutoff,
    maps_to_tensors,
    markovianity_profile,
    propagate,
    stationary_state,
    tensors_to_maps,
    truncation_error,
)
from .trajectories import BasisTrajectorySet, TimeGrid

__version__ = "0.1.0"

__all__ = [
    "BasisTrajectorySet",
    "ConfigurationError",
    "DegenerateStateError",
    "DeviationMeasurement",
    "DimensionError",
    "DivergenceError",
    "EquilibriumReport",
    "HeomConfig",
    "InsufficientLearningError",
    "KernelSequence",
    "LiouvillianFit",
    "MapValidationReport",
    "NotSettledError",
    "NumericalError",
    "OscillationMetrics",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SchemaError",
    "SpinBosonParams",
    "TimeGrid",
    "TransferTensorSequence",
    "TtmError",
    "bath_correlation_modes",
    "bloch_axis",
    "bloch_vector",
    "canonical_state",
    "choi_matrix",
    "choose_cutoff",
    "detect_equilibrium",
    "devectorize",
    "extract_kernel",
    "extract_liouvillian",
    "extract_maps",
    "gen_dephasing_analytic",
    "gen_heom",
    "gen_lindblad",
    "gen_unitary",
    "kernel_element_series",
    "kernel_norms",
    "kernel_to_tensors",
    "lindblad_superop",
    "liouvillian_superop",
    "load_basis_trajectories",
    "load_kernel",
    "load_state_trajectory",
    "load_tensors",
    "maps_to_tensors",
    "markovianity_profile",
    "noncanonical_angle",
    "oscillation_metrics",
    "propagate",
    "save_basis_trajectories",
    "save_kernel",
    "save_state_trajectory",
    "save_tensors",
    "spost",
    "spre",
    "stationary_state",
    "superop_norm",
    "tensors_to_maps",
    "tls_hamiltonian",
    "truncation_error",
    "unitary_superop",
    "validate_maps",
    "validate_state",
    "vectorize",
    "write_table",
]
