"""Statevector simulation and benchmarking of quantum variational algorithms
for optimisation of discretised continuous multivariable functions."""

from .analysis import (
    MetricsRecord,
    ScalingFit,
    fit_scaling,
    max_amplification,
    mean_error,
    metrics_for_state,
    rdgs_amplification,
    rdgs_probability,
    statistical_distance,
)
from .ansatz import (
    Algorithm,
    AnsatzSpec,
    ParameterVector,
    Propagator,
    apply_ansatz,
    objective_value,
)
from .engine import (
    DepthResult,
    NelderMeadResult,
    OptimiserOptions,
    RepeatResult,
    depth_sweep,
    nelder_mead,
    optimise_at_depth,
)
from .functions import FUNCTIONS, TestFunction, evaluate_test_function, get_function
from .grid import (
    GridError,
    ObjectiveTable,
    SolutionGrid,
    build_objective,
    coords_to_index,
    index_to_coords,
    make_grid,
)
from .hybrid import (
    BaselineResult,
    HybridAccounting,
    HybridRunResult,
    classical_baseline,
    hybrid_optimise,
    speedup,
)
from .mixers import (
    CirculantGraph,
    MomentumGrid,
    circulant_eigenvalues,
    hypercube_mixer,
    phase_shift,
    qaoa_complete_mixer,
    qmoa_mixer,
    qowe_mixer,
)
from .states import (
    StateVector,
    WavepacketSpec,
    equal_superposition,
    expectation,
    gaussian_wavepacket,
    grid_superposition,
    sample,
)

__version__ = "0.1.0"
