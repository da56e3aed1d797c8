"""Coarse-graining toolkit for overdamped Langevin dynamics on a 2D benchmark:
full-model integration, memory-kernel estimation via orthogonal dynamics,
closed-form kernel asymptotics, reduced effective models, and a CSV-producing
experiment CLI."""

from .benchmark import (
    BenchmarkParams,
    conditional_y_sample,
    effective_potential_grad,
    grad_potential,
    orthogonal_drift,
    potential,
)
from .geometry import (
    CGMap,
    DimensionMismatchError,
    RankDeficientError,
    build_cg_map,
    decompose,
    reconstruct,
)
from .kernel import (
    KernelEstimate,
    approx_kernel,
    approx_kernel_div,
    default_lag_grid,
    empirical_kernel,
    empirical_kernel_matrix,
    fit_decay_rate,
    kernel_decay_rate,
    memory_integral_closed_form,
    orthogonal_trajectory,
)
from .models import (
    MEMORY_CORRECTED,
    MEMORY_FREE,
    MODEL_KINDS,
    NAIVE_MEMORY,
    EffectiveModel,
    UnsupportedModelError,
    diffusion,
    drift,
    thermostatted_coefficients,
)
from .sde import (
    IntegratorConfig,
    NoiseStream,
    NumericalBlowupError,
    Trajectory,
    simulate_full,
    simulate_scalar,
)

__version__ = "0.1.0"
