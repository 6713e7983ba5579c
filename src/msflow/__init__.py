"""Two-scale multiscale FEM solver for nonlinear compressible Darcy flow."""

from .coarse import CoarseResult, solve_gmsfem
from .fem import (
    NewtonConfig,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    linear_solve,
    newton_jacobian,
    newton_residual,
    solve_fine,
)
from .grid import build_two_scale_mesh
from .harness import (
    ExperimentConfig,
    relative_h1_error,
    relative_l2_error,
    run_experiment,
    sweep,
)
from .model import (
    FluidProps,
    PermeabilityField,
    TimeGrid,
    density,
    generate_channel_field,
    load_field_from_file,
    make_problem,
)
from .offline import build_offline_space, build_offline_spaces
from .online import UpdateSchedule, enrich_projection

__all__ = [
    "CoarseResult",
    "ExperimentConfig",
    "FluidProps",
    "NewtonConfig",
    "PermeabilityField",
    "TimeGrid",
    "UpdateSchedule",
    "assemble_weighted_mass",
    "assemble_weighted_stiffness",
    "build_offline_space",
    "build_offline_spaces",
    "build_two_scale_mesh",
    "density",
    "enrich_projection",
    "generate_channel_field",
    "linear_solve",
    "load_field_from_file",
    "make_problem",
    "newton_jacobian",
    "newton_residual",
    "relative_h1_error",
    "relative_l2_error",
    "run_experiment",
    "solve_fine",
    "solve_gmsfem",
    "sweep",
]

__version__ = "0.1.0"
