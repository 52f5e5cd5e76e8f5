"""Nonlocal bistable reaction-diffusion on perforated domains.

Solvers and verification experiments for the stationary problem
Lu + f(u) = 0 on R^N minus a compact obstacle, where L is a unit-mass
convolution diffusion operator. The package certifies rigidity of
solutions around convex obstacles, exhibits the exact piecewise
counterexample around an annulus, constructs maximal ball solutions by
monotone iteration, and verifies the comparison, sweeping, and regularity
structure of the discrete operator.
"""

from .errors import NlrdError, NumericalFailure, PreconditionError
from .grid import (
    Field,
    Grid,
    HolderEstimate,
    HolderTable,
    ball_mask,
    field_to_csv,
    holder_quotient,
    make_grid,
)
from .kernels import Kernel, KernelConstants, KernelProfile, build_kernel, kernel_constants, marginal_j1
from .nonlinearity import Bistable, ExtendedNonlinearity, even_potential, make_bistable
from .obstacles import Obstacle, build_obstacle, jmass
from .operators import Problem, apply_L, residual
from .solver import (
    EvolveResult,
    FrontProfile,
    MaximalSolution,
    SubSolution,
    build_subsolution,
    energy,
    evolve,
    front_profile,
    maximal_solution,
    resolvent_solve,
)
from .verify import (
    Check,
    Report,
    bounds_suite,
    comparison_suite,
    counterexample_check,
    counterexample_field,
    liouville_experiment,
    robustness_experiment,
    sliding_radius,
)

__version__ = "0.1.0"
