"""Indirect descent solver for optimal control of nonlocal transport on the circle.

The package couples a pseudospectral forward solver for the controlled
continuity equation, a backward solver for the adjoint balance law, and a
maximum-condition descent loop with backtracking, validated against
particle, finite-difference, and closed-form oracles.
"""

from .adjoint import CoTrajectory, integrate_backward, rhs_adjoint, terminal_adjoint
from .descent import (
    DescentConfig,
    DescentResult,
    IterationRecord,
    backtracking_step,
    non_extremality,
    run_descent,
    switching_function,
    target_control,
)
from .errors import ConfigError, DivergenceError
from .forward import (
    cost_of_control,
    density_min,
    integrate_forward,
    rhs_continuity,
)
from .models import (
    AdmissibleSet,
    CostSpec,
    ModelSpec,
    ball,
    box,
    kuramoto_model,
)
from .particles import (
    ParticleEnsemble,
    particle_cost,
    simulate_particles,
    stratified_ensemble,
)
from .presets import fig1_control, fig1_density
from .timegrid import ControlSignal, TimeGrid, Trajectory, constant_control, sampled_control

__version__ = "0.1.0"
