"""Discounted optimal control of partially observable piecewise
deterministic Markov processes with a finite post-jump state set."""

from .catalog import build_builtin, particle_steering_model, table_model, velocity_field, velocity_flow
from .filtering import (
    Belief,
    ImpossibleObservationError,
    RegularizationKernel,
    filter_trajectory,
    initial_belief,
    q_tilde,
    q_tilde_sx,
    update,
    update_regularized,
)
from .grid import SimplexGrid, ValueGrid, build_simplex_grid, interpolate, interpolate_batch
from .mdp import (
    ControlFamily,
    L_operator,
    StageContext,
    StageQuadrature,
    T_operator,
    expected_next_value,
    stage_cost_belief,
    stage_cost_g,
    switch_control,
    switching_family,
    transition_mass,
)
from .model import (
    ActionMixture,
    ClosedFormFlow,
    DiscretePolicy,
    IntegrationDivergedError,
    InvalidControlError,
    ModelValidationError,
    NoiseModel,
    PiecewisePolicy,
    PopdmpModel,
    RelaxedControl,
    VectorField,
    big_lambda,
    correspondence_roundtrip,
    discrete_to_piecewise,
    flow,
    flow_path,
    gamma,
    lambda_path,
    mixture_velocity,
    piecewise_to_discrete,
)
from .sim import (
    CrossCheckReport,
    RngStream,
    Trajectory,
    cross_check,
    default_horizon,
    evaluate_policy_mc,
    sample_first_jumps,
    sample_jump,
    simulate_trajectory,
)
from .solver import (
    BellmanSweep,
    GridPolicy,
    SigmaSweepResult,
    SolveReport,
    extract_policy,
    sigma_sweep,
    value_iteration,
    write_report_csv,
    write_value_csv,
)

__version__ = "0.1.0"
