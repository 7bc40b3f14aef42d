"""Kernel policy iteration for finite-horizon team control of multi-vehicle systems."""

from .costs import (
    CollisionSpec,
    CostSpec,
    CostToGoTable,
    StateCost,
    TailEvaluator,
    collision_penalty,
    evaluate_cost_to_go,
    stage_cost,
    terminal_cost,
)
from .dynamics import (
    DivergenceError,
    LinearSystem,
    TrajectoryBatch,
    assemble_team_system,
    discretize_double_integrator,
    rollout,
    step,
)
from .kernels import (
    Dictionary,
    KernelPolicy,
    KernelSpec,
    StagePolicy,
    cross_gram,
    eval_policy,
    eval_policy_batch,
    gram_matrix,
    median_length_scale,
)
from .offline import (
    IterationRecord,
    PolicyIterationDiverged,
    SingularGramError,
    SolverConfig,
    StageSolver,
    StageUpdateResult,
    complexity_probe,
    discrete_frechet_derivative,
    policy_iteration,
    run_policy_iteration,
    solve_implicit_update,
)
from .online import (
    OnlineConfig,
    OnlineLog,
    excitation_input,
    plan_window,
    run_online,
    shift_warm_start,
)
from .riccati import RiccatiSolution, lqr_cost, riccati_backward
from .rls import PeResult, RlsState, estimate, pe_check, rls_init, rls_update
from .intersection import (
    Scenario,
    ScenarioConfig,
    build_intersection,
    min_pairwise_distance,
    pairwise_distances,
    positions_from_states,
    sample_initial_states,
)
from .config import ConfigError, RunConfig, config_from_mapping, dump_config, load_config

__version__ = "0.1.0"
