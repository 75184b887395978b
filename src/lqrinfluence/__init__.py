"""Trajectory influence scores for certainty-equivalent stochastic LQR.

Fit a ridge least-squares model [A B] from trajectory data, solve the
discrete-time Riccati equation for the plug-in controller, and score how the
controller's stationary cost Tr(P W) would shift if any single training
trajectory were removed — without ever refitting.  Exact leave-one-out
machinery validates the scores, and four simulated benchmarks (DC motor,
mass-spring-damper, UAV hover, UAV mission) probe them from clean linear data
to heavy model mismatch.
"""

from .bench import (
    GenerationConfig,
    SystemSpec,
    dc_motor_spec,
    generate_dataset,
    generate_heldout,
    heldout_prediction_scores,
    msd_spec,
    prediction_loss,
    residual_lag1_autocorr,
    simulate_uav,
    system_spec,
    uav_hover_spec,
    uav_mission_spec,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    DominantTrajectory,
    InvalidConfig,
    LqrInfluenceError,
    NoConvergence,
    NoStabilizingSolution,
    NotPositiveDefinite,
    SingleTrajectory,
    UnstableClosedLoop,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    load_config,
    parse_config,
    run_experiment,
    spearman,
    topk_jaccard,
    write_outputs,
)
from .influence import (
    DecompositionDiagnostics,
    LotoRecord,
    ScoreTable,
    build_score_table,
    decomposition_diagnostics,
    direct_trace_term,
    exact_loto_cost_shift,
    exact_loto_sweep,
    fixed_score,
    modular_error_bound,
    score_all,
    stochastic_score,
)
from .linalg import (
    cg_solve,
    cholesky_factor,
    dare_residual,
    solve_dare,
    solve_dlyap,
    solve_spd,
    spectral_radius,
    symmetrize,
)
from .lqr import (
    RiccatiArtifacts,
    gain_and_closed_loop,
    plug_in_cost,
    residual_channel_gradient,
    riccati_artifacts,
    riccati_gradient,
    stationary_cost_check,
)
from .sysid import (
    ModelFit,
    TrajectoryDataset,
    Transition,
    build_regressor,
    eta,
    fit_ridge,
    load_dataset,
    loto_refit,
    model_influence,
    save_dataset,
    stationarity_residual,
    theta_to_ab,
    trajectory_gradient,
)

__version__ = "0.1.0"
