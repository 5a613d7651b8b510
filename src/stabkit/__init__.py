"""stabkit: closed-loop simulation and analytic stability bounds for LTI
plants controlled by the reverse-time denoising dynamics of a score-based
policy, plus a variance-based dataset-quality metric."""

from .coupled_sim import (
    ComparisonReport,
    CouplingConfig,
    CouplingMode,
    EmpiricalVerdict,
    Trajectory,
    classify_empirical,
    full_vs_partial_compare,
    simulate,
    trajectory_to_csv,
)
from .dataset_quality import (
    DemonstrationSet,
    QualityReport,
    estimate_covariance,
    estimate_gain,
    generate_demonstrations,
    load_demonstrations,
    quality_report,
)
from .diffusion_controller import (
    DiffusionParams,
    RngStream,
    default_inner_dt,
    denoise_step,
    full_denoise,
    score,
)
from .plant import ExpertPolicy, PlantModel, expert_action, plant_derivative
from .stability_analyzer import (
    AxisSpec,
    EffectiveGain,
    StabilityVerdict,
    SweepGrid,
    analytic_1d,
    analytic_ndim,
    analytic_verdict,
    augmented_matrix,
    classify_table_row,
    second_order_coefficients,
    sweep_region,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSpec",
    "ComparisonReport",
    "CouplingConfig",
    "CouplingMode",
    "DemonstrationSet",
    "DiffusionParams",
    "EffectiveGain",
    "EmpiricalVerdict",
    "ExpertPolicy",
    "PlantModel",
    "QualityReport",
    "RngStream",
    "StabilityVerdict",
    "SweepGrid",
    "Trajectory",
    "analytic_1d",
    "analytic_ndim",
    "analytic_verdict",
    "augmented_matrix",
    "classify_empirical",
    "classify_table_row",
    "default_inner_dt",
    "denoise_step",
    "estimate_covariance",
    "estimate_gain",
    "expert_action",
    "full_denoise",
    "full_vs_partial_compare",
    "generate_demonstrations",
    "load_demonstrations",
    "plant_derivative",
    "quality_report",
    "score",
    "second_order_coefficients",
    "simulate",
    "sweep_region",
    "trajectory_to_csv",
]
