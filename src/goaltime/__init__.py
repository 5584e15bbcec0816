"""Bayesian predictive densities for hockey scoring times.

Models the waiting time until a team's r-th goal as a gamma law and builds
two predictive densities for a future game from observed game logs: one
from the team's own record, and an improved one that also exploits a rival
team's record through the prior knowledge that the stronger team's scale
dominates.  Evaluation utilities measure both by Kullback-Leibler loss,
Monte Carlo frequentist risk, and prediction error against a reference
season.
"""

from .distributions import (
    DensitySummary,
    GammaModel,
    TruncatedDensity,
    gamma_pdf,
    summarize,
    truncate,
)
from .errors import (
    ConvergenceError,
    DegenerateWindowError,
    DivergenceError,
    DomainError,
    EmptySelectionError,
    GameLogError,
    GoaltimeError,
    InvalidShapeError,
    MonteCarloError,
)
from .evaluation import (
    RiskCurve,
    RiskEstimate,
    ShapeConfig,
    frequentist_risk,
    prediction_error,
    risk_curve,
)
from .ingest import (
    GameRecord,
    SeasonPoints,
    canadiens_fixture_path,
    parse_game_log,
    parse_points,
    points_fixture_path,
    reduce_to_stat,
    toronto_fixture_path,
)
from .predictive import (
    PredictionProblem,
    SufficientStat,
    SummaryRow,
    predictive_summaries,
    restricted_predictive,
    unrestricted_predictive,
)
__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateWindowError",
    "DensitySummary",
    "DivergenceError",
    "DomainError",
    "EmptySelectionError",
    "GameLogError",
    "GameRecord",
    "GammaModel",
    "GoaltimeError",
    "InvalidShapeError",
    "MonteCarloError",
    "PredictionProblem",
    "RiskCurve",
    "RiskEstimate",
    "SeasonPoints",
    "ShapeConfig",
    "SufficientStat",
    "SummaryRow",
    "TruncatedDensity",
    "canadiens_fixture_path",
    "frequentist_risk",
    "gamma_pdf",
    "parse_game_log",
    "parse_points",
    "points_fixture_path",
    "prediction_error",
    "predictive_summaries",
    "reduce_to_stat",
    "restricted_predictive",
    "risk_curve",
    "summarize",
    "toronto_fixture_path",
    "truncate",
    "unrestricted_predictive",
]
