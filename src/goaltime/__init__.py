"""Bayesian predictive densities for hockey scoring times.

Models the waiting time until a team's r-th goal as a gamma law and builds
two predictive densities for a future game from observed game logs: one
from the team's own record, and an improved one that also exploits a rival
team's record through the prior knowledge that the stronger team's scale
dominates.  Evaluation utilities measure both by Kullback-Leibler loss,
Monte Carlo frequentist risk, and prediction error against a reference
season.

The public names are loaded lazily (PEP 562): ``import goaltime`` runs no
submodule, and each name in ``__all__``, or a submodule such as
``goaltime.evaluation``, is imported on first access.  So a process loads
only the modules it uses: a CLI command that draws no risk never loads the
risk engine.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "DensitySummary": "distributions",
    "GammaModel": "distributions",
    "TruncatedDensity": "distributions",
    "gamma_pdf": "distributions",
    "summarize": "distributions",
    "truncate": "distributions",
    "ConvergenceError": "errors",
    "DegenerateWindowError": "errors",
    "DivergenceError": "errors",
    "DomainError": "errors",
    "EmptySelectionError": "errors",
    "GameLogError": "errors",
    "GoaltimeError": "errors",
    "InvalidShapeError": "errors",
    "MonteCarloError": "errors",
    "RiskCurve": "evaluation",
    "RiskEstimate": "evaluation",
    "ShapeConfig": "evaluation",
    "frequentist_risk": "evaluation",
    "prediction_error": "evaluation",
    "risk_curve": "evaluation",
    "GameRecord": "ingest",
    "SeasonPoints": "ingest",
    "canadiens_fixture_path": "ingest",
    "parse_game_log": "ingest",
    "parse_points": "ingest",
    "points_fixture_path": "ingest",
    "reduce_to_stat": "ingest",
    "toronto_fixture_path": "ingest",
    "PredictionProblem": "predictive",
    "SufficientStat": "predictive",
    "SummaryRow": "predictive",
    "predictive_summaries": "predictive",
    "restricted_predictive": "predictive",
    "unrestricted_predictive": "predictive",
}
_SUBMODULES = ("cli", "distributions", "errors", "evaluation", "ingest", "predictive", "specfun")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule as a package attribute itself
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
