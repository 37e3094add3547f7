"""Exponential-family prediction markets.

Securities pay the components of a family's statistic, the market maker's
cost function is the family's log-partition function, share vectors are
natural parameters, and prices are mean parameters.  On top of that core
sit proper log scoring rules for statistic expectations, trader models
(risk-neutral, conjugate-Bayesian, exponential-utility, budget-limited),
a closed-form multi-trader equilibrium with a best-response checker, and a
deterministic simulation harness.
"""

from importlib import import_module

_EXPORTS = {
    "equilibrium": ("BestResponseResult", "EquilibriumProblem", "best_response_dynamics",
                    "closed_form_equilibrium", "log_utility", "potential"),
    "errors": ("ConfigError", "ConvergenceError", "CorruptLogError", "DomainError"),
    "families": ("Categorical", "ExpFamily", "ExponentialRate", "GaussianMoments", "VonMisesFisher3",
                 "WeibullMoment", "family_from_id"),
    "harness": ("SimConfig", "SimReport", "TradeEvent", "emit_report", "replay", "run_simulation"),
    "market": ("Market", "TradeLog", "TradeRecord", "load_state", "read_trade_log", "save_state"),
    "scoring": ("expected_score", "log_score", "moments_from_mean_variance", "score_regret"),
    "traders": ("TraderProfile", "bayesian_market_trade", "budget_limited_trade", "certainty_equivalent",
                "effective_belief", "exp_utility_trade", "expected_profit_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's module on first use (PEP 562), so ``import expfam_markets`` stays cheap."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
