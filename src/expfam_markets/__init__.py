"""Exponential-family prediction markets.

Securities pay the components of a family's statistic, the market maker's
cost function is the family's log-partition function, share vectors are
natural parameters, and prices are mean parameters.  On top of that core
sit proper log scoring rules for statistic expectations, trader models
(risk-neutral, conjugate-Bayesian, exponential-utility, budget-limited),
a closed-form multi-trader equilibrium with a best-response checker, and a
deterministic simulation harness.
"""

from .equilibrium import (
    BestResponseResult,
    EquilibriumProblem,
    best_response_dynamics,
    closed_form_equilibrium,
    log_utility,
    potential,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CorruptLogError,
    DomainError,
    UnsupportedError,
)
from .families import (
    Categorical,
    ExpFamily,
    ExponentialRate,
    GaussianMoments,
    VonMisesFisher3,
    WeibullMoment,
    family_from_id,
)
from .harness import (
    SimConfig,
    SimReport,
    TradeEvent,
    emit_report,
    replay,
    run_simulation,
)
from .market import Market, TradeRecord, load_state, read_trade_log, save_state
from .scoring import (
    expected_score,
    log_score,
    moments_from_mean_variance,
    score_regret,
)
from .traders import (
    TraderProfile,
    bayesian_market_trade,
    budget_limited_trade,
    certainty_equivalent,
    effective_belief,
    exp_utility_trade,
    expected_profit_bound,
)

__all__ = [
    "BestResponseResult",
    "Categorical",
    "ConfigError",
    "ConvergenceError",
    "CorruptLogError",
    "DomainError",
    "EquilibriumProblem",
    "ExpFamily",
    "ExponentialRate",
    "GaussianMoments",
    "Market",
    "SimConfig",
    "SimReport",
    "TradeEvent",
    "TradeRecord",
    "TraderProfile",
    "UnsupportedError",
    "VonMisesFisher3",
    "WeibullMoment",
    "bayesian_market_trade",
    "best_response_dynamics",
    "budget_limited_trade",
    "certainty_equivalent",
    "closed_form_equilibrium",
    "effective_belief",
    "emit_report",
    "exp_utility_trade",
    "expected_profit_bound",
    "expected_score",
    "family_from_id",
    "load_state",
    "log_score",
    "log_utility",
    "moments_from_mean_variance",
    "potential",
    "read_trade_log",
    "replay",
    "run_simulation",
    "save_state",
    "score_regret",
]

__version__ = "0.1.0"
