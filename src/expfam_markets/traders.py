"""Trader behavior models against the cost-function market.

Four behaviors are covered, all stated as the portfolio ``delta`` a trader
buys given the market state and its own profile:

* risk-neutral -- the exponential-utility trade at ``a = 0``: buy until
  prices equal the belief mean, i.e. move the (liquidity-scaled) share
  vector to the belief's natural parameter;
* conjugate-Bayesian -- treat current prices as a phantom sample whose size
  is the posted trade count, form the posterior mean with one's own sample,
  and trade risk-neutrally to it;
* exponential-utility -- with risk aversion ``a``, the optimal trade moves
  the share vector to a convex combination of the belief and the current
  state (``(belief + a*theta) / (1+a)`` at unit liquidity); holdings shift
  the effective belief by ``-a * holdings`` on re-entry;
* budget-limited -- scale the desired move by the largest affordable
  fraction ``f = min(1, budget / move_cost)``; convexity of the cost keeps
  the quoted cost of the scaled move within budget.

A trader whose final state is a convex combination ``theta' = f*target +
(1-f)*theta`` of the state and its belief expects (under that belief) a
profit of ``D(theta, belief) - D(theta', belief) >= f * D(theta, belief)``
where ``D`` is the Bregman divergence of the cost function -- informative
traders grow their budgets in expectation, while a trader's cumulative
round-by-round impact on the market's log loss telescopes to its budget
change and is therefore bounded below by the budget it started with.

For the categorical family the indicator statistic is non-minimal: adding
``c`` to every component of a target changes neither the distribution nor
any Bregman divergence, but it does change the sign pattern of the trade.
Budget-limited trades therefore shift categorical targets so the trade is a
pure purchase (componentwise nonnegative with a zero minimum).  A pure
purchase costs at least zero, pays at least zero, and -- combined with the
cost cap -- keeps the trader's budget from ever falling below zero, which
is what makes the budget a hard ceiling on the damage an ill-informed
trader can do.

Profiles are plain data owned by the simulation driver; every function here
is pure given (market, profile) snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import DomainError
from .families import Categorical, ExpFamily, as_params
from .market import Market


@dataclass
class TraderProfile:
    """A trader's behavior model, belief, risk posture, and running account.

    A ``bayesian`` trader has no ``belief_theta``; it trades on the mean
    ``sample_mean`` of its ``sample_size`` points.  ``budget=None`` means
    unlimited.  ``holdings`` accumulates unsettled purchases (used to form
    the effective belief on market re-entry); ``cash`` is the cumulative
    net cash flow from trades and settlements.
    """

    id: str
    belief_theta: np.ndarray | None
    risk_aversion: float = 0.0
    budget: float | None = None
    holdings: np.ndarray | None = None
    cash: float = 0.0
    model: str = "exp-utility"
    sample_mean: np.ndarray | None = None
    sample_size: float = 1.0

    def __post_init__(self):
        if self.belief_theta is not None:
            self.belief_theta = np.atleast_1d(np.asarray(self.belief_theta, dtype=float))
        if not self.risk_aversion >= 0.0:
            raise DomainError(f"risk_aversion must be nonnegative, got {self.risk_aversion}")
        if self.budget is not None and not self.budget >= 0.0:
            raise DomainError(f"budget must be nonnegative, got {self.budget}")
        if self.holdings is not None:
            self.holdings = np.atleast_1d(np.asarray(self.holdings, dtype=float))
        elif self.belief_theta is not None:
            self.holdings = np.zeros_like(self.belief_theta)


def bayesian_market_trade(market: Market, sample_mean, sample_size: float) -> np.ndarray:
    """Trade of a conjugate-prior trader who reads prices as a phantom sample.

    With ``n`` prior trades posted, each of the trader's own sample size
    ``m``, the prior is (prices, n*m) and the posterior mean is the
    count-weighted average ``(n*m * prices + m * sample_mean) / (n*m + m)``;
    the trader moves prices there (the exponential-utility move at zero
    risk aversion).  The first trader (``n == 0``) moves prices to its own
    sample mean.  Sample means may lie on the boundary of the realizable
    set; the posterior must be interior (it always is once ``n >= 1``).
    """
    if market.inv_liquidity != 1.0:
        raise DomainError("bayesian_market_trade requires inv_liquidity == 1")
    if not float(sample_size) > 0.0:
        raise DomainError(f"sample_size must be positive, got {sample_size}")
    fam = market.family
    mu_hat = fam.check_mean(sample_mean, margin=0.0)
    n, m = market.n_trades, float(sample_size)
    target = mu_hat if n == 0 else (n * m * market.prices() + m * mu_hat) / (n * m + m)
    return _exp_utility_move(market, fam.natural_from_mean(target), 0.0)


def certainty_equivalent(market: Market, trader: TraderProfile, delta) -> float:
    """Certainty equivalent of the trade's profit under exponential utility.

    For a trader with risk aversion ``a > 0`` and belief natural parameter
    ``theta_hat``, buying ``delta`` at state ``theta``:

        log(a) - [T(theta_hat - a*delta) - T(theta_hat)]
               - a * [C(theta + delta) - C(theta)].

    The first bracket is the belief's cumulant of the (negated, scaled)
    payoff; the second is the purchase cost.  Strictly concave in ``delta``.
    """
    fam = market.family
    a = trader.risk_aversion
    if not a > 0.0:
        raise DomainError("certainty_equivalent requires positive risk aversion")
    theta_hat = fam.check_natural(trader.belief_theta)
    delta = as_params(delta, fam.dim, "delta")
    belief_term = fam.log_partition(theta_hat - a * delta) - fam.log_partition(theta_hat)
    return log(a) - belief_term - a * market.quote(delta)


def exp_utility_trade(market: Market, trader: TraderProfile) -> np.ndarray:
    """Optimal trade of an exponential-utility trader.

    Solves the first-order condition ``grad T(theta_hat - a*delta) =
    grad T(lam*(theta + delta))`` by equating arguments:

        delta = (theta_hat - lam*theta) / (lam + a),

    which moves the share vector to ``(lam*target_shares + a*theta) /
    (lam + a)`` with target shares ``theta_hat / lam``.  At ``a = 0`` this
    is the risk-neutral trade; growing ``a`` shrinks the move toward the
    current state.
    """
    theta_hat = market.family.check_natural(trader.belief_theta)
    return _exp_utility_move(market, theta_hat, trader.risk_aversion)


def _exp_utility_move(market: Market, theta_hat: np.ndarray, a: float) -> np.ndarray:
    lam = market.inv_liquidity
    return (theta_hat - lam * market.theta) / (lam + a)


def effective_belief(family: ExpFamily, trader: TraderProfile) -> np.ndarray:
    """Belief shifted by existing holdings: ``theta_hat - a * holdings``.

    A trader re-entering the market behaves exactly like a fresh trader
    holding this belief and no position.  Risk-neutral traders (``a = 0``)
    are unaffected by exposure.
    """
    shifted = trader.belief_theta - trader.risk_aversion * trader.holdings
    return family.check_natural(shifted)


def _unconstrained_move(market: Market, trader: TraderProfile) -> np.ndarray:
    """The move the trader would make with no budget in the way.

    This is the exponential-utility trade (the move to the belief when
    ``risk_aversion = 0``).  For the categorical family the move is
    shifted along the all-ones gauge direction so its smallest component is
    exactly zero: the shifted move reaches an equivalent representation of
    the same target distribution, but is a pure purchase -- it costs at
    least zero and pays at least zero at every outcome, which is what lets
    a budget cap keep the trader's budget from ever going negative.
    """
    move = exp_utility_trade(market, trader)
    if isinstance(market.family, Categorical):
        move = move - np.min(move)
    return move


def budget_limited_trade(market: Market, trader: TraderProfile) -> np.ndarray:
    """Largest affordable fraction of the trader's desired move.

    With desired move ``move`` (see ``_unconstrained_move``) and budget
    ``alpha`` (zero when underwater: such a trader can still afford
    zero-or-negative-cost moves), the trade is ``f * move`` with

        f = 1                     if quoting the full move costs <= alpha
        f = alpha / move_cost     otherwise.

    Convexity of the cost along the segment keeps the quoted cost of the
    scaled move at or below ``alpha`` in exact arithmetic; when rounding
    leaves the quote a hair over, the fraction is halved until the cap holds
    in float comparison.  That is common once the budget is at rounding-noise
    scale: in the 10,000-round ``sim-long`` benchmark run it first falls to
    2e-15 in round 76 and is at or below that in 92% of all rounds, and
    2,950 of the 10,000 calls halve at least once (4,918 of the run's 54,905
    quotes).  Requires unit inverse liquidity.
    """
    if market.inv_liquidity != 1.0:
        raise DomainError("budget_limited_trade requires inv_liquidity == 1")
    move = _unconstrained_move(market, trader)
    move_cost = market.quote(move)
    alpha = None if trader.budget is None else max(0.0, trader.budget)
    if alpha is None or move_cost <= alpha:
        return move
    if alpha == 0.0:
        return 0.0 * move
    fraction = alpha / move_cost
    delta = fraction * move
    for _ in range(100):
        if market.quote(delta) <= alpha:
            return delta
        fraction *= 0.5
        delta = fraction * move
    return 0.0 * move


def _centered(family: ExpFamily, vec: np.ndarray) -> np.ndarray:
    # For categorical, directions along the all-ones vector are gauge; the
    # trade fraction lives in the complement.
    if isinstance(family, Categorical):
        return vec - np.mean(vec)
    return vec


def expected_profit_bound(market: Market, trader: TraderProfile, delta) -> tuple[float, float]:
    """Expected profit of a segment move toward the belief, and its lower bound.

    For ``theta' = theta + delta`` at fraction ``f`` along the segment from
    ``theta`` to the belief, the profit expected under the trader's own
    belief is ``D(theta, belief) - D(theta', belief)``; convexity of the
    divergence in its first argument bounds it below by ``f * D(theta,
    belief) >= 0``.  Returns ``(expected_profit, bound)``.

    Raises DomainError when ``delta`` does not lie on the segment (for the
    categorical family: on it modulo the all-ones gauge direction, which
    changes neither term).  Requires unit inverse liquidity.
    """
    if market.inv_liquidity != 1.0:
        raise DomainError("expected_profit_bound requires inv_liquidity == 1")
    fam = market.family
    theta = market.theta
    theta_hat = fam.check_natural(trader.belief_theta)
    delta = as_params(delta, fam.dim, "delta")

    direction = _centered(fam, theta_hat - theta)
    move = _centered(fam, delta)
    norm2 = float(np.dot(direction, direction))
    scale = max(1.0, float(np.linalg.norm(direction)))
    if norm2 == 0.0:
        fraction = 0.0
    else:
        fraction = float(np.dot(move, direction)) / norm2
    if float(np.linalg.norm(move - fraction * direction)) > 1e-9 * scale:
        raise DomainError("delta is not a move along the segment toward the belief")
    if not -1e-12 <= fraction <= 1.0 + 1e-12:
        raise DomainError(f"segment fraction {fraction} outside [0, 1]")
    fraction = min(max(fraction, 0.0), 1.0)

    divergence_start = fam.bregman_divergence(theta, theta_hat)
    divergence_end = fam.bregman_divergence(theta + delta, theta_hat)
    expected_profit = divergence_start - divergence_end
    bound = fraction * divergence_start
    if not (expected_profit >= bound - 1e-9 and bound >= -1e-12):
        raise DomainError(f"expected profit {expected_profit} violates its lower bound {bound}")
    return expected_profit, bound
