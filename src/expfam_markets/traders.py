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
* budget-limited -- scale the desired move by the chord fraction
  ``f = min(1, budget / move_cost)``; convexity of the cost keeps the
  quoted cost of the scaled move within budget, and usually below it, so
  ``f`` is at most the largest affordable fraction.

A trader whose final state is a convex combination ``theta' = f*target +
(1-f)*theta`` of the state and its belief expects (under that belief) a
profit of ``D(theta, belief) - D(theta', belief) >= f * D(theta, belief)``
where ``D`` is the Bregman divergence of the cost function -- informative
traders grow their budgets in expectation, while a trader's cumulative
round-by-round impact on the market's log loss telescopes to its budget
change.  For a categorical budget-limited trader it is therefore bounded
below by the budget it started with (see below); in other families a sell
costs less than nothing and its payoff has no floor.

For the categorical family the indicator statistic is non-minimal: adding
``c`` to every component of a target changes neither the distribution nor
any Bregman divergence, but it does change the sign pattern of the trade.
Budget-limited trades therefore shift categorical targets so the trade is a
pure purchase (componentwise nonnegative with a zero minimum).  A pure
purchase costs at least zero, pays at least zero, and -- combined with the
cost cap -- keeps the trader's budget from ever falling below zero, which
is what makes the budget a hard ceiling on the damage an ill-informed
trader can do.

Profiles are plain data that the engine only reads; every function here
is pure given (market, profile) snapshots.  Each public trade rule is its
checks plus its ``_*_move`` (the budget-limited one applied to
``_unconstrained_move``), which the engine calls directly.  The
exponential-utility formula lives in one function of the state alone,
``_exp_utility_move(theta, lam, theta_hat, a)``: the Bayesian and
unconstrained moves, the engine's movers and the best response of
``equilibrium.best_response_dynamics`` (at the residual state, ``lam = 1``)
all call it, so the equilibrium check runs the engine's decision rule.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import hypot, log

from .errors import DomainError
from .families import Categorical, ExpFamily, _dot, _scaled, _sum, _vector, as_params
from .market import Market


@dataclass
class TraderProfile:
    """A trader's behavior model, belief, risk posture and budget.

    A ``bayesian`` trader has no ``belief_theta``; it trades on the mean
    ``sample_mean`` of its ``sample_size`` points.  ``budget`` is the
    starting budget in a ``SimConfig`` (the run keeps the running budget
    and cash itself), and the current budget for ``budget_limited_trade``;
    ``None`` means unlimited.  ``holdings`` (zeros by default) is set by the
    caller and read only by ``effective_belief``; nothing in the package
    writes it.  Construction
    raises DomainError for a negative ``risk_aversion`` or ``budget`` or a
    ``sample_size`` that is not positive: the one place these ranges are
    checked, ``SimConfig.from_dict`` included.
    """

    id: str
    belief_theta: array | None
    risk_aversion: float = 0.0
    budget: float | None = None
    holdings: array | None = None
    model: str = "exp-utility"
    sample_mean: array | None = None
    sample_size: float = 1.0

    def __post_init__(self):
        if self.belief_theta is not None:
            self.belief_theta = _vector(self.belief_theta)
        if not self.risk_aversion >= 0.0:
            raise DomainError(f"risk_aversion must be nonnegative, got {self.risk_aversion}")
        if self.budget is not None and not self.budget >= 0.0:
            raise DomainError(f"budget must be nonnegative, got {self.budget}")
        if not self.sample_size > 0.0:
            raise DomainError(f"sample_size must be positive, got {self.sample_size}")
        if self.holdings is not None:
            self.holdings = _vector(self.holdings)
        elif self.belief_theta is not None:
            self.holdings = array("d", (0.0,)) * len(self.belief_theta)


def bayesian_market_trade(market: Market, sample_mean, sample_size: float) -> array:
    """Trade of a conjugate-prior trader who reads prices as a phantom sample.

    With ``n`` prior trades posted, each of the trader's own sample size
    ``m``, the prior is (prices, n*m) and the posterior mean is the
    count-weighted average ``(n*m * prices + m * sample_mean) / (n*m + m)``;
    the trader moves prices there (the exponential-utility move at zero
    risk aversion).  The first trader (``n == 0``) moves prices to its own
    sample mean.  Sample means may lie on the boundary of the realizable
    set; the posterior must be interior (it always is once ``n >= 1``).
    """
    if not float(sample_size) > 0.0:
        raise DomainError(f"sample_size must be positive, got {sample_size}")
    return _bayesian_move(market, market.family.check_mean(sample_mean, margin=0.0), float(sample_size))


def _bayesian_move(market: Market, mu_hat: array, m: float) -> array:
    n = market.n_trades
    if n == 0:
        target = mu_hat
    else:
        weight = n * m
        target = [(weight * p + m * h) / (weight + m) for p, h in zip(market.prices(), mu_hat)]
    # a computed posterior, so natural_from_mean's check is kept
    return _exp_utility_move(market.theta, market.inv_liquidity, market.family.natural_from_mean(target), 0.0)


def certainty_equivalent(market: Market, trader: TraderProfile, delta) -> float:
    """``log(a) + a*CE`` for the certainty equivalent ``CE`` of the trade's profit under exponential utility.

    For a trader with risk aversion ``a > 0`` and belief natural parameter
    ``theta_hat``, buying ``delta`` at state ``theta``, this is
    ``-log(-E[u])`` for ``u(w) = -exp(-a*w)/a``:

        log(a) - [T(theta_hat - a*delta) - T(theta_hat)]
               - a * [C(theta + delta) - C(theta)].

    The first bracket is the belief's cumulant of the (negated, scaled)
    payoff; the second is the purchase cost.  It is a strictly increasing
    transform of ``CE``, so both have the same maximiser, and it is
    strictly concave in ``delta``.
    """
    fam = market.family
    a = trader.risk_aversion
    if not a > 0.0:
        raise DomainError("certainty_equivalent requires positive risk aversion")
    theta_hat = fam.check_natural(trader.belief_theta)
    delta = as_params(delta, fam.dim, "delta")
    shifted = [h - a * d for h, d in zip(theta_hat, delta)]
    belief_term = fam.log_partition(shifted) - fam.log_partition(theta_hat)
    return log(a) - belief_term - a * market.quote(delta)


def exp_utility_trade(market: Market, trader: TraderProfile) -> array:
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
    return _exp_utility_move(market.theta, market.inv_liquidity, theta_hat, trader.risk_aversion)


def _exp_utility_move(theta, lam: float, theta_hat, a: float) -> array:
    """The exponential-utility trade at share vector ``theta`` and inverse liquidity ``lam``, unchecked."""
    return array("d", [(h - lam * t) / (lam + a) for h, t in zip(theta_hat, theta)])


def effective_belief(family: ExpFamily, trader: TraderProfile) -> array:
    """Belief shifted by existing holdings: ``theta_hat - a * holdings``.

    A trader re-entering the market behaves exactly like a fresh trader
    holding this belief and no position.  Risk-neutral traders (``a = 0``)
    are unaffected by exposure.
    """
    a = trader.risk_aversion
    return family.check_natural([b - a * h for b, h in zip(trader.belief_theta, trader.holdings)])


def _unconstrained_move(market: Market, trader: TraderProfile) -> array:
    """The move the trader would make with no budget in the way.

    This is the exponential-utility trade (the move to the belief when
    ``risk_aversion = 0``).  For the categorical family the move is
    shifted along the all-ones gauge direction so its smallest component is
    exactly zero: the shifted move reaches an equivalent representation of
    the same target distribution, but is a pure purchase -- it costs at
    least zero and pays at least zero at every outcome, which is what lets
    a budget cap keep the trader's budget from ever going negative.
    """
    move = _exp_utility_move(market.theta, market.inv_liquidity, trader.belief_theta, trader.risk_aversion)
    if isinstance(market.family, Categorical):
        low = min(move)
        move = array("d", [v - low for v in move])
    return move


def budget_limited_trade(market: Market, trader: TraderProfile) -> array:
    """The chord fraction of the trader's desired move: it spends at most the budget, usually less.

    With desired move ``move`` (see ``_unconstrained_move``) and budget
    ``alpha`` (zero when underwater: such a trader can still afford
    zero-or-negative-cost moves), the trade is ``f * move`` with

        f = 1                     if quoting the full move costs <= alpha
        f = alpha / move_cost     otherwise.

    The cost of ``f * move`` is convex in ``f`` and zero at ``f = 0``, so it
    lies on or below the chord to ``move_cost``: the scaled move costs at
    most ``alpha`` in exact arithmetic, and usually less.  On
    ``categorical:3`` at ``theta = 0`` with belief ``[2, 0, -2]`` and budget
    0.3, ``f = 0.0985`` costs 0.2100, while the largest affordable fraction,
    0.1375, costs 0.3000.  When rounding leaves the quote a hair over, the
    fraction is halved until the cap holds in float comparison.  That is common once the budget is at rounding-noise
    scale: in the 10,000-round ``sim-long`` benchmark run (seed 1) it first
    falls to 2e-15 in round 76 and is at or below that in 92% of all rounds,
    and 3,103 of the 10,000 calls halve at least once.  The calls make 25,163
    quotes (5,176 of them halvings), the full move's included; with the other
    two traders' 20,000 the run makes 45,163 quotes, each one cost
    evaluation, as a call returns the quote that passed the cap and the
    engine buys that quote.
    """
    market.family.check_natural(trader.belief_theta)
    return _budget_limited_move(market, market._quote(_unconstrained_move(market, trader)), trader.budget)[0]


def _budget_limited_move(market: Market, move_quote: tuple, budget: float | None) -> tuple:
    """The chord fraction, within ``budget``, of the ``_unconstrained_move`` that ``move_quote`` prices.

    Returns the ``_quote`` that passed the cap, which carries the fraction's delta, so the trade is priced once.
    """
    alpha = None if budget is None else max(0.0, budget)
    move, move_cost, _, _ = move_quote
    if alpha is None or move_cost <= alpha:
        return move_quote
    fraction = alpha / move_cost  # 0.0 at a zero budget: the first quote is the zero trade, which costs 0.0
    for _ in range(100):
        quote = market._quote(_scaled(fraction, move))
        if quote[1] <= alpha:
            return quote
        fraction *= 0.5
    return market._quote(_scaled(0.0, move))


def _centered(family: ExpFamily, vec):
    # For categorical, directions along the all-ones vector are gauge; the
    # trade fraction lives in the complement.
    if isinstance(family, Categorical):
        mean = _sum(vec) / len(vec)
        return [v - mean for v in vec]
    return vec


def expected_profit_bound(market: Market, trader: TraderProfile, delta) -> tuple[float, float]:
    """Expected profit of a segment move toward the belief, and its lower bound.

    For ``theta' = theta + delta`` at fraction ``f`` along the segment from
    ``theta`` to ``belief / lam``, the profit expected under the trader's own
    belief is ``(D(lam*theta, belief) - D(lam*theta', belief)) / lam``;
    convexity of the divergence in its first argument bounds it below by
    ``f * D(lam*theta, belief) / lam >= 0``.  Returns ``(expected_profit,
    bound)``.

    Raises DomainError when ``delta`` does not lie on the segment (for the
    categorical family: on it modulo the all-ones gauge direction, which
    changes neither term).
    """
    fam, lam = market.family, market.inv_liquidity
    theta = _scaled(lam, market.theta)  # the segment and divergences in natural parameters, lam * shares
    theta_hat = fam.check_natural(trader.belief_theta)
    delta = _scaled(lam, as_params(delta, fam.dim, "delta"))

    direction = _centered(fam, [h - t for h, t in zip(theta_hat, theta)])
    move = _centered(fam, delta)
    norm2 = _dot(direction, direction)
    scale = max(1.0, hypot(*direction))
    fraction = 0.0 if norm2 == 0.0 else _dot(move, direction) / norm2
    if hypot(*[m - fraction * d for m, d in zip(move, direction)]) > 1e-9 * scale:
        raise DomainError("delta is not a move along the segment toward the belief")
    if not -1e-12 <= fraction <= 1.0 + 1e-12:
        raise DomainError(f"segment fraction {fraction} outside [0, 1]")
    fraction = min(max(fraction, 0.0), 1.0)

    divergence_start = fam.bregman_divergence(theta, theta_hat)
    divergence_end = fam.bregman_divergence([t + d for t, d in zip(theta, delta)], theta_hat)
    expected_profit = (divergence_start - divergence_end) / lam
    bound = fraction * divergence_start / lam
    if not (expected_profit >= bound - 1e-9 and bound >= -1e-12):
        raise DomainError(f"expected profit {expected_profit} violates its lower bound {bound}")
    return expected_profit, bound
