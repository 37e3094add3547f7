"""Trader-model contracts: optimal trades, Bayesian updates, budgets, impacts."""

import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import random_natural, sample_batch, subprocess_env
from expfam_markets import (
    DomainError,
    Market,
    TraderProfile,
    bayesian_market_trade,
    budget_limited_trade,
    certainty_equivalent,
    effective_belief,
    exp_utility_trade,
    expected_profit_bound,
    family_from_id,
)

EXPO = family_from_id("exponential-rate")
CAT2 = family_from_id("categorical:2")


def make_trader(belief, a=0.0, budget=None, holdings=None, tid="t"):
    return TraderProfile(id=tid, belief_theta=belief, risk_aversion=a,
                         budget=budget, holdings=holdings)


def risk_neutral_trade(market, belief_mu):
    """The exponential-utility trade at zero risk aversion toward the belief mean ``belief_mu``."""
    return exp_utility_trade(market, make_trader(market.family.natural_from_mean(belief_mu)))


def payoff(family, delta, x):
    """``<delta, phi(x)>``: what portfolio ``delta`` pays at outcome ``x``."""
    return float(np.dot(delta, family.statistic(x)))


class TestRiskNeutralTrade:
    def test_agreeing_belief_stands_pat(self):
        market = Market(EXPO, -2.0)
        delta = risk_neutral_trade(market, market.prices())
        assert delta[0] == pytest.approx(0.0, abs=1e-12)

    def test_moves_shares_to_belief(self):
        market = Market(EXPO, -1.0)
        delta = risk_neutral_trade(market, 0.5)
        assert delta[0] == pytest.approx(-1.0, abs=1e-12)
        market.execute(delta)
        assert market.prices()[0] == pytest.approx(0.5, abs=1e-12)

    def test_liquidity_scales_target_shares(self):
        market = Market(EXPO, -1.0, inv_liquidity=2.0)
        delta = risk_neutral_trade(market, 0.5)
        assert delta[0] == pytest.approx(0.0, abs=1e-12)

    def test_prices_match_belief_after_trade(self, family):
        rng = np.random.default_rng(3)
        for lam in (0.5, 1.0, 2.0):
            theta = random_natural(family, rng) / lam
            market = Market(family, theta, inv_liquidity=lam)
            belief = family.mean_from_natural(random_natural(family, rng))
            market.execute(risk_neutral_trade(market, belief))
            np.testing.assert_allclose(market.prices(), belief, rtol=1e-9, atol=1e-12)


class TestBayesUpdate:
    """The conjugate update ``(N*prices + m*mean) / (N + m)`` that ``bayesian_market_trade`` moves prices to."""

    @staticmethod
    def posterior_prices(market, sample_mean, sample_size):
        market.execute(bayesian_market_trade(market, sample_mean, sample_size))
        return market.prices()

    def test_worked_arithmetic(self):
        # Prices 2 with phantom count 3 * 1; one point at 6 gives (3*2 + 6) / 4.
        market = Market(EXPO, -0.5, n_trades=3)
        assert self.posterior_prices(market, 6.0, 1.0)[0] == pytest.approx(3.0, abs=1e-12)

    def test_agreeing_sample_leaves_mean(self):
        market = Market(CAT2, CAT2.natural_from_mean([0.3, 0.7]), n_trades=2)
        delta = bayesian_market_trade(market, [0.3, 0.7], 2.5)
        np.testing.assert_allclose(delta, [0.0, 0.0], atol=1e-12)

    def test_matches_beta_bernoulli_posterior(self):
        # Uniform prices with phantom count 1 * 2 are a Beta(1, 1) prior on
        # the first outcome; two observed firsts give posterior mean (1+2)/(2+2).
        market = Market(CAT2, [0.0, 0.0], n_trades=1)
        prices = self.posterior_prices(market, [1.0, 0.0], 2.0)
        alpha, beta = 1.0, 1.0
        assert prices[0] == pytest.approx((alpha + 2.0) / (alpha + beta + 2.0), abs=1e-12)
        assert prices[0] == pytest.approx(0.75, abs=1e-12)

    def test_fractional_counts_allowed(self):
        # Phantom count 2 * 0.25 = 0.5 at price 1, one quarter-point at 2.
        market = Market(EXPO, -1.0, n_trades=2)
        prices = self.posterior_prices(market, 2.0, 0.25)
        assert prices[0] == pytest.approx((0.5 * 1.0 + 0.25 * 2.0) / 0.75, abs=1e-12)

    @pytest.mark.parametrize("n_trades", [0, 3])
    @pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf, pytest.param(10**400, id="10**400")])
    def test_bad_sizes_rejected(self, n_trades, size):
        market = Market(EXPO, -1.0, n_trades=n_trades)
        with pytest.raises(DomainError):
            bayesian_market_trade(market, 1.0, size)


class TestBayesianMarketTrade:
    def test_first_trader_moves_to_own_mean(self):
        market = Market(CAT2, [0.0, 0.0])
        delta = bayesian_market_trade(market, [0.7, 0.3], 1.0)
        market.execute(delta)
        np.testing.assert_allclose(market.prices(), [0.7, 0.3], atol=1e-12)

    def test_second_trader_averages(self):
        market = Market(EXPO, -1.0, n_trades=1)
        delta = bayesian_market_trade(market, 3.0, 1.0)
        market.execute(delta)
        assert market.prices()[0] == pytest.approx((1.0 + 3.0) / 2.0, abs=1e-12)

    def test_phantom_weighting_after_three_trades(self):
        market = Market(CAT2, [0.0, 0.0], n_trades=3)
        delta = bayesian_market_trade(market, [1.0, 0.0], 1.0)
        market.execute(delta)
        np.testing.assert_allclose(market.prices(), [5 / 8, 3 / 8], atol=1e-12)

    def test_sample_size_cancels(self):
        for m in (1.0, 2.0, 7.5):
            market = Market(EXPO, -1.0, n_trades=4)
            delta = bayesian_market_trade(market, 2.0, m)
            assert delta[0] == pytest.approx(
                EXPO.natural_from_mean((4 * 1.0 + 2.0) / 5.0)[0] + 1.0, abs=1e-12
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_moves_prices_to_posterior_at_inverse_liquidity(self, lam):
        market = Market(CAT2, [0.0, 0.0], inv_liquidity=lam)
        market.execute(bayesian_market_trade(market, [0.7, 0.3], 1.0))
        np.testing.assert_allclose(market.prices(), [0.7, 0.3], atol=1e-12)
        market = Market(EXPO, -1.0 / lam, inv_liquidity=lam, n_trades=1)  # prices 1, phantom count 1
        market.execute(bayesian_market_trade(market, 3.0, 1.0))
        assert market.prices()[0] == pytest.approx((1.0 + 3.0) / 2.0, abs=1e-12)


class TestCertaintyEquivalent:
    def test_zero_trade_value(self):
        market = Market(EXPO, -1.0)
        trader = make_trader(-3.0, a=2.0)
        assert certainty_equivalent(market, trader, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_worked_optimum_beats_grid(self):
        market = Market(EXPO, -1.0)
        trader = make_trader(-3.0, a=2.0)
        best = -2.0 / 3.0
        ce_best = certainty_equivalent(market, trader, best)
        for delta in np.linspace(-1.45, 0.45, 1000):
            assert certainty_equivalent(market, trader, delta) <= ce_best + 1e-12

    def test_concavity_on_random_pairs(self):
        rng = np.random.default_rng(7)
        market = Market(EXPO, -1.0)
        trader = make_trader(-3.0, a=1.5)
        for _ in range(50):
            d1 = rng.uniform(-1.2, 0.4)
            d2 = rng.uniform(-1.2, 0.4)
            mid = certainty_equivalent(market, trader, 0.5 * (d1 + d2))
            ends = 0.5 * certainty_equivalent(market, trader, d1) + 0.5 * certainty_equivalent(market, trader, d2)
            assert mid >= ends - 1e-12

    def test_risk_neutral_coefficient_rejected(self):
        market = Market(EXPO, -1.0)
        with pytest.raises(DomainError):
            certainty_equivalent(market, make_trader(-3.0, a=0.0), 0.0)


@pytest.mark.parametrize("field, value, rule", [
    ("risk_aversion", -1.0, "nonnegative"), ("budget", -1.0, "nonnegative"), ("sample_size", 0.0, "positive"),
    ("risk_aversion", math.inf, "nonnegative and finite"),
    # kept as an int, 10**400 overflowed in the trade rules' lam + a
    pytest.param("risk_aversion", 10**400, "nonnegative and finite", id="risk_aversion-10**400")])
def test_out_of_range_profile_number_rejected(field, value, rule):
    with pytest.raises(DomainError, match=f"{field} must be {rule}"):
        TraderProfile(id="t", belief_theta=-0.5, **{field: value})


@pytest.mark.parametrize("field", ["belief_theta", "holdings"])
def test_profile_vector_past_the_float_range_rejected(field):
    # array("d") raised OverflowError on an integer past the float range.
    vectors = {"belief_theta": [0.0, 0.0], field: [10**400, 0]}
    with pytest.raises(DomainError, match=rf"{field} must be a flat vector of reals, got \[1000"):
        TraderProfile(id="t", **vectors)


def _grid_around(family, delta_star, span, count, rng):
    """Candidate deviations around an optimum, in-domain ones only."""
    if delta_star.size == 1:
        offsets = np.linspace(-span, span, count)[:, None]
    else:
        offsets = rng.uniform(-span, span, size=(count, delta_star.size))
    return delta_star[None, :] + offsets


class TestExpUtilityTrade:
    def test_equal_weight_average(self):
        market = Market(EXPO, -1.0)
        delta = exp_utility_trade(market, make_trader(-3.0, a=1.0))
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_liquidity_weighted_average(self):
        market = Market(EXPO, -1.0, inv_liquidity=2.0)
        delta = exp_utility_trade(market, make_trader(-3.0, a=1.0))
        # target shares -1.5; final state (2*(-1.5) + 1*(-1)) / 3
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_risk_neutral_limit(self):
        market = Market(EXPO, -1.0)
        delta = exp_utility_trade(market, make_trader(-3.0, a=1e-8))
        assert abs((np.asarray(market.theta) + delta)[0] - (-3.0)) < 1e-6

    def test_optimality_against_grid(self):
        rng = np.random.default_rng(11)
        fams = [EXPO, family_from_id("gaussian-moments"), family_from_id("weibull-moment:2"), CAT2]
        checked = 0
        while checked < 50:
            fam = fams[checked % len(fams)]
            lam = [0.5, 1.0, 2.0][checked % 3]
            a = [0.1, 1.0, 10.0][(checked // 3) % 3]
            theta = random_natural(fam, rng) / lam
            market = Market(fam, theta, inv_liquidity=lam)
            trader = make_trader(random_natural(fam, rng), a=a)
            delta_star = np.asarray(exp_utility_trade(market, trader))
            ce_star = certainty_equivalent(market, trader, delta_star)
            span = 0.5 * (1.0 + float(np.linalg.norm(delta_star)))
            for candidate in _grid_around(fam, delta_star, span, 1000, rng):
                if not fam.natural_in_domain(lam * (market.theta + candidate), margin=1e-9):
                    continue
                if not fam.natural_in_domain(trader.belief_theta - a * candidate, margin=1e-9):
                    continue
                ce = certainty_equivalent(market, trader, candidate)
                assert ce <= ce_star + 1e-10, (
                    f"{fam.id}: grid point beats optimum (lam={lam}, a={a}): {ce} > {ce_star}"
                )
            checked += 1

    def test_first_order_condition(self, family):
        rng = np.random.default_rng(13)
        for a in (0.1, 1.0, 10.0):
            theta = random_natural(family, rng)
            market = Market(family, theta)
            trader = make_trader(random_natural(family, rng), a=a)
            delta = exp_utility_trade(market, trader)
            lhs = family.mean_from_natural(np.asarray(trader.belief_theta) - a * np.asarray(delta))
            rhs = family.mean_from_natural(np.asarray(market.theta) + delta)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_sequential_traders_form_weighted_moving_average(self):
        rng = np.random.default_rng(17)
        a = 0.8
        market = Market(EXPO, -1.0)
        expected = np.asarray(market.theta).copy()
        for _ in range(6):
            belief = random_natural(EXPO, rng)
            market.execute(exp_utility_trade(market, make_trader(belief, a=a)))
            expected = expected + (belief - expected) / (1.0 + a)
            np.testing.assert_array_equal(market.theta, expected)


class TestEffectiveBelief:
    def test_no_holdings(self):
        trader = make_trader(-3.0, a=1.0)
        assert effective_belief(EXPO, trader)[0] == -3.0

    def test_worked_shift_and_reentry(self):
        trader = make_trader(-3.0, a=1.0, holdings=-0.5)
        shifted = effective_belief(EXPO, trader)
        assert shifted[0] == pytest.approx(-2.5, abs=1e-15)
        market = Market(EXPO, -1.0)
        delta2 = exp_utility_trade(market, make_trader(shifted, a=1.0))
        assert delta2[0] == pytest.approx(-0.75, abs=1e-12)

    def test_risk_neutral_ignores_holdings(self):
        trader = make_trader(-3.0, a=0.0, holdings=-10.0)
        assert effective_belief(EXPO, trader)[0] == -3.0

    def test_large_holdings_can_break_domain(self):
        trader = make_trader(-1.0, a=1.0, holdings=-2.0)
        with pytest.raises(DomainError):
            effective_belief(EXPO, trader)

    def test_repeated_entry_equivalence(self, family):
        if family.id == "vmf3":
            perturb = lambda rng: rng.uniform(-0.3, 0.3, 3)
        else:
            perturb = None
        rng = np.random.default_rng(19)
        for _ in range(50):
            theta0 = random_natural(family, rng)
            belief = random_natural(family, rng)
            a = rng.uniform(0.2, 3.0)
            market = Market(family, theta0)
            trader = make_trader(belief, a=a)
            rec1 = market.execute(exp_utility_trade(market, trader))
            trader.holdings = trader.holdings + rec1.delta
            # someone else moves the market
            shove = perturb(rng) if perturb else 0.3 * (random_natural(family, rng) - market.theta)
            market.execute(shove)
            delta2 = exp_utility_trade(market, make_trader(effective_belief(family, trader), a=a))
            # a fresh trader with the effective belief at the same state
            fresh = make_trader(effective_belief(family, trader), a=a)
            delta2_fresh = exp_utility_trade(market, fresh)
            np.testing.assert_allclose(delta2, delta2_fresh, atol=1e-10)
            market.execute(delta2)

    def test_two_trade_objective_grid_maximum(self):
        # Grid-maximize the trader's joint utility over the second trade;
        # the maximizer must match the effective-belief closed form.
        a = 1.0
        theta0, belief = -1.0, -3.0
        market = Market(EXPO, theta0)
        rec1 = market.execute(exp_utility_trade(market, make_trader(belief, a=a)))
        delta1 = rec1.delta[0]
        cost1 = rec1.cost
        market.execute(0.8)  # external push to -1.2
        theta_prime = market.theta[0]

        def objective(delta2):
            total = np.array([belief - a * (delta1 + delta2)])
            if not EXPO.natural_in_domain(total) or not EXPO.natural_in_domain([theta_prime + delta2]):
                return -np.inf
            cost2 = EXPO.log_partition([theta_prime + delta2]) - EXPO.log_partition([theta_prime])
            return -(EXPO.log_partition(total) - EXPO.log_partition([belief])) - a * (cost1 + cost2)

        grid = np.linspace(-1.5, 0.5, 4001)
        best = grid[int(np.argmax([objective(d) for d in grid]))]
        closed = (effective_belief(EXPO, make_trader(belief, a=a, holdings=delta1))[0] - theta_prime) / (1 + a)
        assert abs(best - closed) <= (grid[1] - grid[0])


class TestBudgetLimitedTrade:
    def test_unlimited_budget_reaches_belief(self):
        market = Market(EXPO, -1.0)
        delta = budget_limited_trade(market, make_trader(-0.5, budget=None))
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_worked_half_fraction(self):
        market = Market(EXPO, -1.0)
        alpha = math.log(2.0) / 2.0
        delta = budget_limited_trade(market, make_trader(-0.5, budget=alpha))
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-0.75, abs=1e-12)
        cost = market.quote(delta)
        assert cost == pytest.approx(-math.log(0.75), abs=1e-12)
        assert cost <= alpha + 1e-12

    def test_zero_budget_stands_pat(self):
        market = Market(EXPO, -1.0)
        delta = budget_limited_trade(market, make_trader(-0.5, budget=0.0))
        assert delta[0] == 0.0

    def test_cheap_moves_ignore_budget(self):
        # Moving toward lower cost is affordable at any budget.
        market = Market(EXPO, -0.5)
        delta = budget_limited_trade(market, make_trader(-2.0, budget=0.0))
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_budget_feasibility_random(self):
        rng = np.random.default_rng(23)
        for fid in ("exponential-rate", "gaussian-moments", "categorical:3"):
            fam = family_from_id(fid)
            for _ in range(30):
                market = Market(fam, random_natural(fam, rng))
                alpha = rng.uniform(0.0, 0.5)
                trader = make_trader(random_natural(fam, rng), budget=alpha)
                delta = budget_limited_trade(market, trader)
                assert market.quote(delta) <= alpha + 1e-12

    def test_risk_averse_target_is_utility_compromise(self):
        market = Market(EXPO, -1.0)
        delta = budget_limited_trade(market, make_trader(-3.0, a=1.0, budget=None))
        assert (np.asarray(market.theta) + delta)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_categorical_trades_are_pure_purchases(self):
        rng = np.random.default_rng(29)
        fam = family_from_id("categorical:3")
        for _ in range(30):
            market = Market(fam, random_natural(fam, rng))
            trader = make_trader(random_natural(fam, rng), budget=rng.uniform(0.0, 1.0))
            delta = budget_limited_trade(market, trader)
            assert np.all(np.asarray(delta) >= -1e-12)
            cost = market.quote(delta)
            assert cost >= -1e-12
            assert cost <= trader.budget + 1e-12

    def test_categorical_budget_never_negative(self):
        # Pure purchases pay at least zero at every outcome, so the budget
        # floor holds pathwise, not just in expectation.
        rng = np.random.default_rng(31)
        fam = CAT2
        theta0 = np.array([0.0, 0.0])
        budget = 0.5
        adversary_belief = fam.natural_from_mean([0.05, 0.95])
        for _ in range(200):
            market = Market(fam, theta0)
            trader = make_trader(adversary_belief, budget=budget)
            delta = budget_limited_trade(market, trader)
            record = market.execute(delta)
            outcome = fam.sample([1.5, -1.5], rng)
            budget += payoff(fam, record.delta, outcome) - record.cost
            assert budget >= -1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_budget_feasibility_at_inverse_liquidity(self, lam):
        rng = np.random.default_rng(37)
        for fid in ("exponential-rate", "gaussian-moments", "categorical:3"):
            fam = family_from_id(fid)
            for _ in range(30):
                market = Market(fam, random_natural(fam, rng) / lam, inv_liquidity=lam)
                alpha = rng.uniform(0.0, 0.5)
                delta = budget_limited_trade(market, make_trader(random_natural(fam, rng), budget=alpha))
                assert market.quote(delta) <= alpha
        market = Market(EXPO, -1.0, inv_liquidity=lam)
        delta = budget_limited_trade(market, make_trader(-0.5, budget=None))
        assert lam * (market.theta[0] + delta[0]) == pytest.approx(-0.5, abs=1e-12)  # the move to the belief


class TestMyopicImpact:
    """A trade's drop in the market's log loss equals its payoff minus its cost.

    The per-family form of this identity is pinned on the simulation's own
    settle step in ``test_harness.py::TestAccounting``.
    """

    @staticmethod
    def execute_with_impact(market, delta, x):
        before = market.log_loss(x)
        record = market.execute(delta)
        return before - market.log_loss(x), record

    def test_null_trade(self):
        market = Market(CAT2, [0.0, 0.0])
        assert self.execute_with_impact(market, [0.0, 0.0], 1)[0] == 0.0

    def test_worked_categorical_value(self):
        market = Market(CAT2, [0.0, 0.0])
        impact, record = self.execute_with_impact(market, [1.0, 0.0], 1)
        expected = math.log(2.0) - (math.log(math.e + 1.0) - 1.0)
        assert impact == pytest.approx(expected, abs=1e-12)
        assert impact == pytest.approx(payoff(CAT2, record.delta, 1) - record.cost, abs=1e-12)

    def test_impacts_telescope_to_budget_change(self):
        rng = np.random.default_rng(41)
        market = Market(CAT2, [0.0, 0.0])
        budget0 = 1.0
        budget = budget0
        impacts = []
        for _ in range(50):
            trader = make_trader(random_natural(CAT2, rng), budget=budget)
            x = CAT2.sample([0.4, -0.4], rng)
            impact, record = self.execute_with_impact(market, budget_limited_trade(market, trader), x)
            impacts.append(impact)
            budget += payoff(CAT2, record.delta, x) - record.cost
        assert sum(impacts) == pytest.approx(budget - budget0, abs=1e-9)
        assert sum(impacts) >= -budget0 - 1e-9


class TestExpectedProfitBound:
    def test_full_move_profit_equals_divergence(self):
        market = Market(EXPO, -1.0)
        trader = make_trader(-0.5)
        delta = np.array([0.5])
        profit, bound = expected_profit_bound(market, trader, delta)
        divergence = EXPO.bregman_divergence(-1.0, -0.5)
        assert profit == pytest.approx(divergence, abs=1e-12)
        assert bound == pytest.approx(divergence, abs=1e-12)

    def test_worked_half_fraction_values(self):
        market = Market(EXPO, -1.0)
        trader = make_trader(-0.5)
        profit, bound = expected_profit_bound(market, trader, np.array([0.25]))
        d_start = 1.0 - math.log(2.0)
        d_end = -math.log(0.75) - math.log(2.0) + 0.5
        assert profit == pytest.approx(d_start - d_end, abs=1e-12)
        assert bound == pytest.approx(0.5 * d_start, abs=1e-12)
        assert profit == pytest.approx(0.2123, abs=5e-4)
        assert bound == pytest.approx(0.1534, abs=5e-4)

    def test_monte_carlo_realized_profit(self):
        # Independent check of the worked value: simulate the payoff under
        # the trader's own belief and compare at three standard errors.
        market = Market(EXPO, -1.0)
        delta = np.array([0.25])
        cost = market.quote(delta)
        rng = np.random.default_rng(43)
        n = 1_000_000
        draws = sample_batch(EXPO, -0.5, rng, n)
        profits = delta[0] * draws - cost
        se = float(np.std(profits)) / math.sqrt(n)
        expected, _ = expected_profit_bound(market, make_trader(-0.5), delta)
        assert abs(float(np.mean(profits)) - expected) < 3 * se

    def test_agreeing_belief_zero_profit(self):
        market = Market(EXPO, -1.0)
        profit, bound = expected_profit_bound(market, make_trader(-1.0), np.array([0.0]))
        assert profit == 0.0
        assert bound == 0.0

    def test_bound_holds_on_random_triples(self, family):
        rng = np.random.default_rng(47)
        for _ in range(30):
            theta = random_natural(family, rng)
            belief = random_natural(family, rng)
            fraction = rng.uniform(0.0, 1.0)
            market = Market(family, theta)
            delta = fraction * (belief - theta)
            profit, bound = expected_profit_bound(market, make_trader(belief), delta)
            assert profit >= bound - 1e-10
            assert bound >= -1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_profit_is_payoff_minus_quote_at_inverse_liquidity(self, family, lam):
        # Expected payoff <delta, mean(belief)> minus the liquidity-scaled quote, along the segment to belief / lam.
        rng = np.random.default_rng(53)
        for _ in range(10):
            theta = random_natural(family, rng) / lam
            belief = random_natural(family, rng)
            market = Market(family, theta, inv_liquidity=lam)
            delta = rng.uniform(0.0, 1.0) * (belief / lam - theta)
            profit, bound = expected_profit_bound(market, make_trader(belief), delta)
            direct = float(np.dot(delta, family.mean_from_natural(belief))) - market.quote(delta)
            assert profit == pytest.approx(direct, abs=1e-10)
            assert profit >= bound - 1e-10
            assert bound >= -1e-12

    def test_off_segment_rejected(self):
        market = Market(family_from_id("gaussian-moments"), [0.0, -0.5])
        trader = make_trader([1.0, -1.0])
        with pytest.raises(DomainError):
            expected_profit_bound(market, trader, np.array([0.5, 0.3]))

    def test_profit_below_its_bound_is_refused(self, monkeypatch):
        # Every divergence reads 1.0, so the half move earns 1.0 - 1.0 = 0 against a bound of 0.5 * 1.0: a check
        # that must raise under python -O too, so no assert.
        monkeypatch.setattr(type(EXPO), "bregman_divergence", lambda fam, theta, other: 1.0)
        with pytest.raises(DomainError, match=r"^expected profit 0\.0 violates its lower bound 0\.5$"):
            expected_profit_bound(Market(EXPO, -1.0), make_trader(-0.5), np.array([0.25]))

    def test_overshoot_rejected(self):
        market = Market(EXPO, -1.0)
        with pytest.raises(DomainError):
            expected_profit_bound(market, make_trader(-0.8), np.array([0.4]))

    def test_categorical_gauge_shift_accepted(self):
        # A shifted move represents the same distribution path; the
        # divergences never see the gauge.
        market = Market(CAT2, [0.0, 0.0])
        trader = make_trader(make_trader([1.0, -1.0]).belief_theta, budget=0.05)
        delta = budget_limited_trade(market, trader)
        profit, bound = expected_profit_bound(market, trader, delta)
        assert profit >= bound >= 0.0

    def test_bound_violation_raises_under_python_optimize(self):
        # The bound check guards results, so it must survive ``python -O``,
        # which strips asserts.  A patched divergence forces a violation.
        code = textwrap.dedent("""
            import numpy as np
            from expfam_markets import DomainError, Market, TraderProfile, expected_profit_bound
            from expfam_markets.families import ExponentialRate
            divergences = iter([1.0, 5.0])
            ExponentialRate.bregman_divergence = lambda self, a, b: next(divergences)
            market = Market(ExponentialRate(), -1.0)
            trader = TraderProfile(id="t", belief_theta=-0.5)
            print("debug", __debug__)
            try:
                expected_profit_bound(market, trader, np.array([0.25]))
            except DomainError:
                print("DomainError")
        """)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["debug", "False", "DomainError"]
