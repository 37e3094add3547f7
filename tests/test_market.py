"""Market maker contracts: pricing, quoting, execution, accounting, persistence."""

import json
import math
import os

import numpy as np
import pytest

from conftest import SAMPLEABLE_FAMILY_IDS, central_diff_grad, kl_quadrature, random_natural
from expfam_markets import (
    Categorical,
    DomainError,
    Market,
    family_from_id,
    load_state,
    save_state,
)

EXPO = family_from_id("exponential-rate")


class TestCost:
    def test_unit_liquidity_at_unit_rate(self):
        market = Market(EXPO, -1.0)
        assert market.cost() == pytest.approx(0.0, abs=1e-15)

    def test_liquidity_scaling(self):
        market = Market(EXPO, -1.0, inv_liquidity=2.0)
        assert market.cost() == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)

    def test_categorical_uniform(self):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        assert market.cost() == pytest.approx(math.log(2.0), abs=1e-14)

    def test_cost_at_alternative_state(self):
        market = Market(EXPO, -2.0)
        assert market.cost() == pytest.approx(-math.log(2.0), abs=1e-12)


class TestPrices:
    def test_exponential_price(self):
        market = Market(EXPO, -2.0)
        assert market.prices()[0] == pytest.approx(0.5, abs=1e-12)

    def test_categorical_uniform_prices(self):
        market = Market(family_from_id("categorical:3"), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(market.prices(), [1 / 3] * 3, atol=1e-15)

    def test_liquidity_scaled_price(self):
        market = Market(EXPO, -1.0, inv_liquidity=2.0)
        assert market.prices()[0] == pytest.approx(0.5, abs=1e-12)

    def test_prices_are_cost_gradient(self, family):
        if family.id == "vmf3":
            lam, theta = 1.5, np.array([0.2, -0.4, 1.0])
        else:
            rng = np.random.default_rng(2)
            lam = 2.0
            theta = random_natural(family, rng) / lam
        market = Market(family, theta, inv_liquidity=lam)
        numeric = central_diff_grad(lambda t: Market(family, t, inv_liquidity=lam).cost(),
                                    np.asarray(theta, dtype=float))
        np.testing.assert_allclose(market.prices(), numeric, rtol=1e-6, atol=1e-8)

    def test_price_coherence_exact(self, family):
        rng = np.random.default_rng(3)
        lam = 2.0
        theta = random_natural(family, rng) / lam
        market = Market(family, theta, inv_liquidity=lam)
        np.testing.assert_array_equal(market.prices(), family.mean_from_natural(lam * market.theta))

    def test_categorical_prices_form_distribution(self):
        rng = np.random.default_rng(5)
        fam = family_from_id("categorical:4")
        market = Market(fam, random_natural(fam, rng))
        prices = market.prices()
        assert np.all(prices >= 0)
        assert float(np.sum(prices)) == pytest.approx(1.0, abs=1e-12)


class TestQuote:
    def test_zero_delta(self):
        market = Market(EXPO, -1.0)
        assert market.quote(0.0) == 0.0

    def test_worked_value(self):
        market = Market(EXPO, -1.0)
        assert market.quote(0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_boundary_purchase_rejected(self):
        market = Market(EXPO, -1.0)
        with pytest.raises(DomainError):
            market.quote(1.0)
        with pytest.raises(DomainError):
            market.quote(1.0 - 1e-10)  # within the trading margin

    def test_quote_does_not_mutate(self):
        market = Market(EXPO, -1.0)
        market.quote(0.5)
        assert market.theta[0] == -1.0
        assert market.n_trades == 0


class TestExecute:
    def test_two_step_cost_telescopes(self):
        market_a = Market(EXPO, -1.0)
        cost_split = market_a.execute(-0.5).cost + market_a.execute(-0.75).cost
        market_b = Market(EXPO, -1.0)
        cost_joint = market_b.execute(-1.25).cost
        assert cost_split == pytest.approx(cost_joint, abs=1e-12)
        np.testing.assert_allclose(market_a.theta, market_b.theta)

    def test_round_trip_is_free(self):
        market = Market(EXPO, -1.0)
        market.execute(-0.7)
        market.execute(0.7)
        assert market.revenue == pytest.approx(0.0, abs=1e-15)
        assert market.theta[0] == pytest.approx(-1.0, abs=1e-15)
        assert market.n_trades == 2

    def test_gaussian_worked_cost(self):
        fam = family_from_id("gaussian-moments")
        market = Market(fam, [0.0, -0.5])
        record = market.execute([1.0, 0.0])
        assert record.cost == pytest.approx(0.5, abs=1e-12)

    def test_record_cost_consistency(self, family):
        rng = np.random.default_rng(7)
        theta = random_natural(family, rng)
        target = random_natural(family, rng)
        market = Market(family, theta)
        record = market.execute(target - theta)
        recomputed = Market(family, record.theta_after).cost() - Market(family, record.theta_before).cost()
        assert record.cost == pytest.approx(recomputed, abs=1e-12)

    def test_failed_execute_leaves_state_unchanged(self):
        market = Market(EXPO, -1.0)
        market.execute(0.25)
        before = (market.theta.copy(), market.n_trades, market.revenue)
        with pytest.raises(DomainError):
            market.execute(5.0)
        assert np.array_equal(market.theta, before[0])
        assert (market.n_trades, market.revenue) == before[1:]

    def test_revenue_is_sum_of_costs(self):
        rng = np.random.default_rng(11)
        fam = family_from_id("categorical:3")
        market = Market(fam, np.zeros(3))
        total = 0.0
        for _ in range(20):
            delta = rng.uniform(-0.5, 0.5, 3)
            total += market.execute(delta).cost
        assert market.revenue == total  # same additions in the same order

    def test_path_independence(self, family):
        rng = np.random.default_rng(13)
        theta = random_natural(family, rng)
        target = random_natural(family, rng)
        delta = target - theta
        single = Market(family, theta).execute(delta).cost
        for k in (2, 5, 9):
            market = Market(family, theta)
            total = sum(market.execute(delta / k).cost for _ in range(k))
            assert total == pytest.approx(single, abs=1e-10), f"{family.id}: {k}-step split"


class TestCostCache:
    """``quote`` reads ``C(theta)`` from the cache that the writers of ``theta`` keep."""

    LAM = 0.75

    @staticmethod
    def assert_quotes_uncached(market, rng):
        fam, lam, theta = market.family, market.inv_liquidity, market.theta
        for _ in range(10):
            # A step toward a random interior state stays interior.
            delta = rng.uniform(0.0, 1.0) * (random_natural(fam, rng) / lam - theta)
            uncached = float(fam._log_partition(lam * (theta + delta)) / lam - fam._log_partition(lam * theta) / lam)
            assert market.quote(delta).hex() == uncached.hex()
        assert market.cost().hex() == float(fam._log_partition(lam * theta) / lam).hex()

    @pytest.mark.parametrize("family_id", SAMPLEABLE_FAMILY_IDS)
    def test_quote_equals_uncached_after_every_writer(self, family_id):
        fam = family_from_id(family_id)
        rng = np.random.default_rng(19)
        market = Market(fam, random_natural(fam, rng) / self.LAM, inv_liquidity=self.LAM)
        self.assert_quotes_uncached(market, rng)
        for _ in range(5):
            market.execute(0.5 * (random_natural(fam, rng) / self.LAM - market.theta))
            self.assert_quotes_uncached(market, rng)
        market.reset_theta(random_natural(fam, rng) / self.LAM)
        self.assert_quotes_uncached(market, rng)
        self.assert_quotes_uncached(Market.from_state_dict(market.state_dict()), rng)

    @pytest.mark.parametrize("family_id", SAMPLEABLE_FAMILY_IDS)
    def test_failed_execute_keeps_the_cache(self, family_id):
        fam = family_from_id(family_id)
        rng = np.random.default_rng(23)
        market = Market(fam, random_natural(fam, rng) / 2.0, inv_liquidity=2.0)
        market.execute(0.5 * (random_natural(fam, rng) / 2.0 - market.theta))
        cost = market.cost()
        escapes = [np.full(fam.dim, 1e308)]  # 2 * (theta + delta) overflows
        if not isinstance(fam, Categorical):
            escapes.append(np.full(fam.dim, 10.0))  # past the boundary theta < 0 (gaussian: theta2 < 0)
        for delta in escapes:
            with pytest.raises(DomainError), np.errstate(over="ignore"):
                market.execute(delta)
            assert market.cost() == cost
            self.assert_quotes_uncached(market, rng)

    def test_overflowing_cost_rejected_by_every_writer(self):
        fam = family_from_id("gaussian-moments")
        with pytest.raises(DomainError, match="not finite"):
            Market(fam, [1e200, -1.0])
        market = Market(fam, [1.0, -1.0])
        cost = market.cost()
        for write in (market.quote, market.execute, lambda delta: market.reset_theta(market.theta + delta)):
            with pytest.raises(DomainError, match="not finite"):
                write([1e200, 0.0])
            assert market.theta.tolist() == [1.0, -1.0] and market.cost() == cost


class TestLogLoss:
    def test_uniform_categorical(self):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        assert market.log_loss(1) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_exponential_values(self):
        market = Market(EXPO, -1.0)
        assert market.log_loss(0.0) == pytest.approx(0.0, abs=1e-15)
        assert market.log_loss(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_negative_log_density(self):
        rng = np.random.default_rng(17)
        for fid in ("categorical:3", "exponential-rate", "gaussian-moments"):
            fam = family_from_id(fid)
            theta = random_natural(fam, rng)
            market = Market(fam, theta)
            x = fam.sample(theta, rng) if fid != "categorical:3" else 2
            assert market.log_loss(x) == pytest.approx(-fam.log_density(theta, x), abs=1e-12)

    def test_requires_unit_inverse_liquidity(self):
        market = Market(EXPO, -1.0, inv_liquidity=2.0)
        with pytest.raises(DomainError):
            market.log_loss(1.0)


class TestRiskNeutralProfitIdentity:
    def test_expected_profit_equals_divergence(self, family):
        # A trader with belief mean gradT(theta') moving the market from
        # theta to theta' expects <theta'-theta, gradT(theta')> - C(theta')
        # + C(theta), which is the divergence D(theta, theta').
        rng = np.random.default_rng(19)
        for _ in range(20):
            theta = random_natural(family, rng)
            theta_prime = random_natural(family, rng)
            market = Market(family, theta)
            mu_prime = family.mean_from_natural(theta_prime)
            profit = float(np.dot(theta_prime - theta, mu_prime)) - market.quote(theta_prime - theta)
            assert profit == pytest.approx(family.bregman_divergence(theta, theta_prime), abs=1e-10)

    def test_expected_profit_equals_numeric_kl(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            theta = random_natural(EXPO, rng)
            theta_prime = random_natural(EXPO, rng)
            market = Market(EXPO, theta)
            mu_prime = EXPO.mean_from_natural(theta_prime)
            profit = float(np.dot(theta_prime - theta, mu_prime)) - market.quote(theta_prime - theta)
            assert profit == pytest.approx(kl_quadrature(EXPO, theta_prime, theta), abs=1e-4)


class TestPersistence:
    def test_state_round_trip(self, tmp_path):
        market = Market(family_from_id("gaussian-moments"), [0.5, -1.0], inv_liquidity=2.0)
        market.execute([0.2, 0.1])
        path = str(tmp_path / "state.json")
        save_state(market, path)
        loaded = load_state(path)
        assert loaded.state_dict() == market.state_dict()
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_state_file_schema(self, tmp_path):
        market = Market(EXPO, -1.5)
        path = str(tmp_path / "state.json")
        save_state(market, path)
        with open(path) as fh:
            raw = json.load(fh)
        assert set(raw) == {"family", "theta", "inv_liquidity", "n_trades", "revenue"}
        assert raw["family"] == "exponential-rate"

    def test_init_rejects_boundary_state(self):
        with pytest.raises(DomainError):
            Market(EXPO, -1e-10)
        with pytest.raises(DomainError):
            Market(EXPO, -1.0, inv_liquidity=-1.0)

    def test_liquidity_scales_the_domain_guard(self):
        # lam * theta must stay interior, not theta itself.
        Market(EXPO, -0.4, inv_liquidity=2.0)
        with pytest.raises(DomainError):
            Market(EXPO, -0.4, inv_liquidity=1e-10)
