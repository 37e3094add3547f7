"""Simulation harness contracts: config validation, accounting, determinism,
replay, and report emission."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

from conftest import (ALL_FAMILY_IDS, REVENUE_OVERFLOW_CONFIG, REVENUE_OVERFLOW_ERROR, REVENUE_OVERFLOW_LOG,
                      TRADER_KEY_VALUES, TRADER_KEYS, random_natural, subprocess_env)
from reference_engine import hexed, reference_run
from test_writers import CASES

from expfam_markets import (
    ConfigError,
    CorruptLogError,
    Market,
    SimConfig,
    SimReport,
    TradeLog,
    TradeRecord,
    emit_report,
    family_from_id,
    read_trade_log,
    replay,
    run_simulation,
)
from expfam_markets import families, harness, market, traders
from expfam_markets.families import Categorical, ExpFamily
from expfam_markets.harness import TradeEvent, parse_belief_theta
from expfam_markets.market import log_header


def base_config(**overrides) -> dict:
    cfg = {
        "family": "categorical:2",
        "theta0": [0.0, 0.0],
        "true_theta": [0.6, -0.6],
        "rounds": 5,
        "seed": 42,
        "traders": [
            {"id": "alice", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}},
        ],
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_minimal_config(self):
        config = SimConfig.from_dict(base_config())
        assert config.family.id == "categorical:2"
        assert config.rounds == 5
        assert config.traders[0].id == "alice"

    def test_belief_forms(self):
        fam = family_from_id("gaussian-moments")
        via_theta = parse_belief_theta(fam, {"theta": [1.0, -0.5]}, "t")
        via_mv = parse_belief_theta(fam, {"mean": 1.0, "variance": 1.0}, "t")
        np.testing.assert_allclose(via_theta, via_mv, atol=1e-12)
        expo = family_from_id("exponential-rate")
        np.testing.assert_allclose(parse_belief_theta(expo, {"mean": 0.5}, "t"), [-2.0])
        weib = family_from_id("weibull-moment:2")
        np.testing.assert_allclose(parse_belief_theta(weib, {"moment": 2.0}, "t"), [-0.5])

    @pytest.mark.parametrize("corrupt", [
        {"family": "nope"},
        {"rounds": 0},
        {"rounds": 2.5},
        {"seed": "abc"},
        {"theta0": [5.0, 5.0], "family": "exponential-rate", "true_theta": [-1.0]},
        {"traders": []},
        {"traders": [{"id": "a", "model": "psychic", "belief": {"probs": [0.5, 0.5]}}]},
        {"traders": [{"id": "a", "model": "bayesian"}]},
        {"traders": [{"id": "a", "model": "risk-neutral"}]},
        {"traders": [
            {"id": "a", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}},
            {"id": "a", "model": "risk-neutral", "belief": {"probs": [0.6, 0.4]}},
        ]},
        {"arrival": "sometimes"},
        {"arrival": "fixed-sequence", "sequence": ["ghost"]},
        {"inv_liquidity": 0.0},
        {"traders": [{"id": "a", "model": "risk-neutral",
                      "belief": {"probs": [0.7, 0.3]}, "budget": -1.0}]},
        {"seed": -1},
        {"inv_liquidity": "x"},
        {"traders": [{"id": "a", "model": "exp-utility", "risk_aversion": "abc",
                      "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "budget-limited", "budget": "x",
                      "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": {"probs": "ab"}}]},
        {"traders": [{"id": "a", "model": "exp-utility", "risk_aversion": math.nan,
                      "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "budget-limited", "budget": math.nan,
                      "belief": {"probs": [0.7, 0.3]}}]},
        {"rounds": True},
        {"sequence": "a"},
        {"arrival": "fixed-sequence", "sequence": "a"},
        {"arrival": "fixed-sequence", "sequence": ["a", 1]},
        {"state_reset": "false"},
        {"theta0": "x"},
        {"traders": [{"id": "b", "model": "bayesian",
                      "sample": {"mean": {"probs": [0.7, 0.3]}, "size": "x"}}]},
        {"theta0": ["0", True]},
        {"true_theta": ["0.6", -0.6]},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": {"probs": ["0.7", 0.3]}}]},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": {"theta": [True, 0.0]}}]},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": ["1.0", 0.0]}]},
        {"traders": [{"id": "b", "model": "bayesian",
                      "sample": {"mean": {"probs": ["0.7", 0.3]}, "size": 1.0}}]},
        {"traders": [{"id": "b", "model": "bayesian", "sample": {"mean": ["0.7", 0.3], "size": 1.0}}]},
        {"family": "gaussian-moments", "theta0": [0.0, -0.5], "true_theta": [0.0, -0.5],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"mean": "0.0", "variance": 1.0}}]},
        {"family": "gaussian-moments", "theta0": [0.0, -0.5], "true_theta": [0.0, -0.5],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"mean": 0.0, "variance": True}}]},
        {"family": "exponential-rate", "theta0": [-1.0], "true_theta": [-1.0],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"mean": "0.5"}}]},
        {"family": "weibull-moment:2", "theta0": [-1.0], "true_theta": [-1.0],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"moment": [True]}}]},
        {"traders": [5]},
        {"traders": [{"model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "exp-utility", "risk_aversion": -1.0, "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [0.7, 0.3]}, "size": 0}}]},
        {"arrival": "fixed-sequence", "sequence": []},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": {"foo": 1}}]},
        {"family": "gaussian-moments", "theta0": [0.0, -0.5], "true_theta": [0.0, -0.5],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"variance": 1.0}}]},
        # Finite prices, but theta1**2 / (4 * -theta2) overflows: Market refuses the state, so the config does.
        {"family": "gaussian-moments", "theta0": [1e200, -1e200], "true_theta": [0.0, -0.5],
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"mean": 0.0, "variance": 1.0}}]},
        # A key no reader knows, such as a misspelt one, would otherwise be dropped without a word.
        {"typo_key": 1},
        {"state_rest": True},
        {"traders": [{"id": "a", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}, "bogus": 1}]},
        {"traders": [{"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [0.7, 0.3]}, "szie": 2}}]},
        # A trader takes only the keys its model reads: a budget on a trader that no budget limits.
        {"traders": [{"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "budget": 0.01,
                      "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "risk-neutral", "budget": 1.0, "belief": {"probs": [0.7, 0.3]}}]},
        # TraderProfile makes the range checks: a budget-limited trader's budget and risk_aversion.
        {"traders": [{"id": "a", "model": "budget-limited", "budget": -1.0, "belief": {"probs": [0.7, 0.3]}}]},
        {"traders": [{"id": "a", "model": "budget-limited", "risk_aversion": -1.0, "budget": 1.0,
                      "belief": {"probs": [0.7, 0.3]}}]},
        # A mean description is exactly {mean, variance} or one of probs, moment and mean: no key is dropped.
        *[{"family": family, "theta0": theta, "true_theta": theta, "traders": [trader]}
          for family, theta, mean in [
              ("categorical:2", [0.0, 0.0], {"probs": [0.7, 0.3], "mean": [0.1, 0.9]}),
              ("categorical:2", [0.0, 0.0], {"probs": [0.7, 0.3], "junk": 1}),
              ("categorical:2", [0.0, 0.0], {"theta": [1.0, 0.0], "probs": [0.5, 0.5]}),
              ("gaussian-moments", [0.0, -0.5], {"mean": 0.5, "variance": 2.0, "moment": [9.0, 9.0]}),
              ("gaussian-moments", [0.0, -0.5], {"mean": [1e200, 1e300]}),  # 1e200 ** 2 overflowed
          ]
          for trader in [{"id": "a", "model": "risk-neutral", "belief": mean},
                         {"id": "b", "model": "bayesian", "sample": {"mean": mean}}]],
        # |true_theta| overflows: every vmf3 draw would be [0, 0, 0], off the sphere.
        {"family": "vmf3", "theta0": [0.0, 0.0, 0.0], "true_theta": [1.7e308] * 3,
         "traders": [{"id": "a", "model": "risk-neutral", "belief": {"theta": [0.0, 0.0, 1.0]}}]},
        # Only fixed-sequence arrival reads a sequence.
        {"arrival": "round-robin", "sequence": ["zz"]},
        {"sequence": ["alice"]},
    ])
    def test_invalid_configs_rejected(self, corrupt):
        with pytest.raises(ConfigError):
            SimConfig.from_dict(base_config(**corrupt))

    def test_risk_neutral_refuses_risk_aversion(self):
        # A risk-neutral trader's risk aversion is the profile's default of 0; a configured one would be ignored.
        assert SimConfig.from_dict(base_config()).traders[0].risk_aversion == 0.0
        cfg = base_config(traders=[{"id": "alice", "model": "risk-neutral", "risk_aversion": 0.0,
                                    "belief": {"probs": [0.7, 0.3]}}])
        with pytest.raises(ConfigError, match=re.escape("traders[0] (model 'risk-neutral') has unknown keys "
                                                        "['risk_aversion']; the keys are ['belief', 'id', 'model']")):
            SimConfig.from_dict(cfg)

    def test_the_table_of_trader_keys(self):
        assert harness.TRADER_KEYS == TRADER_KEYS and harness.TRADER_MODELS == tuple(TRADER_KEYS)

    @pytest.mark.parametrize("model, key", [(model, key) for model, keys in TRADER_KEYS.items()
                                            for key in sorted(TRADER_KEY_VALUES.keys() - keys)])
    def test_a_trader_key_its_model_does_not_read_is_refused(self, model, key):
        # A key the model does not read would be dropped, or checked and then ignored, without a word.
        trader = {"id": "a", "model": model, **{k: TRADER_KEY_VALUES[k] for k in TRADER_KEYS[model] | {key}}}
        with pytest.raises(ConfigError, match=re.escape(f"traders[0] (model {model!r}) has unknown keys [{key!r}]")):
            SimConfig.from_dict(base_config(traders=[trader]))

    @pytest.mark.parametrize("model", TRADER_KEYS)
    def test_each_model_loads_with_exactly_its_keys(self, model):
        trader = {"id": "a", "model": model, **{k: TRADER_KEY_VALUES[k] for k in TRADER_KEYS[model]}}
        [profile] = SimConfig.from_dict(base_config(traders=[trader])).traders
        assert profile.model == model
        assert profile.risk_aversion == trader.get("risk_aversion", 0.0)
        assert profile.budget == trader.get("budget")
        assert (profile.belief_theta is None) == (model == "bayesian") == (profile.sample_mean is not None)

    def test_missing_key_rejected(self):
        for key in ("theta0", "family"):
            cfg = base_config()
            del cfg[key]
            with pytest.raises(ConfigError, match=key):
                SimConfig.from_dict(cfg)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_bayesian_and_budget_limited_run_at_any_liquidity(self, lam):
        # The first Bayesian trader moves prices to its own sample mean at every inverse liquidity.
        cfg = base_config(inv_liquidity=lam, rounds=1, arrival="fixed-sequence", traders=[
            {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [0.7, 0.3]}, "size": 1}},
            {"id": "bl", "model": "budget-limited", "budget": 0.05, "belief": {"probs": [0.2, 0.8]}},
        ])
        config = SimConfig.from_dict(cfg)
        assert config.inv_liquidity == lam
        report = run_simulation(config)
        assert report.valid and [ev.trader_id for ev in report.events] == ["b", "bl"]
        market = Market(config.family, config.theta0, lam)
        market.execute(report.events[0].delta)
        np.testing.assert_allclose(market.prices(), [0.7, 0.3], atol=1e-12)
        assert 0.0 <= report.events[1].cost <= 0.05

    def test_missing_seed_rejected_at_load_time(self):
        cfg = base_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="simulation requires a seed"):
            SimConfig.from_dict(cfg)

    @pytest.mark.parametrize("family, theta, belief, natural", [
        ("exponential-rate", [-1.0], {"mean": 1e13}, "[-1e-13]"),
        ("gaussian-moments", [0.0, -0.5], {"mean": 0.0, "variance": 1e13}, "[0.0, -5e-14]"),
    ])
    @pytest.mark.parametrize("model", ["exp-utility", "risk-neutral", "budget-limited"])
    def test_belief_given_as_a_mean_is_checked_as_a_natural_parameter(self, family, theta, belief, natural, model):
        # An interior mean can map within 1e-12 of the natural boundary; the run's moves trust the belief.
        risk_aversion = {} if model == "risk-neutral" else {"risk_aversion": 1.0}
        cfg = base_config(family=family, theta0=theta, true_theta=theta,
                          traders=[{"id": "a", "model": model, **risk_aversion, "belief": belief}])
        message = f"traders[0].belief: {family}: natural parameter {natural} outside the domain (or within 1e-12 "
        with pytest.raises(ConfigError, match=re.escape(message)):
            SimConfig.from_dict(cfg)


class TestSingleRound:
    def test_risk_neutral_first_trader_sets_prices_to_belief(self):
        cfg = base_config(
            family="exponential-rate", theta0=[-1.0], true_theta=[-2.0], rounds=1,
            traders=[{"id": "t", "model": "risk-neutral", "belief": {"theta": [-2.0]}}],
        )
        report = run_simulation(SimConfig.from_dict(cfg))
        fam = family_from_id("exponential-rate")
        np.testing.assert_allclose(
            report.aggregates["final_prices"], fam.mean_from_natural([-2.0]), atol=1e-12
        )

    def test_round_robin_takes_turns(self):
        cfg = base_config(rounds=4, traders=[
            {"id": "a", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        assert [ev.trader_id for ev in report.events] == ["a", "b", "a", "b"]

    def test_fixed_sequence_trades_every_round(self):
        cfg = base_config(rounds=3, arrival="fixed-sequence", sequence=["b", "a"], traders=[
            {"id": "a", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.4, 0.6]}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        assert len(report.events) == 6
        assert [ev.trader_id for ev in report.events[:2]] == ["b", "a"]


class TestAccounting:
    def make_report(self, **overrides):
        cfg = base_config(rounds=40, arrival="fixed-sequence", traders=[
            {"id": "informed", "model": "exp-utility", "risk_aversion": 0.5,
             "belief": {"probs": [0.65, 0.35]}},
            {"id": "noisy", "model": "budget-limited", "budget": 0.8,
             "belief": {"probs": [0.2, 0.8]}},
        ], **overrides)
        return run_simulation(SimConfig.from_dict(cfg))

    def test_zero_sum_cash_flow(self):
        report = self.make_report()
        total_cost = sum(ev.cost for ev in report.events)
        assert report.aggregates["revenue"] == pytest.approx(total_cost, abs=1e-12)
        # settlement: market's realized loss = payoffs - revenue
        payoffs = sum(ev.myopic_impact + ev.cost for ev in report.events)
        impacts = sum(ev.myopic_impact for ev in report.events)
        assert payoffs - report.aggregates["revenue"] == pytest.approx(impacts, abs=1e-9)

    @staticmethod
    def family_report(family_id, lam=1.0):
        """Every trader model trading each round on one family, from seeded interior parameters."""
        fam = family_from_id(family_id)
        rng = np.random.default_rng(43)

        def theta():
            return random_natural(fam, rng).tolist()

        report = run_simulation(SimConfig.from_dict(base_config(
            family=family_id, theta0=[t / lam for t in theta()], true_theta=theta(), inv_liquidity=lam, rounds=20,
            arrival="fixed-sequence",
            traders=[
                {"id": "eu", "model": "exp-utility", "risk_aversion": 0.5, "belief": {"theta": theta()}},
                {"id": "rn", "model": "risk-neutral", "belief": {"theta": theta()}},
                {"id": "bl", "model": "budget-limited", "budget": 0.8, "belief": {"theta": theta()}},
                {"id": "by", "model": "bayesian",
                 "sample": {"mean": fam.mean_from_natural(theta()).tolist(), "size": 2.0}},
            ])))
        assert report.valid and len(report.events) == 80
        return report

    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_myopic_impact_equals_log_loss_drop(self, family_id):
        for ev in self.family_report(family_id).events:
            assert ev.myopic_impact == pytest.approx(
                ev.log_loss_before - ev.log_loss_after, abs=1e-10
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_myopic_impact_equals_log_loss_drop_at_inverse_liquidity(self, family_id, lam):
        report = self.family_report(family_id, lam)
        for ev in report.events:
            assert ev.myopic_impact == pytest.approx(ev.log_loss_before - ev.log_loss_after, abs=1e-10)
        if family_id.startswith("categorical"):  # pure purchases within the cap: the budget floor
            assert min(ev.trader_budgets["bl"] for ev in report.events) >= -1e-12

    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_myopic_impact_is_payoff_minus_cost(self, family_id):
        fam = family_from_id(family_id)
        for ev in self.family_report(family_id).events:
            payoff = float(np.dot(ev.delta, fam.statistic(ev.outcome)))
            assert ev.myopic_impact == pytest.approx(payoff - ev.cost, abs=1e-10)

    def test_impact_totals_reconcile_with_budgets(self):
        report = self.make_report()
        impacts = {tid: 0.0 for tid in report.aggregates["per_trader_impact"]}
        for ev in report.events:
            impacts[ev.trader_id] += ev.myopic_impact
        for tid, total in impacts.items():
            assert report.aggregates["per_trader_impact"][tid] == pytest.approx(total, abs=1e-9)
        final = report.aggregates["final_budgets"]["noisy"]
        assert final == pytest.approx(0.8 + impacts["noisy"], abs=1e-9)
        assert final >= -1e-12  # categorical budget-limited trades cannot go broke

    def test_unlimited_budget_reported_as_null(self):
        report = self.make_report()
        assert report.aggregates["final_budgets"]["informed"] is None
        data = json.loads(report.to_json())
        assert data["aggregates"]["final_budgets"]["informed"] is None

    def test_settlement_evaluates_one_log_loss_per_path_state(self, monkeypatch, tmp_path):
        # Settlement runs from the round's first pairing with the outcome to the next quote; in it
        # the log partition of each path state is read from the market's C(theta) cache.
        settling, settled_partitions, rounds_settled = [False], [], []
        real_pair, real_log_partition, real_quote = (
            Categorical._pair, Categorical._log_partition, Market._quote)

        def pair(family, vec, x):
            if not settling[0]:
                settling[0] = True
                rounds_settled.append(x)
            return real_pair(family, vec, x)

        def log_partition(family, theta):
            if settling[0]:
                settled_partitions.append(theta)
            return real_log_partition(family, theta)

        def quote(market, delta):
            settling[0] = False
            return real_quote(market, delta)

        monkeypatch.setattr(Categorical, "_pair", pair)
        monkeypatch.setattr(Categorical, "_log_partition", log_partition)
        monkeypatch.setattr(Market, "_quote", quote)
        rounds, k = 40, 3
        log = str(tmp_path / "trades.jsonl")
        report = run_simulation(SimConfig.from_dict(base_config(
            rounds=rounds, arrival="fixed-sequence", traders=[
                {"id": "informed", "model": "exp-utility", "risk_aversion": 0.5,
                 "belief": {"probs": [0.65, 0.35]}},
                {"id": "noisy", "model": "budget-limited", "budget": 0.8,
                 "belief": {"probs": [0.2, 0.8]}},
                {"id": "contrarian", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}},
            ])), trade_log_path=log)
        assert report.valid and len(report.events) == rounds * k
        assert len(rounds_settled) == rounds and settled_partitions == []
        family = family_from_id("categorical:2")
        path_market = Market(family, [0.0, 0.0])  # walks the logged states
        for ev, record in zip(report.events, read_trade_log(log), strict=True):
            assert ev.log_loss_before.hex() == path_market.log_loss(ev.outcome).hex()
            path_market.execute(record.delta)
            assert ev.log_loss_after.hex() == path_market.log_loss(ev.outcome).hex()
        last_after = 0.0
        for r in range(rounds):
            round_events = report.events[r * k:(r + 1) * k]
            for prev, ev in zip(round_events, round_events[1:]):
                assert ev.log_loss_before == prev.log_loss_after
                assert ev.trader_budgets == prev.trader_budgets
            last_after += round_events[-1].log_loss_after
        assert report.aggregates["total_log_loss"] == last_after
        assert report.events[-1].trader_budgets == report.aggregates["final_budgets"]

    def test_log_losses_at_inverse_liquidity(self):
        # A loss is C(theta) - <theta, phi(x)>, in budget units, at every inverse liquidity.
        rounds, lam = 6, 2.0
        cfg = base_config(inv_liquidity=lam, rounds=rounds, arrival="fixed-sequence", traders=[
            {"id": "eu", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
            {"id": "bl", "model": "budget-limited", "budget": 0.3, "belief": {"probs": [0.2, 0.8]}},
            {"id": "by", "model": "bayesian", "sample": {"mean": {"probs": [0.6, 0.4]}, "size": 2}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        assert report.valid and len(report.events) == 3 * rounds
        family = family_from_id("categorical:2")
        for ev in report.events:
            assert isinstance(ev.log_loss_before, float) and isinstance(ev.log_loss_after, float)
            assert ev.myopic_impact == pytest.approx(ev.log_loss_before - ev.log_loss_after, abs=1e-10)
        total = 0.0
        for i in range(2, len(report.events), 3):
            total += report.events[i].log_loss_after
        assert report.aggregates["total_log_loss"] == total
        natural = [lam * t for t in report.aggregates["final_theta"]]  # 1/lam times the predictive density's nats
        assert report.events[-1].log_loss_after == pytest.approx(
            -family.log_density(natural, report.events[-1].outcome) / lam, abs=1e-12)


# Per family: a fresh market's theta0 (also the true theta) and four raw sample means for Bayesian traders.
BAYESIAN_SAMPLES = {
    "categorical:3": ([0.0, 0.0, 0.0], [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.1, 0.5, 0.4], [0.3, 0.3, 0.4]]),
    "exponential-rate": ([-1.0], [[2.0], [0.5], [3.0], [1.25]]),
    "gaussian-moments": ([0.0, -0.5], [[0.5, 1.25], [-1.0, 3.0], [2.0, 4.5], [0.25, 0.5]]),
    "weibull-moment:2": ([-1.0], [[1.5], [0.25], [4.0], [2.0]]),
    "vmf3": ([0.0, 0.0, 0.0], [[0.5, 0.1, -0.2], [-0.3, 0.6, 0.1], [0.1, -0.1, 0.8], [0.2, 0.2, 0.2]]),
}


class TestBayesianAggregation:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_sequential_traders_average_their_samples(self, family_id, lam):
        # Trader t meets n_trades = t and weighs the prices as t samples of its own size m against its m: the size
        # cancels, whatever it is, so the prices after the last trade are the plain mean of the sample means.
        theta0, sample_means = BAYESIAN_SAMPLES[family_id]
        traders = [{"id": f"b{j}", "model": "bayesian", "sample": {"mean": m, "size": size}}
                   for j, (m, size) in enumerate(zip(sample_means, [1.0, 2.5, 7.0, 0.5]))]
        report = run_simulation(SimConfig.from_dict(base_config(
            family=family_id, theta0=theta0, true_theta=theta0, inv_liquidity=lam, rounds=1,
            arrival="fixed-sequence", sequence=[t["id"] for t in traders], traders=traders)))
        assert report.valid and report.aggregates["n_trades"] == 4
        np.testing.assert_allclose(report.aggregates["final_prices"], np.mean(sample_means, axis=0), rtol=1e-12)

    def test_first_bayesian_with_degenerate_sample_aborts_flagged(self):
        cfg = base_config(rounds=2, traders=[
            {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [1.0, 0.0]}, "size": 1}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        assert not report.valid
        assert "round 1" in report.error
        assert report.events == []


class TestDeterminismAndReset:
    def test_identical_seeds_identical_bytes(self):
        cfg = base_config(rounds=25)
        a = run_simulation(SimConfig.from_dict(cfg)).to_json()
        b = run_simulation(SimConfig.from_dict(cfg)).to_json()
        assert a == b

    def test_rerunning_one_config_is_byte_identical(self):
        # A run keeps its own books: every profile field, arrays included, reads as before the runs.
        config = SimConfig.from_dict(base_config(rounds=25, arrival="fixed-sequence", traders=[
            {"id": "a", "model": "budget-limited", "budget": 0.5, "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.4, 0.6]}},
            {"id": "c", "model": "risk-neutral", "belief": {"probs": [0.6, 0.4]}},
            {"id": "d", "model": "bayesian", "sample": {"mean": {"probs": [0.3, 0.7]}, "size": 3.0}},
        ]))

        def profiles():
            return [{k: v.tolist() if isinstance(v, array) else v for k, v in vars(tr).items()}
                    for tr in config.traders]
        before = profiles()
        first = run_simulation(config).to_json()
        assert run_simulation(config).to_json() == first
        assert profiles() == before
        assert before[0]["budget"] == 0.5 and before[1]["holdings"] == [0.0, 0.0]

    def test_different_seeds_differ(self):
        a = run_simulation(SimConfig.from_dict(base_config(rounds=25, seed=1))).to_json()
        b = run_simulation(SimConfig.from_dict(base_config(rounds=25, seed=2))).to_json()
        assert a != b

    def test_state_reset_restarts_each_round(self, tmp_path):
        log = str(tmp_path / "trades.jsonl")
        cfg = base_config(rounds=4, state_reset=True, traders=[
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        ])
        run_simulation(SimConfig.from_dict(cfg), trade_log_path=log)
        records = read_trade_log(log)
        assert records.header["state_reset"] is True and [r.round for r in records] == [1, 2, 3, 4]
        for record in records:  # every trade is priced at theta0
            assert record.cost == Market(family_from_id("categorical:2"), [0.0, 0.0]).quote(record.delta)

    def test_carry_over_is_default(self, tmp_path):
        log = str(tmp_path / "trades.jsonl")
        cfg = base_config(rounds=3, traders=[
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        ])
        run_simulation(SimConfig.from_dict(cfg), trade_log_path=log)
        records = read_trade_log(log)
        assert records.header["state_reset"] is False
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        market.execute(records[0].delta)
        assert records[1].cost == market.quote(records[1].delta)  # priced where the first trade left it


class TestTrustedEngine:
    """The round loop runs on what ``SimConfig.from_dict`` validated, so no input check repeats per round."""

    @staticmethod
    def all_models_config(rounds: int, state_reset: bool) -> dict:
        return {
            "family": "categorical:3", "theta0": [0.0, 0.0, 0.0], "true_theta": [0.3, -0.1, -0.2],
            "rounds": rounds, "seed": 5, "arrival": "fixed-sequence", "state_reset": state_reset,
            "traders": [
                {"id": "rn", "model": "risk-neutral", "belief": {"probs": [0.5, 0.3, 0.2]}},
                {"id": "eu", "model": "exp-utility", "risk_aversion": 0.7, "belief": {"probs": [0.2, 0.5, 0.3]}},
                {"id": "bl", "model": "budget-limited", "budget": 0.5, "belief": {"probs": [0.3, 0.3, 0.4]}},
                {"id": "by", "model": "bayesian", "sample": {"mean": {"probs": [0.4, 0.4, 0.2]}, "size": 3}},
            ],
        }

    @pytest.mark.parametrize("state_reset", [False, True])
    def test_checks_run_once_per_run_not_once_per_round(self, monkeypatch, state_reset):
        counts = dict.fromkeys(("as_params", "check_natural", "check_mean"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (families, market, traders, harness):
            monkeypatch.setattr(module, "as_params", counted("as_params", families.as_params))
        for name in ("check_natural", "check_mean"):
            monkeypatch.setattr(ExpFamily, name, counted(name, getattr(ExpFamily, name)))

        def calls_at(rounds: int) -> dict:
            counts.update(dict.fromkeys(counts, 0))
            report = run_simulation(SimConfig.from_dict(self.all_models_config(rounds, state_reset)))
            assert report.valid and len(report.events) == 4 * rounds
            return dict(counts)

        at_10, at_40 = calls_at(10), calls_at(40)
        assert at_10["check_natural"] > 0 and at_40["check_natural"] == at_10["check_natural"]
        for name in ("as_params", "check_mean"):  # the Bayesian posterior is computed, so it is checked
            assert at_40[name] - at_10[name] <= 30, name

    @pytest.mark.parametrize("config, state_reset, expected", [
        ("all-models-round-robin", False, {"_exp_utility_move": 20, "_unconstrained_move": 10, "_quote": 49,
                                           "_cost_at": 51}),
        ("all-models-round-robin", True, {"_exp_utility_move": 2, "_unconstrained_move": 1, "_quote": 13,
                                          "_cost_at": 15}),
        ("a-b-a", False, {"_exp_utility_move": 30, "_unconstrained_move": 0, "_quote": 30, "_cost_at": 32}),
        ("a-b-a", True, {"_exp_utility_move": 3, "_unconstrained_move": 0, "_quote": 3, "_cost_at": 5}),
    ])
    def test_a_state_reset_run_computes_each_move_once(self, monkeypatch, config, state_reset, expected):
        # Under state_reset every round starts at theta0, so each non-Bayesian turn computes and quotes its move
        # once and reads both back.  Without state_reset each decision meets a new state and computes one.  Either
        # way no trade is priced twice: the mover's quote is the one bought.
        owners = {"_exp_utility_move": harness, "_unconstrained_move": harness, "_quote": Market, "_cost_at": Market}
        calls = dict.fromkeys(owners, 0)

        def counted(name):
            real = getattr(owners[name], name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(owners[name], name, counted(name))
        raw = ({**self.all_models_config(40, state_reset), "arrival": "round-robin"}
               if config == "all-models-round-robin" else a_b_a_for_ten_rounds(state_reset))
        report = run_simulation(SimConfig.from_dict(raw))
        assert report.valid and report.aggregates["completed_rounds"] == raw["rounds"]
        # Round-robin: rn and eu take the exp-utility move, bl the unconstrained one; the Bayesian move calls
        # neither here.  by quotes each of its moves, bl its unconstrained move and each fraction it tries.
        # Sequence [a, b, a]: a has a mover per turn, and under state_reset each of the three turns meets the same
        # state object every round (b's kept quote holds the state b reaches).  A cost evaluation is a quote's, or
        # one of the two markets' (from_dict's and the run's) at theta0.
        assert calls == expected

    def test_a_bayesian_trader_moves_anew_in_every_state_reset_round(self):
        # by trades second, so each round it meets the one post-trade state that rn's repeated move reaches.
        # Its posterior weighs n_trades, which grows, so its move still changes round by round, while rn's
        # events hold one delta's bytes.
        raw = {**self.all_models_config(6, True), "sequence": ["rn", "by"]}
        raw["traders"] = [tr for tr in raw["traders"] if tr["id"] in raw["sequence"]]
        report = run_simulation(SimConfig.from_dict(raw))
        assert report.valid
        rn = [ev.delta.tobytes() for ev in report.events if ev.trader_id == "rn"]
        by = [ev.delta.tobytes() for ev in report.events if ev.trader_id == "by"]
        assert len(rn) == 6 and len(set(rn)) == 1
        assert len(by) == 6 and len(set(by)) == 6

    @pytest.mark.parametrize("model", ["risk-neutral", "budget-limited"])
    def test_non_finite_move_is_refused_as_the_delta(self, model):
        # belief - theta0 overflows, so the move is [inf, 0.0]: refused with the message the public
        # execute and quote give it, not as the non-finite target it leads to.
        budget = {"budget": 1.0} if model == "budget-limited" else {}  # only a budget-limited trader takes one
        report = run_simulation(SimConfig.from_dict(base_config(theta0=[-1e308, 0.0], traders=[
            {"id": "t", "model": model, **budget, "belief": {"theta": [1e308, 0.0]}}])))
        assert (report.valid, report.error) == (False, "round 1: delta must be finite, got [inf, 0.0]")


class TestServedVariates:
    """``_served`` serves the bits of one scalar ``Generator`` call per variate, across block edges.

    Each method reads a fresh generator, so a block filled before its first variate is used (by either
    method) would shift the stream and fail here.
    """

    @pytest.mark.parametrize("seed", [1, 7, 123456789])
    @pytest.mark.parametrize("method", ["random", "standard_normal"])
    def test_blocks_hold_the_scalar_calls_bits(self, seed, method):
        served = getattr(harness._served(np.random.default_rng(seed)), method)
        scalar = getattr(np.random.default_rng(seed), method)
        n = 2 * harness._BLOCK + 3
        assert [served().hex() for _ in range(n)] == [scalar().hex() for _ in range(n)]


def aborts_in_round_2() -> dict:
    """A config whose second trader's move lands within the trading margin of the boundary."""
    return base_config(family="exponential-rate", theta0=[-1.0], true_theta=[-0.8], rounds=3, traders=[
        {"id": "a", "model": "risk-neutral", "belief": {"theta": [-0.5]}},
        {"id": "edge", "model": "risk-neutral", "belief": {"theta": [-1e-10]}},
    ])


def aborts_before_a_trade() -> dict:
    """A config whose one trader, Bayesian on a degenerate sample, aborts round 1 before it trades."""
    return base_config(rounds=2, traders=[
        {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [1.0, 0.0]}, "size": 1}},
    ])


def header_line(config: SimConfig) -> str:
    """The first line a run of ``config`` writes to its trade log."""
    market = Market(config.family, config.theta0, config.inv_liquidity)
    return json.dumps(log_header(market, config.state_reset), sort_keys=True) + "\n"


def a_then_b_for_six_rounds() -> dict:
    return base_config(rounds=6, arrival="fixed-sequence", sequence=["a", "b"], traders=[
        {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        {"id": "b", "model": "budget-limited", "budget": 0.4, "belief": {"probs": [0.2, 0.8]}},
    ])


def a_b_a_for_ten_rounds(state_reset: bool) -> dict:
    return base_config(rounds=10, arrival="fixed-sequence", sequence=["a", "b", "a"], state_reset=state_reset, traders=[
        {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        {"id": "b", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}},
    ])


class TestTradeLog:
    def test_the_log_holds_exactly_the_settled_rounds_at_every_execute(self, tmp_path, monkeypatch):
        log = tmp_path / "trades.jsonl"
        executed = []  # a TradeRecord per trade; a then b trade in each round, so trade i is in round i // 2 + 1
        real_buy = Market._buy

        def logged_so_far():
            return log.read_text(encoding="utf-8").splitlines()[1:] if log.exists() else []

        def buy(market, quote):
            round_index, trader_id = len(executed) // 2 + 1, "ab"[len(executed) % 2]
            assert logged_so_far() == [r.to_json() for r in executed if r.round < round_index]
            executed.append(TradeRecord(round_index, trader_id, quote[0], real_buy(market, quote)))
            return executed[-1].cost

        monkeypatch.setattr(Market, "_buy", buy)
        run_simulation(SimConfig.from_dict(a_then_b_for_six_rounds()), trade_log_path=str(log))
        assert len(executed) == 12
        assert logged_so_far() == [r.to_json() for r in executed]

    @pytest.mark.parametrize("interrupted_at, settled", [(2, []), (4, [(1, "a"), (1, "b")])])
    def test_interrupted_run_leaves_only_settled_rounds(self, tmp_path, monkeypatch, interrupted_at, settled):
        log = tmp_path / "trades.jsonl"
        log.write_text("an older run's log\n")
        executed = []  # a TradeRecord per trade, with the round and trader of a_then_b_for_six_rounds
        real_buy = Market._buy

        def buy(market, quote):
            if len(executed) + 1 == interrupted_at:
                raise KeyboardInterrupt
            round_index, trader_id = len(executed) // 2 + 1, "ab"[len(executed) % 2]
            executed.append(TradeRecord(round_index, trader_id, quote[0], real_buy(market, quote)))
            return executed[-1].cost

        monkeypatch.setattr(Market, "_buy", buy)
        config = SimConfig.from_dict(a_then_b_for_six_rounds())
        with pytest.raises(KeyboardInterrupt):
            run_simulation(config, trade_log_path=str(log))
        assert [(r.round, r.trader_id) for r in executed] == [(1, "a"), (1, "b"), (2, "a")][:interrupted_at - 1]
        assert [(r.round, r.trader_id) for r in read_trade_log(str(log))] == settled
        # the header, then the settled rounds' records: only the header when none settled, never the older log
        assert log.read_text(encoding="utf-8").splitlines(keepends=True) == [header_line(config)] + [
            r.to_json() + "\n" for r in executed[:len(settled)]]

    def test_rerun_replaces_the_log(self, tmp_path):
        log = tmp_path / "trades.jsonl"
        config = SimConfig.from_dict(base_config(rounds=7))
        run_simulation(config, trade_log_path=str(log))
        first = log.read_bytes()
        run_simulation(config, trade_log_path=str(log))
        assert log.read_bytes() == first
        assert len(read_trade_log(str(log))) == 7

    @pytest.mark.parametrize("stale", [False, True])
    def test_run_without_a_trade_leaves_only_its_header(self, tmp_path, stale):
        log = tmp_path / "trades.jsonl"
        if stale:
            log.write_text("an older run's log\n")
        config = SimConfig.from_dict(aborts_before_a_trade())
        report = run_simulation(config, trade_log_path=str(log))
        assert (report.valid, report.aggregates["n_trades"]) == (False, 0)
        assert log.read_text(encoding="utf-8") == header_line(config)
        state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
        assert replay(read_trade_log(str(log)), state0).state_dict() == state0

    def test_run_without_a_trade_leaves_a_fifo_in_place(self, tmp_path):
        # A FIFO (or /dev/null) named as the log gets the header, as a regular file does, and stays a FIFO.
        fifo = tmp_path / "trades.jsonl"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # open first, so the run's write end does not block
        config = SimConfig.from_dict(aborts_before_a_trade())
        try:
            report = run_simulation(config, trade_log_path=str(fifo))
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert (report.valid, report.aggregates["n_trades"]) == (False, 0)
        market = Market(config.family, config.theta0, config.inv_liquidity)
        assert received == (json.dumps(log_header(market, config.state_reset), sort_keys=True) + "\n").encode()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_aborted_run_logs_its_trades(self, tmp_path):
        log = str(tmp_path / "trades.jsonl")
        report = run_simulation(SimConfig.from_dict(aborts_in_round_2()), trade_log_path=log)
        assert not report.valid and "round 2" in report.error
        assert [r.trader_id for r in read_trade_log(log)] == ["a"]

    @pytest.mark.parametrize("name", ["draw-overflows-after-a-trade", "draw-overflows-after-two-trades",
                                      "second-trade-fails-in-round-1", "third-trade-fails-in-round-1"])
    def test_aborted_round_leaves_no_unsettled_trade(self, tmp_path, name):
        if name.startswith("draw"):  # round 2's trades execute, then its draw overflows
            cfg = base_config(family="weibull-moment:0.001", theta0=[-1.0], true_theta=[-0.1], seed=3, rounds=3,
                              state_reset=True, traders=[
                                  {"id": "a", "model": "risk-neutral", "belief": {"theta": [-0.5]}},
                                  {"id": "b", "model": "risk-neutral", "belief": {"theta": [-0.25]}}])
            if name.endswith("two-trades"):
                cfg.update(arrival="fixed-sequence", sequence=["a", "b"])
        else:  # "a" (and "b") trade, then "edge" moves to the domain boundary
            cfg = aborts_in_round_2()
            if name.startswith("third"):
                cfg["traders"].insert(1, {"id": "b", "model": "risk-neutral", "belief": {"theta": [-0.25]}})
            cfg.update(arrival="fixed-sequence", sequence=[tr["id"] for tr in cfg["traders"]])
        log = tmp_path / "trades.jsonl"
        log.write_text("an older run's log\n")
        config = SimConfig.from_dict(cfg)
        report = run_simulation(config, trade_log_path=str(log))
        assert not report.valid
        events, agg = report.events, report.aggregates
        settled = {"draw-overflows-after-a-trade": [(1, "a")], "draw-overflows-after-two-trades": [(1, "a"), (1, "b")]}
        assert [(ev.round, ev.trader_id) for ev in events] == settled.get(name, [])
        assert agg["n_trades"] == len(events)
        assert agg["revenue"] == sum(ev.cost for ev in events)
        assert agg["final_prices"] == Market(config.family, agg["final_theta"]).prices().tolist()
        assert log.read_text(encoding="utf-8").startswith(header_line(config))  # never the older log
        records = read_trade_log(str(log))  # only the header when no round settled
        assert [(r.round, r.trader_id, r.cost, r.delta.tolist()) for r in records] == [
            (ev.round, ev.trader_id, ev.cost, ev.delta.tolist()) for ev in events]
        state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
        assert replay(records, state0).state_dict() == {**state0, "theta": agg["final_theta"],
                                                         "n_trades": agg["n_trades"], "revenue": agg["revenue"]}

    @pytest.mark.parametrize("arrival", ["fixed-sequence", "round-robin"])
    def test_a_round_whose_revenue_leaves_the_float_range_aborts(self, tmp_path, arrival):
        # Fixed sequence: a and b trade in round 1, and b's cost takes the revenue to inf.  Round robin: a's
        # round 1 settles, then b's trade in round 2 does it.  The round is refused in execute's words.
        log = tmp_path / "trades.jsonl"
        raw = {**REVENUE_OVERFLOW_CONFIG, "rounds": 3}
        if arrival == "round-robin":  # the default arrival, which reads no sequence
            del raw["arrival"], raw["sequence"]
        config = SimConfig.from_dict(raw)
        report = run_simulation(config, trade_log_path=str(log))
        settled = 0 if arrival == "fixed-sequence" else 1
        assert not report.valid and report.error == f"round {settled + 1}: {REVENUE_OVERFLOW_ERROR}"
        assert [(ev.round, ev.trader_id) for ev in report.events] == [(1, "a")] * settled
        assert report.aggregates["revenue"] == 1.7e308 * settled and report.aggregates["n_trades"] == settled
        assert hexed(report) == reference_run(config)
        assert log.read_text().splitlines(keepends=True)[:1] == [header_line(config)]
        assert len(read_trade_log(str(log))) == settled

    def test_log_that_cannot_be_opened_is_left_alone(self, tmp_path, monkeypatch):
        log = tmp_path / "trades.jsonl"
        log.write_text("a write-protected log\n")

        def refuse(*args, **kwargs):
            raise PermissionError("refused")

        monkeypatch.setattr(harness, "open", refuse, raising=False)
        with pytest.raises(PermissionError):
            run_simulation(SimConfig.from_dict(base_config()), trade_log_path=str(log))
        assert log.read_text() == "a write-protected log\n"

    def test_runs_leave_no_open_handle(self, tmp_path):
        code = (
            "import gc, json, sys\n"
            "from expfam_markets import SimConfig, run_simulation\n"
            "for name, raw in json.loads(sys.argv[1]).items():\n"
            "    report = run_simulation(SimConfig.from_dict(raw), trade_log_path=name + '.jsonl')\n"
            "    print(name, report.valid, report.aggregates['n_trades'])\n"
            "gc.collect()\n"
        )
        configs = {"completed": base_config(rounds=5), "aborted": aborts_in_round_2()}
        proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", code, json.dumps(configs)],
                              capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(), timeout=120)
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == ["completed True 5", "aborted False 1"]


class TestReplay:
    def run_with_log(self, tmp_path, **overrides):
        log = str(tmp_path / "trades.jsonl")
        cfg = base_config(rounds=12, arrival="fixed-sequence", traders=[
            {"id": "informed", "model": "exp-utility", "risk_aversion": 1.0,
             "belief": {"probs": [0.65, 0.35]}},
            {"id": "noisy", "model": "budget-limited", "budget": 0.5,
             "belief": {"probs": [0.3, 0.7]}},
        ], **overrides)
        config = SimConfig.from_dict(cfg)
        report = run_simulation(config, trade_log_path=log)
        state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
        return report, log, state0

    @staticmethod
    def write_log(path, lines) -> str:
        """A trade log of the given lines: a dict as ``json.dumps(..., sort_keys=True)``, a string as given."""
        path.write_text("".join((line if isinstance(line, str) else json.dumps(line, sort_keys=True)) + "\n"
                                for line in lines))
        return str(path)

    def test_empty_log_returns_initial_state(self):
        market = Market(family_from_id("exponential-rate"), -1.0)
        rebuilt = replay(TradeLog([], log_header(market)), market.state_dict())
        assert rebuilt.state_dict() == market.state_dict()

    def test_replay_reconstructs_final_state_bitwise(self, tmp_path):
        report, log, state0 = self.run_with_log(tmp_path)
        rebuilt = replay(read_trade_log(log), state0)
        assert rebuilt.state_dict()["theta"] == report.aggregates["final_theta"]
        assert rebuilt.n_trades == report.aggregates["n_trades"]
        assert rebuilt.revenue == report.aggregates["revenue"]

    def test_the_audit_path_builds_no_record_and_parses_only_refused_lines_twice(self, tmp_path, monkeypatch):
        # run_simulation and replay buy through Market._buy, which makes no TradeRecord; read_trade_log
        # calls json.loads for the header and for a line its one scan did not accept, and for nothing else.
        built, loads = [], []
        real_init, real_loads = TradeRecord.__init__, json.loads
        monkeypatch.setattr(TradeRecord, "__init__", lambda record, *args: built.append(1) or real_init(record, *args))
        report, log, state0 = self.run_with_log(tmp_path)
        assert built == []
        with open(log) as fh:
            lines = fh.read().splitlines()
        lines[3] += "  "  # json.loads reads the same record; the scan leaves it to json.loads
        monkeypatch.setattr(json, "loads", lambda text: loads.append(text) or real_loads(text))
        records = read_trade_log(self.write_log(tmp_path / "spaced.jsonl", lines))
        assert len(loads) == 2 and loads[1] == lines[3] + "\n"
        assert len(built) == len(records) == len(lines) - 1
        rebuilt = replay(records, state0)
        assert len(built) == len(records)
        assert rebuilt.state_dict()["theta"] == report.aggregates["final_theta"]

    def test_replay_handles_state_resets(self, tmp_path):
        report, log, state0 = self.run_with_log(tmp_path, state_reset=True)
        rebuilt = replay(read_trade_log(log), state0)
        assert rebuilt.state_dict()["theta"] == report.aggregates["final_theta"]
        assert rebuilt.revenue == report.aggregates["revenue"]

    def test_perturbed_cost_detected(self, tmp_path):
        _, log, state0 = self.run_with_log(tmp_path)
        records = read_trade_log(log)
        records[5].cost += 1e-9
        with pytest.raises(CorruptLogError) as err:
            replay(records, state0)
        assert err.value.line_number == 7  # the header is line 1

    def test_one_ulp_change_to_a_repeated_record_at_theta0_detected(self, tmp_path):
        # In a state_reset log the first trade of every round is priced at theta0, and the informed
        # trader's move there is the same each round: replay prices the repeats from theta0's quote
        # table, and a one-ulp change to one of them still fails at its line.
        _, log, state0 = self.run_with_log(tmp_path, state_reset=True)
        records = read_trade_log(log)
        assert [r.round for r in records[:5]] == [1, 1, 2, 2, 3]
        assert records[4].delta.tobytes() == records[2].delta.tobytes() == records[0].delta.tobytes()
        for direction in (math.inf, -math.inf):
            tampered = read_trade_log(log)
            tampered[4].cost = math.nextafter(tampered[4].cost, direction)
            with pytest.raises(CorruptLogError, match="recorded cost") as err:
                replay(tampered, state0)
            assert err.value.line_number == 6

    def test_reset_inside_a_round_is_a_cost_mismatch(self, tmp_path):
        # Both trades of round 0 priced at theta0, as if the state were reset between them: replay
        # resets only where the round index goes up, so the second cost does not match.
        family = family_from_id("categorical:2")
        first = Market(family, [0.0, 0.0])
        state0 = first.state_dict()
        lines = [log_header(first, state_reset=True), first.execute([0.25, 0.0], "a").to_dict(),
                 Market(family, [0.0, 0.0]).execute([0.0, 0.25], "b").to_dict()]
        with pytest.raises(CorruptLogError, match="recorded cost") as err:
            replay(read_trade_log(self.write_log(tmp_path / "trades.jsonl", lines)), state0)
        assert err.value.line_number == 3
        lines[2]["round"] = 2  # a new round: now the reset is where the header says
        rebuilt = replay(read_trade_log(self.write_log(tmp_path / "trades.jsonl", lines)), state0)
        assert rebuilt.theta.tolist() == [0.0, 0.25]

    def test_jump_back_to_theta0_without_state_reset_is_a_cost_mismatch(self, tmp_path):
        _, log, state0 = self.run_with_log(tmp_path, state_reset=True)
        with open(log) as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        assert header["state_reset"] is True
        lines[0] = json.dumps({**header, "state_reset": False}, sort_keys=True)
        with pytest.raises(CorruptLogError, match="recorded cost") as err:
            replay(read_trade_log(self.write_log(tmp_path / "no-reset.jsonl", lines)), state0)
        assert err.value.line_number == 4  # the first trade of round 2, after both of round 1

    def test_decreasing_round_detected(self, tmp_path):
        _, log, state0 = self.run_with_log(tmp_path)
        records = read_trade_log(log)
        assert [r.round for r in records[:5]] == [1, 1, 2, 2, 3]
        records[4].round = 1
        with pytest.raises(CorruptLogError, match="round 1 follows round 2") as err:
            replay(records, state0)
        assert err.value.line_number == 6

    @pytest.mark.parametrize("key,value", [
        ("family", "categorical:3"), ("theta0", [0.0, 0.5]), ("inv_liquidity", 0.5)])
    def test_header_that_does_not_match_state0_is_corrupt(self, tmp_path, key, value):
        _, log, state0 = self.run_with_log(tmp_path)
        records = read_trade_log(log)
        records.header = {**records.header, key: value}
        with pytest.raises(CorruptLogError, match=f"header {key} ") as err:
            replay(records, state0)
        assert err.value.line_number == 1

    def test_log_without_a_header_is_refused(self, tmp_path):
        _, log, state0 = self.run_with_log(tmp_path)
        records = read_trade_log(log)
        with open(log) as fh:
            lines = fh.read().splitlines()
        for where in (records[:], TradeLog(records)):  # a plain list; a log read from an empty file
            with pytest.raises(CorruptLogError, match="no format-2 header") as err:
                replay(where, state0)
            assert err.value.line_number == 1
        for first in ([], [json.dumps({**json.loads(lines[0]), "format": 1})], [""], ["[]"]):
            path = self.write_log(tmp_path / "old.jsonl", first + lines[1:])  # headerless, as before format 2
            with pytest.raises(CorruptLogError, match="not a format-2 trade log header") as err:
                read_trade_log(path)
            assert err.value.line_number == 1

    @pytest.mark.parametrize("header", [
        {"extra": 1}, {"family": 3}, {"state_reset": 0}, {"theta0": "[0.0, 0.0]"}, {"theta0": [None, 0.0]},
        {"inv_liquidity": "1.0"}, {"inv_liquidity": math.inf}])
    def test_mistyped_header_is_corrupt(self, tmp_path, header):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        lines = [log_header(market) | header, market.execute([0.25, 0.0], "a").to_dict()]
        with pytest.raises(CorruptLogError, match="not a format-2 trade log header") as err:
            read_trade_log(self.write_log(tmp_path / "trades.jsonl", lines))
        assert err.value.line_number == 1

    def test_blank_line_is_corrupt_at_its_own_line(self, tmp_path):
        # Record i is always on line i + 2: a blank line is not skipped, so no later line number shifts.
        _, log, state0 = self.run_with_log(tmp_path)
        with open(log) as fh:
            lines = fh.read().splitlines()
        for blank_at in (1, 2, len(lines)):  # after the header, between records, at the end
            path = self.write_log(tmp_path / "blank.jsonl", lines[:blank_at] + ["  "] + lines[blank_at:])
            with pytest.raises(CorruptLogError, match="blank line") as err:
                read_trade_log(path)
            assert err.value.line_number == blank_at + 1
        with pytest.raises(CorruptLogError) as err:
            read_trade_log(self.write_log(tmp_path / "blank.jsonl", ["", ""] + lines))
        assert err.value.line_number == 1

    def test_undecodable_bytes_are_corrupt_at_their_line(self, tmp_path):
        _, log, _ = self.run_with_log(tmp_path)
        data = Path(log).read_bytes().split(b"\n")
        data[3] = data[3][:20] + b"\xff" + data[3][20:]
        (tmp_path / "bad.jsonl").write_bytes(b"\n".join(data))
        with pytest.raises(CorruptLogError, match="UnicodeDecodeError") as err:
            read_trade_log(str(tmp_path / "bad.jsonl"))
        assert err.value.line_number == 4

    @pytest.mark.parametrize("field,value", [
        ("round", 2.9), ("round", True), ("round", "2"),
        ("trader_id", None), ("trader_id", 7),
        ("cost", "0.1"), ("cost", None), ("cost", math.inf), ("cost", math.nan),
        ("delta", ["0.0", "0.25"]), ("delta", [True, 0.25]), ("delta", 0.25),
        ("theta_after", [0.0, 0.25]), ("note", "an extra key"),
    ])
    def test_mistyped_record_field_is_corrupt(self, tmp_path, field, value):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        lines = [log_header(market), market.execute([0.25, 0.0], "a").to_dict(),
                 {**market.execute([0.0, 0.25], "b").to_dict(), field: value}]
        with pytest.raises(CorruptLogError) as err:
            read_trade_log(self.write_log(tmp_path / "trades.jsonl", lines))
        assert err.value.line_number == 3

    @pytest.mark.parametrize("missing", ["cost", "delta", "round", "trader_id"])
    def test_record_missing_a_key_is_corrupt(self, tmp_path, missing):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        record = market.execute([0.25, 0.0], "a").to_dict()
        del record[missing]
        with pytest.raises(CorruptLogError, match="keys") as err:
            read_trade_log(self.write_log(tmp_path / "trades.jsonl", [log_header(market), record]))
        assert err.value.line_number == 2

    def test_unexecutable_record_detected(self):
        fam = family_from_id("exponential-rate")
        good = Market(fam, -1.0).execute(-0.5)
        bad = TradeRecord(2, "b", array("d", [2.0]), 0.0)  # moves theta -1.5 out of the domain theta < 0
        start = Market(fam, -1.0)
        with pytest.raises(CorruptLogError, match="not executable") as err:
            replay(TradeLog([good, bad], log_header(start)), start.state_dict())
        assert err.value.line_number == 3

    def test_record_that_takes_the_revenue_past_the_float_range_is_unexecutable(self, tmp_path):
        header, *records = REVENUE_OVERFLOW_LOG
        state0 = Market(family_from_id("categorical:2"), header["theta0"]).state_dict()
        with pytest.raises(CorruptLogError) as err:
            replay(read_trade_log(self.write_log(tmp_path / "trades.jsonl", [header, *records])), state0)
        assert str(err.value) == f"trade log line 3: recorded trade is not executable: {REVENUE_OVERFLOW_ERROR}"

    @pytest.mark.parametrize("delta", [[0.5, 0.5], [0.5] * 4])
    def test_delta_of_the_wrong_length_is_unexecutable(self, delta):
        record = TradeRecord(1, "a", array("d", delta), 0.1)
        start = Market(family_from_id("categorical:3"), [0.0] * 3)
        with pytest.raises(CorruptLogError) as err:
            replay(TradeLog([record], log_header(start)), start.state_dict())
        assert str(err.value) == ("trade log line 2: recorded trade is not executable: "
                                  f"delta must be a vector of length 3, got length {len(delta)}")


def assert_reads_as_its_list(events) -> None:
    """``events`` answers ``len``, indexing, slices, iteration and ``==`` as ``list(events)`` does.

    Events are compared by ``repr`` (which shows a ``delta``'s type), as two reads of a NaN field are unequal.
    """
    listed = list(events)
    reprs = [repr(ev) for ev in listed]
    n = len(listed)
    assert len(events) == n and bool(events) == bool(listed) and all(type(ev) is TradeEvent for ev in listed)
    assert [repr(ev) for ev in events] == reprs
    assert [repr(events[i]) for i in range(n)] == reprs == [repr(events[i]) for i in range(-n, 0)]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(1, 3), slice(n, None)):
        assert type(events[cut]) is list and [repr(ev) for ev in events[cut]] == reprs[cut]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            events[i]
    if "nan" not in "".join(reprs):  # a NaN field, read twice, is two floats that compare unequal
        assert events == listed
    assert (events == listed[:-1]) is (events == []) is (n == 0)


def traced_bytes_per_event(config: SimConfig) -> float:
    """The memory a finished run of ``config`` holds, per event, as ``tracemalloc`` counts it."""
    run_simulation(SimConfig.from_dict({**base_config(), "rounds": 1}))  # imports and caches load outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_simulation(config)
        return (tracemalloc.get_traced_memory()[0] - before) / len(report.events)
    finally:
        tracemalloc.stop()


class TestEventTable:
    # A report keeps its events in columns and builds each TradeEvent when it is read.
    @pytest.mark.parametrize("config", [
        base_config(rounds=8),
        TestTrustedEngine.all_models_config(12, True),
        base_config(family="vmf3", theta0=[0.0, 0.0, 0.0], true_theta=[0.5, 1.0, -2.0], rounds=6, traders=[
            {"id": "a", "model": "risk-neutral", "belief": {"mean": [0.2, 0.3, -0.5]}},
            {"id": "b", "model": "budget-limited", "budget": 0.3, "belief": {"mean": [0.1, 0.4, -0.6]}}]),
        aborts_before_a_trade(),
    ], ids=["categorical", "state-reset", "vmf3", "no-round"])
    def test_a_run_reads_as_a_list_of_events(self, config):
        report = run_simulation(SimConfig.from_dict(config))
        assert_reads_as_its_list(report.events)
        assert report.valid == bool(report.events)
        assert [ev.round for ev in report.events] == list(report.events.round)
        if report.events:  # every read builds anew
            assert report.events[0].delta is not report.events[0].delta
            assert type(report.events[-1].delta) is array
            assert len(report.events[-1].delta) == family_from_id(config["family"]).dim

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_hand_built_report_reads_as_a_list_of_events(self, name):
        assert_reads_as_its_list(CASES[name].events)

    def test_a_hand_built_report_keeps_its_values(self):
        # Lists and None stay as given; arrays of one length and exact floats are packed, and read back equal.
        given = [TradeEvent(1, "a", [0.5, -0.5], 0.1, 2, None, 0.25, 0.05, {"a": None}),
                 TradeEvent(2, "b", array("d", [1.0]), 3, array("d", [0.6, 0.0, 0.8]), 0.5, 0.25, -0.0, {"b": 1.0})]
        events = SimReport("categorical:2", 1, 2, 1.0, "round-robin", False, True, None, given, {}).events
        assert list(events) == given and events == given
        assert events.delta == [[0.5, -0.5], array("d", [1.0])] and events.cost == [0.1, 3]
        assert type(events.myopic_impact) is array and events.log_loss_before == [None, 0.5]
        packed = [TradeEvent(r, "a", array("d", [r, -r]), 0.1, 1, 0.5, 0.25, 0.05, {}) for r in (1, 2)]
        events = SimReport("categorical:2", 1, 2, 1.0, "round-robin", False, True, None, packed, {}).events
        assert events.dim == 2 and events.delta == array("d", [1.0, -1.0, 2.0, -2.0]) and events == packed

    def test_a_run_holds_at_most_200_bytes_per_event(self):
        # 2,000 rounds of three categorical:3 trades: each event's fields are packed into columns, and a round's
        # events share its outcome and its one budget snapshot.  A TradeEvent object kept per trade takes ~377.
        raw = {**TestTrustedEngine.all_models_config(2000, False), "sequence": ["eu", "bl", "by"]}
        raw["traders"] = [tr for tr in raw["traders"] if tr["id"] in raw["sequence"]]
        assert traced_bytes_per_event(SimConfig.from_dict(raw)) <= 200

    def test_a_written_report_holds_at_most_150_more_bytes_per_event(self, tmp_path):
        # The same run's JSON and CSV writes: the texts kept for the next writer are seven reprs per event, each
        # "\n"-joined into one str per column of a 256-event chunk (about 137 bytes here), not a str per float.
        raw = {**TestTrustedEngine.all_models_config(2000, False), "sequence": ["eu", "bl", "by"]}
        raw["traders"] = [tr for tr in raw["traders"] if tr["id"] in raw["sequence"]]
        warm = run_simulation(SimConfig.from_dict({**base_config(), "rounds": 1}))
        for fmt in ("json", "csv"):  # imports and caches load outside the count
            emit_report(warm, fmt, str(tmp_path / f"warm.{fmt}"))
        report = run_simulation(SimConfig.from_dict(raw))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for fmt in ("json", "csv"):
                emit_report(report, fmt, str(tmp_path / f"report.{fmt}"))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(report.events) <= 150


class TestEmitReport:
    @pytest.mark.parametrize("config", [
        base_config(rounds=8),
        # Float outcomes, and budgets that are both a float and None.
        base_config(family="gaussian-moments", theta0=[0.0, -0.5], true_theta=[1.0, -0.5],
                    rounds=6, traders=[
                        {"id": "b", "model": "budget-limited", "budget": 0.5,
                         "belief": {"mean": 1.0, "variance": 1.0}},
                        {"id": "u", "model": "exp-utility", "risk_aversion": 0.5,
                         "belief": {"mean": -1.0, "variance": 2.0}},
                    ]),
    ], ids=["categorical", "gaussian-budgets"])
    def test_json_round_trip_is_lossless(self, tmp_path, config):
        report = run_simulation(SimConfig.from_dict(config))
        path = str(tmp_path / "report.json")
        emit_report(report, "json", path)
        with open(path) as fh:
            parsed = json.load(fh)
        assert parsed == report.to_dict()
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == report.to_json()

    def test_csv_cells_are_plain_decimals(self, tmp_path):
        cfg = base_config(family="gaussian-moments", theta0=[0.0, -0.5],
                          true_theta=[1.0, -0.5], rounds=3, traders=[
                              {"id": "g", "model": "exp-utility", "risk_aversion": 0.5,
                               "belief": {"mean": 1.0, "variance": 1.0}},
                          ])
        report = run_simulation(SimConfig.from_dict(cfg))
        path = str(tmp_path / "report.csv")
        emit_report(report, "csv", path)
        text = Path(path).read_text()
        assert "np.float64" not in text and "(" not in text

    def test_csv_row_count(self, tmp_path):
        cfg = base_config(rounds=7, arrival="fixed-sequence", traders=[
            {"id": "a", "model": "risk-neutral", "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        path = str(tmp_path / "report.csv")
        emit_report(report, "csv", path)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1 + 7 * 2
        assert lines[0].startswith("round,trader_id,delta,cost,outcome")

    def test_empty_report_gives_header_only_csv(self, tmp_path):
        report = SimReport(
            family="categorical:2", seed=0, rounds=0, inv_liquidity=1.0,
            arrival="round-robin", state_reset=False, valid=True, error=None,
            events=[], aggregates={},
        )
        path = str(tmp_path / "empty.csv")
        emit_report(report, "csv", path)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1

    def test_unknown_format_rejected(self, tmp_path):
        report = run_simulation(SimConfig.from_dict(base_config(rounds=1)))
        with pytest.raises(ConfigError):
            emit_report(report, "yaml", str(tmp_path / "x"))
