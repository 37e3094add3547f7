"""Simulation harness contracts: config validation, accounting, determinism,
replay, and report emission."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SAMPLEABLE_FAMILY_IDS, random_natural, subprocess_env

from expfam_markets import (
    ConfigError,
    CorruptLogError,
    Market,
    SimConfig,
    SimReport,
    TradeRecord,
    emit_report,
    family_from_id,
    harness,
    read_trade_log,
    replay,
    run_simulation,
)
from expfam_markets.harness import parse_belief_theta


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
        {"family": "vmf3", "theta0": [0.0, 0.0, 0.1], "true_theta": [0.0, 0.0, 0.1]},
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
    ])
    def test_invalid_configs_rejected(self, corrupt):
        with pytest.raises(ConfigError):
            SimConfig.from_dict(base_config(**corrupt))

    def test_risk_neutral_ignores_risk_aversion(self):
        cfg = base_config(traders=[{"id": "alice", "model": "risk-neutral", "risk_aversion": 3.0,
                                    "belief": {"probs": [0.7, 0.3]}}])
        config = SimConfig.from_dict(cfg)
        assert config.traders[0].risk_aversion == 0.0
        plain = SimConfig.from_dict(base_config())
        assert run_simulation(config).to_json() == run_simulation(plain).to_json()

    def test_missing_key_rejected(self):
        cfg = base_config()
        del cfg["theta0"]
        with pytest.raises(ConfigError):
            SimConfig.from_dict(cfg)

    def test_bayesian_requires_unit_liquidity(self):
        cfg = base_config(
            inv_liquidity=2.0,
            traders=[{"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [0.7, 0.3]}, "size": 1}}],
        )
        with pytest.raises(ConfigError):
            SimConfig.from_dict(cfg)

    def test_missing_seed_rejected_at_run_time(self):
        cfg = base_config()
        del cfg["seed"]
        config = SimConfig.from_dict(cfg)
        with pytest.raises(ConfigError):
            run_simulation(config)


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
    def family_report(family_id):
        """Every trader model trading each round on one family, from seeded interior parameters."""
        fam = family_from_id(family_id)
        rng = np.random.default_rng(43)

        def theta():
            return random_natural(fam, rng).tolist()

        report = run_simulation(SimConfig.from_dict(base_config(
            family=family_id, theta0=theta(), true_theta=theta(), rounds=20, arrival="fixed-sequence",
            traders=[
                {"id": "eu", "model": "exp-utility", "risk_aversion": 0.5, "belief": {"theta": theta()}},
                {"id": "rn", "model": "risk-neutral", "belief": {"theta": theta()}},
                {"id": "bl", "model": "budget-limited", "budget": 0.8, "belief": {"theta": theta()}},
                {"id": "by", "model": "bayesian",
                 "sample": {"mean": fam.mean_from_natural(theta()).tolist(), "size": 2.0}},
            ])))
        assert report.valid and len(report.events) == 80
        return report

    @pytest.mark.parametrize("family_id", SAMPLEABLE_FAMILY_IDS)
    def test_myopic_impact_equals_log_loss_drop(self, family_id):
        for ev in self.family_report(family_id).events:
            assert ev.myopic_impact == pytest.approx(
                ev.log_loss_before - ev.log_loss_after, abs=1e-10
            )

    @pytest.mark.parametrize("family_id", SAMPLEABLE_FAMILY_IDS)
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

    def test_settlement_evaluates_one_log_loss_per_path_state(self, monkeypatch):
        calls = []
        real_log_loss = harness.log_loss

        def counting_log_loss(family, theta, phi):
            calls.append(theta)
            return real_log_loss(family, theta, phi)

        monkeypatch.setattr(harness, "log_loss", counting_log_loss)
        rounds, k = 40, 3
        report = run_simulation(SimConfig.from_dict(base_config(
            rounds=rounds, arrival="fixed-sequence", traders=[
                {"id": "informed", "model": "exp-utility", "risk_aversion": 0.5,
                 "belief": {"probs": [0.65, 0.35]}},
                {"id": "noisy", "model": "budget-limited", "budget": 0.8,
                 "belief": {"probs": [0.2, 0.8]}},
                {"id": "contrarian", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}},
            ])))
        assert report.valid and len(report.events) == rounds * k
        assert len(calls) == (k + 1) * rounds
        last_after = 0.0
        for r in range(rounds):
            round_events = report.events[r * k:(r + 1) * k]
            for prev, ev in zip(round_events, round_events[1:]):
                assert ev.log_loss_before == prev.log_loss_after
                assert ev.trader_budgets == prev.trader_budgets
            last_after += round_events[-1].log_loss_after
        assert report.aggregates["total_log_loss"] == last_after
        assert report.events[-1].trader_budgets == report.aggregates["final_budgets"]

    def test_liquidity_disables_log_loss_tracking(self):
        cfg = base_config(inv_liquidity=2.0, rounds=3, traders=[
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg))
        assert report.aggregates["total_log_loss"] is None
        assert all(ev.log_loss_before is None for ev in report.events)
        assert all(ev.myopic_impact is not None for ev in report.events)


class TestBayesianAggregation:
    def test_sequential_traders_average_their_samples(self):
        sample_means = [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.5, 0.5]]
        traders = [
            {"id": f"b{j}", "model": "bayesian", "sample": {"mean": {"probs": m}, "size": 2}}
            for j, m in enumerate(sample_means)
        ]
        cfg = base_config(rounds=1, arrival="fixed-sequence",
                          sequence=[t["id"] for t in traders], traders=traders)
        report = run_simulation(SimConfig.from_dict(cfg))
        fam = family_from_id("categorical:2")
        # independent recursion: prices_{t+1} = (t*prices_t + sample_t)/(t+1)
        prices = fam.mean_from_natural(np.array([0.0, 0.0]))
        for t, m in enumerate(sample_means):
            prices = (t * prices + np.asarray(m)) / (t + 1)
        np.testing.assert_allclose(report.aggregates["final_prices"], prices, atol=1e-12)

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
        config = SimConfig.from_dict(base_config(rounds=25, traders=[
            {"id": "a", "model": "budget-limited", "budget": 0.5, "belief": {"probs": [0.7, 0.3]}},
        ]))
        first = run_simulation(config).to_json()
        assert (config.traders[0].budget, config.traders[0].cash) == (0.5, 0.0)
        assert run_simulation(config).to_json() == first

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
        assert len(records) == 4
        for record in records:
            np.testing.assert_array_equal(record.theta_before, [0.0, 0.0])

    def test_carry_over_is_default(self, tmp_path):
        log = str(tmp_path / "trades.jsonl")
        cfg = base_config(rounds=3, traders=[
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        ])
        run_simulation(SimConfig.from_dict(cfg), trade_log_path=log)
        records = read_trade_log(log)
        np.testing.assert_array_equal(records[1].theta_before, records[0].theta_after)


def aborts_in_round_2() -> dict:
    """A config whose second trader's move lands within the trading margin of the boundary."""
    return base_config(family="exponential-rate", theta0=[-1.0], true_theta=[-0.8], rounds=3, traders=[
        {"id": "a", "model": "risk-neutral", "belief": {"theta": [-0.5]}},
        {"id": "edge", "model": "risk-neutral", "belief": {"theta": [-1e-10]}},
    ])


class TestTradeLog:
    def test_each_record_is_in_the_log_right_after_its_execute(self, tmp_path, monkeypatch):
        log = str(tmp_path / "trades.jsonl")
        executed = []
        real_execute = Market.execute

        def logged_so_far():
            return [r.to_json() for r in read_trade_log(log)] if os.path.exists(log) else []

        def execute(market, *args, **kwargs):
            assert logged_so_far() == [r.to_json() for r in executed]
            executed.append(real_execute(market, *args, **kwargs))
            return executed[-1]

        monkeypatch.setattr(Market, "execute", execute)
        cfg = base_config(rounds=6, arrival="fixed-sequence", sequence=["a", "b"], traders=[
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "budget-limited", "budget": 0.4, "belief": {"probs": [0.2, 0.8]}},
        ])
        run_simulation(SimConfig.from_dict(cfg), trade_log_path=log)
        assert len(executed) == 12
        assert logged_so_far() == [r.to_json() for r in executed]

    def test_rerun_replaces_the_log(self, tmp_path):
        log = tmp_path / "trades.jsonl"
        config = SimConfig.from_dict(base_config(rounds=7))
        run_simulation(config, trade_log_path=str(log))
        first = log.read_bytes()
        run_simulation(config, trade_log_path=str(log))
        assert log.read_bytes() == first
        assert len(read_trade_log(str(log))) == 7

    @pytest.mark.parametrize("stale", [False, True])
    def test_run_without_a_trade_leaves_no_log(self, tmp_path, stale):
        log = tmp_path / "trades.jsonl"
        if stale:
            log.write_text("an older run's log\n")
        cfg = base_config(rounds=2, traders=[
            {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [1.0, 0.0]}, "size": 1}},
        ])
        report = run_simulation(SimConfig.from_dict(cfg), trade_log_path=str(log))
        assert (report.valid, report.aggregates["n_trades"]) == (False, 0)
        assert not log.exists()

    def test_aborted_run_logs_its_trades(self, tmp_path):
        log = str(tmp_path / "trades.jsonl")
        report = run_simulation(SimConfig.from_dict(aborts_in_round_2()), trade_log_path=log)
        assert not report.valid and "round 2" in report.error
        assert [r.trader_id for r in read_trade_log(log)] == ["a"]

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

    def test_empty_log_returns_initial_state(self):
        market = Market(family_from_id("exponential-rate"), -1.0)
        rebuilt = replay([], market.state_dict())
        assert rebuilt.state_dict() == market.state_dict()

    def test_replay_reconstructs_final_state_bitwise(self, tmp_path):
        report, log, state0 = self.run_with_log(tmp_path)
        rebuilt = replay(read_trade_log(log), state0)
        assert rebuilt.state_dict()["theta"] == report.aggregates["final_theta"]
        assert rebuilt.n_trades == report.aggregates["n_trades"]
        assert rebuilt.revenue == report.aggregates["revenue"]

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
        assert err.value.line_number == 6

    def test_perturbed_state_detected(self, tmp_path):
        _, log, state0 = self.run_with_log(tmp_path)
        records = read_trade_log(log)
        records[3].theta_before = records[3].theta_before + 1e-9
        records[3].theta_after = records[3].theta_after + 1e-9
        with pytest.raises(CorruptLogError) as err:
            replay(records, state0)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("field,value", [
        ("round", 2.9), ("round", True), ("round", "2"),
        ("trader_id", None), ("trader_id", 7),
        ("cost", "0.1"), ("cost", None), ("cost", math.inf), ("cost", math.nan),
        ("delta", ["0.0", "0.25"]), ("delta", [True, 0.25]), ("delta", 0.25),
        ("theta_before", [None, 0.0]), ("theta_after", "[0.0, 0.25]"), ("theta_after", [[0.0, 0.25]]),
    ])
    def test_mistyped_record_field_is_corrupt(self, tmp_path, field, value):
        market = Market(family_from_id("categorical:2"), [0.0, 0.0])
        lines = [market.execute([0.25, 0.0], "a", 1).to_dict(),
                 {**market.execute([0.0, 0.25], "b", 2).to_dict(), field: value}]
        log = tmp_path / "trades.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(CorruptLogError) as err:
            read_trade_log(str(log))
        assert err.value.line_number == 2

    def test_unexecutable_record_detected(self):
        fam = family_from_id("exponential-rate")
        good = Market(fam, -1.0).execute(-0.5, round_index=1)
        # Consistent states, but the move leaves the domain theta < 0.
        bad = TradeRecord(2, "b", np.array([2.0]), 0.0, good.theta_after, good.theta_after + 2.0)
        with pytest.raises(CorruptLogError, match="not executable") as err:
            replay([good, bad], Market(fam, -1.0).state_dict())
        assert err.value.line_number == 2


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
        text = open(path).read()
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
