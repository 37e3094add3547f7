"""Command-line interface: subcommands, file handling, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from expfam_markets import Market, family_from_id, read_trade_log, save_state
from expfam_markets.cli import SEED_ENV_VAR, main


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def sim_config(seed=7):
    return {
        "family": "categorical:2",
        "theta0": [0.0, 0.0],
        "true_theta": [0.5, -0.5],
        "rounds": 6,
        "seed": seed,
        "traders": [
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
        ],
    }


class TestScore:
    def test_exponential_report(self, capsys):
        assert main(["score", "--family", "exponential-rate", "--report", "2.0", "--outcome", "2.0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)

    def test_gaussian_mean_variance_report(self, capsys):
        code = main(["score", "--family", "gaussian-moments",
                     "--report", '{"mean": 0.0, "variance": 1.0}', "--outcome", "0.0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_gaussian_raw_vector_report_rejected(self, capsys):
        code = main(["score", "--family", "gaussian-moments", "--report", "[0.0, 1.0]", "--outcome", "0"])
        assert code == 2

    def test_categorical_report(self, capsys):
        assert main(["score", "--family", "categorical:2", "--report", "[0.25, 0.75]", "--outcome", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_unknown_family_is_config_error(self, capsys):
        assert main(["score", "--family", "zeta", "--report", "1", "--outcome", "1"]) == 2

    @pytest.mark.parametrize("family,report", [
        ("categorical:2", '["0.5", "0.5"]'),
        ("categorical:2", '{"probs": [true, false]}'),
        ("exponential-rate", '"2.0"'),
        ("exponential-rate", '{"mean": [true]}'),
        ("gaussian-moments", '{"mean": "0.0", "variance": 1.0}'),
    ])
    def test_report_entries_must_be_json_numbers(self, capsys, family, report):
        assert main(["score", "--family", family, "--report", report, "--outcome", "1"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_bad_report_json_is_config_error(self, capsys):
        assert main(["score", "--family", "exponential-rate", "--report", "oops", "--outcome", "1"]) == 2

    @pytest.mark.parametrize("family,report,outcome", [
        *[(fid, report, outcome)
          for fid, report in [("categorical:2", "[0.5, 0.5]"), ("exponential-rate", "2.0"),
                              ("gaussian-moments", '{"mean": 0.0, "variance": 1.0}')]
          for outcome in ['"x"', "null", "[1]", "true", '"2.0"']],
        *[("vmf3", "[0.0, 0.0, 0.5]", outcome)
          for outcome in ['"x"', "null", "1.0", '["a", 0, 0]', '["1", "0", "0"]', "[true, false, false]"]],
    ])
    def test_non_numeric_outcome_is_domain_error(self, capsys, family, report, outcome):
        assert main(["score", "--family", family, "--report", report, "--outcome", outcome]) == 3
        assert "outcome" in capsys.readouterr().err


class TestQuoteAndTrade:
    def setup_state(self, tmp_path):
        market = Market(family_from_id("exponential-rate"), -1.0)
        path = str(tmp_path / "state.json")
        save_state(market, path)
        return path

    def test_quote_prints_cost(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        assert main(["quote", "--market", path, "--delta", "0.5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_quote_domain_error_exit_code(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        assert main(["quote", "--market", path, "--delta", "2.0"]) == 3

    def test_quote_missing_state_file_is_io_error(self, tmp_path, capsys):
        assert main(["quote", "--market", str(tmp_path / "nope.json"), "--delta", "0.1"]) == 4

    def test_trade_mutates_state_file(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        log = str(tmp_path / "log.jsonl")
        assert main(["trade", "--market", path, "--delta", "-0.5", "--trader", "cli", "--log", log]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trader_id"] == "cli"
        with open(path) as fh:
            state = json.load(fh)
        assert state["theta"] == [-1.5]
        assert state["n_trades"] == 1
        with open(log) as fh:
            assert len(fh.read().splitlines()) == 1

    def test_trade_log_appended_and_flushed_per_trade(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        log = str(tmp_path / "trades.jsonl")
        assert main(["trade", "--market", path, "--delta", "-0.5", "--trader", "a", "--log", log]) == 0
        assert len(read_trade_log(log)) == 1
        assert main(["trade", "--market", path, "--delta", "-0.25", "--trader", "b", "--log", log]) == 0
        records = read_trade_log(log)
        assert [r.trader_id for r in records] == ["a", "b"]
        np.testing.assert_array_equal(records[0].theta_after, records[1].theta_before)
        assert capsys.readouterr().out.splitlines() == [r.to_json() for r in records]

    def test_non_numeric_delta_is_config_error(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        before = open(path).read()
        assert main(["trade", "--market", path, "--delta", '[1, "x"]']) == 2
        assert main(["quote", "--market", path, "--delta", '{"a": 1}']) == 2
        assert open(path).read() == before

    @pytest.mark.parametrize("argv", [
        ["trade", "--delta", '["0.5", true]'],
        ["trade", "--delta", '"0.5"'],
        ["quote", "--delta", "[true]"],
        ["quote", "--delta", "[[0.5]]"],
    ])
    def test_delta_entries_must_be_json_numbers(self, tmp_path, capsys, argv):
        path = self.setup_state(tmp_path)
        before = open(path).read()
        assert main([*argv, "--market", path]) == 2
        assert "config error:" in capsys.readouterr().err
        assert open(path).read() == before

    @pytest.mark.parametrize("command", ["quote", "trade"])
    @pytest.mark.parametrize("content", [
        '{"theta": [0.0, 0.0]}',
        '{"family": "categorical:2"}',
        '{"family": "categorical:2", "theta": ["a", 0.0]}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "n_trades": "x"}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "inv_liquidity": "1"}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "revenue": null}',
        '{"family": "categorical:2", "theta": [true, 0.0]}',
        '{"family": "categorical:2", "theta": "0.0"}',
        "[0.0, 0.0]",
        "{not json",
    ])
    def test_malformed_state_file_is_config_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "state.json"
        path.write_text(content)
        assert main([command, "--market", str(path), "--delta", "[0.1, 0.0]"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert path.read_text() == content

    @pytest.mark.parametrize("content", [
        '{"family": "zeta", "theta": [0.0]}',
        '{"family": "exponential-rate", "theta": [1.0]}',
    ])
    def test_state_outside_domain_is_domain_error(self, tmp_path, capsys, content):
        path = tmp_path / "state.json"
        path.write_text(content)
        assert main(["quote", "--market", str(path), "--delta", "0.1"]) == 3

    def test_malformed_state_file_exits_2_without_traceback(self, tmp_path):
        path = write_json(tmp_path / "state.json", {"theta": [0.0, 0.0]})
        proc = subprocess.run(
            [sys.executable, "-m", "expfam_markets.cli", "quote", "--market", path, "--delta", "[0.1, 0.0]"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_failed_trade_leaves_state_file(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        before = open(path).read()
        assert main(["trade", "--market", path, "--delta", "5.0"]) == 3
        assert open(path).read() == before

    @pytest.mark.parametrize("command,theta,delta", [
        ("quote", [1e200, -1.0], "[0, 0]"),
        ("trade", [1e200, -1.0], "[0, 0]"),
        ("trade", [1.0, -1.0], "[1e200, 0]"),
    ])
    def test_overflowing_cost_is_domain_error(self, tmp_path, command, theta, delta):
        # theta1**2 / (4 * -theta2) overflows: the state or the target has no finite cost.
        path = write_json(tmp_path / "state.json", {"family": "gaussian-moments", "theta": theta})
        before = open(path, "rb").read()
        log = tmp_path / "trades.jsonl"
        argv = [command, "--market", path, "--delta", delta] + (["--log", str(log)] if command == "trade" else [])
        proc = subprocess.run([sys.executable, "-m", "expfam_markets.cli", *argv],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cost is not finite") and len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""
        assert open(path, "rb").read() == before
        assert not log.exists()


class TestSimulate:
    def test_writes_reports(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out = str(tmp_path / "report.json")
        csv_path = str(tmp_path / "report.csv")
        log = str(tmp_path / "trades.jsonl")
        code = main(["simulate", "--config", cfg, "--out", out,
                     "--csv", csv_path, "--trade-log", log])
        assert code == 0
        report = json.load(open(out))
        assert report["valid"] is True
        assert len(report["events"]) == 6
        assert len(open(csv_path).read().strip().splitlines()) == 7
        assert len(open(log).read().splitlines()) == 6

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "sim.json", sim_config(seed=1))
        out = str(tmp_path / "r.json")

        monkeypatch.setenv(SEED_ENV_VAR, "2")
        main(["simulate", "--config", cfg, "--out", out])
        assert json.load(open(out))["seed"] == 2  # env beats config

        main(["simulate", "--config", cfg, "--out", out, "--seed", "3"])
        assert json.load(open(out))["seed"] == 3  # flag beats env

        monkeypatch.delenv(SEED_ENV_VAR)
        main(["simulate", "--config", cfg, "--out", out])
        assert json.load(open(out))["seed"] == 1  # config is the fallback

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"family": "categorical:2"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2

    def test_bad_config_value_exits_2_without_traceback(self, tmp_path):
        path = write_json(tmp_path / "sim.json", sim_config(seed=-1))
        proc = subprocess.run(
            [sys.executable, "-m", "expfam_markets.cli", "simulate", "--config", path,
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_aborted_run_writes_partial_report_and_exits_3(self, tmp_path, capsys):
        cfg = sim_config()
        cfg["traders"] = [
            {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [1.0, 0.0]}, "size": 1}},
        ]
        path = write_json(tmp_path / "sim.json", cfg)
        out = str(tmp_path / "r.json")
        assert main(["simulate", "--config", path, "--out", out]) == 3
        report = json.load(open(out))
        assert report["valid"] is False


    def test_rerun_truncates_the_trade_log(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log, out = tmp_path / "trades.jsonl", tmp_path / "r.json"
        argv = ["simulate", "--config", cfg, "--out", str(out), "--trade-log", str(log)]
        assert main(argv) == 0
        first = log.read_bytes()
        assert main(argv) == 0
        assert log.read_bytes() == first
        state0 = write_json(tmp_path / "s0.json", Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--state0", state0]) == 0
        assert json.loads(capsys.readouterr().out)["n_trades"] == json.loads(out.read_text())["aggregates"]["n_trades"] == 6


class TestReplayCommand:
    def test_replay_round_trip(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out = str(tmp_path / "r.json")
        log = str(tmp_path / "trades.jsonl")
        main(["simulate", "--config", cfg, "--out", out, "--trade-log", log])
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        capsys.readouterr()  # drop the simulate status line
        assert main(["replay", "--log", log, "--state0", state0]) == 0
        final = json.loads(capsys.readouterr().out)
        report = json.load(open(out))
        assert final["theta"] == report["aggregates"]["final_theta"]
        assert final["revenue"] == report["aggregates"]["revenue"]

    def test_corrupt_log_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log = str(tmp_path / "trades.jsonl")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"), "--trade-log", log])
        lines = open(log).read().splitlines()
        record = json.loads(lines[2])
        record["cost"] += 1e-9
        lines[2] = json.dumps(record)
        open(log, "w").write("\n".join(lines) + "\n")
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        assert main(["replay", "--log", log, "--state0", state0]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_malformed_state0_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log = str(tmp_path / "trades.jsonl")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"), "--trade-log", log])
        state0 = write_json(tmp_path / "s0.json", {"family": "categorical:2"})
        assert main(["replay", "--log", log, "--state0", state0]) == 2

    @pytest.mark.parametrize("bad_line", ["{not json", '{"round": 1, "trader_id": "a"}'])
    def test_unreadable_log_line_exit_code(self, tmp_path, capsys, bad_line):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log = str(tmp_path / "trades.jsonl")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"), "--trade-log", log])
        lines = open(log).read().splitlines()
        lines[1] = bad_line
        open(log, "w").write("\n".join(lines) + "\n")
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        capsys.readouterr()
        assert main(["replay", "--log", log, "--state0", state0]) == 3
        assert "trade log line 2" in capsys.readouterr().err


class TestEquilibriumCommand:
    def test_solves_problem(self, tmp_path, capsys):
        problem = write_json(tmp_path / "problem.json", {
            "family": "categorical:2",
            "theta0": [0.0, 0.0],
            "traders": [
                {"belief": {"theta": [1.0, 0.0]}, "risk_aversion": 1.0},
                {"belief": {"theta": [0.0, 1.0]}, "risk_aversion": 1.0},
            ],
        })
        assert main(["equilibrium", "--problem", problem]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["theta_eq"], [1 / 3, 1 / 3], atol=1e-6)
        assert set(out) == {"theta_eq", "prices_eq", "deltas", "potential_value", "br_rounds"}
        assert out["br_rounds"] >= 1

    def test_risk_neutral_trader_rejected(self, tmp_path, capsys):
        problem = write_json(tmp_path / "problem.json", {
            "family": "exponential-rate",
            "theta0": [-1.0],
            "traders": [{"belief": {"theta": [-2.0]}, "risk_aversion": 0.0}],
        })
        assert main(["equilibrium", "--problem", problem]) == 2

    @pytest.mark.parametrize("problem", [
        {"theta0": [0.0, 0.0], "risk_aversion": "x"},
        {"theta0": "abc", "risk_aversion": 1.0},
        {"theta0": [0.0, 0.0], "risk_aversion": True},
        {"theta0": ["0", 0.0], "risk_aversion": 1.0},
        {"theta0": [0.0, 0.0], "risk_aversion": 1.0, "belief": {"theta": ["1.0", 0.0]}},
        {"theta0": [0.0, 0.0], "risk_aversion": 1.0, "belief": {"probs": ["0.7", 0.3]}},
    ], ids=["string-risk-aversion", "string-theta0", "boolean-risk-aversion",
            "string-theta0-entry", "string-belief-theta-entry", "string-belief-probs-entry"])
    def test_bad_problem_value_is_config_error(self, tmp_path, capsys, problem):
        path = write_json(tmp_path / "problem.json", {
            "family": "categorical:2",
            "theta0": problem["theta0"],
            "traders": [{"belief": problem.get("belief", {"theta": [1.0, 0.0]}),
                         "risk_aversion": problem["risk_aversion"]}],
        })
        assert main(["equilibrium", "--problem", path]) == 2
        assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1, 2]", b'"abc"'],
                         ids=["utf16-bom", "json-list", "json-string"])
@pytest.mark.parametrize("command", ["simulate", "equilibrium", "replay", "quote"])
def test_unusable_json_file_is_config_error(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    log = tmp_path / "trades.jsonl"
    log.write_text("")
    argv = {
        "simulate": ["simulate", "--config", str(path), "--out", str(tmp_path / "r.json")],
        "equilibrium": ["equilibrium", "--problem", str(path)],
        "replay": ["replay", "--log", str(log), "--state0", str(path)],
        "quote": ["quote", "--market", str(path), "--delta", "[0.1, 0.0]"],
    }[command]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
