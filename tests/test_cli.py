"""Command-line interface: subcommands, file handling, exit codes."""

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import REVENUE_OVERFLOW_LOG, TRADER_KEY_VALUES, TRADER_KEYS, subprocess_env
from expfam_markets import Market, equilibrium, family_from_id, read_trade_log, save_state
from expfam_markets.cli import main
from expfam_markets.errors import ConvergenceError
from expfam_markets.market import log_header


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

    @pytest.mark.parametrize("report", ["[0.0, 1.0]", '{"mean": [0.0, 1.0]}', '{"moment": [0.0, 1.0]}'])
    def test_gaussian_raw_vector_report_rejected(self, capsys, report):
        code = main(["score", "--family", "gaussian-moments", "--report", report, "--outcome", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --report: gaussian-moments reports are")

    def test_vmf3_report(self, capsys):
        from expfam_markets.scoring import log_score

        args = ["score", "--family", "vmf3", "--report", "[0.0, 0.0, 0.5]", "--outcome", "[0, 0, 1]"]
        assert main(args) == 0
        assert capsys.readouterr().out == repr(log_score(family_from_id("vmf3"), [0.0, 0.0, 0.5], [0, 0, 1])) + "\n"

    def test_categorical_report(self, capsys):
        assert main(["score", "--family", "categorical:2", "--report", "[0.25, 0.75]", "--outcome", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_overflowing_weibull_statistic_scores_minus_inf(self, capsys):
        # 1e200**2 overflows: the statistic is inf, as gaussian-moments' x*x is, not an OverflowError.
        assert main(["score", "--family", "weibull-moment:2", "--report", "1", "--outcome", "1e200"]) == 0
        assert capsys.readouterr().out == "-inf\n"

    def test_unrepresentable_inner_product_exits_3_with_one_line(self, capsys):
        # <theta, phi(x)> has the terms 1000 * 1e306 = inf and -0.5 * 1e306**2 = -inf, which have no sum.
        code = main(["score", "--family", "gaussian-moments", "--report", '{"mean": 1000, "variance": 1}',
                     "--outcome", "1e306"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("error: the inner product of [1000.0, -0.5] and [1e+306, inf] has no float value "
                                "(-inf + inf in fsum)\n")

    @pytest.mark.parametrize("family,report,rule", [
        ("categorical:2", "[0.5, 0.5]", "an integer in 1..2"),
        ("exponential-rate", "2.0", "a nonnegative real"),
        ("gaussian-moments", '{"mean": 0.0, "variance": 1.0}', "a finite real"),
        ("weibull-moment:2", "1.0", "a nonnegative real"),
        ("vmf3", "[0.0, 0.0, 0.5]", "a finite 3-vector"),
    ])
    @pytest.mark.parametrize("outcome", ["1" + "0" * 400, "-1" + "0" * 400], ids=["plus-1e400", "minus-1e400"])
    def test_outcome_past_the_float_range_exits_3_with_one_line(self, capsys, family, report, rule, outcome):
        # float() of the integer raised OverflowError, a traceback and exit 1.
        if family == "vmf3":
            outcome = f"[{outcome}, 0, 0]"
        assert main(["score", "--family", family, "--report", report, f"--outcome={outcome}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {family}: outcome must be {rule}, got ")
        assert len(captured.err.splitlines()) == 1

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

    @pytest.mark.parametrize("family,report", [
        ("categorical:2", '{"probs": [0.7, 0.3], "mean": [0.1, 0.9]}'),  # probs was scored and mean dropped
        ("gaussian-moments", '{"mean": 0.5, "variance": 2, "moment": [9, 9]}'),
        ("gaussian-moments", '{"mean": [1e200, 1e300]}'),  # 1e200 ** 2 raised OverflowError
    ])
    def test_unusable_report_exits_2_with_one_line(self, capsys, family, report):
        assert main(["score", "--family", family, "--report", report, "--outcome", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: --report")
        assert len(captured.err.splitlines()) == 1

    def test_bad_report_json_is_config_error(self, capsys):
        assert main(["score", "--family", "exponential-rate", "--report", "oops", "--outcome", "1"]) == 2

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int() digit limit")
    def test_integer_past_the_digit_limit_is_config_error_with_one_line(self, capsys):
        # json.loads raises a ValueError that is not a JSONDecodeError past int()'s digit limit (4,300 by default).
        outcome = "1" * (sys.get_int_max_str_digits() + 1)
        assert main(["score", "--family", "categorical:2", "--report", "[0.5, 0.5]", "--outcome", outcome]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: --outcome: invalid JSON ")
        assert len(captured.err.splitlines()) == 1

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

    # Per family: a delta that exits 3, and a score report and outcome that exit 0.
    FAILING_DELTA_AND_SCORE = {
        "categorical:3": ("[0.1, -0.2]", "[0.2, 0.3, 0.5]", "2"),
        "gaussian-moments": ("[0.0, 1.0]", '{"mean": 0.5, "variance": 2.0}', "0.25"),
        "weibull-moment:2": ("2.0", "1.5", "0.5"),
    }

    @pytest.mark.parametrize("family,theta,delta", [
        ("categorical:3", [0.0, 0.25, -0.5], "[0.1, -0.2, 0.3]"),
        ("gaussian-moments", [0.5, -0.75], "[-0.25, 0.125]"),
        ("weibull-moment:2", [-1.5], "0.5"),
    ])
    def test_quote_and_trade_import_no_numpy(self, tmp_path, capsys, family, theta, delta):
        # A fresh interpreter runs quote, trade --log, their failures, a replay of the log against the
        # traded state (the log's header theta0 is not that state) and score, through main; so does this process,
        # where numpy is loaded. Both print the same lines and write the same state and log bytes.
        bad_delta, report, outcome = self.FAILING_DELTA_AND_SCORE[family]
        outputs = {}
        for where in ("fresh", "here"):
            (tmp_path / where).mkdir()
            state = write_json(tmp_path / where / "state.json", {"family": family, "theta": theta})
            log = tmp_path / where / "trades.jsonl"
            argvs = [["quote", "--market", state, "--delta", delta],
                     ["quote", "--market", state, "--delta", bad_delta],
                     ["trade", "--market", state, "--delta", bad_delta],
                     ["trade", "--market", state, "--delta", delta, "--trader", "t", "--log", str(log)],
                     ["replay", "--log", str(log), "--state0", state],
                     ["score", "--family", family, "--report", report, "--outcome", outcome],
                     ["score", "--family", family, "--report", '["0.5"]', "--outcome", outcome]]
            if where == "fresh":
                code = ("import json, sys\nfrom expfam_markets.cli import main\n"
                        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))")
                proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                                      text=True, env=subprocess_env(), timeout=120, check=True)
                *lines, summary = proc.stdout.splitlines()
                assert json.loads(summary) == {"codes": [0, 3, 3, 0, 3, 0, 2], "numpy": False}
                errors = proc.stderr.splitlines()
            else:
                assert [main(argv) for argv in argvs] == [0, 3, 3, 0, 3, 0, 2]
                captured = capsys.readouterr()
                lines, errors = captured.out.splitlines(), captured.err.splitlines()
            assert len(errors) == 4 and "header theta0" in errors[2]
            with open(state, "rb") as fh:
                outputs[where] = (lines, errors, fh.read(), log.read_bytes())
        assert outputs["fresh"] == outputs["here"]

    def test_scalar_commands_load_only_the_scalar_modules(self, tmp_path):
        # quote, trade --log and their refusals, in a fresh interpreter without site's start-up imports: only the
        # package's scalar modules load, and no stdlib module that only the harness side or a dataclass needs.
        state = write_json(tmp_path / "state.json", {"family": "categorical:3", "theta": [0.0, 0.25, -0.5]})
        argvs = [["quote", "--market", state, "--delta", "[0.1, -0.2, 0.3]"],
                 ["quote", "--market", state, "--delta", "[0.1, -0.2]"],
                 ["trade", "--market", state, "--delta", "[0.1, -0.2, 0.3]", "--log", str(tmp_path / "t.jsonl")],
                 ["trade", "--market", state, "--delta", "[0.1, -0.2]"]]
        banned = ["numpy", "dataclasses", "inspect", "csv", "expfam_markets.harness", "expfam_markets.traders",
                  "expfam_markets.scoring", "expfam_markets.equilibrium"]
        code = ("import json, sys\nfrom expfam_markets.cli import main\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print(json.dumps({'codes': codes, 'loaded': sorted(m for m in sys.modules if m in sys.argv[2:] "
                "or m.startswith('expfam_markets'))}))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argvs), *banned], capture_output=True,
                              text=True, env=subprocess_env(), timeout=120, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "codes": [0, 3, 0, 3],
            "loaded": ["expfam_markets", "expfam_markets.cli", "expfam_markets.errors", "expfam_markets.families",
                       "expfam_markets.market"]}

    def test_quote_loads_no_tempfile(self, tmp_path):
        # tempfile would bring random and weakref; a quote, refused or not, loads none of them in a fresh interpreter
        # without site's start-up imports, and nor does a trade, whose save_state names its temp file itself.
        state = write_json(tmp_path / "state.json", {"family": "categorical:3", "theta": [0.0, 0.25, -0.5]})
        code = ("import json, sys\nfrom expfam_markets.cli import main\n"
                "codes = [main(['quote', '--market', sys.argv[1], '--delta', d])\n"
                "         for d in ('[0.1, -0.2, 0.3]', '0.1')]\n"
                "quoted = 'tempfile' in sys.modules\n"
                "codes.append(main(['trade', '--market', sys.argv[1], '--delta', '[0.1, -0.2, 0.3]']))\n"
                "print(json.dumps([codes, quoted, 'tempfile' in sys.modules]))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, state], capture_output=True, text=True,
                              env=subprocess_env(), timeout=120, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 3, 0], False, False]

    def test_concurrent_trades_are_serialised(self, tmp_path, capsys):
        # Two writer processes start their loops together on one state and one log.  Every trade is priced from
        # the state the one before it saved, so the log replays to the final state.
        n = 40
        state = write_json(tmp_path / "state.json", {"family": "categorical:3", "theta": [0.0, 0.0, 0.0]})
        state0 = write_json(tmp_path / "state0.json", {"family": "categorical:3", "theta": [0.0, 0.0, 0.0]})
        log = str(tmp_path / "trades.jsonl")
        code = ("import contextlib, io, sys\nfrom expfam_markets.cli import main\n"
                "print('ready', flush=True)\nsys.stdin.readline()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = {main(['trade', '--market', sys.argv[1], '--delta', sys.argv[2], '--trader', sys.argv[3],"
                " '--log', sys.argv[4]]) for _ in range(int(sys.argv[5]))}\n"
                "print(sorted(codes))")
        writers = [subprocess.Popen([sys.executable, "-c", code, state, delta, trader, log, str(n)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=subprocess_env())
                   for delta, trader in (("[0.25, 0, -0.125]", "a"), ("[-0.125, 0.0625, 0]", "b"))]
        try:
            assert [w.stdout.readline() for w in writers] == ["ready\n", "ready\n"]
            for w in writers:
                w.stdin.write("go\n")
                w.stdin.flush()
            assert [w.communicate(timeout=120)[0] for w in writers] == ["[0]\n", "[0]\n"]
        finally:
            for w in writers:
                w.kill()
                w.wait()
        records = read_trade_log(log)
        with open(log) as fh:
            assert len(fh.read().splitlines()) == 1 + 2 * n
        assert [r.round for r in records] == list(range(2 * n))
        assert sorted(r.trader_id for r in records) == ["a"] * n + ["b"] * n
        with open(state) as fh:
            final = json.load(fh)
        assert final["n_trades"] == 2 * n
        assert main(["replay", "--log", log, "--state0", state0]) == 0
        assert json.loads(capsys.readouterr().out) == final

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
            assert len(fh.read().splitlines()) == 2  # the header, then the record

    @pytest.mark.parametrize("existing", [None, ""])
    def test_trade_log_appended_and_flushed_per_trade(self, tmp_path, capsys, existing):
        path = self.setup_state(tmp_path)
        state0 = Path(path).read_text()
        log = tmp_path / "trades.jsonl"
        if existing is not None:
            log.write_text(existing)
        assert main(["trade", "--market", path, "--delta", "-0.5", "--trader", "a", "--log", str(log)]) == 0
        assert len(read_trade_log(str(log))) == 1
        assert main(["trade", "--market", path, "--delta", "-0.25", "--trader", "b", "--log", str(log)]) == 0
        records = read_trade_log(str(log))
        assert [r.trader_id for r in records] == ["a", "b"] and [r.round for r in records] == [0, 1]
        assert records.header == {"family": "exponential-rate", "format": 2, "inv_liquidity": 1.0,
                                  "state_reset": False, "theta0": [-1.0]}  # the state before the first trade
        assert capsys.readouterr().out.splitlines() == [r.to_json() for r in records]
        state0_path = write_json(tmp_path / "state0.json", json.loads(state0))
        assert main(["replay", "--log", str(log), "--state0", state0_path]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(Path(path).read_text())

    def test_trade_log_record_starts_its_own_line(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        state0_path = write_json(tmp_path / "state0.json", json.loads(Path(path).read_text()))
        log = tmp_path / "trades.jsonl"
        for delta, trader in (("-0.5", "a"), ("-0.25", "b")):
            assert main(["trade", "--market", path, "--delta", delta, "--trader", trader, "--log", str(log)]) == 0
        log.write_bytes(log.read_bytes().rstrip(b"\n"))  # saved without its last newline
        assert main(["trade", "--market", path, "--delta", "-0.125", "--trader", "c", "--log", str(log)]) == 0
        assert log.read_text().count("\n") == 4  # the header and three records, each on its own line
        assert [r.trader_id for r in read_trade_log(str(log))] == ["a", "b", "c"]
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--state0", state0_path]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(Path(path).read_text())

    @pytest.mark.parametrize("first_line", [
        '{"cost": 0.1, "delta": [-0.5], "round": 0, "theta_after": [-1.5], "theta_before": [-1.0], "trader_id": "a"}',
        '{"family": "weibull-moment:2", "format": 2, "inv_liquidity": 1.0, "state_reset": false, "theta0": [-1.0]}',
        '{"family": "exponential-rate", "format": 2, "inv_liquidity": 0.5, "state_reset": false, "theta0": [-1.0]}',
        "", "not json"], ids=["format-1-record", "other-family", "other-liquidity", "blank", "not-json"])
    def test_trade_refuses_a_log_of_another_format_family_or_liquidity(self, tmp_path, capsys, first_line):
        path = self.setup_state(tmp_path)
        state = Path(path).read_bytes()
        log = tmp_path / "trades.jsonl"
        log.write_text(first_line + "\n")
        assert main(["trade", "--market", path, "--delta", "-0.5", "--trader", "a", "--log", str(log)]) == 3
        assert "trade log line 1: " in capsys.readouterr().err
        assert Path(path).read_bytes() == state and log.read_text() == first_line + "\n"

    def test_non_numeric_delta_is_config_error(self, tmp_path, capsys):
        path = self.setup_state(tmp_path)
        before = Path(path).read_text()
        assert main(["trade", "--market", path, "--delta", '[1, "x"]']) == 2
        assert main(["quote", "--market", path, "--delta", '{"a": 1}']) == 2
        assert Path(path).read_text() == before

    @pytest.mark.parametrize("argv", [
        ["trade", "--delta", '["0.5", true]'],
        ["trade", "--delta", '"0.5"'],
        ["quote", "--delta", "[true]"],
        ["quote", "--delta", "[[0.5]]"],
    ])
    def test_delta_entries_must_be_json_numbers(self, tmp_path, capsys, argv):
        path = self.setup_state(tmp_path)
        before = Path(path).read_text()
        assert main([*argv, "--market", path]) == 2
        assert "config error:" in capsys.readouterr().err
        assert Path(path).read_text() == before

    @pytest.mark.parametrize("command", ["quote", "trade"])
    @pytest.mark.parametrize("content", [
        '{"theta": [0.0, 0.0]}',
        '{"family": "categorical:2"}',
        '{"family": "categorical:2", "theta": ["a", 0.0]}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "n_trades": "x"}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "n_trades": -5}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "inv_liquidity": "1"}',
        '{"family": "categorical:2", "theta": [0.0, 0.0], "revenue": null}',
        '{"family": "categorical:2", "theta": [true, 0.0]}',
        '{"family": "categorical:2", "theta": "0.0"}',
        '{"family": "categorical:2", "theta": [0, 0], "n_trade": 5, "inv_liquidty": 2}',
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
        before = Path(path).read_text()
        assert main(["trade", "--market", path, "--delta", "5.0"]) == 3
        assert Path(path).read_text() == before

    @pytest.mark.parametrize("command,theta,delta,message", [
        # theta1**2 / (4 * -theta2) overflows but the prices do not: the state or the target has no finite cost.
        ("quote", [1e200, -1e100], "[0, 0]", "cost is not finite"),
        ("trade", [1e200, -1e100], "[0, 0]", "cost is not finite"),
        ("trade", [1.0, -1e100], "[1e200, 0]", "cost is not finite"),
        # The price m**2 + v overflows, whether the cost does ([1e200, -1]) or not ([2e147, -1e-9]).
        ("quote", [2e147, -1e-9], "[0, 0]", "gaussian-moments: natural parameter"),
        ("quote", [1e200, -1.0], "[0, 0]", "gaussian-moments: natural parameter"),
        ("trade", [1e200, -1.0], "[0, 0]", "gaussian-moments: natural parameter"),
        ("trade", [1.0, -1.0], "[1e200, 0]", "gaussian-moments: natural parameter"),
    ])
    def test_overflowing_cost_is_domain_error(self, tmp_path, command, theta, delta, message):
        path = write_json(tmp_path / "state.json", {"family": "gaussian-moments", "theta": theta})
        before = Path(path).read_bytes()
        log = tmp_path / "trades.jsonl"
        argv = [command, "--market", path, "--delta", delta] + (["--log", str(log)] if command == "trade" else [])
        proc = subprocess.run([sys.executable, "-m", "expfam_markets.cli", *argv],
                              capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: {message}") and len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""
        assert Path(path).read_bytes() == before
        assert not log.exists()

    @pytest.mark.parametrize("state, delta, accepted, terms", [
        ({"theta": [0.0, 0.0], "revenue": 1e308}, "[1e308, 0]", 0, "1e+308 plus cost 1e+308"),
        ({"theta": [-1.7e308, -1.7e308], "revenue": 0.0}, "[1.7e308, 1.7e308]", 1, "1.7e+308 plus cost 1.7e+308"),
    ], ids=["revenue-1e308", "second-trade-from-revenue-0"])
    def test_trade_whose_revenue_leaves_the_float_range_exits_3(self, tmp_path, state, delta, accepted, terms):
        # A saved revenue of Infinity would make every later quote and trade on the file exit 2.
        path = write_json(tmp_path / "state.json", {"family": "categorical:2", **state})
        log = tmp_path / "trades.jsonl"
        argv = ["trade", "--market", path, "--delta", delta, "--log", str(log)]
        for _ in range(accepted):
            assert run_main(argv)[0] == 0
        before = Path(path).read_bytes(), log.exists() and log.read_bytes()
        assert run_main(argv) == (3, "", f"error: revenue {terms} leaves the float range\n")
        assert (Path(path).read_bytes(), log.exists() and log.read_bytes()) == before
        assert run_main(["quote", "--market", path, "--delta", "[0, 0]"])[0] == 0

    def test_trade_lost_to_rounding_exits_3(self, tmp_path):
        # At 1e15 the increments round away, so the trade would be free: refused, with the files kept.
        path = write_json(tmp_path / "state.json", {"family": "categorical:2", "theta": [1e15, 1e15]})
        log = tmp_path / "trades.jsonl"
        argv = ["trade", "--market", path, "--log", str(log), "--delta"]
        assert run_main(argv + ["[1, 0]"])[0] == 0
        before = Path(path).read_bytes(), log.read_bytes()
        assert run_main(argv + ["[0.06, 0.06]"]) == (
            3, "", "error: delta [0.06, 0.06] does not move the share vector [1000000000000001.0, 1000000000000000.0]\n")
        assert (Path(path).read_bytes(), log.read_bytes()) == before


class TestSimulate:
    def test_writes_reports(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out = str(tmp_path / "report.json")
        csv_path = str(tmp_path / "report.csv")
        log = str(tmp_path / "trades.jsonl")
        code = main(["simulate", "--config", cfg, "--out", out,
                     "--csv", csv_path, "--trade-log", log])
        assert code == 0
        report = json.loads(Path(out).read_text())
        assert report["valid"] is True
        assert len(report["events"]) == 6
        assert len(Path(csv_path).read_text().strip().splitlines()) == 7
        assert len(Path(log).read_text().splitlines()) == 7  # the header, then one line per event

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
        assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_seed_precedence(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config(seed=1))
        out = str(tmp_path / "r.json")

        main(["simulate", "--config", cfg, "--out", out, "--seed", "3"])
        assert json.loads(Path(out).read_text())["seed"] == 3  # flag beats config

        main(["simulate", "--config", cfg, "--out", out])
        assert json.loads(Path(out).read_text())["seed"] == 1  # config is the fallback

    @pytest.mark.parametrize("value", ["5", "not-a-number"])
    def test_the_environment_sets_no_seed(self, tmp_path, monkeypatch, capsys, value):
        # The config file and the command line determine a run; no variable of the shell replaces its seed.
        monkeypatch.setenv("EXPFAM_MARKETS_SEED", value)
        cfg = write_json(tmp_path / "sim.json", sim_config(seed=1))
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 1

    @pytest.mark.parametrize("model, key", [(model, key) for model, keys in TRADER_KEYS.items()
                                            for key in sorted(TRADER_KEY_VALUES.keys() - keys)])
    def test_a_trader_key_its_model_does_not_read_exits_2_with_one_line(self, tmp_path, capsys, model, key):
        trader = {"id": "a", "model": model, **{k: TRADER_KEY_VALUES[k] for k in TRADER_KEYS[model] | {key}}}
        cfg = write_json(tmp_path / "sim.json", {**sim_config(), "traders": [trader]})
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: traders[0]") and len(err.splitlines()) == 1
        assert repr(key) in err and repr(model) in err
        assert not out.exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", {"family": "categorical:2"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2

    def test_overflowing_prices_in_config_exit_2(self, tmp_path, capsys):
        # A finite cost (1e303) whose price m**2 + v overflows: final_prices would read inf.
        raw = {**sim_config(), "family": "gaussian-moments", "theta0": [2e147, -1e-9], "true_theta": [0.0, -0.5],
               "traders": [{"id": "a", "model": "risk-neutral", "belief": {"mean": 0.0, "variance": 1.0}}]}
        cfg = write_json(tmp_path / "sim.json", raw)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        assert "outside the domain" in capsys.readouterr().err

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
        report = json.loads(Path(out).read_text())
        assert report["valid"] is False

    def test_overflowing_weibull_draw_aborts_and_exits_3(self, tmp_path, capsys):
        # At order 0.001 a draw is E**1000 for an exponential E, which overflows once E exceeds about 2.03.
        raw = {**sim_config(seed=3), "family": "weibull-moment:0.001", "theta0": [-1.0], "true_theta": [-0.1],
               "traders": [{"id": "a", "model": "risk-neutral", "belief": {"theta": [-0.5]}}]}
        path = write_json(tmp_path / "sim.json", raw)
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["valid"] is False
        assert report["error"] == "round 2: weibull-moment:0.001: a draw at theta [-0.1] overflows"

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

    def test_trade_log_that_cannot_be_opened_exits_4_with_one_line(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log, out = tmp_path / "missing" / "trades.jsonl", tmp_path / "r.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--trade-log", str(log)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and len(err.splitlines()) == 1
        assert sorted(os.listdir(tmp_path)) == ["sim.json"]

    @pytest.mark.parametrize("first, second", itertools.combinations(["--config", "--out", "--csv", "--trade-log"], 2))
    def test_two_file_flags_naming_one_file_exit_2_and_write_nothing(self, tmp_path, capsys, first, second):
        # One file would be overwritten by the other: the config by an output, or one output by the next.
        cfg = write_json(tmp_path / "sim.json", sim_config())
        config_bytes = Path(cfg).read_bytes()
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        paths = {"--config": cfg, "--out": str(tmp_path / "r.json"), "--csv": str(tmp_path / "r.csv"),
                 "--trade-log": str(tmp_path / "trades.jsonl")}
        shared = paths[second] = paths[first]
        if (first, second) == ("--out", "--trade-log"):  # the same new file, once through a symlinked directory
            paths[second] = str(tmp_path / "link" / os.path.basename(shared))
        assert main(["simulate", *itertools.chain.from_iterable(paths.items())]) == 2
        err = capsys.readouterr().err
        shared = os.path.realpath(shared)
        assert err == f"config error: {first} and {second} name one file, {shared}; give each its own\n"
        assert sorted(os.listdir(tmp_path)) == ["link", "sim.json"]
        assert Path(cfg).read_bytes() == config_bytes

    def test_two_device_outputs_are_written_in_place(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--csv", os.devnull,
                     "--trade-log", os.devnull]) == 0
        assert len(json.loads(out.read_text())["events"]) == 6


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
        report = json.loads(Path(out).read_text())
        assert final["theta"] == report["aggregates"]["final_theta"]
        assert final["revenue"] == report["aggregates"]["revenue"]

    def test_corrupt_log_exit_code(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log = str(tmp_path / "trades.jsonl")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"), "--trade-log", log])
        lines = Path(log).read_text().splitlines()
        record = json.loads(lines[2])
        record["cost"] += 1e-9
        lines[2] = json.dumps(record)
        Path(log).write_text("\n".join(lines) + "\n")
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        assert main(["replay", "--log", log, "--state0", state0]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_headerless_log_exits_3_naming_the_format(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        log = tmp_path / "trades.jsonl"
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"), "--trade-log", str(log)])
        log.write_text("".join(log.read_text().splitlines(keepends=True)[1:]))  # a log as written before format 2
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--state0", state0]) == 3
        assert capsys.readouterr().err == ("error: trade log line 1: not a format-2 trade log header "
                                           "(a log of an older format has none and is not read)\n")

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
        lines = Path(log).read_text().splitlines()
        lines[1] = bad_line
        Path(log).write_text("\n".join(lines) + "\n")
        state0 = write_json(tmp_path / "s0.json",
                            Market(family_from_id("categorical:2"), [0.0, 0.0]).state_dict())
        capsys.readouterr()
        assert main(["replay", "--log", log, "--state0", state0]) == 3
        assert "trade log line 2" in capsys.readouterr().err


# name -> (problem, the equilibrium command's stdout as parsed); a problem of None is the README's example.
PINNED_EQUILIBRIA = {
    "readme-categorical:2": (None, {
        "br_rounds": 18, "deltas": [[0.6666666666569654, -0.3333333333139308],
                                    [-0.3333333333284827, 0.6666666666569654]],
        "potential_value": -3.079441541679836, "prices_eq": [0.5, 0.5],
        "theta_eq": [0.3333333333333333, 0.3333333333333333]}),
    "gaussian-moments-3-traders": ({
        "family": "gaussian-moments", "theta0": [0.0, -0.5], "traders": [
            {"belief": {"mean": 0.3, "variance": 1.2}, "risk_aversion": 0.5},
            {"belief": {"mean": -0.4, "variance": 0.8}, "risk_aversion": 1.0},
            {"belief": {"mean": 1.1, "variance": 2.0}, "risk_aversion": 2.0}]}, {
        "br_rounds": 23, "deltas": [[0.37777777777660937, 0.09259259259113443],
                                    [-0.5611111111172093, -0.16203703703881306],
                                    [0.24444444444686675, 0.10648148148255948]],
        "potential_value": -4.317460741977316, "prices_eq": [0.06600000000000002, 1.0843559999999999],
        "theta_eq": [0.06111111111111113, -0.462962962962963]}),
}


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

    @pytest.mark.parametrize("name", sorted(PINNED_EQUILIBRIA))
    def test_stdout_is_pinned_byte_for_byte(self, tmp_path, capsys, name):
        # Each float is pinned by its repr, so a change to the closed form (theta_eq, prices_eq) or to the best
        # response it is checked by (deltas, potential_value, br_rounds) moves a byte here.
        problem, expected = PINNED_EQUILIBRIA[name]
        path = tmp_path / "problem.json"
        path.write_text(readme_file_format_examples()[2] if problem is None else json.dumps(problem), encoding="utf-8")
        assert main(["equilibrium", "--problem", str(path)]) == 0
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_vmf3_mean_belief(self, tmp_path, capsys):
        from expfam_markets.equilibrium import EquilibriumProblem, closed_form_equilibrium
        from expfam_markets.harness import parse_belief_theta

        fam = family_from_id("vmf3")
        belief = {"mean": [0.0, 0.0, 0.5]}
        problem = write_json(tmp_path / "problem.json", {
            "family": "vmf3",
            "theta0": [0.0, 0.0, 0.0],
            "traders": [{"belief": belief, "risk_aversion": 2.0}],
        })
        assert main(["equilibrium", "--problem", problem]) == 0
        expected, _ = closed_form_equilibrium(EquilibriumProblem(
            family=fam, theta0=[0.0, 0.0, 0.0], beliefs=[parse_belief_theta(fam, belief, "b")], risk_aversions=[2.0]))
        assert json.loads(capsys.readouterr().out)["theta_eq"] == expected.tolist()

    @pytest.mark.parametrize("risk_aversion", [0.0, 1e-310])  # 1/1e-310 overflows
    def test_risk_neutral_trader_rejected(self, tmp_path, capsys, risk_aversion):
        problem = write_json(tmp_path / "problem.json", {
            "family": "exponential-rate",
            "theta0": [-1.0],
            "traders": [{"belief": {"theta": [-2.0]}, "risk_aversion": risk_aversion}],
        })
        assert main(["equilibrium", "--problem", problem]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("problem", [
        {"theta0": [0.0, 0.0], "risk_aversion": "x"},
        {"theta0": "abc", "risk_aversion": 1.0},
        {"theta0": [0.0, 0.0], "risk_aversion": True},
        {"theta0": ["0", 0.0], "risk_aversion": 1.0},
        {"theta0": [0.0, 0.0], "risk_aversion": 1.0, "belief": {"theta": ["1.0", 0.0]}},
        {"theta0": [0.0, 0.0], "risk_aversion": 1.0, "belief": {"probs": ["0.7", 0.3]}},
        {"theta0": [0.0, 0.0], "risk_aversion": 1.0, "extra": {"theta_0": [1.0, 0.0]}},
        {"theta0": [0.0, 0.0], "trader": {"belief": {"theta": [1.0, 0.0]}, "risk_aversion": 1.0, "risk_aversoin": 2}},
        {"theta0": [0.0, 0.0], "trader": {"theta": [1.0, 0.0], "risk_aversion": 1.0}},
    ], ids=["string-risk-aversion", "string-theta0", "boolean-risk-aversion",
            "string-theta0-entry", "string-belief-theta-entry", "string-belief-probs-entry",
            "unknown-problem-key", "unknown-trader-key", "trader-without-belief"])
    def test_bad_problem_value_is_config_error(self, tmp_path, capsys, problem):
        trader = problem.get("trader") or {"belief": problem.get("belief", {"theta": [1.0, 0.0]}),
                                           "risk_aversion": problem["risk_aversion"]}
        path = write_json(tmp_path / "problem.json", {
            "family": "categorical:2",
            "theta0": problem["theta0"],
            "traders": [trader],
            **problem.get("extra", {}),
        })
        assert main(["equilibrium", "--problem", path]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("traders", [{}, "ab"], ids=["object", "string"])
    def test_traders_must_be_a_list(self, tmp_path, capsys, traders):
        path = write_json(tmp_path / "problem.json", {"family": "categorical:2", "theta0": [0.0, 0.0], "traders": traders})
        assert main(["equilibrium", "--problem", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "traders must be a list" in err[0]

    @pytest.mark.parametrize("subprocess_run", [False, True], ids=["in-process", "subprocess"])
    @pytest.mark.parametrize("traders, message", [
        ([{"belief": {"theta": [1e308, -1e308]}, "risk_aversion": 1e-300}],  # the closed form's t * b overflows
         "error: theta must be finite, got [inf, -inf]"),
        ([{"belief": {"theta": [1e308, 0.0]}, "risk_aversion": 0.5},  # a best response overflows
          {"belief": {"theta": [-1e308, 0.0]}, "risk_aversion": 0.5}],
         "error: delta[0] must be finite, got [inf, 0.0]"),
    ], ids=["closed-form-overflow", "best-response-overflow"])
    def test_overflow_exits_3_with_one_line_and_no_numpy_warning(self, tmp_path, capsys, traders, message,
                                                                   subprocess_run):
        # In process, Tier-1 turns a RuntimeWarning into an error; a child process would print it to stderr.
        path = write_json(tmp_path / "problem.json", {"family": "categorical:2", "theta0": [0, 0], "traders": traders})
        if subprocess_run:
            proc = subprocess.run([sys.executable, "-m", "expfam_markets.cli", "equilibrium", "--problem", path],
                                  capture_output=True, text=True, env=subprocess_env(), timeout=120)
            code, err = proc.returncode, proc.stderr
        else:
            code, err = main(["equilibrium", "--problem", path]), capsys.readouterr().err
        assert (code, err) == (3, message + "\n")

    def test_unconverged_best_response_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        # Pins the exit path, not the sweep limit: the solver is stubbed to give up at once.
        def give_up(problem):
            raise ConvergenceError("best response dynamics did not converge within 3 sweeps (last move 0.5)")

        monkeypatch.setattr(equilibrium, "best_response_dynamics", give_up)
        path = write_json(tmp_path / "problem.json", {"family": "categorical:2", "theta0": [0.0, 0.0], "traders": [
            {"belief": {"theta": [1.0, 0.0]}, "risk_aversion": 1.0}]})
        assert main(["equilibrium", "--problem", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: best response dynamics did not converge within 3 sweeps (last move 0.5)\n"


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


DEEP = "[" * 200_000  # deeper than the JSON parser's recursion limit on every supported Python


@pytest.mark.parametrize("case,code,message", [
    pytest.param(case, code, message, id=case) for case, code, message in [
        ("replay-record", 3, "error: trade log line 2: unreadable record (RecursionError: "),
        ("replay-header", 3, "error: trade log line 1: not a format-2 trade log header ("),
        ("simulate-config", 2, "config error: config "),
        ("quote-market", 2, "config error: state "),
        ("trade-delta", 2, "config error: --delta: invalid JSON ("),
        ("trade-log-header", 3, "error: trade log line 1: not a format-2 trade log header ("),
    ]])
def test_json_nested_too_deep_exits_with_one_line(tmp_path, case, code, message):
    state = write_json(tmp_path / "state.json", {"family": "categorical:2", "theta": [0.0, 0.0]})
    before = Path(state).read_text()
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    log = tmp_path / "trades.jsonl"
    header = json.dumps(log_header(Market(family_from_id("categorical:2"), [0.0, 0.0])), sort_keys=True)
    log.write_text((header + "\n" if case == "replay-record" else "") + DEEP + "\n")
    argv = {
        "replay-record": ["replay", "--log", str(log), "--state0", state],
        "replay-header": ["replay", "--log", str(log), "--state0", state],
        "simulate-config": ["simulate", "--config", str(deep), "--out", str(tmp_path / "r.json")],
        "quote-market": ["quote", "--market", str(deep), "--delta", "[0.1, 0.0]"],
        "trade-delta": ["trade", "--market", state, "--delta", "[" * 50_000],  # an argument of at most 128 KiB
        "trade-log-header": ["trade", "--market", state, "--delta", "[0.1, 0.0]", "--log", str(log)],
    }[case]
    proc = subprocess.run([sys.executable, "-m", "expfam_markets.cli", *argv],
                          capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1, proc.stderr[-300:]
    assert proc.stdout == ""
    assert Path(state).read_text() == before


def readme_file_format_examples() -> list[str]:
    """The JSON examples of the README's "File formats" section, in order."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### File formats\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```json\n(.*?)```", section, re.S)


def test_readme_file_format_examples_are_accepted(tmp_path, capsys):
    # A reader made stricter must not refuse a documented form.
    state, config, problem, log = readme_file_format_examples()
    paths = {}
    for name, text in [("state.json", state), ("config.json", config), ("problem.json", problem),
                       ("trades.jsonl", log), ("state0.json", '{"family": "categorical:2", "theta": [0, 0]}')]:
        paths[name] = str(tmp_path / name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    assert main(["quote", "--market", paths["state.json"], "--delta", "0.5"]) == 0
    assert main(["simulate", "--config", paths["config.json"], "--out", str(tmp_path / "report.json")]) == 0
    assert main(["equilibrium", "--problem", paths["problem.json"]]) == 0
    assert main(["replay", "--log", paths["trades.jsonl"], "--state0", paths["state0.json"]]) == 0
    assert capsys.readouterr().err == ""


# Generated command lines, run in process: every call exits 0, 2, 3 or 4, raises nothing, and a failing call
# writes exactly one line to stderr.  The examples are derandomized and bounded, so the tests are deterministic.
BIG = 10**400  # an integer past the float range: float(BIG) raises OverflowError
JSON_LEAVES = st.one_of(
    st.sampled_from([BIG, -BIG, True, False, None, math.nan, math.inf, -math.inf, 0, 1, 2, 0.5, [0.0, 0.0, 1.0]]),
    st.integers(), st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["probs", "mean", "variance", "moment", "x"]), inner,
                                            max_size=3)),
    max_leaves=8,
)
SCORE_REPORTS = {  # a report each family accepts, so that generated outcomes reach the family's outcome rule
    "categorical:2": [0.5, 0.5],
    "exponential-rate": 2.0,
    "gaussian-moments": {"mean": 0.0, "variance": 1.0},
    "vmf3": [0.0, 0.0, 0.5],
    "weibull-moment:2": 1.0,
}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and out.count("\n") == 1
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=200, derandomize=True, deadline=None)
@given(family=st.sampled_from(sorted(SCORE_REPORTS)), data=st.data())
def test_generated_score_command_exits_with_a_documented_code(family, data):
    report = SCORE_REPORTS[family] if data.draw(st.booleans(), label="accepted report") else data.draw(JSON_VALUES)
    outcome = data.draw(st.one_of(JSON_LEAVES, JSON_VALUES), label="outcome")
    # --flag=value: a value such as -Infinity must not read as a flag
    assert_documented_exit(*run_main(["score", f"--family={family}", f"--report={json.dumps(report)}",
                                      f"--outcome={json.dumps(outcome)}"]))


@pytest.fixture(scope="module")
def exponential_state(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("quote") / "state.json")
    save_state(Market(family_from_id("exponential-rate"), -1.0), path)
    return path


@settings(max_examples=100, derandomize=True, deadline=None)
@given(delta=st.one_of(JSON_VALUES, st.floats(), st.lists(st.floats(), max_size=2)))
def test_generated_quote_delta_exits_with_a_documented_code(exponential_state, delta):
    assert_documented_exit(*run_main(["quote", f"--market={exponential_state}", f"--delta={json.dumps(delta)}"]))


STATE_DIMS = {"categorical:2": 2, "exponential-rate": 1, "gaussian-moments": 2, "vmf3": 3, "weibull-moment:2": 1}


def loadable_state_and_delta(family: str):
    """A state object that often loads, with a delta of the family's dimension."""
    vector = st.lists(st.floats(), min_size=STATE_DIMS[family], max_size=STATE_DIMS[family])
    numbers = {"inv_liquidity": st.floats(), "n_trades": st.integers(min_value=0), "revenue": st.floats()}
    return st.tuples(st.fixed_dictionaries({"family": st.just(family), "theta": vector}, optional=numbers), vector)


STATE_CASES = st.one_of(  # loadable-shaped states, and objects over the five state keys plus a stray one
    st.sampled_from(sorted(STATE_DIMS)).flatmap(loadable_state_and_delta),
    st.tuples(st.fixed_dictionaries({}, optional=dict.fromkeys(
        ("family", "theta", "inv_liquidity", "n_trades", "revenue", "x"),
        st.one_of(st.sampled_from(sorted(STATE_DIMS)), JSON_VALUES))), JSON_VALUES),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=STATE_CASES)
@example(case=({"family": "categorical:2", "theta": [0.0, 0.0], "inv_liquidity": 1.0, "n_trades": 0, "revenue": 1e308},
               [1e308, 0]))
def test_generated_state_file_exits_with_a_documented_code(tmp_path_factory, case):
    # A trade that exits 0 leaves a state file that quote reads back; a refused one leaves the file and no log.
    # The example is a trade that took revenue to inf, which no command could read back.
    state, delta = case
    directory = tmp_path_factory.mktemp("state")
    path, log = str(directory / "state.json"), directory / "trades.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    before = Path(path).read_bytes()
    delta = f"--delta={json.dumps(delta)}"
    assert_documented_exit(*run_main(["quote", f"--market={path}", delta]))
    code, out, err = run_main(["trade", f"--market={path}", delta, f"--log={log}"])
    assert_documented_exit(code, out, err)
    if code == 0:
        zero = json.dumps([0] * STATE_DIMS[state["family"]])
        assert run_main(["quote", f"--market={path}", f"--delta={zero}"]) == (0, "0.0\n", "")
    else:
        assert Path(path).read_bytes() == before and not log.exists()


LOG_STARTS = {"categorical:2": [0.0, 0.0], "exponential-rate": [-1.0], "gaussian-moments": [0.0, -0.5],
              "vmf3": [0.0, 0.0, 0.0], "weibull-moment:2": [-1.0]}
PRICED = object()  # a record cost that the test fills in with what replay recomputes, when it can


def log_lines(family: str):
    """Record lines after a header at ``LOG_STARTS[family]``: record-shaped objects, often executable, or any value."""
    dim = len(LOG_STARTS[family])
    record = st.fixed_dictionaries({
        "round": st.one_of(st.integers(0, 2), JSON_VALUES), "trader_id": st.one_of(st.text(max_size=2), JSON_VALUES),
        "delta": st.one_of(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim), JSON_VALUES),
        "cost": st.one_of(st.just(PRICED), JSON_VALUES)})
    return st.tuples(st.just(family), st.just(LOG_STARTS[family]), st.booleans(),
                     st.lists(st.one_of(record, JSON_VALUES), max_size=4))


def priced(family: str, theta0: list, state_reset: bool, lines: list) -> list:
    """``lines`` with each ``PRICED`` cost the cost of executing its record where replay reaches it, else None."""
    market, last, out = Market(family_from_id(family), theta0), None, []
    for line in lines:
        if isinstance(line, dict) and "cost" in line:
            try:
                if state_reset and line["round"] != last:
                    market.reset_theta(theta0)
                last = line["round"]
                cost = market.execute(line["delta"]).cost
            except (ValueError, TypeError):  # DomainError, ConfigError: replay refuses the record too
                cost = None
            line = {**line, "cost": cost} if line["cost"] is PRICED else line
        out.append(line)
    return out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=st.sampled_from(sorted(LOG_STARTS)).flatmap(log_lines))
@example(case=("categorical:2", REVENUE_OVERFLOW_LOG[0]["theta0"], False, list(REVENUE_OVERFLOW_LOG[1:])))
def test_generated_log_replays_with_a_documented_code(tmp_path_factory, case):
    # A replay that exits 0 prints a state that loads.  The example's second record took the revenue to inf,
    # which replay printed as a state no command could read back.
    family, theta0, state_reset, lines = case
    header = log_header(Market(family_from_id(family), theta0), state_reset)
    directory = tmp_path_factory.mktemp("replay")
    log, state0 = str(directory / "trades.jsonl"), str(directory / "state0.json")
    lines = [header, *priced(family, theta0, state_reset, lines)]
    with open(log, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    write_json(state0, {"family": family, "theta": theta0})
    code, out, err = run_main(["replay", f"--log={log}", f"--state0={state0}"])
    assert_documented_exit(code, out, err)
    if code == 0:
        Market.from_state_dict(json.loads(out))
