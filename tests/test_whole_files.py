"""Whole-file writes: reports and market state are replaced whole, never torn.

``replace_file`` writes a temp file beside the target and renames it over
the target.  These tests pin what it keeps of ``open(path, "w")`` (a
symlink's target is written, a replaced file keeps its mode, a new one gets
0666 minus the umask, a FIFO is written in place) and what it adds: a
raised exception leaves the old bytes and no temp file, and so does a
SIGKILL, though that leaves its ``*.tmp`` behind.

The kill harness runs one child at a time, which sends itself SIGKILL at a
chosen point: once a chosen number of characters has gone to a file whose
name starts with a chosen name, or at the k-th ``Market._buy``.
"""

import json
import os
import signal
import stat
import subprocess
import sys
import threading

import pytest

from conftest import subprocess_env
from expfam_markets import harness
from expfam_markets.cli import main

KILL_CHILD = """\
import builtins, os, signal, sys
from expfam_markets.cli import main
from expfam_markets.market import Market

kind, count, name, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]


def die():
    os.kill(os.getpid(), signal.SIGKILL)


class Dying:
    # A text file that dies once `count` characters have gone to it, the last ones written and flushed first.
    def __init__(self, fh):
        self.fh, self.left = fh, count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def __getattr__(self, attr):
        return getattr(self.fh, attr)

    def write(self, text):
        if len(text) >= self.left:
            self.fh.write(text[:self.left])
            self.fh.flush()
            die()
        self.left -= len(text)
        return self.fh.write(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)


if kind == "write":
    real_open = builtins.open

    def dying_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        written = "w" in mode or "x" in mode
        return Dying(fh) if written and os.path.basename(str(file)).startswith(name) else fh

    builtins.open = dying_open
else:
    buy, calls = Market._buy, []

    def dying_buy(self, quote):
        calls.append(None)
        if len(calls) == count:
            die()
        return buy(self, quote)

    Market._buy = dying_buy
main(argv)
"""


def run_killed(kind, count, name, argv):
    proc = subprocess.run([sys.executable, "-c", KILL_CHILD, kind, str(count), name, *argv], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def sim_config():
    """Three trades a round, so a kill can fall mid-round."""
    traders = [{"id": tid, "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": probs}}
               for tid, probs in (("a", [0.6, 0.3, 0.1]), ("b", [0.2, 0.5, 0.3]), ("c", [0.1, 0.2, 0.7]))]
    return {"family": "categorical:3", "theta0": [0.0, 0.0, 0.0], "true_theta": [0.5, 0.0, -0.5], "rounds": 6,
            "seed": 1, "arrival": "fixed-sequence", "sequence": ["a", "b", "c"], "traders": traders}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def temp_files(directory):
    return sorted(p for p in os.listdir(directory) if p.endswith(".tmp"))


@pytest.fixture
def report():
    return harness.run_simulation(harness.SimConfig.from_dict(sim_config()))


class TestReplaceFile:
    @pytest.mark.parametrize("mode", [0o644, 0o600])
    def test_trade_keeps_the_state_file_mode(self, tmp_path, capsys, mode):
        state = write_json(tmp_path / "state.json", {"family": "categorical:3", "theta": [0.0, 0.0, 0.0]})
        os.chmod(state, mode)
        assert main(["trade", "--market", state, "--delta", "[0.1, -0.2, 0.3]"]) == 0
        assert stat.S_IMODE(os.stat(state).st_mode) == mode
        assert json.loads(read(state))["n_trades"] == 1
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_new_report_gets_the_default_mode(self, tmp_path, report, fmt):
        path = str(tmp_path / f"report.{fmt}")
        old_umask = os.umask(0o027)
        try:
            harness.emit_report(report, fmt, path)
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert os.listdir(tmp_path) == [f"report.{fmt}"]

    def test_symlink_keeps_its_link_and_replaces_its_target(self, tmp_path, report):
        (tmp_path / "real.json").write_text("old\n")
        os.symlink("real.json", tmp_path / "report.json")
        os.symlink("new.json", tmp_path / "dangling.json")
        for link in ("report.json", "dangling.json"):
            harness.emit_report(report, "json", str(tmp_path / link))
        for link, target in (("report.json", "real.json"), ("dangling.json", "new.json")):
            assert os.readlink(tmp_path / link) == target
            assert read(tmp_path / target) == report.to_json().encode()
        assert temp_files(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path, report):
        harness.emit_report(report, "csv", str(tmp_path / "expected.csv"))
        fifo = tmp_path / "report.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(read(fifo)), daemon=True)
        reader.start()
        harness.emit_report(report, "csv", str(fifo))
        reader.join(timeout=60)
        assert received == [read(tmp_path / "expected.csv")]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["expected.csv", "report.csv"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux's /proc")
    def test_pipe_named_through_proc_is_written_in_place(self, tmp_path, report):
        # As /dev/stdout does, the path reaches a pipe through a /proc link whose target, "pipe:[...]", is no path.
        r, w = os.pipe()
        os.symlink(f"/proc/{os.getpid()}/fd/{w}", tmp_path / "stdout")
        received = []

        def drain():
            with os.fdopen(r, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            harness.emit_report(report, "json", str(tmp_path / "stdout"))
        finally:
            os.close(w)
        reader.join(timeout=60)
        assert received == [report.to_json().encode()]
        assert os.listdir(tmp_path) == ["stdout"]

    def test_raised_exception_leaves_the_old_report_and_no_temp_file(self, tmp_path, report, monkeypatch):
        path = str(tmp_path / "report.json")
        with open(path, "w") as fh:
            fh.write("old\n")
        chunks = harness._report_chunks

        def failing_chunks(rep):
            yield next(chunks(rep))
            raise OSError("no space left on the device")

        monkeypatch.setattr(harness, "_report_chunks", failing_chunks)
        with pytest.raises(OSError, match="no space left"):
            harness.emit_report(report, "json", path)
        assert read(path) == b"old\n"
        assert os.listdir(tmp_path) == ["report.json"]


class TestKill:
    @pytest.mark.parametrize("name", ["report.json", "report.csv"])
    def test_kill_mid_report_leaves_the_old_report(self, tmp_path, capsys, name):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "report.json"),
                "--csv", str(tmp_path / "report.csv")]
        assert main(argv) == 0
        old = read(tmp_path / name)
        run_killed("write", len(old) // 2, name, [*argv, "--seed", "2"])  # other bytes, about as many
        assert read(tmp_path / name) == old
        assert [p.startswith(name + ".") for p in temp_files(tmp_path)] == [True]

    def test_kill_mid_new_report_leaves_no_report(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        run_killed("write", 100, "report.json", ["simulate", "--config", cfg, "--out", str(tmp_path / "report.json")])
        assert not (tmp_path / "report.json").exists()

    def test_kill_mid_state_leaves_the_old_state(self, tmp_path):
        state = write_json(tmp_path / "state.json", {"family": "categorical:3", "theta": [0.0, 0.25, -0.5]})
        old = read(state)
        run_killed("write", 20, "state.json", ["trade", "--market", state, "--delta", "[0.1, -0.2, 0.3]"])
        assert read(state) == old
        assert [p.startswith("state.json.") for p in temp_files(tmp_path)] == [True]

    # the first and last trade of round 1, before any round settles; the first, second and last trade of a round
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
    def test_kill_at_a_trade_leaves_a_log_of_whole_rounds(self, tmp_path, capsys, k):
        cfg = write_json(tmp_path / "sim.json", sim_config())
        full, log = tmp_path / "full.jsonl", tmp_path / "trades.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "full.json"), "--trade-log", str(full)]) == 0
        log.write_bytes(read(full))  # an older run's complete log, which the killed rerun must not leave
        run_killed("buy", k, "-", ["simulate", "--config", cfg, "--out", str(tmp_path / "report.json"),
                                   "--trade-log", str(log)])
        settled = (k - 1) // 3
        assert read(log).splitlines() == read(full).splitlines()[:1 + 3 * settled]
        assert not (tmp_path / "report.json").exists()
        state0 = write_json(tmp_path / "state0.json", {"family": "categorical:3", "theta": [0.0, 0.0, 0.0]})
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--state0", state0]) == 0
        assert json.loads(capsys.readouterr().out)["n_trades"] == 3 * settled
