"""One benchmark worker process: set up one workload, time it, check it.

Started by ``run.py``, one fresh process per set-up sample and per run, so
that imports count towards set-up time and peak RSS is the workload's own.
Every input is generated from the workload seed; every file is written under
the ``--tmp`` directory that ``run.py`` owns.  The result is one JSON object
written to ``--out``.

Workloads (the names are fixed; see README.md for why each exists):

* ``sim-long``     -- one long ``categorical:3`` simulation with three traders
  and fixed-sequence arrival, writing a trade log and JSON/CSV reports.
* ``replay-audit`` -- ``read_trade_log`` plus ``replay`` of the trade log of
  a shortened ``sim-long`` run with the same seed (made during set-up).
* ``ensemble``     -- many short state-reset runs across seeds, rotating over
  four one- and two-dimensional families, each validated by ``from_dict``.
* ``cli-trade``    -- sequential ``python -m expfam_markets.cli trade``
  processes against one state file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import numpy as np

from expfam_markets import cli, harness, market
from expfam_markets.errors import CorruptLogError

import tracer as tracing

SIM_LONG_ROUNDS = 10_000
# The audited log comes from the sim-long config cut to 3,000 rounds:
# replay-audit builds it during every set-up sample, and set-up is timed.
REPLAY_ROUNDS = 3_000
ENSEMBLE_FAMILIES = ("exponential-rate", "weibull-moment:2", "gaussian-moments", "categorical:2")
# Run lengths cycle through this grid so run times spread continuously
# across the four families; a single length would leave the median in the
# gap between two families' clusters.
ENSEMBLE_ROUNDS = tuple(range(200, 501, 50))
ENSEMBLE_PERIOD = len(ENSEMBLE_FAMILIES) * len(ENSEMBLE_ROUNDS)
ENSEMBLE_RECHECK = 8  # untraced runs re-run after timing to check determinism
CLI_MIN_INVOCATIONS = 100  # so that at least 10 samples lie beyond the p90
CLI_PROBES = 15  # samples per cli.* probe in a traced run
CLI_TIMEOUT_S = 60.0
SIM_LONG_MIN_PASSES = 2  # report bytes are compared across passes



def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checks:
    """Named output checks; each failure counts as one failed operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _probs(rng: np.random.Generator, k: int) -> list[float]:
    # Floor each probability at 0.1 so no belief sits near the simplex edge.
    p = 0.1 + (1.0 - 0.1 * k) * rng.dirichlet(np.full(k, 4.0))
    return [float(v) for v in p]


def _centered_log(probs) -> list[float]:
    logs = np.log(np.asarray(probs))
    return [float(v) for v in logs - logs.mean()]


def sim_long_config(seed: int, rounds: int = SIM_LONG_ROUNDS) -> dict:
    """The ``sim-long`` config (also the source of the ``replay-audit`` log)."""
    rng = np.random.default_rng([seed, 1])
    return {
        "family": "categorical:3",
        "theta0": [0.0, 0.0, 0.0],
        "true_theta": _centered_log(_probs(rng, 3)),
        "rounds": rounds,
        "seed": int(rng.integers(2**31)),
        "arrival": "fixed-sequence",
        "sequence": ["eu", "bl", "by"],
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": float(rng.uniform(0.5, 2.0)),
             "belief": {"probs": _probs(rng, 3)}},
            {"id": "bl", "model": "budget-limited", "budget": float(rng.uniform(1.0, 3.0)),
             "belief": {"probs": _probs(rng, 3)}},
            {"id": "by", "model": "bayesian",
             "sample": {"mean": {"probs": _probs(rng, 3)}, "size": float(rng.uniform(2.0, 8.0))}},
        ],
    }


def ensemble_config(seed: int, index: int) -> dict:
    """Run ``index`` of the ``ensemble`` workload."""
    rng = np.random.default_rng([seed, 2, index])
    family = ENSEMBLE_FAMILIES[index % len(ENSEMBLE_FAMILIES)]
    if family == "categorical:2":
        theta0 = [0.0, 0.0]
        true_theta = _centered_log(_probs(rng, 2))
        beliefs = [{"probs": _probs(rng, 2)} for _ in range(2)]
    elif family == "gaussian-moments":
        theta0 = [0.0, -0.5]
        m, v = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        true_theta = [float(m / v), float(-0.5 / v)]
        beliefs = [{"mean": float(m + rng.uniform(-0.5, 0.5)), "variance": float(v * rng.uniform(0.6, 1.6))}
                   for _ in range(2)]
    else:
        key = "mean" if family == "exponential-rate" else "moment"
        theta0 = [-1.0]
        mean = rng.uniform(0.5, 2.0)
        true_theta = [float(-1.0 / mean)]
        beliefs = [{key: float(mean * rng.uniform(0.6, 1.6))} for _ in range(2)]
    return {
        "family": family,
        "theta0": theta0,
        "true_theta": true_theta,
        "rounds": ENSEMBLE_ROUNDS[(index // len(ENSEMBLE_FAMILIES)) % len(ENSEMBLE_ROUNDS)],
        "seed": int(rng.integers(2**31)),
        "arrival": "round-robin",
        "state_reset": True,
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": float(rng.uniform(0.5, 2.0)),
             "belief": beliefs[0]},
            {"id": "rn", "model": "risk-neutral", "belief": beliefs[1]},
            {"id": "bl", "model": "budget-limited", "budget": float(rng.uniform(0.5, 2.0)),
             "belief": beliefs[0]},
        ],
    }


def cli_deltas(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng([seed, 3])
    return [json.dumps([float(v) for v in rng.uniform(-0.3, 0.3, 3)]) for _ in range(count)]


CLI_STATE0 = {"family": "categorical:3", "theta": [0.0, 0.0, 0.0],
              "inv_liquidity": 1.0, "n_trades": 0, "revenue": 0.0}


# ----------------------------------------------------------------------
# Shared checks
# ----------------------------------------------------------------------

def check_report(checks: Checks, report, where: str, budget_floor: bool = False) -> None:
    """Validity and the myopic-impact accounting identity of one report."""
    if not checks.add(f"{where}: valid", report.valid, report.error or ""):
        return
    sums: dict[str, float] = {}
    for ev in report.events:
        sums[ev.trader_id] = sums.get(ev.trader_id, 0.0) + ev.myopic_impact
    impact = report.aggregates["per_trader_impact"]
    bad = [tid for tid, total in impact.items() if sums.get(tid, 0.0) != total]
    checks.add(f"{where}: sum of myopic_impact equals per_trader_impact", not bad, f"differs for {bad}")
    if budget_floor:
        budgets = report.aggregates["final_budgets"]
        low = {tid: b for tid, b in budgets.items() if b is not None and not b >= 0.0}
        checks.add(f"{where}: budget-limited final budget >= 0", not low, str(low))


def same_state(a: dict, b: dict) -> bool:
    keys = ("family", "theta", "inv_liquidity", "n_trades", "revenue")
    return all(a.get(k) == b.get(k) for k in keys)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Set-up, timed jobs, and output checks for one named workload.

    A job is the unit that is timed: one simulate pass, one audit pass, one
    ensemble run or one CLI invocation.  ``work`` counts what a job does
    (rounds, records, runs, invocations) for the throughput metric.
    """

    work_unit = "ops"
    tracer_ops = (None, None)  # (op_end, op_start) for Tracer

    def __init__(self, seed: int, tmp: str, env: dict, cpus: list[int]):
        self.seed = seed
        self.tmp = tmp
        self.env = env
        self.checks = Checks()
        self.digests: dict[str, str] = {}
        self.io: dict[str, float] = {}
        self.cpus = cpus

    def rotate_cpu(self, job: int) -> None:
        """Pin this process, and those it starts, to the next CPU in turn.

        Each CPU of the measuring machine drifts in speed on its own (with
        its neighbours' load), and an unpinned worker tends to stay on the
        CPU it started on, so runs differed by which CPU they drew.  Rotating
        the timed jobs over the CPUs makes every run sample each of them.
        """
        os.sched_setaffinity(0, {self.cpus[job % len(self.cpus)]})

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> tuple[list[float], list[int]]:
        """Run timed jobs for about ``seconds``; returns job times and work."""
        raise NotImplementedError

    def traced_pair(self, tracer: tracing.Tracer) -> tuple[float, float]:
        """Run the same fixed jobs untraced, then traced; returns both wall times."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SimLong(Workload):
    work_unit = "rounds"
    tracer_ops = (tracing.ROUND_END, tracing.ROUND_START)

    def setup(self) -> None:
        self.config = harness.SimConfig.from_dict(sim_long_config(self.seed))
        self.passes = 0

    def _pass(self) -> tuple[float, int, dict]:
        self.passes += 1
        base = os.path.join(self.tmp, f"sim-{self.passes}")
        paths = {"report.json": base + ".json", "report.csv": base + ".csv",
                 "trade_log": base + ".jsonl"}
        t0 = perf_counter()
        report = harness.run_simulation(self.config, trade_log_path=paths["trade_log"])
        harness.emit_report(report, "json", paths["report.json"])
        harness.emit_report(report, "csv", paths["report.csv"])
        elapsed = perf_counter() - t0
        rounds = report.aggregates["completed_rounds"]
        check_report(self.checks, report, f"sim-long pass {self.passes}", budget_floor=True)
        self.io.update(events=len(report.events))
        digests = {}
        for name, path in paths.items():
            digests[name] = sha256_file(path)
            self.io[f"{name}.bytes"] = os.path.getsize(path)
            if name == "trade_log":
                with open(path, "rb") as fh:
                    self.io["trade_log.records"] = sum(1 for _ in fh)
            os.unlink(path)
        del report
        gc.collect()
        return elapsed, rounds, digests

    def _compare(self, digests: dict, where: str) -> None:
        if not self.digests:
            self.digests = digests
        else:
            same = digests == self.digests
            self.checks.add(f"{where}: report and log bytes equal the first pass", same)

    def measure(self, seconds):
        times, work = [], []
        start = perf_counter()
        while len(times) < SIM_LONG_MIN_PASSES or perf_counter() - start + times[-1] <= seconds:
            self.rotate_cpu(len(times))
            elapsed, rounds, digests = self._pass()
            self._compare(digests, f"sim-long pass {self.passes}")
            times.append(elapsed)
            work.append(rounds)
        return times, work

    def traced_pair(self, tracer):
        plain, _, digests = self._pass()
        self._compare(digests, "sim-long untraced pass")
        tracer.set_op(1)
        with tracer:
            traced, _, digests = self._pass()
        self._compare(digests, "sim-long traced pass")
        return plain, traced


class ReplayAudit(Workload):
    work_unit = "records"
    tracer_ops = (tracing.RECORD_END, None)

    def setup(self) -> None:
        config = harness.SimConfig.from_dict(sim_long_config(self.seed, REPLAY_ROUNDS))
        self.log = os.path.join(self.tmp, "audit.jsonl")
        report = harness.run_simulation(config, trade_log_path=self.log)
        self.checks.add("replay-audit source run: valid", report.valid, report.error or "")
        self.expected = {k: report.aggregates[k] for k in ("final_theta", "n_trades", "revenue")}
        self.state0 = {"family": config.family.id, "theta": [float(v) for v in config.theta0],
                       "inv_liquidity": config.inv_liquidity, "n_trades": 0, "revenue": 0.0}
        del report
        # A copy of the log with one recorded cost moved by one ulp.
        with open(self.log, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        rng = np.random.default_rng([self.seed, 4])
        self.tampered_line = int(rng.integers(1, len(lines) + 1))
        record = json.loads(lines[self.tampered_line - 1])
        record["cost"] = math.nextafter(record["cost"], math.inf)
        lines[self.tampered_line - 1] = json.dumps(record, sort_keys=True) + "\n"
        self.tampered = os.path.join(self.tmp, "audit-tampered.jsonl")
        with open(self.tampered, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        self.digests = {"trade_log": sha256_file(self.log)}
        self.io.update({"trade_log.records": len(lines), "trade_log.bytes": os.path.getsize(self.log)})
        gc.collect()

    def _pass(self, where: str, tracer: tracing.Tracer | None = None) -> tuple[float, int]:
        t0 = perf_counter()
        records = market.read_trade_log(self.log)
        if tracer is not None:
            tracer.set_op(1)
        rebuilt = harness.replay(records, self.state0)
        elapsed = perf_counter() - t0
        exact = (rebuilt.theta.tolist() == self.expected["final_theta"]
                 and rebuilt.n_trades == self.expected["n_trades"]
                 and rebuilt.revenue == self.expected["revenue"])
        self.checks.add(f"{where}: replay rebuilds final_theta, n_trades and revenue bit for bit", exact)
        self.digests["final_state"] = hashlib.sha256(
            json.dumps(rebuilt.state_dict(), sort_keys=True).encode()).hexdigest()
        return elapsed, len(records)

    def _tamper_check(self) -> None:
        try:
            harness.replay(market.read_trade_log(self.tampered), self.state0)
        except CorruptLogError as exc:
            self.checks.add("replay-audit: 1-ulp cost change raises CorruptLogError at its line",
                            exc.line_number == self.tampered_line,
                            f"raised at line {exc.line_number}, tampered line {self.tampered_line}")
        else:
            self.checks.add("replay-audit: 1-ulp cost change raises CorruptLogError at its line", False,
                            "replay accepted the tampered log")

    def measure(self, seconds):
        times, work = [], []
        start = perf_counter()
        while not times or perf_counter() - start + times[-1] <= seconds:
            self.rotate_cpu(len(times))
            elapsed, records = self._pass(f"replay-audit pass {len(times) + 1}")
            times.append(elapsed)
            work.append(records)
            gc.collect()
        self._tamper_check()
        return times, work

    def traced_pair(self, tracer):
        plain, _ = self._pass("replay-audit untraced pass")
        untraced_state = self.digests["final_state"]
        gc.collect()
        with tracer:
            traced, _ = self._pass("replay-audit traced pass", tracer)
        self.checks.add("replay-audit: traced final state equals untraced",
                        self.digests["final_state"] == untraced_state)
        self._tamper_check()
        return plain, traced


class Ensemble(Workload):
    work_unit = "runs"

    def setup(self) -> None:
        # Generate enough configs for any run length; building the dicts is
        # input generation, validating them (from_dict) is timed work.
        self.configs: list[dict] = []
        self._extend(ENSEMBLE_PERIOD)

    def _extend(self, count: int) -> None:
        start = len(self.configs)
        self.configs.extend(ensemble_config(self.seed, i) for i in range(start, start + count))

    def _run(self, index: int, checks: bool = True) -> tuple[float, str, int]:
        if index >= len(self.configs):
            self._extend(ENSEMBLE_PERIOD)
        raw = self.configs[index]
        t0 = perf_counter()
        config = harness.SimConfig.from_dict(raw)
        report = harness.run_simulation(config)
        elapsed = perf_counter() - t0
        if checks:
            check_report(self.checks, report, f"ensemble run {index} ({raw['family']})")
        return elapsed, hashlib.sha256(report.to_json().encode()).hexdigest(), len(report.events)

    def _digest(self, digests: list[str]) -> str:
        # Over the first period only, so it does not depend on the run count.
        return hashlib.sha256("".join(digests[:ENSEMBLE_PERIOD]).encode()).hexdigest()

    def measure(self, seconds):
        times, digests = [], []
        start = perf_counter()
        while perf_counter() - start < seconds or len(times) < ENSEMBLE_PERIOD:
            self.rotate_cpu(len(times))
            elapsed, digest, _ = self._run(len(times))
            times.append(elapsed)
            digests.append(digest)
        for i in range(min(ENSEMBLE_RECHECK, len(times))):
            _, again, _ = self._run(i, checks=False)
            self.checks.add(f"ensemble run {i}: deterministic", again == digests[i])
        self.digests = {f"reports[:{ENSEMBLE_PERIOD}]": self._digest(digests)}
        return times, [1] * len(times)

    def traced_pair(self, tracer):
        n = ENSEMBLE_PERIOD
        untraced = traced = 0.0
        plain, traced_digests = [], []
        events = 0
        for i in range(n):
            elapsed, digest, _ = self._run(i)
            untraced += elapsed
            plain.append(digest)
        with tracer:
            for i in range(n):
                tracer.set_op(i)
                elapsed, digest, count = self._run(i, checks=False)
                traced += elapsed
                traced_digests.append(digest)
                events += count
        for i in range(n):
            self.checks.add(f"ensemble run {i}: traced report equals untraced", plain[i] == traced_digests[i])
        self.io["events"] = events
        self.digests = {f"reports[:{n}]": self._digest(plain)}
        return untraced, traced


class CliTrade(Workload):
    work_unit = "invocations"

    def setup(self) -> None:
        self.state = os.path.join(self.tmp, "state.json")
        self.log = os.path.join(self.tmp, "cli-trades.jsonl")
        with open(self.state, "w", encoding="utf-8") as fh:
            json.dump(CLI_STATE0, fh)
        self.deltas = cli_deltas(self.seed, 4 * CLI_MIN_INVOCATIONS)

    def _argv(self, i: int, state: str, log: str) -> list[str]:
        return ["trade", "--market", state, "--delta", self.deltas[i % len(self.deltas)],
                "--trader", f"t{i % 3}", "--log", log]

    def _spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable] + argv, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S, check=False)
        return perf_counter() - t0, proc

    def _invoke(self, i: int) -> float:
        elapsed, proc = self._spawn(["-m", "expfam_markets.cli"] + self._argv(i, self.state, self.log))
        self.checks.add(f"cli-trade invocation {i}: exit 0", proc.returncode == 0,
                        proc.stderr.decode(errors="replace")[-300:])
        return elapsed

    def _final_check(self) -> None:
        with open(self.state, "r", encoding="utf-8") as fh:
            final = json.load(fh)
        rebuilt = harness.replay(market.read_trade_log(self.log), CLI_STATE0).state_dict()
        self.checks.add("cli-trade: final state equals replay of its log", same_state(final, rebuilt),
                        f"{final} != {rebuilt}")
        with open(self.log, "rb") as fh:
            head = [line for _, line in zip(range(CLI_MIN_INVOCATIONS), fh)]
        self.digests = {f"trade_log[:{len(head)}]": hashlib.sha256(b"".join(head)).hexdigest()}

    def measure(self, seconds):
        times = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(times) < CLI_MIN_INVOCATIONS:
            self.rotate_cpu(len(times))
            times.append(self._invoke(len(times)))
        self._final_check()
        return times, [1] * len(times)

    def _main_calls(self, tag: str, tracer: tracing.Tracer | None = None) -> tuple[list[float], dict]:
        state = os.path.join(self.tmp, f"state-{tag}.json")
        log = os.path.join(self.tmp, f"trades-{tag}.jsonl")
        with open(state, "w", encoding="utf-8") as fh:
            json.dump(CLI_STATE0, fh)
        times = []
        for i in range(CLI_PROBES):
            if tracer is not None:
                tracer.set_op(i)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = cli.main(self._argv(i, state, log))
                times.append(perf_counter() - t0)
            self.checks.add(f"cli-trade in-process main {tag} {i}: exit 0", code == 0)
        return times, {"state": sha256_file(state), "trade_log": sha256_file(log),
                       "log_bytes": os.path.getsize(log)}

    def traced_pair(self, tracer):
        probes = {}
        for name, argv in (("interpreter", ["-c", "pass"]),
                           ("import", ["-c", "import expfam_markets.cli"])):
            samples = []
            for _ in range(CLI_PROBES):
                elapsed, proc = self._spawn(argv)
                self.checks.add(f"cli-trade probe {name}: exit 0", proc.returncode == 0)
                samples.append(elapsed)
            probes[name] = statistics.median(samples)
        invocations = [self._invoke(i) for i in range(CLI_PROBES)]
        self._final_check()
        self._main_calls("warm-up")  # first calls pay one-off costs; keep them out of both sides
        plain_times, plain = self._main_calls("untraced")
        with tracer:
            traced_times, traced = self._main_calls("traced", tracer)
        self.checks.add("cli-trade: traced state and log bytes equal untraced", plain == traced)
        main_s = statistics.median(plain_times)
        self.cli = {
            "interpreter_ms": probes["interpreter"] * 1e3,
            "import_ms": (probes["import"] - probes["interpreter"]) * 1e3,
            "main_trade_ms": main_s * 1e3,
            "process_overhead_ms": (statistics.median(invocations) - main_s) * 1e3,
        }
        self.io.update({"trade_log.records": CLI_PROBES, "trade_log.bytes": traced["log_bytes"]})
        return sum(plain_times), sum(traced_times)

    def peak_rss_mb(self) -> float:
        # The CLI processes are what a user runs; this worker only waits on them.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {"sim-long": SimLong, "replay-audit": ReplayAudit, "ensemble": Ensemble, "cli-trade": CliTrade}


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------

def layer_metrics(workload: Workload, tracer: tracing.Tracer, plain_s: float,
                  traced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value and unit), plus the counts behind the ratios.

    A layer the workload does not exercise reads 0 calls and 0 s.
    """
    rows = tracer.summary()
    out: dict[str, dict] = {}

    def row(name: str) -> dict:
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls_and_self(span: str) -> None:
        put(f"{span}.calls", row(span)["calls"], "count")
        put(f"{span}.self_s", row(span)["self_s"], "s")

    for m in tracing.FAMILY_METHODS:
        calls_and_self(f"families.{m}")
    for m in ("quote", "execute", "log_loss"):
        calls_and_self(f"market.{m}")
    quotes, executes = row("market.quote")["calls"], row("market.execute")["calls"]
    put("market.quote.us_per_call", ratio(row("market.quote")["total_s"], quotes) * 1e6, "us")
    put("market.reset_theta.calls", row("market.reset_theta")["calls"], "count")
    put("market.quotes_per_trade", ratio(quotes, executes), "ratio")
    for fn in tracing.TRADER_FUNCTIONS:
        calls_and_self(f"traders.{fn}")
    budget_calls = row("traders.budget_limited_trade")["calls"]
    budget_quotes = tracer.child_calls("traders.budget_limited_trade", "market.quote")
    put("traders.budget_limited.quotes_per_call", ratio(budget_quotes, budget_calls), "ratio")
    put("traders.TraderProfile.constructed", row("traders.TraderProfile")["calls"], "count")
    sim = row("harness.run_simulation")
    put("harness.run_simulation.self_s", sim["self_s"], "s")
    put("harness.run_simulation.self_frac", ratio(sim["self_s"], sim["total_s"]), "ratio")
    put("harness.SimConfig.from_dict.self_s", row("harness.SimConfig.from_dict")["self_s"], "s")
    put("harness.replay.self_s", row("harness.replay")["self_s"], "s")
    put("harness.events", workload.io.get("events", 0), "count")
    put("harness.throughput_q4_over_q1", quarter_ratio(tracer), "ratio")
    put("io.trade_log.records", workload.io.get("trade_log.records", 0), "count")
    put("io.trade_log.bytes", workload.io.get("trade_log.bytes", 0), "bytes")
    for fmt in ("json", "csv"):
        put(f"io.emit_report.{fmt}_s", row(f"io.emit_report.{fmt}")["total_s"], "s")
        put(f"io.emit_report.{fmt}_bytes", workload.io.get(f"report.{fmt}.bytes", 0), "bytes")
    for fn in ("read_trade_log", "load_state", "save_state"):
        r = row(f"io.{fn}")
        put(f"io.{fn}.s", ratio(r["total_s"], r["calls"]), "s")
    probes = getattr(workload, "cli", {})
    for key in ("interpreter_ms", "import_ms", "main_trade_ms", "process_overhead_ms"):
        put(f"cli.{key}", probes.get(key, 0.0), "ms")
    put("tracing.spans", len(tracer), "count")
    put("tracing.overhead_s", traced_s - plain_s, "s")
    put("tracing.overhead_frac", (traced_s - plain_s) / plain_s, "ratio")
    counts = {"market.quote.calls": quotes, "market.execute.calls": executes,
              "traders.budget_limited_trade.calls": budget_calls,
              "traders.budget_limited_trade.quote_children": budget_quotes,
              "harness.run_simulation.total_s": sim["total_s"],
              "untraced_s": plain_s, "traced_s": traced_s}
    return out, counts


def quarter_ratio(tracer: tracing.Tracer) -> float:
    """Executes per second in the last quarter of the trace over the first."""
    idx = tracer.spans_named("market.execute")
    n = len(idx)
    if n < 8:
        return 0.0
    starts = [tracer.start[i] for i in idx]
    q1 = (n // 4) / (starts[n // 4] - starts[0])
    q4 = (n - 3 * n // 4) / (tracer.end[idx[-1]] - starts[3 * n // 4])
    return q4 / q1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory this worker may write to")
    parser.add_argument("--out", required=True, help="path of the result JSON")
    parser.add_argument("--spans", default=None, help="path of the span file (traced runs)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpus", default=None,
                        help="comma-separated CPUs to rotate the timed jobs over (default: all allowed)")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    cpus = ([int(c) for c in args.cpus.split(",")] if args.cpus
            else sorted(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload](args.seed, args.tmp, env, cpus)
    workload.setup()
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "numpy": np.__version__,
              "python": sys.version.split()[0]}
    if not args.setup_only:
        if args.trace:
            op_end, op_start = workload.tracer_ops
            tracer = tracing.Tracer(op_end, op_start)
            plain_s, traced_s = workload.traced_pair(tracer)
            result["layers"], result["layer_counts"] = layer_metrics(workload, tracer, plain_s, traced_s)
            if args.spans:
                tracer.write(args.spans)
        else:
            times, work = workload.measure(args.seconds)
            result.update(times=times, work=work)
        result["peak_rss_mb"] = workload.peak_rss_mb()
    result["work_unit"] = workload.work_unit
    result["checks"] = workload.checks.results
    result["digests"] = workload.digests
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
