"""Simulation engine: multi-round markets with sampled outcomes.

A simulation runs a single market through ``rounds`` rounds.  Each round:

1. the scheduled trader(s) compute and execute their trades;
2. an outcome is drawn from the family member at ``true_theta``;
3. every trade executed this round settles -- the trader receives the
   portfolio's payoff and its budget/cash move by ``payoff - cost``, which
   is exactly the trade's myopic impact on the market's log loss;
4. the round's log loss (at the end-of-round state) is recorded.

Outcomes pay off and budgets update every round, so each round behaves as
an independent instance of the market; the share vector carries over
between rounds by default, or snaps back to ``theta0`` when
``state_reset`` is set (a sequence of genuinely fresh instances -- the
configuration used to audit damage bounds, since then the only difference
a trader makes to a round is its own trade).  Trade counters and revenue
always persist.

Outcome draws consume a generator seeded only by ``config.seed``, so two
configurations sharing a seed, a family, and ``true_theta`` see identical
outcome streams -- damage-bound comparisons are paired, not
variance-dominated.  Reports are pure data and serialize byte-identically
for identical configs and seeds.

Budgets, cash, and log losses all share one unit: a trade's myopic impact
IS the trader's budget change, so a trader's cumulative impact equals its
final budget minus its initial one, and never falls below ``-initial``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, CorruptLogError, DomainError
from .families import ExpFamily, VonMisesFisher3, _dot, family_from_id
from .market import TRADE_MARGIN, Market, TradeRecord, _number, _numbers, log_loss
from .scoring import moments_from_mean_variance
from .traders import (
    TraderProfile,
    bayesian_market_trade,
    budget_limited_trade,
    exp_utility_trade,
)

TRADER_MODELS = ("risk-neutral", "bayesian", "exp-utility", "budget-limited")


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

def parse_mean_params(family: ExpFamily, value, where: str) -> np.ndarray:
    """Parse a family-appropriate mean description into a raw mean vector.

    Accepts a raw vector (or scalar for one-dimensional families), a
    ``{"probs": [...]}`` object for categorical, a ``{"mean", "variance"}``
    object for gaussian-moments, or ``{"mean": ...}``/``{"moment": ...}``
    for the remaining families.  Boundary means are admitted (empirical
    means can sit on the boundary); downstream operations that need
    interior values will reject them there.
    """
    try:
        if isinstance(value, dict):
            if "probs" in value:
                mean = _numbers(value["probs"], f"{where}.probs")
            elif "variance" in value:
                mean = moments_from_mean_variance(_number(value["mean"], f"{where}.mean"),
                                                  _number(value["variance"], f"{where}.variance"))
            elif "moment" in value:
                mean = _numbers(value["moment"], f"{where}.moment")
            elif "mean" in value:
                mean = _numbers(value["mean"], f"{where}.mean")
            else:
                raise ConfigError(f"{where}: unrecognized mean description {value!r}")
        else:
            mean = _numbers(value, where)
        return family.check_mean(mean, margin=0.0)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_belief_theta(family: ExpFamily, value, where: str) -> np.ndarray:
    """Parse a belief into natural parameters.

    Accepts ``{"theta": [...]}`` directly, or any mean description
    understood by :func:`parse_mean_params` (converted through the inverse
    gradient map, so it must be interior).
    """
    try:
        if isinstance(value, dict) and "theta" in value:
            return family.check_natural(_numbers(value["theta"], f"{where}.theta"))
        if isinstance(value, dict):
            return family.natural_from_mean(parse_mean_params(family, value, where))
        return family.check_natural(_numbers(value, where))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class SimConfig:
    """Validated simulation configuration."""

    family: ExpFamily
    theta0: np.ndarray
    rounds: int
    true_theta: np.ndarray
    traders: list[TraderProfile]
    seed: int | None = None
    inv_liquidity: float = 1.0
    arrival: str = "round-robin"
    sequence: list[str] = field(default_factory=list)
    state_reset: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """Build and validate a config from parsed JSON; raises ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        try:
            family = family_from_id(raw["family"])
        except KeyError as exc:
            raise ConfigError("config is missing 'family'") from exc
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(family, VonMisesFisher3):
            raise ConfigError("vmf3 outcomes cannot be sampled; simulation unsupported")

        lam = _number(raw.get("inv_liquidity", 1.0), "inv_liquidity")
        if not lam > 0.0:
            raise ConfigError(f"inv_liquidity must be positive, got {lam}")

        try:
            theta0 = _numbers(raw["theta0"], "theta0")
            family.check_natural(lam * theta0, margin=TRADE_MARGIN)
            true_theta = family.check_natural(_numbers(raw["true_theta"], "true_theta"))
        except KeyError as exc:
            raise ConfigError(f"config is missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

        rounds = raw.get("rounds")
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 1:
            raise ConfigError(f"rounds must be a positive integer, got {rounds!r}")

        seed = raw.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

        state_reset = raw.get("state_reset", False)
        if not isinstance(state_reset, bool):
            raise ConfigError(f"state_reset must be true or false, got {state_reset!r}")

        arrival = raw.get("arrival", "round-robin")
        if arrival not in ("round-robin", "fixed-sequence"):
            raise ConfigError(f"arrival must be 'round-robin' or 'fixed-sequence', got {arrival!r}")

        traders_raw = raw.get("traders")
        if not isinstance(traders_raw, list) or not traders_raw:
            raise ConfigError("config needs a nonempty 'traders' list")
        traders = []
        seen = set()
        for i, td in enumerate(traders_raw):
            where = f"traders[{i}]"
            if not isinstance(td, dict):
                raise ConfigError(f"{where}: must be an object")
            tid = td.get("id")
            if not isinstance(tid, str) or not tid:
                raise ConfigError(f"{where}: needs a nonempty string 'id'")
            if tid in seen:
                raise ConfigError(f"{where}: duplicate trader id {tid!r}")
            seen.add(tid)
            model = td.get("model")
            if model not in TRADER_MODELS:
                raise ConfigError(f"{where}: model must be one of {TRADER_MODELS}, got {model!r}")
            risk_aversion = _number(td.get("risk_aversion", 0.0), f"{where}: risk_aversion")
            if risk_aversion < 0.0:
                raise ConfigError(f"{where}: risk_aversion must be nonnegative")
            budget = td.get("budget")
            if budget is not None:
                budget = _number(budget, f"{where}: budget")
                if budget < 0.0:
                    raise ConfigError(f"{where}: budget must be nonnegative")
            belief = None
            if model == "bayesian":
                sample = td.get("sample")
                if not isinstance(sample, dict) or "mean" not in sample:
                    raise ConfigError(f"{where}: bayesian trader needs sample: {{mean, size}}")
                sample_mean = parse_mean_params(family, sample["mean"], f"{where}.sample.mean")
                sample_size = _number(sample.get("size", 1.0), f"{where}: sample size")
                if not sample_size > 0.0:
                    raise ConfigError(f"{where}: sample size must be positive")
                if lam != 1.0:
                    raise ConfigError(f"{where}: bayesian traders require inv_liquidity == 1")
            else:
                if "belief" not in td:
                    raise ConfigError(f"{where}: model {model!r} needs a belief")
                belief = parse_belief_theta(family, td["belief"], f"{where}.belief")
                sample_mean, sample_size = None, 1.0
                if model == "budget-limited" and lam != 1.0:
                    raise ConfigError(f"{where}: budget-limited traders require inv_liquidity == 1")
                if model == "risk-neutral":
                    risk_aversion = 0.0
            traders.append(TraderProfile(
                id=tid, model=model, belief_theta=belief,
                risk_aversion=risk_aversion, budget=budget,
                sample_mean=sample_mean, sample_size=sample_size,
            ))

        sequence = raw.get("sequence", [tr.id for tr in traders])
        if not isinstance(sequence, list) or not all(isinstance(tid, str) for tid in sequence):
            raise ConfigError(f"sequence must be a list of trader ids, got {sequence!r}")
        if arrival == "fixed-sequence":
            unknown = [tid for tid in sequence if tid not in seen]
            if unknown:
                raise ConfigError(f"sequence references unknown trader ids {unknown}")
            if not sequence:
                raise ConfigError("fixed-sequence arrival needs a nonempty sequence")

        return cls(
            family=family, theta0=theta0, rounds=rounds, true_theta=true_theta,
            traders=traders, seed=seed, inv_liquidity=lam, arrival=arrival,
            sequence=list(sequence), state_reset=state_reset,
        )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

CSV_COLUMNS = (
    "round", "trader_id", "delta", "cost", "outcome",
    "log_loss_before", "log_loss_after", "myopic_impact", "budget_after",
)
_REPORT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


@dataclass
class TradeEvent:
    """One executed-and-settled trade, as reported; the field names are the report keys."""

    round: int
    trader_id: str
    delta: list[float]
    cost: float
    outcome: object
    log_loss_before: float | None
    log_loss_after: float | None
    myopic_impact: float
    trader_budgets: dict[str, float | None]


@dataclass
class SimReport:
    """Per-event records plus run-level aggregates; the field names are the report keys."""

    family: str
    seed: int
    rounds: int
    inv_liquidity: float
    arrival: str
    state_reset: bool
    valid: bool
    error: str | None
    events: list[TradeEvent]
    aggregates: dict

    def to_dict(self) -> dict:
        return {**vars(self), "events": [vars(ev) for ev in self.events]}

    def to_json(self) -> str:
        return _REPORT_ENCODER.encode(self.to_dict()) + "\n"


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------

def _decide(market: Market, trader: TraderProfile) -> np.ndarray:
    if trader.model == "bayesian":
        return bayesian_market_trade(market, trader.sample_mean, trader.sample_size)
    if trader.model == "budget-limited":
        return budget_limited_trade(market, trader)
    return exp_utility_trade(market, trader)  # risk-neutral has risk_aversion 0


def run_simulation(config: SimConfig, trade_log_path: str | None = None) -> SimReport:
    """Run a configured simulation to completion (or to a flagged abort).

    Deterministic given the config seed: reruns produce byte-identical
    reports.  A round-level domain violation stops the run and returns the
    partial report with ``valid=False`` and the error message attached.

    With ``trade_log_path`` the run owns one handle on its JSON-lines trade
    log: opened (truncating an older file) at the first trade, flushed after
    every record and closed when the run ends.  The log holds exactly this
    run's records, so a run that aborts before its first trade leaves no file.
    """
    if config.seed is None:
        raise ConfigError("simulation requires a seed (config, env, or flag)")
    family = config.family
    market = Market(family, config.theta0, config.inv_liquidity)
    rng = np.random.default_rng(config.seed)
    # Per-run copies hold the running budget and cash (cumulative payoff -
    # cost), so a config can be rerun.  Both add the same per-trade changes
    # in order, so the budget floor holds in float arithmetic too.
    traders = [replace(tr, cash=0.0) for tr in config.traders]
    if config.arrival == "round-robin":
        turns = [[tr] for tr in traders]
    else:
        by_id = {tr.id: tr for tr in traders}
        turns = [[by_id[tid] for tid in config.sequence]]
    events: list[TradeEvent] = []
    track_loss = config.inv_liquidity == 1.0
    total_log_loss = 0.0 if track_loss else None
    valid, error = True, None

    log = None
    try:
        for round_index in range(1, config.rounds + 1):
            try:
                if config.state_reset and round_index > 1:
                    market.reset_theta(config.theta0)
                staged: list[tuple[TraderProfile, TradeRecord]] = []
                for trader in turns[(round_index - 1) % len(turns)]:
                    delta = _decide(market, trader)
                    record = market.execute(delta, trader_id=trader.id, round_index=round_index)
                    if trade_log_path is not None:
                        if log is None:
                            log = open(trade_log_path, "w", encoding="utf-8")
                        log.write(record.to_json() + "\n")
                        log.flush()
                    staged.append((trader, record))
                outcome = family.sample(config.true_theta, rng)
            except (DomainError, ConvergenceError) as exc:
                valid, error = False, f"round {round_index}: {exc}"
                break

            # Settle along the price path (first theta_before, then each theta_after): a
            # trade's payoff minus cost is its trader's budget change and its log-loss drop.
            phi = family._statistic(outcome)  # the sampler's own outcome needs no check
            path = [staged[0][1].theta_before] + [record.theta_after for _, record in staged]
            losses = [log_loss(family, theta, phi) for theta in path] if track_loss else [None] * len(path)
            budgets: dict[str, float | None] = {}  # the round's one snapshot, filled once it settles
            for i, (trader, record) in enumerate(staged):
                change = _dot(record.delta, phi) - record.cost
                trader.cash += change
                if trader.budget is not None:
                    trader.budget += change
                events.append(TradeEvent(
                    round=round_index, trader_id=trader.id, delta=record.delta.tolist(),
                    cost=record.cost, outcome=outcome, log_loss_before=losses[i],
                    log_loss_after=losses[i + 1], myopic_impact=change, trader_budgets=budgets,
                ))
            budgets.update((tr.id, tr.budget) for tr in traders)
            if track_loss:
                total_log_loss += losses[-1]
    finally:
        if log is not None:
            log.close()
        elif trade_log_path is not None and os.path.isfile(trade_log_path):
            os.remove(trade_log_path)  # no trade, so no log: not even an older run's

    aggregates = {
        "completed_rounds": events[-1].round if events else 0,
        "total_log_loss": total_log_loss,
        "per_trader_impact": {tr.id: tr.cash for tr in traders},
        "final_budgets": {tr.id: tr.budget for tr in traders},
        "final_theta": [float(v) for v in market.theta],
        "final_prices": [float(v) for v in market.prices()],
        "revenue": market.revenue,
        "n_trades": market.n_trades,
    }
    return SimReport(
        family=family.id, seed=config.seed, rounds=config.rounds,
        inv_liquidity=config.inv_liquidity, arrival=config.arrival,
        state_reset=config.state_reset, valid=valid, error=error,
        events=events, aggregates=aggregates,
    )


# ----------------------------------------------------------------------
# Replay and report emission
# ----------------------------------------------------------------------

def replay(records: list[TradeRecord], state0: dict) -> Market:
    """Re-execute a trade log against an initial state, verifying each record.

    Every record's pre-trade state must match the running state exactly
    (a jump back to the initial share vector is accepted, covering
    state-reset simulations), its post-trade state must equal ``before +
    delta``, and its cost must equal the cost of re-executing it bit for
    bit.  Returns the reconstructed market; raises CorruptLogError at the
    first offending record.  ``state0`` is a ``Market.state_dict`` snapshot.
    """
    market = Market.from_state_dict(state0)
    theta_init = market.theta.copy()
    for line, record in enumerate(records, 1):
        if not np.array_equal(record.theta_before, market.theta):
            if np.array_equal(record.theta_before, theta_init):
                market.reset_theta(theta_init)
            else:
                raise CorruptLogError(line, f"pre-trade state {record.theta_before} does not match {market.theta}")
        if not np.array_equal(record.theta_after, record.theta_before + record.delta):
            raise CorruptLogError(line, "post-trade state does not equal pre-trade state plus delta")
        try:
            cost = market.execute(record.delta, trader_id=record.trader_id, round_index=record.round).cost
        except DomainError as exc:
            raise CorruptLogError(line, f"recorded trade is not executable: {exc}") from exc
        if cost != record.cost:
            raise CorruptLogError(line, f"recorded cost {record.cost!r} != recomputed {cost!r}")
    return market


def emit_report(report: SimReport, fmt: str, path: str) -> None:
    """Write a report as JSON (lossless round trip) or CSV (one row per event).

    CSV columns: ``round, trader_id, delta, cost, outcome, log_loss_before,
    log_loss_after, myopic_impact, budget_after``.  Vector cells are
    semicolon-joined; an unlimited budget is an empty cell.  A zero-round
    simulation yields a header-only file.
    """
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_REPORT_ENCODER.iterencode(report.to_dict()))  # streamed, never held whole
            fh.write("\n")
        return
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}; use 'json' or 'csv'")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for ev in report.events:
            own_budget = ev.trader_budgets.get(ev.trader_id)
            writer.writerow([
                ev.round,
                ev.trader_id,
                ";".join(repr(float(v)) for v in ev.delta),
                repr(float(ev.cost)),
                ev.outcome if isinstance(ev.outcome, int) else repr(float(ev.outcome)),
                "" if ev.log_loss_before is None else repr(float(ev.log_loss_before)),
                "" if ev.log_loss_after is None else repr(float(ev.log_loss_after)),
                repr(float(ev.myopic_impact)),
                "" if own_budget is None else repr(float(own_budget)),
            ])
