"""A reference engine: ``run_simulation``'s round loop written with the public, checked API only.

Each round trades on a fresh ``Market(family, theta, lam, n_trades, revenue)``: at ``theta0`` under
``state_reset``, else at the settled state, with the settled trade count and revenue.  A round that
raises DomainError is dropped by keeping the settled market.  Traders decide through the three public
trade rules, the budget-limited one through a profile copy that carries its running budget.  Trades
run through ``Market.execute``, except a nonzero delta that rounds away in ``theta + delta``: ``execute``
refuses it, but the engine still buys it at its quoted cost of 0.0 and leaves the state as it is, so here
it is a fresh market at that state, one trade later.  Outcomes come from ``ExpFamily.sample``; a log loss is
``Market.log_loss`` on a fresh market at the state and a payoff is ``_dot`` with ``statistic``.  None of the engine's fast paths (the
movers and their memo of each move with its quote, ``_buy``, ``_restore``, the pairing kernels) runs
here, so ``hexed`` of the two runs must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
from array import array

import numpy as np

from expfam_markets import (DomainError, Market, SimConfig, SimReport, TradeRecord, bayesian_market_trade,
                            budget_limited_trade, exp_utility_trade)
from expfam_markets.families import _dot


def _hex(value):
    """Every float in ``value`` (a float, list, array or dict of them, or another value) as ``float.hex``.

    An ``array`` (a vmf3 outcome) is hexed entry by entry: left to ``==``, it would take -0.0 for 0.0.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, array)):
        return [_hex(v) for v in value]
    return value


def hexed(report: SimReport) -> dict:
    """What the reference run reproduces of a report: every event field, ``valid``, ``error``, books, final state."""
    events = [[ev.round, ev.trader_id, list(ev.delta), ev.cost, ev.outcome, ev.log_loss_before,
               ev.log_loss_after, ev.myopic_impact, ev.trader_budgets] for ev in report.events]
    keep = ("per_trader_impact", "final_budgets", "final_theta", "total_log_loss", "revenue", "n_trades")
    return _hex({"valid": report.valid, "error": report.error, "events": events,
                 **{key: report.aggregates[key] for key in keep}})


def reference_run(config: SimConfig) -> dict:
    """Run ``config`` with the public API; the result has ``hexed``'s form."""
    family, lam = config.family, config.inv_liquidity
    market = Market(family, config.theta0, lam)
    rng = np.random.default_rng(config.seed)
    by_id = {tr.id: tr for tr in config.traders}
    running = {tr.id: dataclasses.replace(tr) for tr in config.traders if tr.model == "budget-limited"}
    cash = {tr.id: 0.0 for tr in config.traders}
    budgets = {tr.id: tr.budget for tr in config.traders}
    turns = [[tr.id] for tr in config.traders] if config.arrival == "round-robin" else [config.sequence]
    events, error = [], None
    total_log_loss = 0.0
    for round_index in range(1, config.rounds + 1):
        theta = config.theta0 if config.state_reset else market.theta
        trial = Market(family, theta, lam, market.n_trades, market.revenue)
        states, records = [trial.theta], []
        try:
            for tid in turns[(round_index - 1) % len(turns)]:
                trader = by_id[tid]
                if trader.model == "bayesian":
                    delta = bayesian_market_trade(trial, trader.sample_mean, trader.sample_size)
                elif trader.model == "budget-limited":
                    running[tid].budget = budgets[tid]
                    delta = budget_limited_trade(trial, running[tid])
                else:
                    delta = exp_utility_trade(trial, trader)
                if any(delta) and all(t + d == t for t, d in zip(trial.theta, delta)):
                    records.append(TradeRecord(trial.n_trades, tid, array("d", delta), trial.quote(delta)))
                    trial = Market(family, trial.theta, lam, trial.n_trades + 1, trial.revenue + records[-1].cost)
                else:
                    records.append(trial.execute(delta, tid))
                states.append(trial.theta)
            outcome = family.sample(config.true_theta, rng)
        except DomainError as exc:
            error = f"round {round_index}: {exc}"
            break
        market = trial
        losses = [Market(family, state, lam).log_loss(outcome) for state in states]
        phi = family.statistic(outcome)
        changes = []
        for record in records:
            change = _dot(record.delta, phi) - record.cost
            cash[record.trader_id] += change
            if budgets[record.trader_id] is not None:
                budgets[record.trader_id] += change
            changes.append(change)
        snapshot = dict(budgets)
        for i, (record, change) in enumerate(zip(records, changes)):
            events.append([round_index, record.trader_id, list(record.delta), record.cost, outcome, losses[i],
                           losses[i + 1], change, snapshot])
        total_log_loss += losses[-1]
    return _hex({"valid": error is None, "error": error, "events": events, "per_trader_impact": cash,
                 "final_budgets": budgets, "final_theta": market.theta.tolist(), "total_log_loss": total_log_loss,
                 "revenue": market.revenue, "n_trades": market.n_trades})
