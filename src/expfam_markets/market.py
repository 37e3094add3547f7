"""Cost-function automated market maker.

The market sells one security per statistic component: a share of security
``i`` bought as part of portfolio ``delta`` pays ``delta_i * phi_i(x)`` at
outcome ``x``.  The quoted cost of ``delta`` at share vector ``theta`` is
``C(theta + delta) - C(theta)`` where the cost function is the family's
log-partition function, scaled for liquidity:

    C_lam(theta) = (1/lam) * T(lam * theta).

Instantaneous prices are the gradient ``grad C_lam(theta) = grad T(lam*theta)``,
i.e. the mean parameters of the member at ``lam * theta`` -- prices ARE the
market's probabilistic prediction.  Larger ``lam`` (inverse liquidity) moves
prices further per share bought.

The share vector must stay strictly inside the cost function's domain.  In
exact arithmetic the blow-up of ``C`` at the boundary self-enforces this
(no finite-budget trader buys an infinite-cost portfolio), but in floating
point we reject trades that move ``lam * theta`` within ``1e-9`` of the
boundary outright, and any state whose cost overflows.  Only
``Market.__init__``, ``execute`` and ``reset_theta`` store the share vector,
and each checks it, so pricing and settlement evaluate the family kernels
on it unchecked.  The same three writers keep ``C(theta)`` cached, so a
quote evaluates the log partition once, at the target; ``execute`` checks
``delta`` once and stores its quote's target cost as the new cache.

One market instance is single-writer: ``execute`` requires exclusive
access, while ``quote``/``prices``/``log_loss`` are read-only and may run
concurrently between writes.  Distinct instances are independent.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptLogError, DomainError
from .families import ExpFamily, _dot, as_params, family_from_id

TRADE_MARGIN = 1e-9


def _number(value, where: str) -> float:
    """A finite JSON number as a float; raises ConfigError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> np.ndarray:
    """A JSON number or list of JSON numbers as a float vector; raises ConfigError for anything else."""
    if not isinstance(value, list):
        return np.array([_number(value, where)])
    where = f"{where} entry"
    return np.array([_number(v, where) for v in value])


def log_loss(family: ExpFamily, theta: np.ndarray, phi: np.ndarray) -> float:
    """Log loss ``T(theta) - <theta, phi>`` at an interior (unchecked) ``theta``, statistic ``phi``."""
    return float(family._log_partition(theta)) - _dot(theta, phi)


@dataclass
class TradeRecord:
    """One executed trade: portfolio, cost, and the states it bridged; the field names are the trade-log keys."""

    round: int
    trader_id: str
    delta: np.ndarray
    cost: float
    theta_before: np.ndarray
    theta_after: np.ndarray

    def to_dict(self) -> dict:
        return {**vars(self), "delta": self.delta.tolist(),
                "theta_before": self.theta_before.tolist(), "theta_after": self.theta_after.tolist()}

    def to_json(self) -> str:
        """The record as one trade-log line, without its newline."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TradeRecord":
        """Read a trade-log record; a value of the wrong JSON type raises ConfigError."""
        if isinstance(d["round"], bool) or not isinstance(d["round"], int):
            raise ConfigError(f"round must be an integer, got {d['round']!r}")
        if not isinstance(d["trader_id"], str):
            raise ConfigError(f"trader_id must be a string, got {d['trader_id']!r}")
        vectors = {}
        for key in ("delta", "theta_before", "theta_after"):
            if not isinstance(d[key], list):
                raise ConfigError(f"{key} must be a list of numbers, got {d[key]!r}")
            vectors[key] = _numbers(d[key], key)
        return cls(round=d["round"], trader_id=d["trader_id"], cost=_number(d["cost"], "cost"), **vectors)


class Market:
    """Share-vector state plus pricing, trading, and accounting.

    Args:
        family: The exponential family whose log partition is the cost.
        theta0: Initial share vector; ``inv_liquidity * theta0`` must be
            strictly interior (e.g. negative shares for ``exponential-rate``).
        inv_liquidity: Price responsiveness ``lam > 0``; default 1.
        n_trades: Trade counter (posted so that conjugate-prior traders can
            weigh the prices as a phantom sample).
        revenue: Cash collected so far; stays equal to the sum of executed
            trade costs.

    The market writes no trade log; the caller of ``execute`` owns it.
    """

    def __init__(self, family: ExpFamily, theta0, inv_liquidity: float = 1.0,
                 n_trades: int = 0, revenue: float = 0.0):
        self.family = family
        lam = float(inv_liquidity)
        if not lam > 0.0:
            raise DomainError(f"inv_liquidity must be positive, got {inv_liquidity}")
        self.inv_liquidity = lam
        theta0 = as_params(theta0, family.dim, "theta0")
        family.check_natural(lam * theta0, margin=TRADE_MARGIN)
        self.theta = theta0
        self._cost = self._cost_at(theta0)
        self.n_trades = int(n_trades)
        self.revenue = float(revenue)

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    def cost(self) -> float:
        """Liquidity-adjusted cost ``(1/lam) T(lam * theta)`` of the current state."""
        return self._cost

    def _cost_at(self, theta: np.ndarray) -> float:
        """``(1/lam) T(lam * theta)`` at a checked ``theta``; DomainError when it is not finite."""
        lam = self.inv_liquidity
        cost = float(self.family._log_partition(lam * theta) / lam)
        if not math.isfinite(cost):
            raise DomainError(f"cost is not finite at share vector {theta}")
        return cost

    def prices(self) -> np.ndarray:
        """Instantaneous security prices: the mean parameters at ``lam * theta``."""
        return self.family._mean(self.inv_liquidity * self.theta)

    def quote(self, delta) -> float:
        """Cost of buying ``delta`` now, without trading.

        Raises DomainError when the purchase would push the share vector out
        of (or within ``1e-9`` of) the cost function's domain -- such trades
        are impossible at any price.
        """
        return self._quote(as_params(delta, self.family.dim, "delta"))[0]

    def _quote(self, delta: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Cost of a checked ``delta``, with the target share vector and its cost ``C(target)``."""
        target = self.theta + delta
        self.family.check_natural(self.inv_liquidity * target, margin=TRADE_MARGIN)
        target_cost = self._cost_at(target)
        return target_cost - self._cost, target, target_cost

    def log_loss(self, x) -> float:
        """Prediction loss ``C(theta) - <theta, phi(x)>`` of the current state.

        Defined only at unit inverse liquidity, where the share vector is
        the natural parameter of the market's predictive density and the
        loss is its negative log likelihood.
        """
        if self.inv_liquidity != 1.0:
            raise DomainError("log_loss requires inv_liquidity == 1")
        return log_loss(self.family, self.theta, self.family.statistic(x))

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the persistent market state."""
        return {
            "family": self.family.id,
            "theta": [float(v) for v in self.theta],
            "inv_liquidity": self.inv_liquidity,
            "n_trades": self.n_trades,
            "revenue": self.revenue,
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "Market":
        """Rebuild a market from a ``state_dict`` snapshot read from outside.

        Raises ConfigError when the snapshot is not an object, lacks
        ``family`` or ``theta``, or holds a non-numeric value; an unknown
        family or an out-of-domain share vector raises DomainError.
        """
        if not isinstance(d, dict):
            raise ConfigError(f"market state must be an object, got {type(d).__name__}")
        for key in ("family", "theta"):
            if key not in d:
                raise ConfigError(f"market state is missing {key!r}")
        n_trades = d.get("n_trades", 0)
        if isinstance(n_trades, bool) or not isinstance(n_trades, int):
            raise ConfigError(f"market state n_trades must be an integer, got {n_trades!r}")
        return cls(
            family=family_from_id(d["family"]),
            theta0=_numbers(d["theta"], "market state theta"),
            inv_liquidity=_number(d.get("inv_liquidity", 1.0), "market state inv_liquidity"),
            n_trades=n_trades,
            revenue=_number(d.get("revenue", 0.0), "market state revenue"),
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def execute(self, delta, trader_id: str = "", round_index: int | None = None) -> TradeRecord:
        """Buy ``delta``, updating shares, ``C(theta)``, counter and revenue.

        The state is untouched when the quote fails.  ``round_index``
        defaults to the pre-trade trade count.
        """
        delta = as_params(delta, self.family.dim, "delta")
        cost, target, target_cost = self._quote(delta)
        if round_index is None:
            round_index = self.n_trades
        record = TradeRecord(
            round=int(round_index),
            trader_id=trader_id,
            delta=delta,
            cost=cost,
            theta_before=self.theta,
            theta_after=target,
        )
        self.theta = target
        self._cost = target_cost
        self.n_trades += 1
        self.revenue += cost
        return record

    def reset_theta(self, theta0) -> None:
        """Reset the share vector (a fresh market instance); counters persist."""
        theta0 = as_params(theta0, self.family.dim, "theta0")
        self.family.check_natural(self.inv_liquidity * theta0, margin=TRADE_MARGIN)
        self._cost = self._cost_at(theta0)  # first, so a refused state changes nothing
        self.theta = theta0


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_state(market: Market, path: str) -> None:
    """Write the market state as JSON via an atomic temp-file rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(market.state_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_json(path: str, what: str):
    """Parse a JSON file; invalid JSON or undecodable bytes raise ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or undecodable bytes
            raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from exc


def load_state(path: str) -> Market:
    """Load a market from a JSON state file; raises ConfigError when it is malformed."""
    return Market.from_state_dict(read_json(path, "state"))


def read_trade_log(path: str) -> list[TradeRecord]:
    """Parse a JSON-lines trade log; raises CorruptLogError at an unreadable line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TradeRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptLogError(line_number, f"unreadable record ({type(exc).__name__}: {exc})") from exc
    return records
