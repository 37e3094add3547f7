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
boundary outright, and any state whose cost overflows.  Every writer of
the share vector (``__init__``, ``reset_theta``, and ``_quote`` for the
target that ``_buy`` stores) checks it in ``_cost_at`` and caches
``C(theta)``, so pricing and settlement run the kernels unchecked and a
quote evaluates the log partition once; ``_restore(theta, C(theta))``
stores a checked pair unchecked: ``reset_theta``'s, or one the market
held, which the engine keeps from the last quote it settled.
``_quote(delta)`` returns the trade it prices, ``(delta, cost, target,
C(target))``; ``quote`` checks ``delta`` and returns that cost, and
``execute`` checks it and buys the quote through ``_buy`` (which returns
only the cost).  The engine and ``replay`` call the two cores directly: a
mover returns its trade's quote, which the engine buys and settles.
``read_trade_log`` parses a line in one C scan and checks a vector in one
C pass; Python code runs only to explain a refusal, in the words of
``json.loads`` and of the per-entry check.

One market instance is single-writer: ``execute`` requires exclusive
access, while ``quote``/``prices``/``log_loss`` are read-only and may run
concurrently between writes.  Distinct instances are independent.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from json.encoder import encode_basestring_ascii

from .errors import ConfigError, CorruptLogError, DomainError
from .families import ExpFamily, _float, _scaled, as_params, family_from_id

TRADE_MARGIN = 1e-9


def _number(value, where: str) -> float:
    """A finite JSON number as a float; raises ConfigError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str, low: int) -> int:
    """A JSON integer of at least ``low``; raises ConfigError for anything else, a bool included."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where} must be an integer >= {low}, got {value!r}")
    return value


def _numbers(value, where: str) -> array:
    """A JSON number or list of JSON numbers as a float vector; raises ConfigError for anything else."""
    if not isinstance(value, list):
        return array("d", (_number(value, where),))
    # Exact floats in one C pass: array("d") would also take a bool, a Decimal, or an int past the largest float.
    if {*map(type, value)} <= {float}:
        vec = array("d", value)
        if all(map(math.isfinite, vec)):
            return vec
    where = f"{where} entry"
    return array("d", [_number(v, where) for v in value])


def _check_keys(d, keys: set, where: str) -> None:
    """Raise ConfigError unless ``d`` is an object with no key outside ``keys``, which no reader would see."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = d.keys() - keys
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}; the keys are {sorted(keys)}")


_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null", "True": "true", "False": "false"}
LOG_FORMAT = 2
_HEADER_KEYS = frozenset(("family", "format", "inv_liquidity", "state_reset", "theta0"))
_RECORD_KEYS = frozenset(("cost", "delta", "round", "trader_id"))
_RECORD_JSON = '{"cost": %s, "delta": [%s], "round": %d, "trader_id": %s}'
_scan_once = json.JSONDecoder().scan_once  # json.loads's scanner, without its whitespace and extra-data checks


def _json(value) -> str:
    """A float, int, bool or None written exactly as ``json.dumps`` writes it: its repr, with six words renamed."""
    text = repr(value)
    return _JSON_WORDS.get(text, text)


def _record_json(record) -> str:
    """A record as one trade-log line, without its newline: ``json.dumps(record.to_dict(), sort_keys=True)``.

    Any object with a record's four fields renders, so the engine writes its trade events as they are.
    """
    return _RECORD_JSON % (_json(record.cost), ", ".join(map(_json, record.delta)), record.round,
                           encode_basestring_ascii(record.trader_id))


class TradeRecord:
    """One executed trade: its round, trader, portfolio and cost; the field names are the trade-log record keys.

    A record holds only what replay cannot derive: the states a trade bridges follow from the log
    header's ``theta0`` and the deltas before it.  It compares, prints and refuses ``hash`` as a slotted
    dataclass would, written out because ``dataclasses`` would load ``inspect`` into every ``trade``.
    """

    __slots__ = ("round", "trader_id", "delta", "cost")

    def __init__(self, round: int, trader_id: str, delta: array, cost: float):
        self.round = round
        self.trader_id = trader_id
        self.delta = delta
        self.cost = cost

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.round, self.trader_id, self.delta, self.cost) == (other.round, other.trader_id, other.delta,
                                                                        other.cost)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(round={self.round!r}, trader_id={self.trader_id!r}, "
                f"delta={self.delta!r}, cost={self.cost!r})")

    def to_dict(self) -> dict:
        return {"round": self.round, "trader_id": self.trader_id, "delta": self.delta.tolist(), "cost": self.cost}

    to_json = _record_json

    @classmethod
    def from_dict(cls, d: dict) -> "TradeRecord":
        """Read a trade-log record; a missing or unknown key or a value of the wrong JSON type raises ConfigError."""
        if not isinstance(d, dict) or d.keys() != _RECORD_KEYS:
            raise ConfigError(f"a record is an object with the keys {sorted(_RECORD_KEYS)}, got {d!r}")
        round_index, trader_id, delta = d["round"], d["trader_id"], d["delta"]
        if isinstance(round_index, bool) or not isinstance(round_index, int):
            raise ConfigError(f"round must be an integer, got {round_index!r}")
        if not isinstance(trader_id, str):
            raise ConfigError(f"trader_id must be a string, got {trader_id!r}")
        if not isinstance(delta, list):
            raise ConfigError(f"delta must be a list of numbers, got {delta!r}")
        return cls(round_index, trader_id, _numbers(delta, "delta"), _number(d["cost"], "cost"))


class TradeLog(list):
    """A trade log's records in file order, with its parsed header as ``header`` (None for an empty file)."""

    def __init__(self, records=(), header: dict | None = None):
        super().__init__(records)
        self.header = header


class Market:
    """Share-vector state plus pricing, trading, and accounting.

    Args:
        family: The exponential family whose log partition is the cost.
        theta0: Initial share vector; ``inv_liquidity * theta0`` must be
            strictly interior (e.g. negative shares for ``exponential-rate``).
        inv_liquidity: Price responsiveness ``lam > 0``; default 1.
        n_trades: Trade counter (posted so that conjugate-prior traders can
            weigh the prices as a phantom sample).
        revenue: Cash collected so far, a finite number; stays equal to the
            sum of executed trade costs.

    The market writes no trade log; the caller of ``execute`` owns it.
    """

    def __init__(self, family: ExpFamily, theta0, inv_liquidity: float = 1.0,
                 n_trades: int = 0, revenue: float = 0.0):
        self.family = family
        lam = _float(inv_liquidity)
        if not 0.0 < lam < math.inf:
            raise DomainError(f"inv_liquidity must be positive and finite, got {inv_liquidity}")
        self.inv_liquidity = lam
        theta0 = as_params(theta0, family.dim, "theta0")
        self._cost = self._cost_at(theta0)
        self.theta = theta0
        self.n_trades = int(n_trades)
        self.revenue = _float(revenue)
        if not math.isfinite(self.revenue):
            raise DomainError(f"revenue must be finite, got {revenue}")

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------

    def cost(self) -> float:
        """Liquidity-adjusted cost ``(1/lam) T(lam * theta)`` of the current state."""
        return self._cost

    def _cost_at(self, theta: array) -> float:
        """``(1/lam) T(lam * theta)``; DomainError unless ``lam * theta`` is finite and interior and the cost finite."""
        lam = self.inv_liquidity
        scaled = theta if lam == 1.0 else _scaled(lam, theta)  # c * v is v bit for bit at c = 1
        if not (all(map(math.isfinite, scaled)) and self.family._natural_interior(scaled, TRADE_MARGIN)):
            self.family.check_natural(scaled, margin=TRADE_MARGIN)  # raises its message
        cost = self.family._log_partition(scaled) / lam
        if not math.isfinite(cost):
            raise DomainError(f"cost is not finite at share vector {theta.tolist()}")
        return cost

    def prices(self) -> array:
        """Instantaneous security prices: the mean parameters at ``lam * theta``."""
        return self.family._mean(self.theta if self.inv_liquidity == 1.0 else _scaled(self.inv_liquidity, self.theta))

    def quote(self, delta) -> float:
        """Cost of buying ``delta`` now, without trading.

        Raises DomainError when the purchase would push the share vector out
        of (or within ``1e-9`` of) the cost function's domain -- such trades
        are impossible at any price.
        """
        return self._quote(as_params(delta, self.family.dim, "delta"))[1]

    def _quote(self, delta: array) -> tuple[array, float, array, float]:
        """The trade ``(delta, cost, target, C(target))`` for a ``delta`` of the market's dimension.

        One cost evaluation, and nothing is written: the quote holds for this state only, where ``_buy`` takes it.
        """
        target = array("d", [t + d for t, d in zip(self.theta, delta)])
        try:
            target_cost = self._cost_at(target)
        except DomainError:
            as_params(delta, self.family.dim, "delta")  # a non-finite delta is refused as itself
            raise
        return delta, target_cost - self._cost, target, target_cost

    def log_loss(self, x) -> float:
        """Prediction loss ``C(theta) - <theta, phi(x)>`` of the current state, in budget units.

        It is ``(1/lam) * -log p(x)``, where ``p`` is the market's predictive density, the member at
        ``lam * theta``; a trade's payoff minus its cost is the drop in this loss at every ``lam``.
        """
        return self._cost - self.family._pair(self.theta, self.family.check_outcome(x))

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the persistent market state."""
        return {
            "family": self.family.id,
            "theta": self.theta.tolist(),
            "inv_liquidity": self.inv_liquidity,
            "n_trades": self.n_trades,
            "revenue": self.revenue,
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "Market":
        """Rebuild a market from a ``state_dict`` snapshot read from outside.

        Raises ConfigError when the snapshot is not an object, lacks
        ``family`` or ``theta``, has a key ``state_dict`` does not write, or
        holds a non-numeric value; an unknown family or an out-of-domain
        share vector raises DomainError.
        """
        _check_keys(d, {"family", "theta", "inv_liquidity", "n_trades", "revenue"}, "market state")
        for key in ("family", "theta"):
            if key not in d:
                raise ConfigError(f"market state is missing {key!r}")
        n_trades = _integer(d.get("n_trades", 0), "market state n_trades", 0)
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

    def execute(self, delta, trader_id: str = "") -> TradeRecord:
        """Buy ``delta``, updating shares, ``C(theta)``, counter and revenue.

        The state is untouched when the quote fails, and when the revenue
        would leave the float range (DomainError).  The record's round is the
        pre-trade trade count.
        """
        delta = as_params(delta, self.family.dim, "delta")
        quote = self._quote(delta)
        if not math.isfinite(self.revenue + quote[1]):  # _buy adds it unchecked
            raise DomainError(f"revenue {self.revenue!r} plus cost {quote[1]!r} leaves the float range")
        return TradeRecord(self.n_trades, trader_id, delta, self._buy(quote))

    def _buy(self, quote: tuple[array, float, array, float]) -> float:
        """``execute`` of a ``_quote`` made at the current state, without a record; returns the quote's cost."""
        _, cost, self.theta, self._cost = quote
        self.n_trades += 1
        self.revenue += cost
        return cost

    def reset_theta(self, theta0) -> None:
        """Reset the share vector (a fresh market instance); counters persist."""
        theta0 = as_params(theta0, self.family.dim, "theta0")
        self._restore(theta0, self._cost_at(theta0))  # checked first, so a refused state changes nothing

    def _restore(self, theta: array, cost: float) -> None:
        """Store ``theta`` with its cost, unchecked: a pair ``_cost_at`` checked, which no writer edits in place."""
        self.theta, self._cost = theta, cost


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def replace_file(path: str, write, newline: str | None = None) -> None:
    """Write a whole UTF-8 text file as ``open(path, "w", newline=newline)`` would, but replaced, never torn.

    ``write(fh)`` streams the text into a temp file beside the target, which is then renamed over it: a reader,
    or a kill mid-write, sees the old file or the new one, though a kill can leave the ``*.tmp`` behind.  As
    with ``open``, a symlink's target is replaced and the link kept, a replaced file keeps its mode, a new
    one gets 0666 minus the umask, and a path that exists but is not a regular file (a pipe, a terminal)
    is written in place.  The temp file is removed on any exception.
    """
    if os.path.exists(path) and not os.path.isfile(path):  # as given: /dev/stdout reaches a pipe only through /proc
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            write(fh)
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)  # the replaced file's permission bits (stat.S_IMODE)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write, the chmod or the rename failed
            os.unlink(tmp)


def save_state(market: Market, path: str) -> None:
    """Write the market state as JSON, replacing the file whole through ``replace_file``."""
    replace_file(path, lambda fh: fh.write(json.dumps(market.state_dict(), sort_keys=True, indent=2) + "\n"))


def read_json(path: str, what: str):
    """Parse a JSON file; invalid JSON, undecodable bytes or nesting too deep to parse raise ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # invalid JSON, undecodable bytes, nesting too deep
            raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from exc


def load_state(path: str) -> Market:
    """Load a market from a JSON state file; raises ConfigError when it is malformed."""
    return Market.from_state_dict(read_json(path, "state"))


# ----------------------------------------------------------------------
# Trade log
# ----------------------------------------------------------------------

def log_header(market: Market, state_reset: bool = False) -> dict:
    """The header of a trade log starting at the market's state; written as ``json.dumps(header, sort_keys=True)``."""
    return {"family": market.family.id, "format": LOG_FORMAT, "inv_liquidity": market.inv_liquidity,
            "state_reset": state_reset, "theta0": market.theta.tolist()}


def check_header(header: dict, expected: dict, keys=("family", "inv_liquidity", "theta0")) -> None:
    """Raise CorruptLogError at line 1 unless ``header`` equals the ``log_header`` ``expected`` at each of ``keys``."""
    for key in keys:
        if header[key] != expected[key]:
            raise CorruptLogError(1, f"header {key} {header[key]!r} does not match the market state's "
                                     f"{expected[key]!r}")


def _parse_header(line) -> dict:
    """A trade log's first line (str or bytes) as its header; raises CorruptLogError at line 1."""
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or header.get("format") != LOG_FORMAT:
            raise ConfigError("a log of an older format has none and is not read")
        if header.keys() != _HEADER_KEYS or not (isinstance(header["family"], str) and isinstance(
                header["state_reset"], bool) and isinstance(header["theta0"], list)):
            raise ConfigError(f"its keys are {sorted(_HEADER_KEYS)}, with a string family, a boolean "
                              f"state_reset and a list theta0; got {header!r}")
        return {**header, "inv_liquidity": _number(header["inv_liquidity"], "inv_liquidity"),
                "theta0": _numbers(header["theta0"], "theta0").tolist()}
    except (ValueError, RecursionError) as exc:  # ConfigError, invalid JSON, undecodable bytes, nesting too deep
        raise CorruptLogError(1, f"not a format-{LOG_FORMAT} trade log header ({exc})") from exc


def read_trade_log(path: str) -> TradeLog:
    """Parse a trade log: a format-2 header line, then one JSON record per line.

    Raises CorruptLogError at the first unreadable line, a blank one
    included, so record ``i`` is on line ``i + 2``.  An empty file reads as
    a log with no header and no record, which ``replay`` rejects.
    """
    log = TradeLog()
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            return log
        log.header = _parse_header(first)
        scan, from_dict, append = _scan_once, TradeRecord.from_dict, log.append
        for line_number, line in enumerate(fh, 2):
            try:
                text = line.decode()
                try:
                    value, end = scan(text, 0)
                except StopIteration:  # no JSON value starts the line
                    end = None
                if end is None or text[end:] not in ("\n", ""):  # json.loads gives the same value or explains the line
                    value = json.loads(text)
                append(from_dict(value))
            except (ValueError, RecursionError) as exc:  # ConfigError, invalid JSON, undecodable bytes, nesting
                what = "blank line" if not line.strip() else f"unreadable record ({type(exc).__name__}: {exc})"
                raise CorruptLogError(line_number, what) from exc
    return log


def append_record(path: str, header: dict, record: TradeRecord) -> None:
    """Append one record to a trade log, writing ``header`` first when the file is new or empty.

    The record starts a line of its own: after a last line saved without
    its newline, a newline comes first, so a torn record stays one bad line.
    Raises CorruptLogError, writing nothing, when the log's first line is
    not a format-2 header for ``header``'s family and ``inv_liquidity``.
    """
    with open(path, "ab+") as fh:
        fh.seek(0)
        first = fh.readline()
        if first:
            check_header(_parse_header(first), header, ("family", "inv_liquidity"))
            fh.seek(-1, os.SEEK_END)
        head = ("" if fh.read(1) == b"\n" else "\n") if first else json.dumps(header, sort_keys=True) + "\n"
        fh.write(f"{head}{record.to_json()}\n".encode("utf-8"))
