"""Simulation engine: multi-round markets with sampled outcomes.

A simulation runs a single market through ``rounds`` rounds.  Each round:

1. the scheduled trader(s) decide, each through its per-run mover, and
   execute their trades;
2. an outcome is drawn from the family member at ``true_theta``, by one
   call of the draw function ``family._sampler`` builds once per run, on
   the run's generator with its variates served from blocks (``_served``);
   every family draws, a number or (vmf3) a unit 3-vector, which the
   reports write as they write ``delta``;
3. every trade executed this round settles -- the trader receives the
   portfolio's payoff ``<delta, phi(outcome)>`` and its budget and cash in
   the run's own books move by ``payoff - cost``, which is exactly the
   trade's myopic impact on the market's log loss.  Each payoff and each log loss along the round's
   price path is one ``family._pair`` call, and no ``phi`` is built;
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

Budgets, cash, and log losses (``1/lam`` times the negative log likelihood)
share one unit at every inverse liquidity ``lam``: a trade's myopic impact
IS the trader's budget change, so a trader's cumulative impact equals its
final budget minus its initial one.  It never falls below ``-initial`` for
a categorical budget-limited trader, whose trades are pure purchases; in
other families a sell costs less than nothing and its payoff has no floor.
The config holds only the initial budgets; a run writes nothing of it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, cycle, groupby
from operator import itemgetter
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

from .errors import ConfigError, CorruptLogError, DomainError
from .families import ExpFamily, as_params, family_from_id
from .market import (_JSON_WORDS, _RECORD_JSON, Market, TradeLog, _check_keys, _integer, _json, _number, _numbers,
                     check_header, log_header, replace_file)
from .scoring import moments_from_mean_variance
from .traders import TraderProfile, _bayesian_move, _budget_limited_move, _exp_utility_move, _unconstrained_move
# The engine calls the moves; the public rules stay harness attributes, where the benchmark's tracer patches them.
from .traders import bayesian_market_trade, budget_limited_trade, exp_utility_trade  # noqa: F401

# Each model's keys beside ``id`` and ``model``: the keys it reads, and a trader object takes no other.
TRADER_KEYS = {"risk-neutral": {"belief"}, "exp-utility": {"belief", "risk_aversion"},
               "budget-limited": {"belief", "risk_aversion", "budget"}, "bayesian": {"sample"}}
TRADER_MODELS = tuple(TRADER_KEYS)
_BLOCK = 256  # variates per Generator call in a run


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

def parse_mean_params(family: ExpFamily, value, where: str) -> array:
    """Parse a family-appropriate mean description into a raw mean vector.

    A description is a raw vector (or scalar for one-dimensional families),
    an object with exactly the keys ``mean`` and ``variance`` (for
    gaussian-moments), or an object with exactly one of the keys ``probs``
    (for categorical), ``moment`` or ``mean``; anything else, a key beside
    those included, raises ConfigError.  Boundary means are admitted
    (empirical means can sit on the boundary); downstream operations that
    need interior values will reject them there.
    """
    try:
        if not isinstance(value, dict):
            mean = _numbers(value, where)
        elif value.keys() == {"mean", "variance"}:
            mean = moments_from_mean_variance(_number(value["mean"], f"{where}.mean"),
                                              _number(value["variance"], f"{where}.variance"))
        elif len(value) == 1 and value.keys() <= {"probs", "moment", "mean"}:
            [(key, entries)] = value.items()
            mean = _numbers(entries, f"{where}.{key}")
        else:
            raise ConfigError(f"{where}: a mean is a vector, {{probs}}, {{moment}}, {{mean}} or {{mean, variance}}, "
                              f"got {value!r}")
        return family.check_mean(mean, margin=0.0)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_belief_theta(family: ExpFamily, value, where: str) -> array:
    """Parse a belief into natural parameters.

    Accepts ``{"theta": [...]}`` (with no other key) directly, or any mean
    description understood by :func:`parse_mean_params` (converted through
    the inverse gradient map, so it must be interior).  Either way the
    natural parameter is checked here, once: the trader moves of
    ``run_simulation`` trust it.
    """
    try:
        if isinstance(value, dict) and "theta" in value:
            _check_keys(value, {"theta"}, where)
            theta = _numbers(value["theta"], f"{where}.theta")
        elif isinstance(value, dict):
            theta = family.natural_from_mean(parse_mean_params(family, value, where))
        else:
            theta = _numbers(value, where)
        return family.check_natural(theta)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class SimConfig:
    """A validated simulation configuration, which ``run_simulation`` only reads.

    ``from_dict`` is its one constructor: it states every default, and takes no key but a field name, and
    in a trader object none but ``id``, ``model`` and the keys its model reads (``TRADER_KEYS[model]``).
    A trader's ``budget`` is its starting budget; a run keeps the running budgets and cash itself.
    """

    family: ExpFamily
    theta0: array
    rounds: int
    true_theta: array
    traders: list[TraderProfile]
    seed: int
    inv_liquidity: float
    arrival: str
    sequence: list[str]
    state_reset: bool

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """Build and validate a config from parsed JSON; raises ConfigError.  ``run_simulation`` trusts it."""
        _check_keys(raw, {f.name for f in fields(cls)}, "config")
        try:
            family = family_from_id(raw["family"])
            lam = _number(raw.get("inv_liquidity", 1.0), "inv_liquidity")
            theta0 = Market(family, _numbers(raw["theta0"], "theta0"), lam).theta  # the checks run_simulation's market makes
            true_theta = family.check_natural(_numbers(raw["true_theta"], "true_theta"))
        except KeyError as exc:
            raise ConfigError(f"config is missing {exc}") from exc
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

        rounds = _integer(raw.get("rounds"), "rounds", 1)
        if raw.get("seed") is None:
            raise ConfigError("simulation requires a seed (config or --seed)")
        seed = _integer(raw["seed"], "seed", 0)

        state_reset = raw.get("state_reset", False)
        if not isinstance(state_reset, bool):
            raise ConfigError(f"state_reset must be true or false, got {state_reset!r}")

        arrival = raw.get("arrival", "round-robin")
        if arrival not in ("round-robin", "fixed-sequence"):
            raise ConfigError(f"arrival must be 'round-robin' or 'fixed-sequence', got {arrival!r}")
        if "sequence" in raw and arrival != "fixed-sequence":  # it would order nothing, yet be accepted
            raise ConfigError(f"only fixed-sequence arrival reads a 'sequence'; arrival is {arrival!r}")

        traders_raw = raw.get("traders")
        if not isinstance(traders_raw, list) or not traders_raw:
            raise ConfigError("config needs a nonempty 'traders' list")
        traders = []
        seen = set()
        for i, td in enumerate(traders_raw):
            where = f"traders[{i}]"
            if not isinstance(td, dict):
                raise ConfigError(f"{where} must be an object, got {type(td).__name__}")
            model = td.get("model")
            if model not in TRADER_MODELS:
                raise ConfigError(f"{where}: model must be one of {TRADER_MODELS}, got {model!r}")
            _check_keys(td, {"id", "model", *TRADER_KEYS[model]}, f"{where} (model {model!r})")
            tid = td.get("id")
            if not isinstance(tid, str) or not tid:
                raise ConfigError(f"{where}: needs a nonempty string 'id'")
            if tid in seen:
                raise ConfigError(f"{where}: duplicate trader id {tid!r}")
            seen.add(tid)
            try:
                risk_aversion = _number(td.get("risk_aversion", 0.0), f"{where}: risk_aversion")
                budget = None if td.get("budget") is None else _number(td["budget"], f"{where}: budget")
                belief = sample_mean = None
                sample_size = 1.0
                if model == "bayesian":
                    sample = td["sample"]
                    _check_keys(sample, {"mean", "size"}, f"{where}.sample")
                    sample_mean = parse_mean_params(family, sample["mean"], f"{where}.sample.mean")
                    sample_size = _number(sample.get("size", 1.0), f"{where}: sample size")
                else:
                    belief = parse_belief_theta(family, td["belief"], f"{where}.belief")
                trader = TraderProfile(
                    id=tid, model=model, belief_theta=belief,
                    risk_aversion=risk_aversion, budget=budget,
                    sample_mean=sample_mean, sample_size=sample_size,
                )
            except KeyError as exc:
                raise ConfigError(f"{where}: model {model!r} needs {exc}") from exc
            except DomainError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            traders.append(trader)

        sequence = raw.get("sequence", [tr.id for tr in traders])
        if not isinstance(sequence, list) or not all(isinstance(tid, str) for tid in sequence):
            raise ConfigError(f"sequence must be a list of trader ids, got {sequence!r}")
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


class TradeEvent(NamedTuple):
    """One executed-and-settled trade, as reported; the field names are the report keys.

    A report keeps its events in columns (``EventTable``) and builds an event only when it is iterated.
    """

    round: int
    trader_id: str
    delta: array  # the executed portfolio: a fresh array('d') in each event iterated; never written
    cost: float
    outcome: object
    log_loss_before: float
    log_loss_after: float
    myopic_impact: float
    trader_budgets: dict[str, float | None]


class EventTable:
    """A report's trade events in columns, read by ``len`` and by iteration, which builds each ``TradeEvent``.

    ``round`` is an ``array('q')``; ``cost``, both log losses and ``myopic_impact`` are ``array('d')``;
    ``delta`` is one ``array('d')`` of ``dim`` entries per event, end to end, so event ``i``'s is
    ``delta[i*dim:(i+1)*dim]``.  ``trader_id``, ``outcome`` and ``trader_budgets`` are lists of references,
    so a round's events share its outcome and its one budget snapshot.  An iterated event gets ``delta`` as
    a fresh array.

    A table keeps the texts its first writer rendered, so that the next writer of the report renders nothing
    again: ``_rendered`` maps a chunk's start to its stop and the ``repr``s of its ``cost``, ``delta``,
    log-loss and ``myopic_impact`` values, one newline-joined ``str`` per column (see ``_chunks``).
    Columns are only appended to, never edited in place: a chunk whose stop moved (an ``append`` after a write)
    is rendered again, and no other change is seen.
    """

    __slots__ = (*TradeEvent._fields, "dim", "_rendered")

    def __init__(self, dim: int):
        self.round, self.trader_id, self.delta, self.dim, self._rendered = array("q"), [], array("d"), dim, {}
        self.cost, self.outcome, self.trader_budgets = array("d"), [], []
        self.log_loss_before, self.log_loss_after, self.myopic_impact = array("d"), array("d"), array("d")

    def append(self, round, trader_id, delta, cost, outcome, log_loss_before, log_loss_after, myopic_impact,
               trader_budgets) -> None:
        """Add one event at the end, its ``dim`` delta entries copied and its other values kept as they are."""
        self.round.append(round)
        self.trader_id.append(trader_id)
        self.delta.extend(delta)
        self.cost.append(cost)
        self.outcome.append(outcome)
        self.log_loss_before.append(log_loss_before)
        self.log_loss_after.append(log_loss_after)
        self.myopic_impact.append(myopic_impact)
        self.trader_budgets.append(trader_budgets)

    def __len__(self) -> int:
        return len(self.trader_id)

    def __iter__(self):
        cuts = range(0, len(self) * self.dim + 1, self.dim)
        return map(TradeEvent._make, zip(
            self.round, self.trader_id, map(self.delta.__getitem__, map(slice, cuts, cuts[1:])), self.cost,
            self.outcome, self.log_loss_before, self.log_loss_after, self.myopic_impact, self.trader_budgets))


@dataclass
class SimReport:
    """Per-event records plus run-level aggregates; the field names are the report keys.

    ``events`` is an ``EventTable``, as ``run_simulation`` builds it.
    """

    family: str
    seed: int
    rounds: int
    inv_liquidity: float
    arrival: str
    state_reset: bool
    valid: bool
    error: str | None
    events: EventTable
    aggregates: dict

    def to_dict(self) -> dict:
        return {**vars(self), "events": [ev._asdict() | {
            "delta": list(ev.delta), "outcome": list(ev.outcome) if isinstance(ev.outcome, array) else ev.outcome}
            for ev in self.events]}

    def to_json(self) -> str:
        """The report's bytes: those of ``json.dumps(to_dict(), sort_keys=True, indent=2)`` and a newline."""
        return "".join(_report_chunks(self))


_EVENTS_KEY = '\n  "events": []'  # a newline and two spaces: only a top-level key can match
_CHUNK = 256  # the events a writer renders at a time, which bounds the text it holds
_ITEM = ",\n        "  # between the items of an event's delta, vector outcome or trader_budgets
_VECTOR = "[\n        %s\n      ]"  # a nonempty delta or vector outcome at an event's indent
_EVENT_JSON = ('\n    {\n      "cost": %s,\n      "delta": %s,\n      "log_loss_after": %s,'
               '\n      "log_loss_before": %s,\n      "myopic_impact": %s,\n      "outcome": %s,\n      "round": %d,'
               '\n      "trader_budgets": %s,\n      "trader_id": %s\n    }')
_CSV_WORDS = {"None": ""}  # csv.writer writes None as an empty cell, and a float or int as its repr
_CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s,%s\r\n"


def _words(texts: list, words: dict):
    """Each repr in ``texts``, or the word ``words`` has for it, in C: no Python call per value."""
    return map(words.get, texts, texts)


def _texts(values, words: dict):
    """Each value's repr, or the word ``words`` has for that repr (``_words``)."""
    return _words(list(map(repr, values)), words)


def _vector_json(values) -> str:
    """A vector as the report's encoder writes it at an event's indent: ``[]`` when it is empty."""
    return _VECTOR % _ITEM.join(_texts(values, _JSON_WORDS)) if len(values) else "[]"


def _value_json(value) -> str:
    """An outcome, a number or (vmf3) an ``array``, as the report's encoder writes it."""
    return _vector_json(value) if isinstance(value, array) else _json(value)


def _budgets_json(snapshots: list) -> list[str]:
    """``trader_budgets`` snapshots as the report's encoder writes them: keys sorted, ``{}`` when empty.

    Each run of snapshots with one key order, as all of a run's are, fills one template, and each key's
    values are rendered by one ``map``.
    """
    cells = []
    for keys, same in groupby(snapshots, tuple):
        same, keys = list(same), sorted(keys)
        entries = _ITEM.join([encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys])
        values = [_texts(map(itemgetter(k), same), _JSON_WORDS) for k in keys]
        cells += map(("{\n        %s\n      }" % entries).__mod__, zip(*values)) if keys else ["{}"] * len(same)
    return cells


def _value_csv(value) -> str:
    """An outcome as a CSV cell: its repr, or each entry's ``;``-joined for a vector."""
    return ";".join(map(repr, value)) if isinstance(value, array) else repr(value)


def _csv_cell(text: str) -> str:
    """A text cell as ``csv.writer`` quotes it inside a row."""
    out = io.StringIO()
    csv.writer(out).writerow((text, ""))
    return out.getvalue()[:-3]  # without the empty last cell's comma and the row's "\r\n"


def _once(render, values: list):
    """The text of each of one chunk's ``values``, each distinct object rendered once per chunk.

    ``render`` takes the list of distinct objects and returns their texts, so a round's shared outcome and
    snapshot are rendered once in each chunk that holds its events.
    """
    objects = dict(zip(map(id, values), values))
    texts = dict(zip(objects, render(list(objects.values()))))
    return map(texts.__getitem__, map(id, values))


def _chunks(events: EventTable):
    """The columns in ``TradeEvent``'s field order, ``_CHUNK`` events at a time, each chunk's ``cost``, ``delta``
    (flat), log losses and ``myopic_impact`` as lists of their ``repr``s, the others sliced.

    Those texts are rendered by one ``map`` per column the first time a chunk is written, and kept in
    ``events._rendered`` with the chunk's stop; a later writer splits them again, unless the stop moved.
    """
    dim, rendered = events.dim, events._rendered
    for i in range(0, len(events), _CHUNK):
        j = min(i + _CHUNK, len(events))
        kept = rendered.get(i)
        if kept is not None and kept[0] == j:
            cost, delta, before, after, impact = [text.split("\n") for text in kept[1:]]
        else:
            cost, delta, before, after, impact = texts = [list(map(repr, column)) for column in (
                events.cost[i:j], events.delta[i * dim:j * dim], events.log_loss_before[i:j],
                events.log_loss_after[i:j], events.myopic_impact[i:j])]
            rendered[i] = (j, *map("\n".join, texts))
        yield (events.round[i:j], events.trader_id[i:j], delta, cost, events.outcome[i:j], before, after, impact,
               events.trader_budgets[i:j])


def _report_chunks(report: SimReport):
    """The report's JSON in pieces: the stdlib encoder writes all but the events, spliced in by one template.

    Each piece is a chunk of at most ``_CHUNK`` events, its float columns the reprs ``_chunks`` keeps, under
    json's words, and its rows rendered by one ``map``; the last piece ends with the file's newline.  Each
    distinct outcome and budget snapshot is rendered once per chunk (``_once``).
    """
    head, _, tail = _REPORT_ENCODER.encode({**vars(report), "events": []}).partition(_EVENTS_KEY)
    yield head + '\n  "events": ['
    dim = report.events.dim
    for i, (round_index, trader_id, delta, cost, outcome, before, after, impact, snapshot) in enumerate(
            _chunks(report.events)):
        deltas = map(_VECTOR.__mod__, map(_ITEM.join, zip(*[_words(delta, _JSON_WORDS)] * dim)))
        outcome_cells = _once(partial(map, _value_json), outcome)
        budget_cells = _once(_budgets_json, snapshot)
        yield ("," if i else "") + ",".join(map(_EVENT_JSON.__mod__, zip(
            _words(cost, _JSON_WORDS), deltas, _words(after, _JSON_WORDS), _words(before, _JSON_WORDS),
            _words(impact, _JSON_WORDS), outcome_cells, round_index, budget_cells,
            map(encode_basestring_ascii, trader_id))))
    yield ("\n  ]" if report.events else "]") + tail + "\n"  # an empty list is "[]", as the encoder writes it


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------

def _memo(market: Market, compute):
    """``compute()``, a function of the market's state alone, recomputed only when ``market.theta`` is another object.

    A move and its quote depend on the market only through ``theta`` (``inv_liquidity`` is fixed per market), and
    no writer edits a state in place.  The memo holds its ``theta``, so that object's id is never reused.
    """
    theta = move = None

    def move_at():
        nonlocal theta, move
        if market.theta is not theta:
            move, theta = compute(), market.theta
        return move
    return move_at


def _mover(market: Market, trader: TraderProfile, budgets: dict):
    """The trader's decision for one run: ``move()`` returns the ``_quote`` of its trade at the current state."""
    if trader.model == "bayesian":  # its posterior weighs n_trades, which every trade moves: no memo
        return lambda: market._quote(_bayesian_move(market, trader.sample_mean, trader.sample_size))
    if trader.model == "budget-limited":
        unconstrained = _memo(market, lambda: market._quote(_unconstrained_move(market, trader)))
        return lambda: _budget_limited_move(market, unconstrained(), budgets[trader.id])
    # exp-utility, and risk-neutral at risk aversion 0
    lam, belief, a = market.inv_liquidity, trader.belief_theta, trader.risk_aversion
    return _memo(market, lambda: market._quote(_exp_utility_move(market.theta, lam, belief, a)))


def _served(rng):
    """A stand-in for the run's own ``rng`` whose ``random()`` and ``standard_normal()`` serve ``_BLOCK``-long blocks.

    A block holds the values of as many scalar calls, in their order, and is filled once the last is used up.
    """
    def served(method):
        return chain.from_iterable(iter(lambda: method(_BLOCK).tolist(), None)).__next__
    return SimpleNamespace(random=served(rng.random), standard_normal=served(rng.standard_normal))


def run_simulation(config: SimConfig, trade_log_path: str | None = None) -> SimReport:
    """Run a configured simulation to completion (or to a flagged abort).

    Deterministic given the config seed: reruns produce byte-identical
    reports.  A round-level domain violation stops the run and returns the
    partial report with ``valid=False`` and the error message attached;
    that includes a round whose buys take the market's revenue past the
    float range, checked once the round's buys are made (``_buy`` adds each
    cost unchecked) and refused in ``Market.execute``'s words.

    The report's events are one ``EventTable``: each settled trade is
    appended to its columns, and no ``TradeEvent`` is built until the
    table is iterated.

    With ``trade_log_path`` the run owns one handle on its JSON-lines trade
    log: opened (truncating an older file) and headed (the run's first state
    and ``state_reset``, flushed) when the run starts, and closed when it
    ends.  A round reaches it only once settled, in one write and one flush,
    and the file is kept as it stands however the run ends: its header and
    this run's settled rounds, only the header if none settled.  An aborting
    round is taken back out of the market and never reaches the log.

    ``config`` is trusted as ``SimConfig.from_dict`` validated it: the round
    loop runs the unchecked cores and checks only the states trades reach.
    The run keeps each trader's running budget and cash itself and writes
    nothing of ``config``, so one config can run any number of times.

    Each trader turn decides through a mover built once per run
    (``_mover``), one per trader under round-robin and one per entry of
    ``config.sequence`` otherwise, which returns its trade's ``_quote``,
    ``(delta, cost, target, C(target))``: the round buys it, keeps it, and
    settles along the targets.  Each round begins with one
    ``Market._restore``: of ``theta0`` under ``state_reset``, else of the
    ``(target, C(target))`` of the last quote settled, which an aborted
    round restores too.  A non-Bayesian mover recomputes its quote only at
    a new ``theta`` object, so under ``state_reset``, where every round
    restarts at the one ``theta0``, each such turn computes and prices its
    move once per run, as long as the state it meets recurs: a Bayesian
    move, or a budget-limited trader's capped one, reaches a new state every
    round.

    The draw function gets ``_served(rng)``, not the seeded ``Generator``:
    each round still transforms its own variate, so the outcomes and the
    round at which an overflowing draw aborts are those of scalar calls.
    """
    import numpy as np  # for the outcome Generator only, so quote and trade never load it

    family = config.family
    market = Market(family, config.theta0, config.inv_liquidity)
    start = market.theta, market.cost()  # the checked state every state_reset round starts at
    rng = _served(np.random.default_rng(config.seed))
    draw = family._sampler(config.true_theta)  # built once: true_theta is fixed for the run
    # The run's books: cash (cumulative payoff - cost) and running budget per trader id.  Both add the
    # same per-trade changes in order, so the budget floor holds in float arithmetic too.
    cash = {tr.id: 0.0 for tr in config.traders}
    budgets = {tr.id: tr.budget for tr in config.traders}
    by_id = {tr.id: tr for tr in config.traders}
    order = [[tr.id] for tr in config.traders] if config.arrival == "round-robin" else [config.sequence]
    # a mover per turn, so a trader with two turns per round keeps a move for each
    turns = [[(tid, _mover(market, by_id[tid], budgets)) for tid in ids] for ids in order]
    events = EventTable(family.dim)
    add = events.append
    total_log_loss = 0.0
    valid, error = True, None

    pair = family._pair  # <vec, phi(outcome)>; the sampler's own outcome needs no check
    settled = start  # the last settled round's end state, (target, C(target)) of its last quote
    with nullcontext() if trade_log_path is None else open(trade_log_path, "w", encoding="utf-8") as log:
        if log is not None:
            log.write(json.dumps(log_header(market, config.state_reset), sort_keys=True) + "\n")
            log.flush()
            # A trade's line, json.dumps(record.to_dict(), sort_keys=True) with its newline, filled by %r, as a
            # finite float's repr is its JSON: each settled delta is an array of finite floats, since _cost_at
            # refuses a non-finite target theta + delta, and each cost a finite float, since the revenue check
            # refuses a non-finite one.
            line = _RECORD_JSON % ("%r", ", ".join(["%r"] * family.dim), "%d", "%s") + "\n"
            ids = {tr.id: encode_basestring_ascii(tr.id) for tr in config.traders}
        for round_index, turn in zip(range(1, config.rounds + 1), cycle(turns)):
            theta, theta_cost = start if config.state_reset else settled  # the round's first state
            market._restore(theta, theta_cost)
            n_trades, revenue = market.n_trades, market.revenue
            trades: list[tuple[str, tuple]] = []  # (trader id, the _quote it bought) per trade
            try:
                for tid, move in turn:
                    quote = move()
                    market._buy(quote)
                    trades.append((tid, quote))
                if not math.isfinite(market.revenue):  # _buy adds unchecked: refuse the first cost that overflowed
                    market.revenue = revenue
                    for _, quote in trades:
                        market._check_revenue(quote[1])
                        market.revenue += quote[1]
                outcome = draw(rng)
            except DomainError as exc:
                valid, error = False, f"round {round_index}: {exc}"
                market._restore(*settled)  # an unsettled trade leaves no trace in the report or the log
                market.n_trades, market.revenue = n_trades, revenue
                break

            # Settle along the price path, each state after a trade read from its quote: payoff minus cost is a
            # trader's budget change and log-loss drop.  A loss C(theta) - <theta, phi(x)> is in budget units at
            # any liquidity: 1/lam times the negative log likelihood of x under the member at lam*theta.
            loss = theta_cost - pair(theta, outcome)
            snapshot = {}  # the round's one budget snapshot, shared by its events and filled once they settle
            for tid, (delta, cost, theta, theta_cost) in trades:
                change = pair(delta, outcome) - cost
                cash[tid] += change
                if budgets[tid] is not None:
                    budgets[tid] += change
                before, loss = loss, theta_cost - pair(theta, outcome)
                add(round_index, tid, delta, cost, outcome, before, loss, change, snapshot)
            snapshot.update(budgets)
            total_log_loss += loss
            settled = theta, theta_cost
            if log is not None:  # the round has settled: its records, as bought, reach the log together
                log.write("".join([line % (cost, *delta, round_index, ids[tid]) for tid, (delta, cost, *_) in trades]))
                log.flush()

    aggregates = {
        "completed_rounds": events.round[-1] if events else 0,
        "total_log_loss": total_log_loss,
        "per_trader_impact": cash,
        "final_budgets": budgets,
        "final_theta": market.theta.tolist(),
        "final_prices": market.prices().tolist(),
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

def replay(records: TradeLog, state0: dict) -> Market:
    """Re-execute a trade log against an initial state, verifying each record.

    The log's header must match ``state0`` (a ``Market.state_dict``
    snapshot) in family, ``theta0`` and ``inv_liquidity``.  Each record's
    round index must not decrease; when the header's ``state_reset`` is set,
    the share vector returns to ``theta0`` wherever the round index goes up,
    as in a state-reset simulation.  Each record's delta must be executable
    from the running state, with a cost that keeps the revenue in the float
    range, and its cost must equal the cost of re-executing it bit for bit.  Returns the reconstructed market; raises
    CorruptLogError at the file line of the first offending record (record
    ``i`` is on line ``i + 2``), or at line 1 for a missing or mismatching
    header.
    """
    market = Market.from_state_dict(state0)
    header = getattr(records, "header", None)
    if header is None:
        raise CorruptLogError(1, "the log has no format-2 header")
    check_header(header, log_header(market))
    start = market.theta, market.cost()  # never written in place: every writer stores anew
    reset, last = header["state_reset"], None
    dim, quote, check, buy = market.family.dim, market._quote, market._check_revenue, market._buy
    for line, record in enumerate(records, 2):
        if record.round != last:
            if last is not None and record.round < last:
                raise CorruptLogError(line, f"round {record.round} follows round {last}")
            if reset:
                market._restore(*start)
            last = record.round
        try:
            if len(record.delta) != dim:
                as_params(record.delta, dim, "delta")  # raises its length message
            trade = quote(record.delta)
            check(trade[1])  # _buy adds it unchecked
            cost = buy(trade)
        except DomainError as exc:
            raise CorruptLogError(line, f"recorded trade is not executable: {exc}") from exc
        if cost != record.cost:
            raise CorruptLogError(line, f"recorded cost {record.cost!r} != recomputed {cost!r}")
    return market


def _csv_chunks(report: SimReport):
    """The CSV report in pieces: its header row, then at most ``_CHUNK`` rows at a time, in ``csv.writer``'s bytes.

    A float or int cell is its repr and None an empty cell, each column of a chunk the reprs ``_chunks`` keeps
    or, for the budgets, rendered by one ``map``; a vector cell (``delta``, a vmf3 outcome) is its entries'
    ``repr`` joined by ``;``.  Only a trader id can need quoting, and each distinct one goes through
    ``csv.writer`` once.
    """
    yield ",".join(CSV_COLUMNS) + "\r\n"
    dim, ids = report.events.dim, {}
    for round_index, trader_id, delta, cost, outcome, before, after, impact, budgets in _chunks(report.events):
        deltas = map(";".join, zip(*[iter(delta)] * dim))
        outcome_cells = _once(partial(map, _value_csv), outcome)
        ids.update((tid, _csv_cell(tid)) for tid in set(trader_id) - ids.keys())
        yield "".join(map(_CSV_ROW.__mod__, zip(
            round_index, map(ids.__getitem__, trader_id), deltas, _words(cost, _CSV_WORDS), outcome_cells,
            _words(before, _CSV_WORDS), _words(after, _CSV_WORDS), _words(impact, _CSV_WORDS),
            _texts(map(dict.get, budgets, trader_id), _CSV_WORDS))))


def emit_report(report: SimReport, fmt: str, path: str) -> None:
    """Write a report as JSON (lossless round trip) or CSV (one row per event).

    CSV columns: ``round, trader_id, delta, cost, outcome, log_loss_before,
    log_loss_after, myopic_impact, budget_after``.  Vector cells (``delta``
    and a vmf3 outcome) are semicolon-joined; an unlimited budget is an
    empty cell.  A zero-round simulation yields a header-only file.

    The first write of a report renders each of its events' float values
    once and keeps the texts in ``report.events`` (about 140 bytes per
    ``categorical:3`` event) while the report lives, so a second write, in
    either format, renders them no more.
    """
    if fmt == "json":
        replace_file(path, lambda fh: fh.writelines(_report_chunks(report)))  # streamed, never held whole
    elif fmt == "csv":
        replace_file(path, lambda fh: fh.writelines(_csv_chunks(report)), newline="")
    else:
        raise ConfigError(f"unknown report format {fmt!r}; use 'json' or 'csv'")
