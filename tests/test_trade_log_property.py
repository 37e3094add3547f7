"""Property tests of the trade log.

What a run writes, replay rebuilds bit for bit, and pins any one-ulp change:
configs are generated over ``categorical:K`` and the one-dimensional
families, with and without ``state_reset`` and at three liquidities.

The reader's fast paths equal their references: ``read_trade_log`` (one C
scan per line) reads every line as ``json.loads`` on that line does, and
``_numbers`` (one C pass per vector) gives the per-entry check's bits or
message.  The examples are derandomized and bounded, so the tests are
deterministic and fast.
"""

import json
import math
import os
import sys
import tempfile
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expfam_markets import (
    ConfigError, CorruptLogError, Market, SimConfig, TradeRecord, read_trade_log, replay, run_simulation,
)
from expfam_markets.market import _number, _numbers

FAMILIES = ("categorical:2", "categorical:3", "categorical:5",
            "exponential-rate", "weibull-moment:0.5", "weibull-moment:2")


def naturals(family_id: str):
    """Interior natural parameters, at every liquidity drawn below (scaled by at most 2)."""
    if family_id.startswith("categorical:"):
        k = int(family_id.split(":")[1])
        return st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    if family_id == "gaussian-moments":
        return st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, -0.3)).map(list)
    if family_id == "vmf3":
        return st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
    return st.lists(st.floats(-5.0, -0.2), min_size=1, max_size=1)


@st.composite
def configs(draw) -> dict:
    family_id = draw(st.sampled_from(FAMILIES))
    inv_liquidity = draw(st.sampled_from((1.0, 0.5, 2.0)))
    traders = [{"id": "rn", "model": "risk-neutral", "belief": {"theta": draw(naturals(family_id))}},
               {"id": "eu", "model": "exp-utility", "risk_aversion": draw(st.floats(0.1, 3.0)),
                "belief": {"theta": draw(naturals(family_id))}},
               {"id": "bl", "model": "budget-limited", "budget": draw(st.floats(0.1, 2.0)),
                "belief": {"theta": draw(naturals(family_id))}}]
    return {"family": family_id, "theta0": draw(naturals(family_id)), "true_theta": draw(naturals(family_id)),
            "inv_liquidity": inv_liquidity, "rounds": draw(st.integers(1, 8)),
            "seed": draw(st.integers(0, 2**31 - 1)), "state_reset": draw(st.booleans()),
            "arrival": draw(st.sampled_from(("round-robin", "fixed-sequence"))), "traders": traders}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(raw=configs(), data=st.data())
def test_written_log_replays_bit_for_bit_and_pins_a_one_ulp_cost_change(raw, data):
    config = SimConfig.from_dict(raw)
    state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trades.jsonl")
        report = run_simulation(config, trade_log_path=path)
        agg = report.aggregates
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        log = read_trade_log(path)
        assert [record.to_json() for record in log] == lines[1:]
        rebuilt = replay(log, state0)
        assert [v.hex() for v in rebuilt.theta] == [v.hex() for v in agg["final_theta"]]
        assert (rebuilt.revenue.hex(), rebuilt.n_trades) == (agg["revenue"].hex(), agg["n_trades"])
        if not log:  # no settled trade: the log is its header alone, with no record to tamper with
            return

        index = data.draw(st.integers(0, len(log) - 1), label="tampered record")
        record = json.loads(lines[index + 1])
        record["cost"] = math.nextafter(record["cost"], data.draw(st.sampled_from((math.inf, -math.inf))))
        lines[index + 1] = json.dumps(record, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        with pytest.raises(CorruptLogError, match="recorded cost") as err:
            replay(read_trade_log(path), state0)
        assert err.value.line_number == index + 2


# ----------------------------------------------------------------------
# The reader's fast paths against their references
# ----------------------------------------------------------------------

HEADER = json.dumps({"family": "categorical:2", "format": 2, "inv_liquidity": 1.0, "state_reset": False,
                     "theta0": [0.0, 0.0]}, sort_keys=True)


def reference_read(path: str) -> list:
    """The per-line reader ``read_trade_log`` must match: ``from_dict(json.loads(line.decode()))`` on every line."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    records = []
    for line_number, line in enumerate(lines[1:], 2):
        try:
            records.append(TradeRecord.from_dict(json.loads(line.decode())))
        except (ValueError, RecursionError) as exc:
            what = "blank line" if not line.strip() else f"unreadable record ({type(exc).__name__}: {exc})"
            raise CorruptLogError(line_number, what) from exc
    return records


def reading(read, path: str):
    """What a reader makes of a log: each record's fields with the float bits, or the error's line and text."""
    try:
        return [(r.round, r.trader_id, [v.hex() for v in r.delta], r.cost.hex()) for r in read(path)]
    except CorruptLogError as exc:
        return exc.line_number, str(exc)


def reference_numbers(value, where: str) -> array:
    """``_numbers`` as the per-entry check alone."""
    if not isinstance(value, list):
        return array("d", (_number(value, where),))
    return array("d", [_number(v, f"{where} entry") for v in value])


def bits(numbers, value):
    try:
        return [v.hex() for v in numbers(value, "delta")]
    except ConfigError as exc:
        return str(exc)


FLOAT_MAX = sys.float_info.max
records = st.fixed_dictionaries({
    "cost": st.floats(), "delta": st.lists(st.floats(), min_size=2, max_size=2),
    "round": st.one_of(st.integers(), st.booleans()), "trader_id": st.text(max_size=4)})
json_values = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                           lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                      max_size=3), max_leaves=6)


@st.composite
def line_texts(draw) -> str:
    """One log line without its newline: a record or other JSON value as the writers or a person might write it,
    possibly wrapped in whitespace, a BOM or extra data, or no JSON at all."""
    kind = draw(st.sampled_from(("record", "value", "blank", "text", "nested")))
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t", "\r")))
    if kind == "text":
        return draw(st.text(max_size=8).filter(lambda t: "\n" not in t))
    if kind == "nested":  # within any parser's depth, or far beyond it; closed or not
        depth = draw(st.sampled_from((1, 2, 30, 100_000)))
        return "[" * depth + draw(st.sampled_from(("]" * depth, "", "1")))
    value = draw(records if kind == "record" else json_values)
    text = json.dumps(value, sort_keys=draw(st.booleans()), ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from(((", ", ": "), (",", ":")))))
    before = draw(st.sampled_from(("", "", " ", "\t", "\ufeff")))
    after = draw(st.sampled_from(("", "", " ", "\r", "\t", " x", "{}", ",", "]", " 1")))
    return before + text + after


def write_lines(path: str, lines: list[str], last_newline: bool) -> str:
    with open(path, "wb") as fh:
        fh.write((HEADER + "\n" + "\n".join(lines) + ("\n" if last_newline else "")).encode("utf-8"))
    return path


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=line_texts(), ending=st.sampled_from(("\n", "\r\n", "")))
def test_line_scan_reads_each_line_as_json_loads_does(text, ending):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(os.path.join(tmp, "trades.jsonl"), [text + ending], last_newline=False)
        assert reading(read_trade_log, path) == reading(reference_read, path)


def readable(record: dict) -> bool:
    try:
        TradeRecord.from_dict(record)
    except ConfigError:
        return False
    return True


@settings(max_examples=100, derandomize=True, deadline=None)
@given(good=st.lists(records.filter(readable), min_size=1, max_size=8), data=st.data())
def test_one_bad_line_is_reported_at_its_line_as_json_loads_explains_it(good, data):
    lines = [json.dumps(record, sort_keys=True) for record in good]
    at = data.draw(st.integers(0, len(lines)), label="bad line index")
    lines.insert(at, data.draw(line_texts(), label="bad line"))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(os.path.join(tmp, "trades.jsonl"), lines, last_newline=data.draw(st.booleans()))
        assert reading(read_trade_log, path) == reading(reference_read, path)


# Ints past the largest float either overflow a float or round down to it: the per-entry check refuses both.
numeric = st.one_of(
    st.floats(), st.integers(), st.integers(10**308, 2**1025) | st.integers(-2**1025, -10**308),
    st.sampled_from((FLOAT_MAX, -FLOAT_MAX, int(FLOAT_MAX), int(FLOAT_MAX) + 1, 2**1024 - 2**970 - 1, 2**1024)))
entries = st.one_of(numeric, st.booleans(), st.none(), st.text(max_size=2), st.decimals(), st.fractions(),
                    st.floats().map(np.float64), st.lists(st.floats(), max_size=2))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(value=st.one_of(st.lists(st.floats(), max_size=5), st.lists(numeric, max_size=5), st.lists(entries, max_size=5),
                       entries))
def test_numbers_gives_the_per_entry_checks_bits_or_message(value):
    assert bits(_numbers, value) == bits(reference_numbers, value)


@pytest.mark.parametrize("value", [[], [1.0, -0.0, 5e-324], [FLOAT_MAX, -FLOAT_MAX], [True], [1], [int(FLOAT_MAX) + 1],
                                   [2**1024], [Decimal("1")], [Fraction(1, 3)], [np.float64(0.5)], [math.nan],
                                   [1.0, math.inf], ["1"], [None], [[1.0]]])
def test_numbers_edge_cases_give_the_per_entry_checks_bits_or_message(value):
    assert bits(_numbers, value) == bits(reference_numbers, value)
