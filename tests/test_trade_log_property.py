"""Property test of the trade log: what a run writes, replay rebuilds bit for bit, and pins any one-ulp change.

Configs are generated over ``categorical:K`` and the one-dimensional
families, with and without ``state_reset`` and at three liquidities.  The
examples are derandomized and bounded, so the test is deterministic and
fast.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from expfam_markets import CorruptLogError, Market, SimConfig, read_trade_log, replay, run_simulation

FAMILIES = ("categorical:2", "categorical:3", "categorical:5",
            "exponential-rate", "weibull-moment:0.5", "weibull-moment:2")


def naturals(family_id: str):
    """Interior natural parameters, at every liquidity drawn below (scaled by at most 2)."""
    if family_id.startswith("categorical:"):
        k = int(family_id.split(":")[1])
        return st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    return st.lists(st.floats(-5.0, -0.2), min_size=1, max_size=1)


@st.composite
def configs(draw) -> dict:
    family_id = draw(st.sampled_from(FAMILIES))
    inv_liquidity = draw(st.sampled_from((1.0, 0.5, 2.0)))
    traders = [{"id": "rn", "model": "risk-neutral", "belief": {"theta": draw(naturals(family_id))}},
               {"id": "eu", "model": "exp-utility", "risk_aversion": draw(st.floats(0.1, 3.0)),
                "belief": {"theta": draw(naturals(family_id))}}]
    if inv_liquidity == 1.0:
        traders.append({"id": "bl", "model": "budget-limited", "budget": draw(st.floats(0.1, 2.0)),
                        "belief": {"theta": draw(naturals(family_id))}})
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
        if not os.path.exists(path):  # no settled trade, so no log
            assert agg["n_trades"] == 0
            return
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        log = read_trade_log(path)
        assert [record.to_json() for record in log] == lines[1:]
        rebuilt = replay(log, state0)
        assert [v.hex() for v in rebuilt.theta] == [v.hex() for v in agg["final_theta"]]
        assert (rebuilt.revenue.hex(), rebuilt.n_trades) == (agg["revenue"].hex(), agg["n_trades"])

        index = data.draw(st.integers(0, len(log) - 1), label="tampered record")
        record = json.loads(lines[index + 1])
        record["cost"] = math.nextafter(record["cost"], data.draw(st.sampled_from((math.inf, -math.inf))))
        lines[index + 1] = json.dumps(record, sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        with pytest.raises(CorruptLogError, match="recorded cost") as err:
            replay(read_trade_log(path), state0)
        assert err.value.line_number == index + 2
