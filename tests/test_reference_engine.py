"""``run_simulation`` against the reference engine of ``reference_engine.py``, bit for bit.

The configs are the golden ones, a ``state_reset`` fixed-sequence run of all four trader models (so
every trader after the first meets the post-trade state that the first one's kept quote hands back each
round), a ``state_reset`` round-robin run of all four models on every family, and two runs of a
budget-limited trader whose budget runs low, so that about half its calls halve the fraction: alone under
``state_reset``, where it halves at the restored ``theta0``, and after an exp-utility trader without it.  Then
a ``state_reset`` run with sequence ``[a, b, a]``, where each of ``a``'s two turns has a mover that hands back
its kept move, and the all-models round-robin run of every family again at inverse liquidity 0.5
and 2.  Last, a 700-round all-models run of every family without ``state_reset``: the engine
serves its variates from blocks of ``harness._BLOCK`` (256), and the reference draws each by a scalar call,
so these runs cross two block edges; and a Weibull draw that overflows in round 531, within the third block.

Beside the fixed configs, generated ones (derandomized and bounded, so deterministic): every family, one to
four traders of any model, both arrivals with sequences in which a trader may recur, ``state_reset`` on and
off, inverse liquidity 0.5, 1 and 2, and rounds that abort -- a degenerate Bayesian sample, a belief at the
domain's edge, and a ``weibull-moment:0.01`` draw that overflows.  Each run's trade log must replay to its
final state.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_FAMILY_IDS
from reference_engine import hexed, reference_run
from test_golden import GOLDEN_CONFIGS
from test_harness import a_b_a_for_ten_rounds
from test_trade_log_property import naturals

from expfam_markets import Market, SimConfig, family_from_id, read_trade_log, replay, run_simulation
from expfam_markets.harness import _BLOCK

# theta0, true_theta, and two mean descriptions per family.
FAMILY_SETUPS = {
    "categorical:3": ([0.0, 0.0, 0.0], [0.4, -0.1, -0.3], {"probs": [0.5, 0.3, 0.2]}, {"probs": [0.2, 0.5, 0.3]}),
    "exponential-rate": ([-1.0], [-0.8], {"mean": 1.4}, {"mean": 0.9}),
    "gaussian-moments": ([0.0, -0.5], [0.5, -0.5], {"mean": 0.3, "variance": 1.2}, {"mean": 0.6, "variance": 0.9}),
    "weibull-moment:2": ([-1.0], [-0.5], {"moment": 1.8}, {"moment": 2.5}),
    "vmf3": ([0.0, 0.0, 0.0], [0.5, 1.0, -2.0], {"mean": [0.2, 0.3, -0.5]}, {"mean": [0.1, 0.4, -0.6]}),
}


def all_models_config(family_id: str, arrival: str, seed: int) -> dict:
    theta0, true_theta, first, second = FAMILY_SETUPS[family_id]
    return {
        "family": family_id, "theta0": theta0, "true_theta": true_theta, "rounds": 120, "seed": seed,
        "arrival": arrival, "state_reset": True,
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.8, "belief": first},
            {"id": "rn", "model": "risk-neutral", "belief": second},
            {"id": "bl", "model": "budget-limited", "budget": 0.4, "belief": second},
            {"id": "by", "model": "bayesian", "sample": {"mean": first, "size": 2.0}},
        ],
    }


LOW_BUDGET = {
    "family": "categorical:2", "theta0": [0.0, 0.0], "true_theta": [0.6, -0.6], "rounds": 200, "seed": 42,
    "state_reset": True,
    "traders": [{"id": "bl", "model": "budget-limited", "budget": 0.2, "belief": {"probs": [0.3, 0.7]}}],
}

CONFIGS = {
    **{f"golden:{name}": raw for name, raw in GOLDEN_CONFIGS.items()},
    "state-reset-fixed-sequence:categorical:3": all_models_config("categorical:3", "fixed-sequence", 21),
    **{f"state-reset-round-robin:{fid}": all_models_config(fid, "round-robin", 22 + i)
       for i, fid in enumerate(ALL_FAMILY_IDS)},
    "state-reset-low-budget:categorical:2": LOW_BUDGET,  # 97 of 200 calls halve
    "fixed-sequence-low-budget:categorical:2": {  # 43 of bl's 200 calls halve
        **LOW_BUDGET, "state_reset": False, "arrival": "fixed-sequence", "traders": [
            *LOW_BUDGET["traders"],
            {"id": "eu", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}}]},
    "state-reset-a-b-a:categorical:2": a_b_a_for_ten_rounds(True),  # a has a mover, so a kept move, per turn
    **{f"inv-liquidity-{lam}-round-robin:{fid}": {**all_models_config(fid, "round-robin", 41 + i),
                                                   "inv_liquidity": lam}
       for lam in (0.5, 2.0) for i, fid in enumerate(ALL_FAMILY_IDS)},
    **{f"block-edges-round-robin:{fid}": {**all_models_config(fid, "round-robin", 61 + i), "rounds": 700,
                                          "state_reset": False}
       for i, fid in enumerate(ALL_FAMILY_IDS)},
}

WEIBULL_DRAW_OVERFLOWS = {  # seed 0's 531st variate is the first whose draw at true_theta exceeds the largest float
    "family": "weibull-moment:0.01", "theta0": [-1.0], "true_theta": [-0.005], "rounds": 600, "seed": 0,
    "traders": [{"id": "rn", "model": "risk-neutral", "belief": {"moment": 1.5}}],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_the_reference_bit_for_bit(name):
    config = SimConfig.from_dict(CONFIGS[name])
    expected = reference_run(config)
    assert expected["events"] or expected["error"], "a valid run with no trade compares nothing"
    assert hexed(run_simulation(config)) == expected


def test_a_draw_that_overflows_past_two_blocks_aborts_its_own_round():
    config = SimConfig.from_dict(WEIBULL_DRAW_OVERFLOWS)
    expected = reference_run(config)
    assert 2 * _BLOCK < 531 <= 3 * _BLOCK
    assert expected["error"] == "round 531: weibull-moment:0.01: a draw at theta [-0.005] overflows"
    assert len(expected["events"]) == 530
    assert hexed(run_simulation(config)) == expected


# ----------------------------------------------------------------------
# Generated configs
# ----------------------------------------------------------------------

GENERATED_FAMILIES = (*ALL_FAMILY_IDS, "categorical:2", "weibull-moment:0.01")


def beliefs(family_id: str):
    """A natural parameter as a belief; in the families bounded by ``theta < 0``, sometimes one at the edge.

    A move toward ``-1e-10`` lands within the trading margin of the boundary, so its round aborts.
    """
    edge = {"exponential-rate": [-1e-10], "weibull-moment:2": [-1e-10], "gaussian-moments": [0.5, -1e-10]}
    theta = naturals(family_id)
    if family_id in edge:
        theta = st.one_of(theta, st.just(edge[family_id]))
    return theta.map(lambda t: {"theta": t})


@st.composite
def traders(draw, family_id: str, tid: str) -> dict:
    model = draw(st.sampled_from(("risk-neutral", "exp-utility", "budget-limited", "bayesian")))
    if model == "bayesian":
        family = family_from_id(family_id)
        mean = family.mean_from_natural(draw(naturals(family_id))).tolist()
        if family_id.startswith("categorical:") and draw(st.booleans()):
            mean = [1.0] + [0.0] * (len(mean) - 1)  # degenerate: a first mover's posterior has no natural parameter
        return {"id": tid, "model": model, "sample": {"mean": mean, "size": draw(st.floats(0.5, 4.0))}}
    trader = {"id": tid, "model": model, "belief": draw(beliefs(family_id))}
    if model != "risk-neutral":
        trader["risk_aversion"] = draw(st.floats(0.0 if model == "budget-limited" else 0.1, 3.0))
    if model == "budget-limited":
        trader["budget"] = draw(st.one_of(st.floats(0.0, 2.0), st.just(1e-9)))
    return trader


@st.composite
def generated_configs(draw) -> dict:
    family_id = draw(st.sampled_from(GENERATED_FAMILIES))
    ids = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    # At weibull-moment:0.01 a draw overflows with chance exp(1209 * true_theta): 0.09, 0.30 and 0 per round here.
    true_theta = (st.sampled_from(([-2e-3], [-1e-3], [-0.5])) if family_id == "weibull-moment:0.01"
                  else naturals(family_id))
    raw = {"family": family_id, "theta0": draw(naturals(family_id)), "true_theta": draw(true_theta),
           "inv_liquidity": draw(st.sampled_from((0.5, 1.0, 2.0))), "rounds": draw(st.integers(1, 10)),
           "seed": draw(st.integers(0, 2**31 - 1)), "state_reset": draw(st.booleans()),
           "traders": [draw(traders(family_id, tid)) for tid in ids]}
    if draw(st.booleans()):
        raw["arrival"] = "fixed-sequence"
        raw["sequence"] = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5))
    return raw


@settings(max_examples=150, derandomize=True, deadline=None)
@given(raw=generated_configs())
def test_generated_configs_match_the_reference_and_their_logs_replay(raw):
    config = SimConfig.from_dict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trades.jsonl")
        report = run_simulation(config, trade_log_path=path)
        assert hexed(report) == reference_run(config)
        agg = report.aggregates
        state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
        rebuilt = replay(read_trade_log(path), state0)
    assert [v.hex() for v in rebuilt.theta] == [v.hex() for v in agg["final_theta"]]
    assert (rebuilt.revenue.hex(), rebuilt.n_trades) == (agg["revenue"].hex(), agg["n_trades"])
