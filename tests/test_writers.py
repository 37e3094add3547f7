"""The report and trade-log writers against the stdlib encoders they replace.

``SimReport.to_json`` and ``emit_report(..., "json")`` must write the bytes of
``json.dumps(report.to_dict(), sort_keys=True, indent=2)`` plus a newline,
``TradeRecord.to_json`` those of ``json.dumps(record.to_dict(),
sort_keys=True)``, a trade log's header line those of
``json.dumps(log_header(...), sort_keys=True)``, and each CSV cell
``repr(float(v))`` of its value, or of each entry, ``;``-joined, for a
vector (``delta``, a vmf3 outcome).  The reports are built by hand, with no
sampling, so the file needs only the standard library: it runs under pytest
or as a script,

    PYTHONPATH=src python tests/test_writers.py

which is how the byte contract is checked on interpreters without numpy or
pytest (json's encoder differs between Python versions).  The two tests that
run the engine need numpy, and are skipped without it.

A report keeps the float texts its first write rendered, so every write after
the first, in either format, must keep the bytes of a fresh writer too.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import unittest
from array import array
from itertools import cycle

from expfam_markets import harness
from expfam_markets.families import family_from_id
from expfam_markets.harness import EventTable, SimConfig, SimReport, TradeEvent, emit_report, run_simulation
from expfam_markets.market import Market, TradeRecord, append_record, log_header, read_trade_log

NAN, INF = math.nan, math.inf
ODD_IDS = ("é", 'say "hi"', "back\\slash", "new\nline", "50% off")


def event(round_index=1, trader_id="a", delta=(0.25, -0.25), cost=0.1, outcome=1, log_loss_before=0.7,
          log_loss_after=0.6, myopic_impact=0.05, trader_budgets=None) -> TradeEvent:
    return TradeEvent(round=round_index, trader_id=trader_id, delta=list(delta), cost=cost, outcome=outcome,
                      log_loss_before=log_loss_before, log_loss_after=log_loss_after,
                      myopic_impact=myopic_impact,
                      trader_budgets={"a": None, "b": 1.5} if trader_budgets is None else trader_budgets)


def report(events, valid=True, error=None, inv_liquidity=1.0, **aggregates) -> SimReport:
    budgets = events[-1].trader_budgets if events else {"a": None}
    return SimReport(
        family="categorical:2", seed=7, rounds=3, inv_liquidity=inv_liquidity, arrival="round-robin",
        state_reset=False, valid=valid, error=error, events=events,
        aggregates={"completed_rounds": events[-1].round if events else 0,
                    "total_log_loss": 1.25 if inv_liquidity == 1.0 else None,
                    "per_trader_impact": {tid: 0.125 for tid in budgets},
                    "final_budgets": dict(budgets), "final_theta": [0.5, -0.5], "final_prices": [0.7, 0.3],
                    "revenue": 0.1 * len(events), "n_trades": len(events), **aggregates},
    )


def shared_round(budgets: dict, *trader_ids) -> list[TradeEvent]:
    """The events of one round, sharing one ``trader_budgets`` snapshot as a run's do."""
    return [event(trader_id=tid, trader_budgets=budgets, cost=0.1 * (i + 1)) for i, tid in enumerate(trader_ids)]


def chained_round(losses: list, round_index: int = 1) -> list[TradeEvent]:
    """One round's events along its price path: each ``log_loss_before`` is the previous ``log_loss_after``."""
    budgets = {"a": 0.5, "b": None}
    return [event(round_index=round_index, log_loss_before=before, log_loss_after=after, trader_budgets=budgets)
            for before, after in zip(losses, losses[1:])]


CASES = {
    "zero-events": report([]),
    "aborted-with-error": report([event()], valid=False,
                                 error='round 2: a draw at theta [-0.1] overflows "é" \\ \n\t'),
    "nonfinite-values": report([
        event(log_loss_before=NAN, log_loss_after=INF, myopic_impact=-INF, outcome=INF,
              trader_budgets={"a": NAN, "b": INF}),
        event(round_index=2, log_loss_before=-INF, log_loss_after=NAN, myopic_impact=NAN, outcome=NAN,
              trader_budgets={"a": -INF, "b": None}),
        event(round_index=3, outcome=-INF, cost=INF, delta=(NAN, -INF)),
    ], total_log_loss=NAN, revenue=INF),
    "none-log-losses": report([event(log_loss_before=None, log_loss_after=None),
                               event(round_index=2, log_loss_before=None, log_loss_after=None)],
                              inv_liquidity=0.75),
    "int-and-float-outcomes": report([event(outcome=2), event(round_index=2, outcome=0.5),
                                      event(round_index=3, outcome=-1e-300), event(round_index=4, outcome=1e22)]),
    "escaped-trader-ids": report(shared_round({tid: 0.5 for tid in ODD_IDS}, *ODD_IDS)),
    "shared-and-equal-budgets": report(
        shared_round({"a": 1.0, "b": None}, "a", "b")
        + shared_round({"a": 1.0, "b": None}, "a", "b")  # equal content, a new snapshot
        + [event(round_index=2, trader_budgets={"a": 0.1 + 0.2, "b": 5e-324})]),
    "one-dimensional-delta": report([event(delta=(-1e-17,)), event(delta=(1.0000000000000002,))]),
    "vector-outcomes": report([  # a vmf3 draw is an array, written as delta is
        event(delta=(0.5, -0.25, 1e-300), outcome=array("d", [0.6, -0.0, 0.8])),
        event(round_index=2, delta=(1.0, 0.0, -1.0), outcome=array("d", [5e-324, 1.0000000000000002, 1 / 3])),
        event(round_index=3, outcome=2)]),
    "signed-zeros": report([event(delta=(-0.0, 0.0), cost=-0.0, outcome=-0.0, log_loss_before=-0.0,
                                  myopic_impact=-0.0, trader_budgets={"a": -0.0, "b": None})]),
    "chained-log-losses": report(
        chained_round([0.1 + 0.2, 1 / 3, NAN, -INF, 2 / 3])
        + chained_round([0.6, 0.25, 1e-300], round_index=2)
        + [event(round_index=3, log_loss_before=0.5, log_loss_after=None)]),
    "chained-none-log-losses": report(chained_round([None] * 4) + chained_round([None] * 3, round_index=2),
                                      inv_liquidity=0.75),
    # empty containers are "{}" and "[]", as the encoder writes them
    "empty-budgets": report([event(trader_budgets={}), event(round_index=2, trader_budgets={})]),
    "empty-delta": report([event(delta=()), event(round_index=2, delta=())]),
    "empty-vector-outcome": report([event(outcome=array("d")), event(round_index=2, outcome=array("d", [0.5]))]),
}

RECORDS = {
    "plain": TradeRecord(round=3, trader_id="a", delta=array("d", [0.25, -0.25]), cost=0.1),
    "nonfinite": TradeRecord(round=0, trader_id="b", delta=array("d", [NAN, INF, -INF]), cost=-INF),
    "tiny-and-signed-zero": TradeRecord(round=-1, trader_id="", delta=array("d", [-0.0, 5e-324, 1e308]), cost=-0.0),
    **{f"escaped-{i}": TradeRecord(round=10**12, trader_id=tid, delta=array("d", [1 / 3]), cost=NAN)
       for i, tid in enumerate(ODD_IDS)},
}

# Markets whose state starts a log: (family, theta0, inv_liquidity).
LOG_STARTS = {
    "categorical-edge-floats": ("categorical:3", [-0.0, 5e-324, 1e308], 0.5),
    "exponential-rate-tiny-liquidity": ("exponential-rate", [-1e300], 1e-300),
    "weibull-unit-liquidity": ("weibull-moment:2", [-1 / 3], 1.0),
}


def chunked_table(dim: int, vector_outcomes: bool) -> EventTable:
    """``2 * _CHUNK + 3`` events appended with the engine's types, in rounds of three that share one snapshot.

    Round 86 takes events 255-257, so its snapshot straddles the first chunk boundary.  The trader ids
    cycle through ``ODD_IDS``, and only the last chunk holds non-finite log losses.
    """
    table, ids, n = EventTable(dim), cycle(ODD_IDS), 2 * harness._CHUNK + 3
    for i in range(n):
        round_index, turn = divmod(i, 3)
        if turn == 0:
            snapshot = {tid: (None if j == 1 else round_index / 7) for j, tid in enumerate(ODD_IDS)}
            outcome = (array("d", [1 / (round_index + 3), -0.0, 5e-324]) if vector_outcomes
                       else (round_index % (dim or 1)))
        loss = i / 3 if i < 2 * harness._CHUNK else (NAN, INF, -INF)[i % 3]
        table.append(round_index + 1, next(ids), array("d", [(i + k) / 9 for k in range(dim)]), i * 1e-3, outcome,
                     loss, loss + 0.5, -i / 11, snapshot)
    return table


def stdlib_json(rep: SimReport) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def old_csv(rep: SimReport) -> str:
    """The CSV as it was written before the template writers: ``repr(float(v))`` per cell."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(("round", "trader_id", "delta", "cost", "outcome", "log_loss_before", "log_loss_after",
                     "myopic_impact", "budget_after"))
    for ev in rep.events:
        own_budget = ev.trader_budgets.get(ev.trader_id)
        writer.writerow([
            ev.round, ev.trader_id, ";".join(repr(float(v)) for v in ev.delta), repr(float(ev.cost)),
            ev.outcome if isinstance(ev.outcome, int) else ";".join(repr(float(v)) for v in ev.outcome)
            if isinstance(ev.outcome, array) else repr(float(ev.outcome)),
            "" if ev.log_loss_before is None else repr(float(ev.log_loss_before)),
            "" if ev.log_loss_after is None else repr(float(ev.log_loss_after)),
            repr(float(ev.myopic_impact)), "" if own_budget is None else repr(float(own_budget)),
        ])
    return out.getvalue()


def emitted(rep: SimReport, fmt: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report." + fmt)
        emit_report(rep, fmt, path)
        with open(path, "rb") as fh:
            return fh.read()


def written(rep: SimReport, fmt: str) -> bytes:
    """The bytes of one write of ``rep``: ``emit_report`` in ``fmt``, or ``to_json``."""
    return rep.to_json().encode("utf-8") if fmt == "to_json" else emitted(rep, fmt)


def fresh(rep: SimReport) -> SimReport:
    """``rep`` with its events packed into a new table, whose texts no writer has rendered yet."""
    return dataclasses.replace(rep, events=list(rep.events))


# Writes one after another on one report: each after the first is served the texts the first rendered.
WRITE_ORDERS = (("json", "csv"), ("csv", "json"), ("json", "json"), ("json", "to_json"))


def assert_kept_texts_keep_the_bytes(rep: SimReport, name: str) -> None:
    """Each write of each of ``WRITE_ORDERS``, on a fresh copy of ``rep``, has a fresh writer's bytes and the stdlib's."""
    reference = {"json": stdlib_json(rep).encode("utf-8"), "csv": old_csv(rep).encode("utf-8")}
    reference["to_json"] = reference["json"]
    for order in WRITE_ORDERS:
        rep = fresh(rep)
        for fmt in order:
            assert written(rep, fmt) == reference[fmt] == written(fresh(rep), fmt), (name, order, fmt)


def test_report_to_json_is_the_stdlib_encoding():
    for name, rep in CASES.items():
        assert rep.to_json() == stdlib_json(rep), name


def test_emitted_json_file_is_the_stdlib_encoding():
    for name, rep in CASES.items():
        assert emitted(rep, "json") == stdlib_json(rep).encode("utf-8"), name


def test_csv_cells_are_the_old_cells():
    for name, rep in CASES.items():
        assert emitted(rep, "csv") == old_csv(rep).encode("utf-8"), name


def test_trade_record_to_json_is_the_stdlib_encoding():
    for name, record in RECORDS.items():
        assert record.to_json() == json.dumps(record.to_dict(), sort_keys=True), name


def appended(header: dict, records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trades.jsonl")
        for record in records:
            append_record(path, header, record)
        with open(path, "rb") as fh:
            return fh.read()


def test_appended_log_is_the_stdlib_encoding():
    for name, (family, theta0, inv_liquidity) in LOG_STARTS.items():
        header = log_header(Market(family_from_id(family), theta0, inv_liquidity))
        expected = [json.dumps(header, sort_keys=True)] + [json.dumps(r.to_dict(), sort_keys=True)
                                                           for r in RECORDS.values()]
        assert appended(header, RECORDS.values()) == "".join(line + "\n" for line in expected).encode(), name


def test_log_lines_are_pinned():
    header = log_header(Market(family_from_id("categorical:3"), [-0.0, 5e-324, 1e308], 0.5))
    assert appended(header, [RECORDS["tiny-and-signed-zero"], RECORDS["escaped-0"]]) == (
        b'{"family": "categorical:3", "format": 2, "inv_liquidity": 0.5, "state_reset": false, '
        b'"theta0": [-0.0, 5e-324, 1e+308]}\n'
        b'{"cost": -0.0, "delta": [-0.0, 5e-324, 1e+308], "round": -1, "trader_id": ""}\n'
        b'{"cost": NaN, "delta": [0.3333333333333333], "round": 1000000000000, "trader_id": "\\u00e9"}\n')
    assert json.dumps(log_header(Market(family_from_id("exponential-rate"), [-1e300], 1e-300), True),
                      sort_keys=True) == ('{"family": "exponential-rate", "format": 2, "inv_liquidity": 1e-300, '
                                          '"state_reset": true, "theta0": [-1e+300]}')


def test_chunk_boundaries_keep_the_bytes():
    render, counted = harness._budgets_json, []

    def counting(snapshots):
        counted.extend(snapshots)
        return render(snapshots)
    harness._budgets_json = counting
    try:
        for dim, vector_outcomes in ((3, True), (1, False)):
            rep = report(chunked_table(dim, vector_outcomes))
            counted.clear()
            assert rep.to_json() == stdlib_json(rep), dim
            assert len(counted) == len({id(s) for s in rep.events.trader_budgets}) == 172, dim  # each once
            assert emitted(rep, "json") == stdlib_json(rep).encode("utf-8"), dim
            assert emitted(rep, "csv") == old_csv(rep).encode("utf-8"), dim
    finally:
        harness._budgets_json = render


def test_a_second_write_keeps_the_bytes():
    for name, rep in CASES.items():
        assert_kept_texts_keep_the_bytes(rep, name)
    for dim, vector_outcomes in ((3, True), (1, False)):
        assert_kept_texts_keep_the_bytes(report(chunked_table(dim, vector_outcomes)), dim)


def test_an_append_after_a_write_is_rendered_again():
    # The append grows the last, partial chunk, so the texts kept for it end one event short.
    for dim, vector_outcomes in ((3, True), (1, False)):
        table = chunked_table(dim, vector_outcomes)
        rep = report(table)
        first = [written(rep, fmt) for fmt in ("json", "csv")]
        assert len(table._rendered) == 3  # one entry per chunk
        table.append(999, "z", array("d", [0.5] * dim), 0.25, 1, 0.5, 0.75, -0.25, {"z": 1.0})
        for fmt, reference, before in zip(("json", "csv"), (stdlib_json(rep), old_csv(rep)), first):
            assert written(rep, fmt) == reference.encode("utf-8") == written(fresh(rep), fmt) != before, (dim, fmt)


ENGINE_CONFIGS = {
    "categorical:3": {  # 303 events: two chunks, the second partial
        "family": "categorical:3", "theta0": [0.0, 0.0, 0.0], "true_theta": [0.3, -0.1, -0.2], "rounds": 101,
        "seed": 5, "arrival": "fixed-sequence", "sequence": ["eu", "bl", "by"], "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.7, "belief": {"probs": [0.2, 0.5, 0.3]}},
            {"id": "bl", "model": "budget-limited", "budget": 0.5, "belief": {"probs": [0.3, 0.3, 0.4]}},
            {"id": "by", "model": "bayesian", "sample": {"mean": {"probs": [0.4, 0.4, 0.2]}, "size": 3}}]},
    "vmf3": {
        "family": "vmf3", "theta0": [0.0, 0.0, 0.0], "true_theta": [0.5, 1.0, -2.0], "rounds": 140, "seed": 3,
        "arrival": "fixed-sequence", "sequence": ["a", "b"], "traders": [
            {"id": "a", "model": "risk-neutral", "belief": {"mean": [0.2, 0.3, -0.5]}},
            {"id": "b", "model": "budget-limited", "budget": 0.3, "belief": {"mean": [0.1, 0.4, -0.6]}}]},
    "state-reset": {
        "family": "categorical:2", "theta0": [0.0, 0.0], "true_theta": [0.6, -0.6], "rounds": 140, "seed": 42,
        "state_reset": True, "arrival": "fixed-sequence", "sequence": ["a", "b"], "traders": [
            {"id": "a", "model": "exp-utility", "risk_aversion": 1.0, "belief": {"probs": [0.7, 0.3]}},
            {"id": "b", "model": "risk-neutral", "belief": {"probs": [0.4, 0.6]}}]},
    "aborted": {  # "a" settles round 1, and "edge" moves within the trading margin of the boundary in round 2
        "family": "exponential-rate", "theta0": [-1.0], "true_theta": [-0.8], "rounds": 3, "seed": 42,
        "traders": [{"id": "a", "model": "risk-neutral", "belief": {"theta": [-0.5]}},
                    {"id": "edge", "model": "risk-neutral", "belief": {"theta": [-1e-10]}}]},
}


def test_engine_reports_keep_the_bytes_on_a_second_write():
    try:
        import numpy  # noqa: F401  (the engine draws its outcomes with numpy)
    except ImportError:
        raise unittest.SkipTest("the engine needs numpy") from None
    for name, raw in ENGINE_CONFIGS.items():
        rep = run_simulation(SimConfig.from_dict(raw))
        assert rep.valid == (name != "aborted") and len(rep.events) > (0 if name == "aborted" else 256), name
        assert_kept_texts_keep_the_bytes(rep, name)


def test_engine_log_lines_are_the_stdlib_encoding():
    try:
        import numpy  # noqa: F401  (the engine draws its outcomes with numpy)
    except ImportError:
        raise unittest.SkipTest("the engine needs numpy") from None
    for family, theta0, true_theta in (("exponential-rate", [-1.0], [-0.5]),
                                       ("vmf3", [0.0, 0.0, 0.0], [1.0, 2.0, 0.5])):
        traders = [{"id": tid, "model": "exp-utility", "risk_aversion": 0.5 + i, "belief": {"theta": true_theta}}
                   for i, tid in enumerate(ODD_IDS)]
        config = SimConfig.from_dict({"family": family, "theta0": theta0, "true_theta": true_theta, "rounds": 6,
                                      "seed": 3, "traders": traders, "arrival": "fixed-sequence",
                                      "sequence": list(ODD_IDS)})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trades.jsonl")
            rep = run_simulation(config, path)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            records = list(read_trade_log(path))
        assert len(lines) == len(rep.events) == 6 * len(ODD_IDS), family
        assert lines == [json.dumps(r.to_dict(), sort_keys=True) for r in records], family
        assert records == [TradeRecord(r, tid, array("d", d), c) for r, tid, d, c, *_ in rep.events.rows()], family


def test_vector_outcome_cells_are_pinned():
    rep = CASES["vector-outcomes"]
    assert emitted(rep, "csv").splitlines()[1:3] == [
        b"1,a,0.5;-0.25;1e-300,0.1,0.6;-0.0;0.8,0.7,0.6,0.05,",
        b"2,a,1.0;0.0;-1.0,0.1,5e-324;1.0000000000000002;0.3333333333333333,0.7,0.6,0.05,"]
    assert '      "outcome": [\n        0.6,\n        -0.0,\n        0.8\n      ],\n' in rep.to_json()
    assert rep.to_dict()["events"][0]["outcome"] == [0.6, -0.0, 0.8]


if __name__ == "__main__":
    import sys

    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    skipped = []
    for name, fn in tests:
        try:
            fn()
        except unittest.SkipTest as exc:
            skipped.append(name)
            print("skipped", name, f"({exc})")
            continue
        print("passed", name)
    print(f"python {sys.version.split()[0]}: {len(tests) - len(skipped)} writer-contract tests passed, "
          f"{len(skipped)} skipped ({len(CASES)} reports, {len(RECORDS)} trade records, {len(LOG_STARTS)} log headers)")
