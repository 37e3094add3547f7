"""Span tracing around the package's public functions, from outside it.

``Tracer.install`` replaces each traced attribute (a class method such as
``Market.quote``, or a module global that the package imported by value,
such as ``expfam_markets.harness.exp_utility_trade``) with a wrapper that
records one span per call: name, start, end, parent span and the id of the
operation the span belongs to (round, record, run or invocation).  Spans are
kept in flat arrays in memory and written out once, after the traced run.
``uninstall`` puts every original attribute back.

A span's self time is its duration minus the time covered by its child
spans; calls are single-threaded, so children never overlap and the covered
time is the sum of their durations.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

from expfam_markets import cli, harness, market, traders
from expfam_markets.families import ExpFamily

FAMILY_METHODS = ("log_partition", "mean_from_natural", "natural_from_mean",
                  "check_natural", "sample", "statistic")
MARKET_METHODS = ("quote", "execute", "log_loss", "reset_theta")
TRADER_FUNCTIONS = ("exp_utility_trade", "budget_limited_trade", "bayesian_market_trade")

# Simulation rounds have no public start hook: a round ends with its outcome
# draw, and the next round begins at the first reset, trader decision or
# execute after that draw (settlement calls in between stay in the round).
ROUND_END = "families.sample"
ROUND_START = frozenset({"market.reset_theta", "market.execute"}
                        | {f"traders.{fn}" for fn in TRADER_FUNCTIONS})
# A replayed record ends with its execute; the next span starts the next one.
RECORD_END = "market.execute"


def _targets():
    """(owner, attribute, span name) for every traced callable."""
    out = [(ExpFamily, m, f"families.{m}") for m in FAMILY_METHODS]
    out += [(market.Market, m, f"market.{m}") for m in MARKET_METHODS]
    out += [(harness, fn, f"traders.{fn}") for fn in TRADER_FUNCTIONS]
    out += [
        (traders.TraderProfile, "__init__", "traders.TraderProfile"),
        (harness.SimConfig, "from_dict", "harness.SimConfig.from_dict"),
        (harness, "run_simulation", "harness.run_simulation"),
        (harness, "replay", "harness.replay"),
        (harness, "emit_report", "io.emit_report"),
        (market, "read_trade_log", "io.read_trade_log"),
        (cli, "load_state", "io.load_state"),
        (cli, "save_state", "io.save_state"),
        (cli, "main", "cli.main"),
    ]
    return out


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self, op_end: str | None = None, op_start=None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current_op = 0
        self._stack: list[int] = []
        self._op_end = op_end
        self._op_start = op_start  # None: any span may start the next op
        self._op_pending = False
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        if self._op_pending and (self._op_start is None or name in self._op_start):
            self.current_op += 1
            self._op_pending = False
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            if name == self._op_end:
                self._op_pending = True

    def set_op(self, op: int) -> None:
        self.current_op = op
        self._op_pending = False

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        call = self.call
        if name == "io.emit_report":
            def wrapper(*args, **kwargs):
                fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "")
                return call(f"io.emit_report.{fmt}", fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return dict(out)

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(1 for i in range(len(self.start))
                   if self.name[i] == cid and self.parent[i] >= 0 and self.name[self.parent[i]] == pid)

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [] if nid is None else [i for i in range(len(self.start)) if self.name[i] == nid]

    def write(self, path: str) -> None:
        """Write every span as gzipped TSV: id, name, start_s, end_s, parent, op."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - base:.9f}\t"
                         f"{self.end[i] - base:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
