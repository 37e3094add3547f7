"""Command-line interface.

Subcommands:

* ``score``       -- score a mean-parameter report against an outcome.
* ``quote``       -- price a portfolio against a persisted market state.
* ``trade``       -- execute a portfolio, atomically rewriting the state
                     file and optionally appending to a trade log (started
                     with its header when new; one of another family or
                     liquidity is refused), under an exclusive lock on the
                     file ``<state>.lock`` so concurrent trades run in turn.
* ``simulate``    -- run a configured simulation and write reports; two of
                     ``--config``, ``--out``, ``--csv`` and ``--trade-log``
                     naming one regular or new file are refused (exit 2),
                     before anything is read or written.
* ``replay``      -- verify a trade log against an initial state.
* ``equilibrium`` -- solve a multi-trader equilibrium problem.

``main`` is the ``expfam-markets`` console script: it picks the handler by
the subcommand's name and returns the exit code.  Exit codes: 0 success,
2 configuration error (bad flags, malformed JSON, invalid config), 3 domain
or convergence error, 4 I/O error.  A run's seed is the config's, or
``--seed`` when that flag is given.

``quote`` and ``trade`` import neither numpy nor the modules that need it:
the harness, equilibrium and scoring modules load inside the commands that
use them.  Nor do they load ``dataclasses`` or ``inspect``: from the
standard library they add only ``argparse``, ``json``, ``numbers``,
``array`` and, for ``trade``, ``fcntl`` to what ``os`` brings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, ConvergenceError, DomainError
from .families import GaussianMoments, family_from_id
from .market import (_check_keys, _number, _numbers, append_record, load_state, log_header, read_json,
                     read_trade_log, save_state)


def _parse_json_value(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer of more digits than int() converts
        raise ConfigError(f"{what}: invalid JSON {text!r} ({exc})") from exc
    except RecursionError as exc:  # the text, thousands of brackets, is left out of the message
        raise ConfigError(f"{what}: invalid JSON ({exc})") from exc


def _cmd_score(args) -> int:
    from .harness import parse_mean_params
    from .scoring import log_score

    try:
        family = family_from_id(args.family)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    report = _parse_json_value(args.report, "--report")
    if isinstance(family, GaussianMoments) and not (isinstance(report, dict) and report.keys() == {"mean", "variance"}):
        raise ConfigError("--report: gaussian-moments reports are {\"mean\": m, \"variance\": v}")
    mu = parse_mean_params(family, report, "--report")
    outcome = _parse_json_value(args.outcome, "--outcome")
    print(repr(log_score(family, mu, outcome)))
    return 0


def _cmd_quote(args) -> int:
    market = load_state(args.market)
    print(repr(market.quote(_numbers(_parse_json_value(args.delta, "--delta"), "--delta"))))
    return 0


def _cmd_trade(args) -> int:
    import fcntl

    # One trade at a time per state file, from its read to its save: two trades priced from one state would
    # leave a state and a log that disagree.  quote needs no lock, as save_state replaces the file atomically.
    with open(args.market + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        market = load_state(args.market)
        delta = _numbers(_parse_json_value(args.delta, "--delta"), "--delta")
        header = log_header(market)  # the pre-trade state: where a new log starts
        record = market.execute(delta, trader_id=args.trader)
        if args.log is not None:
            append_record(args.log, header, record)
        save_state(market, args.market)
    print(record.to_json())
    return 0


def _cmd_simulate(args) -> int:
    from .harness import SimConfig, emit_report, run_simulation

    # Two of these naming one file would overwrite the config, or one output the other.  A FIFO or a device is
    # written in place, so it may take more than one.
    flags = {}  # real path -> the flag that named it
    for flag, path in (("--config", args.config), ("--out", args.out), ("--csv", args.csv),
                       ("--trade-log", args.trade_log)):
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            real = os.path.realpath(path)
            if real in flags:
                raise ConfigError(f"{flags[real]} and {flag} name one file, {real}; give each its own")
            flags[real] = flag
    raw = read_json(args.config, "config")
    if args.seed is not None and isinstance(raw, dict):  # anything but an object is rejected by SimConfig.from_dict
        raw["seed"] = args.seed
    config = SimConfig.from_dict(raw)
    report = run_simulation(config, trade_log_path=args.trade_log)
    emit_report(report, "json", args.out)
    if args.csv:
        emit_report(report, "csv", args.csv)
    print(f"simulated {report.aggregates['completed_rounds']} rounds -> {args.out}"
          + ("" if report.valid else f" (INVALID: {report.error})"))
    return 0 if report.valid else 3


def _cmd_replay(args) -> int:
    from .harness import replay

    records = read_trade_log(args.log)
    state0 = read_json(args.state0, "state")
    market = replay(records, state0)
    print(json.dumps(market.state_dict(), sort_keys=True))
    return 0


def _cmd_equilibrium(args) -> int:
    from .equilibrium import EquilibriumProblem, best_response_dynamics, closed_form_equilibrium
    from .harness import TRADER_KEYS, parse_belief_theta

    raw = read_json(args.problem, "problem")
    try:
        _check_keys(raw, {"family", "theta0", "traders"}, "problem")
        family = family_from_id(raw["family"])
        theta0 = _numbers(raw["theta0"], "theta0")
        beliefs, aversions, traders = [], [], raw["traders"]
        if not isinstance(traders, list):
            raise ConfigError(f"traders must be a list, got {type(traders).__name__}")
        for i, td in enumerate(traders):
            _check_keys(td, TRADER_KEYS["exp-utility"], f"traders[{i}]")
            beliefs.append(parse_belief_theta(family, td["belief"], f"traders[{i}]"))
            aversions.append(_number(td["risk_aversion"], f"traders[{i}]: risk_aversion"))
        problem = EquilibriumProblem(family=family, theta0=theta0,
                                     beliefs=beliefs, risk_aversions=aversions)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers DomainError and ConfigError
        raise ConfigError(f"problem {args.problem}: {exc}") from exc
    result = best_response_dynamics(problem)
    theta_eq, _ = closed_form_equilibrium(problem)
    out = {
        "theta_eq": [float(v) for v in theta_eq],
        "prices_eq": [float(v) for v in family.mean_from_natural(theta_eq)],
        "deltas": [[float(v) for v in d] for d in result.deltas],
        "potential_value": result.potentials[-1],
        "br_rounds": result.sweeps,
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


_COMMANDS = {"score": _cmd_score, "quote": _cmd_quote, "trade": _cmd_trade, "simulate": _cmd_simulate,
             "replay": _cmd_replay, "equilibrium": _cmd_equilibrium}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expfam-markets",
                                     description="Exponential-family prediction markets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a mean-parameter report against an outcome")
    p.add_argument("--family", required=True, help="family id, e.g. exponential-rate")
    p.add_argument("--report", required=True, help="JSON report (number, vector, or object)")
    p.add_argument("--outcome", required=True, help="JSON outcome")

    p = sub.add_parser("quote", help="price a portfolio against a market state file")
    p.add_argument("--market", required=True, help="market state JSON file")
    p.add_argument("--delta", required=True, help="JSON portfolio vector")

    p = sub.add_parser("trade", help="execute a portfolio, updating the state file atomically")
    p.add_argument("--market", required=True, help="market state JSON file (rewritten)")
    p.add_argument("--delta", required=True, help="JSON portfolio vector")
    p.add_argument("--trader", default="", help="trader id recorded in the log")
    p.add_argument("--log", default=None, help="optional JSON-lines trade log to append")

    p = sub.add_parser("simulate", help="run a simulation config")
    p.add_argument("--config", required=True, help="simulation config JSON file")
    p.add_argument("--out", required=True, help="JSON report output path")
    p.add_argument("--csv", default=None, help="optional CSV report output path")
    p.add_argument("--trade-log", default=None, help="optional JSON-lines trade log path")
    p.add_argument("--seed", type=int, default=None,
                   help="seed override (wins over the config's)")

    p = sub.add_parser("replay", help="verify a trade log against an initial state")
    p.add_argument("--log", required=True, help="JSON-lines trade log")
    p.add_argument("--state0", required=True, help="initial market state JSON file")

    p = sub.add_parser("equilibrium", help="solve a multi-trader equilibrium problem")
    p.add_argument("--problem", required=True, help="problem JSON file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
