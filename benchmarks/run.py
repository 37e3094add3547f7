"""Run the expfam-markets benchmark: one workload, or all four.

    python3 benchmarks/run.py --workload sim-long --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run starts fresh worker
processes (see ``worker.py``), each on the next CPU in turn: three that only
set up, for the set-up time median, then one that sets up again and runs the
timed jobs, rotating them over the CPUs.  With
``--trace 1`` the worker instead runs a fixed set of jobs untraced and then
traced, and reports per-layer metrics; the spans go to
``.bench_out/spans-<workload>-seed<seed>.tsv.gz``.

Scratch files live in ``.bench_tmp/`` and are removed before exit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the output checks, the sha256 of the outputs and the
provenance of the run.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sim-long", "replay-audit", "ensemble", "cli-trade")
SETUP_SAMPLES = 4  # spread evenly over the CPUs; see worker.Workload.rotate_cpu
RUN_TIMEOUT_S = 170.0

# Workload-specific names for the generic end-to-end metrics.
THROUGHPUT_NAMES = {"sim-long": "sim_rounds", "replay-audit": "replay_records",
                    "ensemble": "ensemble_runs", "cli-trade": "cli_trades"}
JOB_NAMES = {"sim-long": "sim_pass", "replay-audit": "replay_pass",
             "ensemble": "ensemble_run", "cli-trade": "cli_trade"}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Bytecode (of the package, numpy and the stdlib alike) goes to the
    # scratch directory, never next to the sources.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class WorkerError(RuntimeError):
    pass


def start_worker(args, tmp: str, env: dict, deadline: float, tag: str, cpus: list[int],
                 first: int, extra=()) -> dict:
    """Run one worker, started on CPU ``cpus[first]``; return its result and set-up time."""
    out = os.path.join(tmp, f"result-{tag}.json")
    work = os.path.join(tmp, tag)
    os.makedirs(work)
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", work, "--out", out, "--cpus", ",".join(map(str, cpus)), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpus[first]}),
                              timeout=max(1.0, deadline - spawned), check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{tag} worker timed out") from exc
    if proc.returncode != 0 or not os.path.exists(out):
        raise WorkerError(f"{tag} worker exited with code {proc.returncode}")
    with open(out, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_monotonic"] - spawned
    shutil.rmtree(work)
    return result


def warm_bytecode(env: dict) -> None:
    """Compile everything the workers and CLI processes import, before timing."""
    for argv in ([WORKER, "--help"], ["-m", "expfam_markets.cli", "--help"]):
        proc = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise WorkerError(f"warm-up {' '.join(argv)} exited with code {proc.returncode}")


def run_workload(args, tmp: str, deadline: float) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    env = child_env(tmp)
    warm_bytecode(env)
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, tmp, env, deadline, f"setup{i}", cpus,
                                       i % len(cpus), ["--setup-only"]))
    spans = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    result = start_worker(args, tmp, env, deadline, "main", cpus, len(setups) % len(cpus),
                          ["--spans", spans] if spans else [])
    setups.append(result)

    checks = [c for s in setups for c in s["checks"]]
    failed = [c for c in checks if not c[1]]
    lines = [f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             f"provenance: python {result['python']}, numpy {result['numpy']}, "
             f"nproc {os.cpu_count()}, git {git_sha()}"]
    lines.append(f"checks: {len(checks) - len(failed)} of {len(checks)} passed")
    lines += [f"  FAILED {name}: {detail}" for name, _, detail in failed[:20]]
    lines += [f"sha256 {name} {digest}" for name, digest in sorted(result["digests"].items())]

    metrics: dict[str, dict] = {}
    named: list[tuple[str, float, str, str]] = []  # (name, value, unit, basis)
    if args.trace:
        metrics = result["layers"]
        named += [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
        lines.append("counts: " + json.dumps(result["layer_counts"], sort_keys=True))
    else:
        times, work = result["times"], result["work"]
        unit = result["work_unit"]
        setup = statistics.median(s["setup_s"] for s in setups)
        rate = sum(work) / sum(times)
        p50 = statistics.median(times) * 1e3
        metrics = {"setup_s": {"value": setup, "unit": "s"},
                   "work_per_s": {"value": rate, "unit": "1/s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
        alias = THROUGHPUT_NAMES[args.workload]
        job = JOB_NAMES[args.workload]
        jobs = f"n={len(times)}"
        named += [("setup_s", setup, "s", f"median of {len(setups)} fresh processes"),
                  (f"{alias}_per_s", rate, f"{unit}/s", f"{sum(work)} {unit} in {sum(times):.3f} s, {jobs}"),
                  (f"{job}_p50_ms", p50, "ms", jobs)]
        if len(times) >= 100:
            beyond = len(times) - -(-len(times) * 9 // 10)
            named.append((f"{job}_p90_ms", percentile(times, 90) * 1e3, "ms", f"{jobs}, {beyond} beyond"))
        named.append(("peak_rss_mb", result["peak_rss_mb"], "MB",
                      "CLI processes" if args.workload == "cli-trade" else "worker process"))
    named.append(("failed_frac", len(failed) / len(checks), "ratio",
                  f"{len(failed)} failed of {len(checks)} attempted"))
    lines += [f"{name} = {value:.6g} {unit}" + (f"  ({basis})" if basis else "")
              for name, value, unit, basis in named]
    summary = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
               "metrics": metrics}
    return summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="expfam-markets benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "expfam_markets", "__init__.py")):
        print(f"benchmark: no package source at {os.path.join(ROOT, 'src', 'expfam_markets')}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(tmp_root, f"run-{os.getpid()}")
    os.makedirs(tmp)
    summaries = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            deadline = time.monotonic() + RUN_TIMEOUT_S
            wtmp = os.path.join(tmp, name)
            os.makedirs(wtmp)
            summaries[name], lines = run_workload(one, wtmp, deadline)
            print("\n".join(lines), flush=True)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(tmp_root) and not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    if len(summaries) == 1:
        summary = summaries[names[0]]
    else:
        summary = {"correct": all(s["correct"] for s in summaries.values()),
                   "attempted": sum(s["attempted"] for s in summaries.values()),
                   "failed": sum(s["failed"] for s in summaries.values()),
                   "metrics": {f"{w}:{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
