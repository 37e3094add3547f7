"""Golden outputs: pinned sha256 digests of whole simulation runs.

Each pinned config runs ``run_simulation`` with a trade log, then writes
the JSON and the CSV report.  The sha256 of all three files is compared
with the pin, so any change that moves a single byte of a report or a log
fails here.  A change that moves bits on purpose re-pins the affected
config and records in CHANGES.md which config moved, why, and by how many
ulps at most.

Together the configs cover every sampleable family, both arrival modes,
``state_reset``, ``inv_liquidity != 1``, a run that aborts with
``valid=false`` (its trade log is never created, pinned as ``None``) and a
budget-limited trader with positive risk aversion.

Run this file as a script to print the digests of the current code, or
with ``--json`` the digests and reports, plus the bits of the functions
behind the ``score`` command on seeded draws, as one JSON object::

    PYTHONPATH=src python tests/test_golden.py [--json]

The cross-dispatch tests run that script in child processes under
environment variables that switch numpy's SIMD loops, OpenBLAS's kernel and
glibc's libm variant.  The first two must not move a byte of the reports,
the logs or the score bits.  glibc's non-FMA libm still rounds some
``exp``/``log``/``log1p``/``pow`` results differently, so under it each
report field is compared with the in-process run against a stated bound in
ulps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from conftest import SAMPLEABLE_FAMILY_IDS, random_natural, subprocess_env
from expfam_markets import SimConfig, emit_report, expected_score, family_from_id, run_simulation

GOLDEN_CONFIGS = {
    "categorical-fixed-sequence": {
        "family": "categorical:3",
        "theta0": [0.0, 0.0, 0.0],
        "true_theta": [0.4, -0.1, -0.3],
        "rounds": 150,
        "seed": 11,
        "arrival": "fixed-sequence",
        "sequence": ["eu", "bl", "by"],
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 1.2,
             "belief": {"probs": [0.5, 0.3, 0.2]}},
            {"id": "bl", "model": "budget-limited", "budget": 1.5,
             "belief": {"probs": [0.2, 0.5, 0.3]}},
            {"id": "by", "model": "bayesian",
             "sample": {"mean": {"probs": [0.45, 0.35, 0.2]}, "size": 4.0}},
        ],
    },
    "exponential-rate-state-reset": {
        "family": "exponential-rate",
        "theta0": [-1.0],
        "true_theta": [-0.8],
        "rounds": 200,
        "seed": 12,
        "state_reset": True,
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.7, "belief": {"mean": 1.4}},
            {"id": "rn", "model": "risk-neutral", "belief": {"mean": 0.9}},
            {"id": "bl", "model": "budget-limited", "budget": 0.6, "belief": {"mean": 1.6}},
        ],
    },
    "weibull-round-robin": {
        "family": "weibull-moment:2",
        "theta0": [-1.0],
        "true_theta": [-0.5],
        "rounds": 200,
        "seed": 13,
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 1.5, "belief": {"moment": 1.8}},
            {"id": "rn", "model": "risk-neutral", "belief": {"moment": 2.5}},
            {"id": "by", "model": "bayesian", "sample": {"mean": {"moment": 2.2}, "size": 3.0}},
        ],
    },
    "gaussian-inv-liquidity": {
        "family": "gaussian-moments",
        "theta0": [0.0, -0.5],
        "true_theta": [0.5, -0.5],
        "inv_liquidity": 0.75,
        "rounds": 100,
        "seed": 14,
        "arrival": "fixed-sequence",
        "sequence": ["eu", "rn"],
        "traders": [
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.8,
             "belief": {"mean": 0.3, "variance": 1.2}},
            {"id": "rn", "model": "risk-neutral", "belief": {"mean": 0.6, "variance": 0.9}},
        ],
    },
    "bayesian-degenerate-abort": {
        "family": "categorical:2",
        "theta0": [0.0, 0.0],
        "true_theta": [0.6, -0.6],
        "rounds": 2,
        "seed": 42,
        "traders": [
            {"id": "b", "model": "bayesian", "sample": {"mean": {"probs": [1.0, 0.0]}, "size": 1}},
        ],
    },
    "budget-limited-risk-averse": {
        "family": "categorical:3",
        "theta0": [0.0, 0.0, 0.0],
        "true_theta": [-0.2, 0.5, -0.3],
        "rounds": 200,
        "seed": 15,
        "traders": [
            {"id": "bl", "model": "budget-limited", "risk_aversion": 0.8, "budget": 0.3,
             "belief": {"probs": [0.3, 0.5, 0.2]}},
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.5,
             "belief": {"probs": [0.25, 0.4, 0.35]}},
        ],
    },
}

GOLDEN_DIGESTS = {
    "bayesian-degenerate-abort": {
        "json": "59b0665265d18fdf914ca0a1347105ac86f9aafdd5771431583685e23d6eb90e",
        "csv": "c16e429ab4c74165674c5f94981bd801a8c92cba37966207d0a7f5e5f20c95fe",
        "trade_log": None,
    },
    "budget-limited-risk-averse": {
        "json": "2b4cc99689ecc71705a59cbca84076ac3bdc9fe85e41ba6359dc79774b2f5a04",
        "csv": "d50033ada74164f089a071a7c27b6a4150008a865e090c3906b67e6e6dcae2d7",
        "trade_log": "199d053e5ea68795177c44d9734a6f1819d620b14eeb9f284f650c3bf97e7c49",
    },
    "categorical-fixed-sequence": {
        "json": "dfbe8214573155e8ea1d99553a44fc7fa44eb04fdeee31c4217bd6e84af17503",
        "csv": "0b20f6d0ed6e45c854e1594d463097de902ececb27dedf79d5bca152a189e8b2",
        "trade_log": "f363b2e4d20dc37ffbb06dd13f1b38d94d8c30d65401b1c9a2733aa9e89d1a9c",
    },
    "exponential-rate-state-reset": {
        "json": "e7d0b1e9116f763460980a0981be8fc96f7fbd48e9a7d5df5adc812819c58728",
        "csv": "453f69283e7e44ba9bec7c732b6021434ed1a4de2818179d09e022cc95e9ca1d",
        "trade_log": "6108fd6ba9126a25a56bbd8aa1f93d66acd3404f9c1530d4a44564abe2a86b0f",
    },
    "gaussian-inv-liquidity": {
        "json": "3368136277ff778e0c3f80ed5ff769b097f18eac1ddfbe3377eaff129127daf1",
        "csv": "003e1bef041df75f7a39c8b34aadbfc32fb3771505ee18c2c1a4669a8bfce74b",
        "trade_log": "8d408d60407c1dd5cf246974b3236eba780c2b4d230ed34a9f6ed7f4d04f0f34",
    },
    "weibull-round-robin": {
        "json": "05082a0b775e56ada44251015416623fa817c73be343cf0b522ac904ca084a7b",
        "csv": "e428c2ec7cea9ba813b6c77715cb5a7f36d84dd78c6106831e9d692567dc87a3",
        "trade_log": "1ef949c2af3c8b708d63a9b6eda783574b7a0cac35a9e55e759315cee26c8d55",
    },
}


# Environment variables that switch a dispatch path, set only in a child's environment.
DISPATCH_VARIANTS = {
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
LIBM_VARIANT = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX"}

# Largest difference under LIBM_VARIANT, per report field, in ulps of the
# field's own magnitude; every field not listed must be bit-identical.
LIBM_ULP_BOUNDS = {
    "categorical-fixed-sequence": {"events.delta": 2048},
    "weibull-round-robin": {"events.log_loss_before": 1, "events.myopic_impact": 1},
}


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_golden(name: str, directory: str) -> tuple[dict[str, str | None], dict]:
    """Run one golden config; return the sha256 of its three output files and the report."""
    paths = {kind: os.path.join(directory, f"{name}.{kind}")
             for kind in ("json", "csv", "trade_log")}
    report = run_simulation(SimConfig.from_dict(GOLDEN_CONFIGS[name]), trade_log_path=paths["trade_log"])
    emit_report(report, "json", paths["json"])
    emit_report(report, "csv", paths["csv"])
    return {kind: _sha256(path) for kind, path in paths.items()}, report.to_dict()


def score_bits() -> dict[str, list[str]]:
    """``float.hex`` of ``log_density``, ``bregman_divergence`` and ``expected_score`` on 500 seeded draws per family."""
    rng = np.random.default_rng(5)
    out = {"log_density": [], "bregman_divergence": [], "expected_score": []}
    for family_id in SAMPLEABLE_FAMILY_IDS:
        fam = family_from_id(family_id)
        for _ in range(500):
            theta, other = random_natural(fam, rng), random_natural(fam, rng)
            out["log_density"].append(fam.log_density(theta, fam.sample(other, rng)).hex())
            out["bregman_divergence"].append(fam.bregman_divergence(theta, other).hex())
            mu, belief = fam.mean_from_natural(theta), fam.mean_from_natural(other)
            out["expected_score"].append(expected_score(fam, mu, belief).hex())
    return out


def ulp_differences(a, b, field: str = "", out: dict | None = None) -> dict[str, float]:
    """Largest ``|a - b|`` in ulps of ``max(|a|, |b|)`` per field of two equal-shaped reports.

    Field names have at most two parts (``events.delta``, ``aggregates.final_theta``):
    list indices and deeper dict keys such as trader ids fold into them.  Any
    difference in a value that is not a finite float counts as infinite.
    """
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            ulp_differences(a[key], b[key], field if "." in field else f"{field}.{key}".lstrip("."), out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            ulp_differences(x, y, field, out)
    elif isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
        ulps = 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))
        out[field] = max(out.get(field, 0.0), ulps)
    else:
        out[field] = max(out.get(field, 0.0), 0.0 if a == b else math.inf)
    return out


def run_golden_child(env: dict) -> dict:
    """Digests and reports of every golden config, and the score bits, from a child process with ``env`` added."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--json"], capture_output=True,
                          text=True, env={**subprocess_env(), **env}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_golden(name, str(tmp_path))[0] == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("variant", sorted(DISPATCH_VARIANTS))
def test_digests_hold_across_dispatch_paths(variant):
    child = run_golden_child(DISPATCH_VARIANTS[variant])
    assert {name: out["digests"] for name, out in child["goldens"].items()} == GOLDEN_DIGESTS
    assert child["scores"] == score_bits()


def test_libm_variant_stays_within_stated_ulps(tmp_path):
    child = run_golden_child(LIBM_VARIANT)["goldens"]
    assert sorted(child) == sorted(GOLDEN_CONFIGS)
    for name in sorted(GOLDEN_CONFIGS):
        differences = ulp_differences(run_golden(name, str(tmp_path))[1], child[name]["report"])
        bounds = LIBM_ULP_BOUNDS.get(name, {})
        beyond = {field: ulps for field, ulps in differences.items() if ulps > bounds.get(field, 0)}
        assert beyond == {}, f"{name}: fields beyond their bound under {LIBM_VARIANT}"


def _print_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for golden_name in sorted(GOLDEN_CONFIGS):
            print(f'    "{golden_name}": {{')
            for kind, digest in run_golden(golden_name, tmp)[0].items():
                print(f'        "{kind}": ' + ("None" if digest is None else f'"{digest}"') + ",")
            print("    },")


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = {}
            for golden_name in sorted(GOLDEN_CONFIGS):
                digests, report = run_golden(golden_name, tmp)
                outputs[golden_name] = {"digests": digests, "report": report}
        print(json.dumps({"goldens": outputs, "scores": score_bits()}))
    else:
        _print_digests()
