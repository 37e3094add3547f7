"""Golden outputs: pinned sha256 digests of whole simulation runs.

Each pinned config runs ``run_simulation`` with a trade log, then writes
the JSON and the CSV report.  The sha256 of all three files is compared
with the pin, so any change that moves a single byte of a report or a log
fails here.  A change that moves bits on purpose re-pins the affected
config and records in CHANGES.md which config moved, why, and by how many
ulps at most.

Together the configs cover every family, both arrival modes,
``state_reset``, ``inv_liquidity != 1`` (with every trader model, and its
log losses in budget units), a run that aborts with ``valid=false`` before
its first trade settles (its trade log is its header alone) and a
budget-limited trader with positive risk aversion.

Run this file as a script to print the digests of the current code, or
with ``--json`` the digests and reports, plus the bits of the functions
behind the ``score`` command on seeded draws, as one JSON object::

    PYTHONPATH=src python tests/test_golden.py [--json]

The cross-dispatch tests run that script in three child processes, started
together, under environment variables that switch numpy's SIMD loops,
OpenBLAS's kernel and glibc's libm variant.  The first two must not move a
byte of the reports, the logs or the score bits.  glibc's non-FMA libm still rounds some
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

from conftest import ALL_FAMILY_IDS, random_natural, subprocess_env
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
    "categorical-inv-liquidity": {
        "family": "categorical:3",
        "theta0": [0.0, 0.0, 0.0],
        "true_theta": [-0.2, 0.5, -0.3],
        "inv_liquidity": 0.5,
        "rounds": 100,
        "seed": 16,
        "traders": [
            {"id": "bl", "model": "budget-limited", "risk_aversion": 0.5, "budget": 0.3,
             "belief": {"probs": [0.2, 0.5, 0.3]}},
            {"id": "by", "model": "bayesian", "sample": {"mean": {"probs": [0.3, 0.45, 0.25]}, "size": 3.0}},
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.8,
             "belief": {"probs": [0.25, 0.4, 0.35]}},
        ],
    },
    "vmf3-bayesian-exp-utility": {
        "family": "vmf3",
        "theta0": [0.0, 0.0, 0.0],
        "true_theta": [0.5, 1.0, -2.0],
        "rounds": 150,
        "seed": 17,
        "traders": [
            {"id": "by", "model": "bayesian", "sample": {"mean": {"mean": [0.2, 0.3, -0.5]}, "size": 3.0}},
            {"id": "eu", "model": "exp-utility", "risk_aversion": 0.8, "belief": {"mean": [0.1, 0.4, -0.6]}},
        ],
    },
}

GOLDEN_DIGESTS = {
    "bayesian-degenerate-abort": {
        "json": "66d2a12c37e8c33a7bdc9884a7091009b0d1132c73952248037df447e8ecba35",
        "csv": "c16e429ab4c74165674c5f94981bd801a8c92cba37966207d0a7f5e5f20c95fe",
        "trade_log": "1576a088b319a07a953a9b0181f6f59334af1ac7c5797872b2343a9463bca1d8",
    },
    "budget-limited-risk-averse": {
        "json": "2b4cc99689ecc71705a59cbca84076ac3bdc9fe85e41ba6359dc79774b2f5a04",
        "csv": "d50033ada74164f089a071a7c27b6a4150008a865e090c3906b67e6e6dcae2d7",
        "trade_log": "dce9b70f40be4d5bf0b40e591cdda444e891f1e4371f816bacf411693b59befa",
    },
    "categorical-fixed-sequence": {
        "json": "dfbe8214573155e8ea1d99553a44fc7fa44eb04fdeee31c4217bd6e84af17503",
        "csv": "0b20f6d0ed6e45c854e1594d463097de902ececb27dedf79d5bca152a189e8b2",
        "trade_log": "2c45a686e63c8a022eda2663f282f2972c8250dafd3d7a039036f4db397fee4c",
    },
    "categorical-inv-liquidity": {
        "json": "7a45054d5b571bcfa25eb1035191562603aa869e09460c88713e4db66baaa144",
        "csv": "88fb61861a6c39c5062d8fc88a0e4d9aeb06d492ce93b7c81fe09c7f5b354e75",
        "trade_log": "7636bd6f661a1c72b46f3081ce360159963ab9b6b9ebc2727371857670e1192f",
    },
    "exponential-rate-state-reset": {
        "json": "e7d0b1e9116f763460980a0981be8fc96f7fbd48e9a7d5df5adc812819c58728",
        "csv": "453f69283e7e44ba9bec7c732b6021434ed1a4de2818179d09e022cc95e9ca1d",
        "trade_log": "fe69dec7926fab6e39819168fc1d23977a1812899a7001e9cafabb7a3e511d00",
    },
    "gaussian-inv-liquidity": {
        "json": "5848de9044198e250ba15687600e0f17e5933ce32153bc4e0705a1911bc86466",
        "csv": "a4c32097760d5a9c964fca7daa2b119eea2729486171e7d0cb5687340410676b",
        "trade_log": "70a4bc766c16ce762756f116f04db90b9e44aaaaf97a819994e8a485004323c8",
    },
    "vmf3-bayesian-exp-utility": {
        "json": "7518171c3fd716c6b074f4bfe6295879a4e388e162dd5336e8bec095e1969998",
        "csv": "58527f56d7767af59c9304a21da1ae4239d78426c8e807c2ba0be9424075d41a",
        "trade_log": "28cffb64e131f6315cfa96e2e000a26e234656a156c39373b9891bec8f5be516",
    },
    "weibull-round-robin": {
        "json": "05082a0b775e56ada44251015416623fa817c73be343cf0b522ac904ca084a7b",
        "csv": "e428c2ec7cea9ba813b6c77715cb5a7f36d84dd78c6106831e9d692567dc87a3",
        "trade_log": "3f26fdb15f10904c9b94f09efd0f2b60dc030cc79e8a0aee8673759b8e61b013",
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


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_golden(name: str, directory: str) -> tuple[dict[str, str], dict]:
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
    for family_id in ALL_FAMILY_IDS:
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


def start_golden_child(env: dict) -> subprocess.Popen:
    """A child process running this file with ``--json``, with ``env`` added; ``collect`` reads its output."""
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env={**subprocess_env(), **env})


def collect(child: subprocess.Popen) -> dict:
    """Digests and reports of every golden config, and the score bits, as a child printed them."""
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def golden_children():
    """One child per dispatch variant and one under the libm variant, all started together.

    Each child computes everything before it prints, so they run side by side while each test collects its own.
    """
    children = {name: start_golden_child(env) for name, env in DISPATCH_VARIANTS.items()}
    children["libm"] = start_golden_child(LIBM_VARIANT)
    yield children
    for child in children.values():
        child.kill()
        child.communicate()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_golden(name, str(tmp_path))[0] == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("variant", sorted(DISPATCH_VARIANTS))
def test_digests_hold_across_dispatch_paths(variant, golden_children):
    child = collect(golden_children[variant])
    assert {name: out["digests"] for name, out in child["goldens"].items()} == GOLDEN_DIGESTS
    assert child["scores"] == score_bits()


def test_libm_variant_stays_within_stated_ulps(tmp_path, golden_children):
    child = collect(golden_children["libm"])["goldens"]
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
                print(f'        "{kind}": "{digest}",')
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
