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

Run this file as a script to print the digests of the current code::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import pytest

from expfam_markets import SimConfig, emit_report, run_simulation

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
        "json": "17cbc3c4bf3ea5c9e9d2598f75a4861e39123f7a78c9da70675c4368c22e1619",
        "csv": "5fa1867c06e9c56ea8f79b6064a9446c8e34d27e626001f6f1d1f9198686c059",
        "trade_log": "7d17e21978bc777d7a273e4667296508b82aea4e0708a453bdcbbec9891a4950",
    },
    "exponential-rate-state-reset": {
        "json": "395314656a48ed7bb75a994a9b961fcdfbb8b4a6cbada6c4a42c5b07d590adb3",
        "csv": "9742ee06a18c92b9133f2da71d3f515fb53d7861bdd65815d308f238727dd632",
        "trade_log": "87351f1eea93041f8fcc85ab8f5dd40c1aa4207ed9e4ff84067bff7c56d9c195",
    },
    "gaussian-inv-liquidity": {
        "json": "e447370cc162a358adc354713cfbbe68c993d7257648d508fd7ff5c389e0d265",
        "csv": "9032d17a49d1a1bdaee66fe4ca3d81bf44e6f23c578aaa26d8a8f4f8a2e126e3",
        "trade_log": "8d408d60407c1dd5cf246974b3236eba780c2b4d230ed34a9f6ed7f4d04f0f34",
    },
    "weibull-round-robin": {
        "json": "9dc28984138d4386a6df370b2fe9d715a2e728e5e2fae4a5978e25b2d23416cb",
        "csv": "22b25feb7428edef0ee1c9c5084a0e66c207c8c67781dfdd31dd96982b021409",
        "trade_log": "1ef949c2af3c8b708d63a9b6eda783574b7a0cac35a9e55e759315cee26c8d55",
    },
}


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_digests(name: str, directory: str) -> dict[str, str | None]:
    """Run one golden config and return the sha256 of its three output files."""
    paths = {kind: os.path.join(directory, f"{name}.{kind}")
             for kind in ("json", "csv", "trade_log")}
    report = run_simulation(SimConfig.from_dict(GOLDEN_CONFIGS[name]), trade_log_path=paths["trade_log"])
    emit_report(report, "json", paths["json"])
    emit_report(report, "csv", paths["csv"])
    return {kind: _sha256(path) for kind, path in paths.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(name, str(tmp_path)) == GOLDEN_DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for golden_name in sorted(GOLDEN_CONFIGS):
            print(f'    "{golden_name}": {{')
            for kind, digest in run_digests(golden_name, tmp).items():
                print(f'        "{kind}": ' + ("None" if digest is None else f'"{digest}"') + ",")
            print("    },")
