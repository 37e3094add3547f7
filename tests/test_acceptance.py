"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible under ``pytest -s``).

Criteria and pinned tolerances:

 1. gradient/conjugacy     -- grad T vs central differences (rel 1e-6),
                              natural<->mean round trips (1e-8), < 5 s.
 2. properness             -- expected score maximized at the belief mean
                              over a 200-point report grid, within one
                              grid cell, for three belief shapes, < 10 s.
 3. score closed forms     -- mean rule exact to 1e-10; k-th-moment rule
                              equal up to one affine map, constant over a
                              50x50 grid (1e-10).
 4. KL-profit identity     -- risk-neutral expected profit == divergence
                              (1e-10) == numeric KL (1e-4), 20 pairs.
 5. utility optimality     -- closed-form trade beats a 1000-point grid of
                              alternatives (50 configs), first-order
                              residual <= 1e-8, < 30 s.
 6. repeated entry         -- two-trade trajectory == effective-belief
                              trajectory (1e-10), 50 cases.
 7. equilibrium            -- best response converges to the closed form
                              (1e-6, 25 problems), potential never
                              decreases, no deviation gains > 1e-8.
 8. damage bound           -- paired 200-round runs: excess log loss ==
                              adversary budget spent (1e-9) and <= budget;
                              < 5 s per run.
 9. profit growth          -- analytic bound on 100 random segment moves;
                              realized mean profit positive at 3 sigma
                              over 30 seeds x 500 rounds.
10. determinism & replay   -- byte-identical reports for equal seeds;
                              replay reconstructs final state bit-for-bit
                              on 10 random simulations.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ALL_FAMILY_IDS, central_diff_grad, kl_quadrature, random_natural
from expfam_markets import (
    Categorical,
    EquilibriumProblem,
    Market,
    SimConfig,
    TraderProfile,
    best_response_dynamics,
    certainty_equivalent,
    closed_form_equilibrium,
    effective_belief,
    exp_utility_trade,
    expected_profit_bound,
    family_from_id,
    log_score,
    potential,
    read_trade_log,
    replay,
    run_simulation,
)

GRAD_RTOL = 1e-6
ROUNDTRIP_ATOL = 1e-8
SCORE_EXACT_ATOL = 1e-10
AFFINE_ATOL = 1e-10
PROFIT_DIVERGENCE_ATOL = 1e-10
KL_QUADRATURE_ATOL = 1e-4
FOC_TOL = 1e-8
REENTRY_ATOL = 1e-10
EQUILIBRIUM_ATOL = 1e-6
DEVIATION_TOL = 1e-8
DAMAGE_IDENTITY_ATOL = 1e-9


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_1_gradient_and_conjugacy():
    with criterion(1, "gradient/conjugacy"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for fid in ALL_FAMILY_IDS:
            fam = family_from_id(fid)
            for _ in range(100):
                theta = random_natural(fam, rng)
                numeric = central_diff_grad(fam.log_partition, theta)
                np.testing.assert_allclose(
                    fam.mean_from_natural(theta), numeric, rtol=GRAD_RTOL, atol=1e-8,
                    err_msg=f"{fid}: gradient vs finite differences at {theta}",
                )
                back = fam.natural_from_mean(fam.mean_from_natural(theta))
                expect = theta - np.mean(theta) if isinstance(fam, Categorical) else theta
                np.testing.assert_allclose(back, expect, rtol=0, atol=ROUNDTRIP_ATOL,
                                           err_msg=f"{fid}: round trip at {theta}")
        assert time.monotonic() - start < 5.0


def test_criterion_2_properness_of_the_mean_rule():
    with criterion(2, "properness"):
        start = time.monotonic()
        xs = np.linspace(1e-4, 80.0, 40_000)
        dx = xs[1] - xs[0]

        exp_rate = 0.8
        weib_scale = 1.6  # shape fixed at 2
        beliefs = {
            "exponential": np.exp(-exp_rate * xs) * exp_rate,
            "weibull-shape-2": (2.0 / weib_scale) * (xs / weib_scale) * np.exp(-((xs / weib_scale) ** 2)),
            "lognormal": np.exp(-((np.log(xs) - 0.3) ** 2) / (2 * 0.5**2)) / (xs * 0.5 * math.sqrt(2 * math.pi)),
        }
        reports = np.linspace(0.1, 8.0, 200)
        cell = reports[1] - reports[0]
        for name, pdf in beliefs.items():
            weights = pdf * dx
            weights = weights / weights.sum()
            grid_mean = float(weights @ xs)
            expected = [-grid_mean / r - math.log(r) for r in reports]
            best = reports[int(np.argmax(expected))]
            assert abs(best - grid_mean) <= cell, (
                f"{name}: argmax report {best} vs grid mean {grid_mean}"
            )
        assert time.monotonic() - start < 10.0


def test_criterion_3_closed_form_score_agreement():
    with criterion(3, "score closed forms"):
        expo = family_from_id("exponential-rate")
        mus = np.linspace(0.15, 9.0, 50)
        outcomes = np.linspace(0.02, 15.0, 50)
        for mu in mus:
            for x in outcomes:
                assert abs(log_score(expo, mu, x) - (-x / mu - math.log(mu))) <= SCORE_EXACT_ATOL

        k = 2.0
        fam = family_from_id("weibull-moment:2")
        g = math.gamma(1.0 + 1.0 / k)

        def display(m, x):
            return (k - 1.0) * math.log(x) - k * math.log(m) - (g**k) * (x / m) ** k

        ours = np.array([[log_score(fam, mu, x) for mu in mus] for x in outcomes])
        shown = np.array([[display(g * mu ** (1.0 / k), x) for mu in mus] for x in outcomes])
        # discover the affine map once, from the first outcome row...
        scale = (shown[0, -1] - shown[0, 0]) / (ours[0, -1] - ours[0, 0])
        offsets = shown[:, 0] - scale * ours[:, 0]  # one outcome-dependent shift per row
        # ...then assert it is the same map across the whole grid
        residual = shown - (scale * ours + offsets[:, None])
        assert np.max(np.abs(residual)) <= AFFINE_ATOL
        assert scale == pytest.approx(1.0, abs=1e-9)


def test_criterion_4_kl_profit_identity():
    with criterion(4, "KL-profit identity"):
        rng = np.random.default_rng(104)
        for fid in ("exponential-rate", "gaussian-moments"):
            fam = family_from_id(fid)
            for _ in range(20):
                theta = random_natural(fam, rng)
                theta_prime = random_natural(fam, rng)
                market = Market(fam, theta)
                mu_prime = fam.mean_from_natural(theta_prime)
                profit = float(np.dot(theta_prime - theta, mu_prime)) - market.quote(theta_prime - theta)
                divergence = fam.bregman_divergence(theta, theta_prime)
                assert abs(profit - divergence) <= PROFIT_DIVERGENCE_ATOL
                assert abs(profit - kl_quadrature(fam, theta_prime, theta)) <= KL_QUADRATURE_ATOL
        # worked value: moving unit-rate shares to rate two
        expo = family_from_id("exponential-rate")
        assert expo.bregman_divergence(-1.0, -2.0) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-12
        )


def test_criterion_5_exponential_utility_optimality():
    with criterion(5, "utility optimality"):
        start = time.monotonic()
        rng = np.random.default_rng(105)
        fams = [family_from_id(f) for f in
                ("exponential-rate", "gaussian-moments", "weibull-moment:2", "categorical:3")]
        for case in range(50):
            fam = fams[case % len(fams)]
            lam = (0.5, 1.0, 2.0)[case % 3]
            a = (0.1, 1.0, 10.0)[(case // 3) % 3]
            theta = random_natural(fam, rng) / lam
            market = Market(fam, theta, inv_liquidity=lam)
            trader = TraderProfile(id="t", belief_theta=random_natural(fam, rng), risk_aversion=a)
            delta_star = exp_utility_trade(market, trader)

            # first-order condition: belief-side and market-side price match
            lhs = fam.mean_from_natural(trader.belief_theta - a * delta_star)
            rhs = fam.mean_from_natural(lam * (market.theta + delta_star))
            np.testing.assert_allclose(lhs, rhs, rtol=FOC_TOL, atol=1e-10)

            ce_star = certainty_equivalent(market, trader, delta_star)
            span = 0.5 * (1.0 + float(np.linalg.norm(delta_star)))
            if fam.dim == 1:
                candidates = delta_star[None, :] + np.linspace(-span, span, 1000)[:, None]
            else:
                candidates = delta_star[None, :] + rng.uniform(-span, span, (1000, fam.dim))
            for cand in candidates:
                if not fam.natural_in_domain(lam * (market.theta + cand), margin=1e-9):
                    continue
                if not fam.natural_in_domain(trader.belief_theta - a * cand, margin=1e-9):
                    continue
                assert certainty_equivalent(market, trader, cand) <= ce_star + 1e-10
        assert time.monotonic() - start < 30.0


def test_criterion_6_repeated_entry_equivalence():
    with criterion(6, "repeated entry"):
        rng = np.random.default_rng(106)
        fams = [family_from_id(f) for f in
                ("exponential-rate", "gaussian-moments", "weibull-moment:2", "categorical:2")]
        for case in range(50):
            fam = fams[case % len(fams)]
            theta0 = random_natural(fam, rng)
            belief = random_natural(fam, rng)
            a = float(rng.uniform(0.2, 3.0))

            market_a = Market(fam, theta0)
            trader = TraderProfile(id="t", belief_theta=belief, risk_aversion=a)
            rec1 = market_a.execute(exp_utility_trade(market_a, trader))
            shove = 0.3 * (random_natural(fam, rng) - market_a.theta)
            market_a.execute(shove)
            trader.holdings = rec1.delta
            market_a.execute(exp_utility_trade(
                market_a, TraderProfile(id="t", belief_theta=effective_belief(fam, trader),
                                        risk_aversion=a)))

            market_b = Market(fam, theta0)
            market_b.execute(rec1.delta)
            market_b.execute(shove)
            fresh = TraderProfile(id="fresh", belief_theta=belief - a * rec1.delta, risk_aversion=a)
            market_b.execute(exp_utility_trade(market_b, fresh))

            np.testing.assert_allclose(market_a.theta, market_b.theta, rtol=0, atol=REENTRY_ATOL)


def test_criterion_7_equilibrium():
    with criterion(7, "equilibrium"):
        rng = np.random.default_rng(107)
        fams = [family_from_id(f) for f in
                ("exponential-rate", "gaussian-moments", "categorical:3", "weibull-moment:2", "vmf3")]
        for case in range(25):
            fam = fams[case % len(fams)]
            n_traders = int(rng.integers(2, 11))
            problem = EquilibriumProblem(
                family=fam,
                theta0=random_natural(fam, rng),
                beliefs=[random_natural(fam, rng) for _ in range(n_traders)],
                risk_aversions=[float(rng.uniform(0.2, 4.0)) for _ in range(n_traders)],
            )
            theta_eq, deltas_eq = closed_form_equilibrium(problem)
            result = best_response_dynamics(problem)
            np.testing.assert_allclose(result.theta_eq, theta_eq, rtol=0, atol=EQUILIBRIUM_ATOL)
            for got, want in zip(result.deltas, deltas_eq):
                np.testing.assert_allclose(got, want, rtol=0, atol=EQUILIBRIUM_ATOL)
            trace = np.asarray(result.potentials)
            assert np.all(np.diff(trace) >= -1e-12)

            # a unilateral deviation changes the deviator's log-utility by
            # exactly the potential change, so gains are read off the
            # potential (which needs no residual-state evaluation)
            base = potential(problem, result.deltas)
            for i in range(n_traders):
                for _ in range(20):
                    deviated = [d.copy() for d in result.deltas]
                    deviated[i] = deviated[i] + rng.uniform(-0.3, 0.3, fam.dim)
                    if not fam.natural_in_domain(problem.theta0 + sum(deviated)):
                        continue
                    if not fam.natural_in_domain(
                        problem.beliefs[i] - problem.risk_aversions[i] * deviated[i]
                    ):
                        continue
                    assert potential(problem, deviated) <= base + DEVIATION_TOL


def _damage_config(budget: float | None, seed: int) -> dict:
    fam = family_from_id("categorical:2")
    traders = [{
        "id": "informed", "model": "exp-utility", "risk_aversion": 1.0,
        "belief": {"probs": [0.7, 0.3]},
    }]
    sequence = ["informed"]
    if budget is not None:
        traders.append({
            "id": "adversary", "model": "budget-limited", "budget": budget,
            "belief": {"probs": [0.05, 0.95]},
        })
        sequence.append("adversary")
    return {
        "family": "categorical:2",
        "theta0": [0.0, 0.0],
        "true_theta": [float(v) for v in fam.natural_from_mean([0.7, 0.3])],
        "rounds": 200,
        "seed": seed,
        "arrival": "fixed-sequence",
        "sequence": sequence,
        "traders": traders,
        "state_reset": True,
    }


def test_criterion_8_damage_bound():
    with criterion(8, "damage bound"):
        seed = 8808
        start = time.monotonic()
        baseline = run_simulation(SimConfig.from_dict(_damage_config(None, seed)))
        assert time.monotonic() - start < 5.0
        for alpha in (0.1, 0.5, 2.0):
            start = time.monotonic()
            attacked = run_simulation(SimConfig.from_dict(_damage_config(alpha, seed)))
            assert time.monotonic() - start < 5.0
            assert attacked.valid and baseline.valid
            # paired runs share the outcome stream byte for byte
            assert [ev.outcome for ev in baseline.events] == [
                ev.outcome for ev in attacked.events if ev.trader_id == "informed"
            ]
            excess = attacked.aggregates["total_log_loss"] - baseline.aggregates["total_log_loss"]
            spent = -attacked.aggregates["per_trader_impact"]["adversary"]
            final_budget = attacked.aggregates["final_budgets"]["adversary"]
            assert abs(excess - spent) <= DAMAGE_IDENTITY_ATOL  # accounting identity
            assert excess <= alpha + DAMAGE_IDENTITY_ATOL       # bounded by the budget
            assert final_budget >= 0.0                          # never goes broke
            assert final_budget == pytest.approx(alpha - spent, abs=DAMAGE_IDENTITY_ATOL)


def test_criterion_9_profit_growth():
    with criterion(9, "profit growth"):
        # analytic half: the segment-move profit bound on random triples
        rng = np.random.default_rng(109)
        fams = [family_from_id(f) for f in
                ("exponential-rate", "gaussian-moments", "weibull-moment:2", "categorical:3")]
        for case in range(100):
            fam = fams[case % len(fams)]
            theta = random_natural(fam, rng)
            belief = random_natural(fam, rng)
            fraction = float(rng.uniform(0.0, 1.0))
            market = Market(fam, theta)
            trader = TraderProfile(id="t", belief_theta=belief)
            profit, bound = expected_profit_bound(market, trader, fraction * (belief - theta))
            assert profit >= bound - 1e-10
            assert bound >= -1e-12

        # Monte-Carlo half: an informative budget-limited trader's budget drifts up
        per_seed_means = []
        for seed in range(30):
            cfg = {
                "family": "categorical:2",
                "theta0": [0.0, 0.0],
                "true_theta": [float(v) for v in
                               family_from_id("categorical:2").natural_from_mean([0.75, 0.25])],
                "rounds": 500,
                "seed": seed,
                "traders": [{
                    "id": "informed", "model": "budget-limited", "budget": 0.3,
                    "belief": {"probs": [0.75, 0.25]},
                }],
                "state_reset": True,
            }
            report = run_simulation(SimConfig.from_dict(cfg))
            assert report.valid
            per_seed_means.append(report.aggregates["per_trader_impact"]["informed"] / 500.0)
        per_seed_means = np.asarray(per_seed_means)
        mean = float(np.mean(per_seed_means))
        stderr = float(np.std(per_seed_means, ddof=1)) / math.sqrt(len(per_seed_means))
        assert mean > 3.0 * stderr, f"mean per-round profit {mean} not positive at 3 sigma ({stderr})"


def _random_sim_config(rng: np.random.Generator, index: int) -> dict:
    fid = ("categorical:2", "categorical:4", "exponential-rate",
           "gaussian-moments", "weibull-moment:2")[index % 5]
    fam = family_from_id(fid)
    theta0 = random_natural(fam, rng)
    true_theta = random_natural(fam, rng)
    traders = []
    for t in range(int(rng.integers(1, 4))):
        model = ("risk-neutral", "exp-utility", "budget-limited", "bayesian")[int(rng.integers(0, 4))]
        spec = {"id": f"t{t}", "model": model}
        if model == "bayesian":
            spec["sample"] = {
                "mean": [float(v) for v in fam.mean_from_natural(random_natural(fam, rng))],
                "size": float(rng.uniform(0.5, 4.0)),
            }
        else:
            spec["belief"] = {"theta": [float(v) for v in random_natural(fam, rng)]}
            if model == "exp-utility":
                spec["risk_aversion"] = float(rng.uniform(0.1, 3.0))
            if model == "budget-limited":
                spec["budget"] = float(rng.uniform(0.1, 2.0))
        traders.append(spec)
    return {
        "family": fid,
        "theta0": [float(v) for v in theta0],
        "true_theta": [float(v) for v in true_theta],
        "rounds": int(rng.integers(5, 31)),
        "seed": int(rng.integers(0, 2**32)),
        "arrival": ("round-robin", "fixed-sequence")[int(rng.integers(0, 2))],
        "traders": traders,
    }


def test_criterion_10_determinism_and_replay(tmp_path):
    with criterion(10, "determinism & replay"):
        rng = np.random.default_rng(110)
        for index in range(10):
            raw = _random_sim_config(rng, index)
            config = SimConfig.from_dict(raw)
            log_path = str(tmp_path / f"trades_{index}.jsonl")
            report_a = run_simulation(SimConfig.from_dict(raw), trade_log_path=log_path)
            report_b = run_simulation(config)
            assert report_a.to_json() == report_b.to_json()
            assert report_a.valid, f"simulation {index} aborted: {report_a.error}"

            state0 = Market(config.family, config.theta0, config.inv_liquidity).state_dict()
            rebuilt = replay(read_trade_log(log_path), state0)
            assert rebuilt.state_dict()["theta"] == report_a.aggregates["final_theta"]
            assert rebuilt.n_trades == report_a.aggregates["n_trades"]
            assert rebuilt.revenue == report_a.aggregates["revenue"]

            parsed = json.loads(report_a.to_json())
            assert parsed["aggregates"]["final_theta"] == report_a.aggregates["final_theta"]
