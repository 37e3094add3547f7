"""Equilibrium contracts: potential identity, closed form, best response."""

import numpy as np
import pytest

from conftest import central_diff_grad, random_natural
from expfam_markets import equilibrium, traders
from expfam_markets import (
    ConvergenceError,
    DomainError,
    EquilibriumProblem,
    best_response_dynamics,
    closed_form_equilibrium,
    family_from_id,
    log_utility,
    potential,
)

EXPO = family_from_id("exponential-rate")


def random_problem(fam, rng, n_traders):
    return EquilibriumProblem(
        family=fam,
        theta0=random_natural(fam, rng),
        beliefs=[random_natural(fam, rng) for _ in range(n_traders)],
        risk_aversions=[float(rng.uniform(0.2, 4.0)) for _ in range(n_traders)],
    )


class TestPotential:
    def test_no_traders(self):
        problem = EquilibriumProblem(EXPO, -1.0, [], [])
        assert potential(problem, []) == pytest.approx(-EXPO.log_partition(-1.0), abs=1e-15)

    def test_unilateral_difference_equals_utility_difference(self, family):
        rng = np.random.default_rng(3)

        def in_domain(problem, allocation):
            total = problem.theta0 + sum(allocation)
            if not family.natural_in_domain(total):
                return False
            return all(
                family.natural_in_domain(b - a * d)
                for b, a, d in zip(problem.beliefs, problem.risk_aversions, allocation)
            )

        checked = 0
        while checked < 20:
            problem = random_problem(family, rng, 3)
            deltas = [0.1 * (random_natural(family, rng) - problem.theta0) for _ in range(3)]
            i = int(rng.integers(0, 3))
            deviated = [d.copy() for d in deltas]
            deviated[i] = 0.1 * (random_natural(family, rng) - problem.theta0)
            if not (in_domain(problem, deltas) and in_domain(problem, deviated)):
                continue
            lhs = potential(problem, deltas) - potential(problem, deviated)
            rhs = log_utility(problem, deltas, i) - log_utility(problem, deviated, i)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            checked += 1

    def test_stationary_at_single_trader_optimum(self):
        problem = EquilibriumProblem(EXPO, -1.0, [np.array([-3.0])], [1.0])
        delta_star = (problem.beliefs[0] - problem.theta0) / 2.0

        def phi_of_delta(d):
            return potential(problem, [d])

        grad = central_diff_grad(phi_of_delta, delta_star, h=1e-6)
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)


class TestClosedForm:
    def test_single_unit_aversion_trader_is_midpoint(self):
        problem = EquilibriumProblem(EXPO, -1.0, [np.array([-3.0])], [1.0])
        theta_eq, deltas = closed_form_equilibrium(problem)
        assert theta_eq[0] == pytest.approx(-2.0, abs=1e-12)
        assert deltas[0][0] == pytest.approx(-1.0, abs=1e-12)

    def test_two_symmetric_categorical_traders(self):
        fam = family_from_id("categorical:2")
        problem = EquilibriumProblem(
            fam, [0.0, 0.0], [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [1.0, 1.0]
        )
        theta_eq, _ = closed_form_equilibrium(problem)
        np.testing.assert_allclose(theta_eq, [1 / 3, 1 / 3], atol=1e-12)

    def test_agreeing_traders_stand_pat(self, family):
        rng = np.random.default_rng(5)
        theta0 = random_natural(family, rng)
        problem = EquilibriumProblem(family, theta0, [theta0.copy(), theta0.copy()], [0.7, 2.0])
        theta_eq, deltas = closed_form_equilibrium(problem)
        np.testing.assert_allclose(theta_eq, theta0, atol=1e-12)
        for d in deltas:
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_allocations_sum_to_state_move(self, family):
        rng = np.random.default_rng(7)
        problem = random_problem(family, rng, 4)
        theta_eq, deltas = closed_form_equilibrium(problem)
        np.testing.assert_allclose(problem.theta0 + sum(deltas), theta_eq, atol=1e-10)

    @pytest.mark.parametrize("risk_aversion", [0.0, 1e-310, 5e-324])  # the last two: 1/a overflows
    def test_risk_neutral_trader_rejected(self, risk_aversion):
        with pytest.raises(DomainError):
            EquilibriumProblem(EXPO, -1.0, [np.array([-2.0])], [risk_aversion])

    def test_unequal_list_lengths_rejected(self):
        with pytest.raises(DomainError, match="equal length"):
            EquilibriumProblem(EXPO, -1.0, [np.array([-2.0])], [1.0, 2.0])

    def test_wrong_number_of_allocations_rejected(self):
        problem = EquilibriumProblem(EXPO, -1.0, [np.array([-2.0])], [1.0])
        with pytest.raises(DomainError, match="expected 1 allocations, got 2"):
            potential(problem, [[0.1], [0.2]])


class TestBestResponse:
    def test_single_trader_converges_in_one_sweep(self):
        problem = EquilibriumProblem(EXPO, -1.0, [np.array([-3.0])], [1.0])
        result = best_response_dynamics(problem)
        assert result.sweeps <= 2  # one sweep to land, one to observe no move
        assert result.theta_eq[0] == pytest.approx(-2.0, abs=1e-10)

    def test_matches_closed_form(self, family):
        rng = np.random.default_rng(11)
        for n_traders in (2, 4, 7):
            problem = random_problem(family, rng, n_traders)
            theta_eq, deltas = closed_form_equilibrium(problem)
            result = best_response_dynamics(problem)
            np.testing.assert_allclose(result.theta_eq, theta_eq, atol=1e-6)
            for got, want in zip(result.deltas, deltas):
                np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e3])
    def test_stop_is_relative_to_the_problems_scale(self, scale):
        # An absolute stop (largest move < 1e-10) ends the 1e-6 problem after 8 sweeps, 1.5e-5 off the closed form.
        beliefs = [np.array([-3.0]) * scale, np.array([-1.0]) * scale]
        problem = EquilibriumProblem(EXPO, -1.0 * scale, beliefs, [1.0, 1.0])
        theta_eq, deltas = closed_form_equilibrium(problem)
        result = best_response_dynamics(problem)
        assert result.sweeps == 18
        for got, want in zip([result.theta_eq, *result.deltas], [theta_eq, *deltas]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_each_response_is_the_engines_move_at_the_residual_state(self, monkeypatch):
        # One decision rule: every response is traders._exp_utility_move at unit liquidity, at the market with the
        # trader's own position removed, called once per trader per sweep.
        problem = random_problem(family_from_id("gaussian-moments"), np.random.default_rng(29), 3)
        calls = []

        def move(theta, lam, theta_hat, a):
            calls.append((np.array(theta), lam, theta_hat, a))
            return real(theta, lam, theta_hat, a)

        real = equilibrium._exp_utility_move
        monkeypatch.setattr(equilibrium, "_exp_utility_move", move)
        result = best_response_dynamics(problem)
        assert len(calls) == 3 * result.sweeps
        for (_, lam, theta_hat, a), i in zip(calls, [0, 1, 2] * result.sweeps):
            assert (lam, a) == (1.0, problem.risk_aversions[i]) and theta_hat is problem.beliefs[i]
        theta_rest, _, theta_hat, a = calls[-1]
        assert result.deltas[2].tolist() == traders._exp_utility_move(theta_rest, 1.0, theta_hat, a).tolist()
        assert (theta_rest + result.deltas[2]).tolist() == result.theta_eq.tolist()

    def test_trader_order_does_not_matter(self):
        rng = np.random.default_rng(13)
        problem = random_problem(EXPO, rng, 5)
        permuted = EquilibriumProblem(
            EXPO, problem.theta0,
            list(reversed(problem.beliefs)), list(reversed(problem.risk_aversions)),
        )
        a = best_response_dynamics(problem)
        b = best_response_dynamics(permuted)
        np.testing.assert_allclose(a.theta_eq, b.theta_eq, atol=1e-6)

    def test_potential_non_decreasing(self, family):
        rng = np.random.default_rng(17)
        problem = random_problem(family, rng, 5)
        result = best_response_dynamics(problem)
        trace = np.asarray(result.potentials)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_convergence_error_on_tiny_budget(self, monkeypatch):
        rng = np.random.default_rng(19)
        problem = random_problem(EXPO, rng, 4)
        monkeypatch.setattr(equilibrium, "_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="within 1 sweeps"):
            best_response_dynamics(problem)

    def test_no_profitable_unilateral_deviation(self, family):
        rng = np.random.default_rng(23)
        problem = random_problem(family, rng, 3)
        result = best_response_dynamics(problem)
        total = problem.theta0 + sum(result.deltas)
        base = [None] * 3
        for i in range(3):
            # log-utility needs the market-without-trader-i state to be
            # valid; when it is not, deviation gains are still measured
            # exactly by the potential, tested elsewhere
            if family.natural_in_domain(total - result.deltas[i]):
                base[i] = log_utility(problem, result.deltas, i)
        for i in range(3):
            if base[i] is None:
                continue
            for _ in range(50):
                deviated = [d.copy() for d in result.deltas]
                deviated[i] = deviated[i] + rng.uniform(-0.4, 0.4, family.dim)
                total = problem.theta0 + sum(deviated)
                if not family.natural_in_domain(total):
                    continue
                if not family.natural_in_domain(
                    problem.beliefs[i] - problem.risk_aversions[i] * deviated[i]
                ):
                    continue
                assert log_utility(problem, deviated, i) <= base[i] + 1e-8


class TestWeightSemantics:
    def test_doubling_aversion_pulls_toward_initial_state(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            theta0 = random_natural(EXPO, rng)
            beliefs = [random_natural(EXPO, rng) for _ in range(3)]
            aversions = [float(rng.uniform(0.3, 2.0)) for _ in range(3)]
            eq1, _ = closed_form_equilibrium(EquilibriumProblem(EXPO, theta0, beliefs, aversions))
            eq2, _ = closed_form_equilibrium(
                EquilibriumProblem(EXPO, theta0, beliefs, [2 * a for a in aversions])
            )
            tolerance_avg = sum(b / a for b, a in zip(beliefs, aversions)) / sum(1 / a for a in aversions)
            if abs(tolerance_avg[0] - theta0[0]) < 1e-9:
                continue
            gap1 = abs(eq1[0] - theta0[0])
            gap2 = abs(eq2[0] - theta0[0])
            assert gap2 < gap1
            # still on the segment from theta0 to the weighted belief average
            assert (eq2[0] - theta0[0]) * (tolerance_avg[0] - theta0[0]) > 0
