"""Scoring-rule contracts: closed forms, properness, regret identities."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import random_mean, random_natural
from expfam_markets import (
    DomainError,
    expected_score,
    family_from_id,
    log_score,
    moments_from_mean_variance,
    score_regret,
)

EXPO = family_from_id("exponential-rate")


def mean_score_closed_form(mu: float, x: float) -> float:
    """The textbook mean-elicitation rule on the positive half line."""
    return -x / mu - math.log(mu)


def kth_moment_score_display(k: float, m: float, x: float) -> float:
    """The shape-k rule written in terms of the implied distribution mean."""
    g = math.gamma(1.0 + 1.0 / k)
    return (k - 1.0) * math.log(x) - k * math.log(m) - (g**k) * (x / m) ** k


class TestClosedForms:
    def test_mean_rule_worked_values(self):
        assert log_score(EXPO, 2.0, 2.0) == pytest.approx(-1.0 - math.log(2.0), abs=1e-12)
        assert log_score(EXPO, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_mean_rule_matches_closed_form_on_grid(self):
        for mu in np.linspace(0.1, 10.0, 25):
            for x in np.linspace(0.0, 20.0, 25):
                assert log_score(EXPO, mu, x) == pytest.approx(
                    mean_score_closed_form(mu, x), abs=1e-10
                )

    def test_weibull_order_one_equals_mean_rule(self):
        weib = family_from_id("weibull-moment:1")
        for mu in np.linspace(0.2, 5.0, 10):
            for x in np.linspace(0.0, 8.0, 10):
                assert log_score(weib, mu, x) == pytest.approx(log_score(EXPO, mu, x), abs=1e-10)

    def test_weibull_display_differs_by_outcome_only_term(self):
        # Reparametrize the report as the implied distribution mean
        # m = Gamma(1 + 1/k) * mu^(1/k); the display then differs from the
        # raw log density by (k-1) log x - k log Gamma(1+1/k) - log k,
        # independent of the report.
        k = 2.0
        fam = family_from_id(f"weibull-moment:{k:g}")
        g = math.gamma(1.0 + 1.0 / k)
        for x in (0.3, 1.0, 2.7):
            expected_offset = (k - 1.0) * math.log(x) - k * math.log(g) - math.log(k)
            for mu in (0.4, 1.0, 3.0):
                m = g * mu ** (1.0 / k)
                offset = kth_moment_score_display(k, m, x) - log_score(fam, mu, x)
                assert offset == pytest.approx(expected_offset, abs=1e-10)

    def test_gaussian_affine_equivalence(self):
        # Raw log density = 0.5 * display - 0.5 * log(2*pi); the discovered
        # constants (scale 1/2, shift -log(2*pi)/2) hold across the grid.
        fam = family_from_id("gaussian-moments")
        shift = -0.5 * math.log(2.0 * math.pi)
        for mean in (-1.0, 0.0, 2.0):
            for var in (0.5, 1.0, 3.0):
                mu = moments_from_mean_variance(mean, var)
                display = lambda x: -((x - mean) ** 2) / var - math.log(var)
                offsets = [log_score(fam, mu, x) - 0.5 * display(x) for x in np.linspace(-4, 6, 21)]
                np.testing.assert_allclose(offsets, shift, atol=1e-12)


class TestExpectedScore:
    def test_truthful_report_value(self):
        assert expected_score(EXPO, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_misreport_value(self):
        assert expected_score(EXPO, 2.0, 1.0) == pytest.approx(-0.5 - math.log(2.0), abs=1e-12)

    def test_matches_quadrature_against_exponential_belief(self):
        for report in (0.5, 1.0, 2.0, 3.5):
            val, _ = integrate.quad(
                lambda x: mean_score_closed_form(report, x) * math.exp(-x), 0.0, 60.0
            )
            assert expected_score(EXPO, report, 1.0) == pytest.approx(val, abs=1e-8)

    def test_truth_is_maximal_over_report_grid(self):
        belief = 1.7
        truthful = expected_score(EXPO, belief, belief)
        for report in np.linspace(0.2, 6.0, 80):
            assert expected_score(EXPO, report, belief) <= truthful + 1e-12

    def test_linear_in_belief_mean(self, family):
        rng = np.random.default_rng(3)
        for _ in range(20):
            report = random_mean(family, rng)
            mu_a = random_mean(family, rng)
            mu_b = random_mean(family, rng)
            t = rng.uniform(0.0, 1.0)
            blended = expected_score(family, report, t * mu_a + (1 - t) * mu_b)
            parts = t * expected_score(family, report, mu_a) + (1 - t) * expected_score(family, report, mu_b)
            assert blended == pytest.approx(parts, abs=1e-10)

    def test_boundary_belief_mean_accepted(self):
        # Empirical means may sit on the boundary; only the report must be
        # interior.
        assert math.isfinite(expected_score(EXPO, 1.0, 0.0))
        cat = family_from_id("categorical:2")
        assert math.isfinite(expected_score(cat, [0.5, 0.5], [1.0, 0.0]))


class TestScoreRegret:
    def test_zero_for_truthful_report(self):
        assert score_regret(EXPO, 1.3, 1.3) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self):
        assert score_regret(EXPO, 1.0, 2.0) == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    def test_equals_bregman_divergence(self, family):
        rng = np.random.default_rng(5)
        for _ in range(20):
            belief_theta = random_natural(family, rng)
            report_theta = random_natural(family, rng)
            belief_mu = family.mean_from_natural(belief_theta)
            report_mu = family.mean_from_natural(report_theta)
            regret = score_regret(family, belief_mu, report_mu)
            divergence = family.bregman_divergence(
                family.natural_from_mean(report_mu), family.natural_from_mean(belief_mu)
            )
            assert regret == pytest.approx(divergence, abs=1e-9)

    def test_strictly_positive_for_misreports(self, family):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            belief = random_mean(family, rng)
            report = random_mean(family, rng)
            if np.allclose(belief, report):
                continue
            count += 1
            assert score_regret(family, belief, report) > 0.0


class TestPropernessBeyondTheFamily:
    def test_lognormal_belief_grid(self):
        # Discretize a lognormal on a grid; the grid-expected score must be
        # maximized at the grid mean even though the belief is far from the
        # score's generating family.
        xs = np.linspace(1e-4, 60.0, 20_000)
        log_pdf = -((np.log(xs) - 0.2) ** 2) / (2 * 0.6**2) - np.log(xs * 0.6 * math.sqrt(2 * math.pi))
        weights = np.exp(log_pdf)
        weights /= weights.sum()
        grid_mean = float(weights @ xs)

        reports = np.linspace(0.2, 6.0, 200)
        scores = [-grid_mean / r - math.log(r) for r in reports]
        best = reports[int(np.argmax(scores))]
        cell = reports[1] - reports[0]
        assert abs(best - grid_mean) <= cell

    def test_weibull_belief_grid(self):
        xs = np.linspace(1e-6, 12.0, 20_000)
        scale = 1.4
        pdf = (2.0 / scale) * (xs / scale) * np.exp(-((xs / scale) ** 2))
        weights = pdf / pdf.sum()
        grid_mean = float(weights @ xs)

        reports = np.linspace(0.2, 6.0, 200)
        scores = [float(weights @ (-(xs / r) - math.log(r))) for r in reports]
        best = reports[int(np.argmax(scores))]
        cell = reports[1] - reports[0]
        assert abs(best - grid_mean) <= cell


class TestConversions:
    def test_roundtrip(self):
        mu = moments_from_mean_variance(1.5, 2.25)
        np.testing.assert_allclose(mu, [1.5, 1.5**2 + 2.25])
        assert (mu[0], mu[1] - mu[0] ** 2) == pytest.approx((1.5, 2.25))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            moments_from_mean_variance(1.0, 0.0)


class TestErrors:
    def test_invalid_report_rejected(self):
        with pytest.raises(DomainError):
            log_score(EXPO, -1.0, 1.0)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(DomainError):
            log_score(EXPO, 1.0, -1.0)
