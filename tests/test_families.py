"""Family-level contracts: closed forms vs quadrature, gradient maps,
bijections, divergences, domains, and sampling."""

import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import (
    ALL_FAMILY_IDS,
    central_diff_grad,
    finite_diff_hessian,
    kl_quadrature,
    log_partition_quadrature,
    normalization_quadrature,
    random_natural,
    sample_batch,
)
from expfam_markets import (
    Categorical,
    DomainError,
    SimConfig,
    families,
    family_from_id,
    run_simulation,
)
from expfam_markets.families import WeibullMoment, _dot
from reference_engine import _hex
from test_reference_engine import all_models_config

LOG_TWO_PI = math.log(2.0 * math.pi)


class TestClosedForms:
    """Closed-form log partitions, validated once against quadrature."""

    def test_exponential_rate_at_unit_rate(self):
        fam = family_from_id("exponential-rate")
        assert fam.log_partition(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_rate_matches_quadrature(self):
        fam = family_from_id("exponential-rate")
        for theta in (-0.5, -1.0, -3.0):
            assert fam.log_partition(theta) == pytest.approx(
                log_partition_quadrature(fam, theta), abs=1e-9
            )

    def test_gaussian_quadrature_value(self):
        # Frozen from the defining integral over the real line: the
        # normalizer of exp(x - x^2/2) is exp(1/2) * sqrt(2*pi).
        fam = family_from_id("gaussian-moments")
        expected = 0.5 + 0.5 * LOG_TWO_PI
        assert fam.log_partition([1.0, -0.5]) == pytest.approx(expected, abs=1e-12)
        assert fam.log_partition([1.0, -0.5]) == pytest.approx(
            log_partition_quadrature(fam, [1.0, -0.5]), abs=1e-9
        )

    def test_gaussian_matches_quadrature(self):
        fam = family_from_id("gaussian-moments")
        for theta in ([0.0, -0.5], [2.0, -1.5], [-1.0, -0.25]):
            assert fam.log_partition(theta) == pytest.approx(
                log_partition_quadrature(fam, theta), rel=1e-9, abs=1e-9
            )

    def test_categorical_uniform(self):
        fam = family_from_id("categorical:3")
        assert fam.log_partition([0.0, 0.0, 0.0]) == pytest.approx(math.log(3.0), abs=1e-14)

    def test_categorical_max_shift_is_stable(self):
        fam = family_from_id("categorical:2")
        value = fam.log_partition([800.0, 0.0])
        assert value == pytest.approx(800.0, abs=1e-9)

    def test_weibull_matches_quadrature(self):
        for k in (0.7, 2.0, 3.5):
            fam = family_from_id(f"weibull-moment:{k}")
            for theta in (-0.4, -1.0, -2.5):
                assert fam.log_partition(theta) == pytest.approx(
                    log_partition_quadrature(fam, theta), rel=1e-7, abs=1e-7
                )

    def test_vmf3_matches_quadrature(self):
        fam = family_from_id("vmf3")
        for theta in ([0.0, 0.0, 0.5], [1.0, -2.0, 0.3], [0.0, 0.0, 9.0]):
            assert fam.log_partition(theta) == pytest.approx(
                log_partition_quadrature(fam, theta), rel=1e-9, abs=1e-9
            )

    def test_vmf3_series_joins_smoothly(self):
        fam = family_from_id("vmf3")
        below = fam.log_partition([0.0, 0.0, 0.99e-4])
        above = fam.log_partition([0.0, 0.0, 1.01e-4])
        assert abs(above - below) < 1e-9
        assert fam.log_partition([0.0, 0.0, 0.0]) == pytest.approx(math.log(4 * math.pi), abs=1e-14)


class TestGradientMap:
    def test_exponential_mean(self):
        fam = family_from_id("exponential-rate")
        # d/dtheta of -log(-theta) is -1/theta; cross-checked by differences
        assert fam.mean_from_natural(-2.0)[0] == pytest.approx(0.5, abs=1e-12)
        fd = central_diff_grad(fam.log_partition, np.array([-2.0]))
        assert fam.mean_from_natural(-2.0)[0] == pytest.approx(fd[0], rel=1e-8)

    def test_gaussian_standard_normal_moments(self):
        fam = family_from_id("gaussian-moments")
        np.testing.assert_allclose(fam.mean_from_natural([0.0, -0.5]), [0.0, 1.0], atol=1e-12)

    def test_categorical_uniform_mean(self):
        fam = family_from_id("categorical:2")
        np.testing.assert_allclose(fam.mean_from_natural([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_gradient_consistency_all_families(self, family):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = random_natural(family, rng)
            analytic = family.mean_from_natural(theta)
            numeric = central_diff_grad(family.log_partition, theta)
            np.testing.assert_allclose(
                analytic, numeric, rtol=1e-6, atol=1e-8,
                err_msg=f"{family.id}: gradient mismatch at theta={theta}",
            )


class TestInverseMap:
    def test_exponential_inverse(self):
        fam = family_from_id("exponential-rate")
        assert fam.natural_from_mean(0.5)[0] == pytest.approx(-2.0, abs=1e-12)

    def test_gaussian_inverse(self):
        fam = family_from_id("gaussian-moments")
        np.testing.assert_allclose(fam.natural_from_mean([1.0, 2.0]), [1.0, -0.5], atol=1e-12)

    def test_categorical_gauge_sums_to_zero(self):
        fam = family_from_id("categorical:2")
        theta = fam.natural_from_mean([0.5, 0.5])
        np.testing.assert_allclose(theta, [0.0, 0.0], atol=1e-15)
        theta = fam.natural_from_mean([0.2, 0.8])
        assert float(np.sum(theta)) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_all_families(self, family):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = random_natural(family, rng)
            back = family.natural_from_mean(family.mean_from_natural(theta))
            if isinstance(family, Categorical):
                theta = theta - np.mean(theta)
            np.testing.assert_allclose(back, theta, rtol=0, atol=1e-8,
                                       err_msg=f"{family.id}: round trip failed")

    def test_mean_roundtrip_all_families(self, family):
        rng = np.random.default_rng(13)
        for _ in range(50):
            mu = family.mean_from_natural(random_natural(family, rng))
            recovered = family.mean_from_natural(family.natural_from_mean(mu))
            np.testing.assert_allclose(recovered, mu, rtol=1e-9, atol=1e-12)


class TestConvexity:
    def test_segment_inequality(self, family):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = random_natural(family, rng)
            b = random_natural(family, rng)
            t = rng.uniform(0.05, 0.95)
            lhs = family.log_partition(t * a + (1 - t) * b)
            rhs = t * family.log_partition(a) + (1 - t) * family.log_partition(b)
            assert lhs <= rhs + 1e-12

    def test_hessian_positive_definite_minimal_families(self):
        rng = np.random.default_rng(19)
        for fid in ("exponential-rate", "gaussian-moments", "weibull-moment:2", "vmf3"):
            fam = family_from_id(fid)
            for _ in range(5):
                theta = random_natural(fam, rng)
                hess = finite_diff_hessian(fam.log_partition, theta)
                eigvals = np.linalg.eigvalsh(hess)
                assert np.all(eigvals > 0), f"{fid}: Hessian not PD at {theta}: {eigvals}"

    def test_categorical_hessian_flat_only_along_ones(self):
        # The indicator statistic is not minimal: the Hessian is singular
        # exactly along the all-ones direction and positive elsewhere.
        fam = family_from_id("categorical:3")
        rng = np.random.default_rng(23)
        theta = random_natural(fam, rng)
        hess = finite_diff_hessian(fam.log_partition, theta)
        eigvals, eigvecs = np.linalg.eigh(hess)
        assert abs(eigvals[0]) < 1e-7
        np.testing.assert_allclose(np.abs(eigvecs[:, 0]), np.full(3, 1 / math.sqrt(3)), atol=1e-5)
        assert np.all(eigvals[1:] > 1e-6)


class TestDensities:
    def test_exponential_at_origin(self):
        fam = family_from_id("exponential-rate")
        assert fam.log_density(-1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_categorical_uniform_density(self):
        fam = family_from_id("categorical:3")
        assert fam.log_density([0.0, 0.0, 0.0], 2) == pytest.approx(-math.log(3.0), abs=1e-14)

    def test_gaussian_standard_normal_at_zero(self):
        fam = family_from_id("gaussian-moments")
        assert fam.log_density([0.0, -0.5], 0.0) == pytest.approx(-0.5 * LOG_TWO_PI, abs=1e-13)

    def test_normalization_all_families(self, family):
        rng = np.random.default_rng(29)
        for _ in range(5):
            theta = random_natural(family, rng)
            total = normalization_quadrature(family, theta)
            if isinstance(family, Categorical):
                assert total == pytest.approx(1.0, abs=1e-12)
            else:
                assert 0.999 <= total <= 1.001, f"{family.id}: mass {total} at {theta}"

    def test_outcome_support_errors(self):
        fam = family_from_id("exponential-rate")
        with pytest.raises(DomainError):
            fam.log_density(-1.0, -0.5)
        cat = family_from_id("categorical:3")
        with pytest.raises(DomainError):
            cat.log_density([0.0, 0.0, 0.0], 4)
        with pytest.raises(DomainError):
            cat.log_density([0.0, 0.0, 0.0], 1.5)
        vmf = family_from_id("vmf3")
        with pytest.raises(DomainError):
            vmf.log_density([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="finite 3-vector"):
            vmf.log_density([0.0, 0.0, 1.0], [math.nan, 0.0, 1.0])
        with pytest.raises(DomainError, match="finite real"):
            family_from_id("gaussian-moments").log_density([0.0, -0.5], math.inf)

    def test_numpy_scalar_outcomes_accepted(self):
        cat = family_from_id("categorical:3")
        assert cat.check_outcome(np.int64(2)) == 2 and type(cat.check_outcome(np.float64(3.0))) is int
        assert family_from_id("exponential-rate").check_outcome(np.float32(0.5)) == 0.5
        assert family_from_id("gaussian-moments").check_outcome(np.int32(-1)) == -1.0
        outcome = family_from_id("vmf3").check_outcome(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(outcome, [0.0, 0.0, 1.0])


class TestBregman:
    def test_exponential_worked_value(self):
        # D(-1, -2) = T(-1) - T(-2) - (1) * gradT(-2) = log 2 - 1/2,
        # and equals KL(rate 2 || rate 1) by the divergence/KL identity.
        fam = family_from_id("exponential-rate")
        assert fam.bregman_divergence(-1.0, -2.0) == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
        assert fam.bregman_divergence(-1.0, -2.0) == pytest.approx(
            kl_quadrature(fam, -2.0, -1.0), abs=1e-6
        )

    def test_zero_at_equal_arguments(self, family):
        rng = np.random.default_rng(31)
        theta = random_natural(family, rng)
        assert family.bregman_divergence(theta, theta) == pytest.approx(0.0, abs=1e-12)

    def test_categorical_brute_force_kl(self):
        fam = family_from_id("categorical:2")
        value = fam.bregman_divergence([0.0, 0.0], [1.0, 0.0])
        assert value == pytest.approx(kl_quadrature(fam, [1.0, 0.0], [0.0, 0.0]), abs=1e-12)

    def test_nonnegative_and_zero_only_at_equality(self, family):
        rng = np.random.default_rng(37)
        for _ in range(25):
            a = random_natural(family, rng)
            b = random_natural(family, rng)
            d = family.bregman_divergence(a, b)
            assert d >= 0.0
            if not np.allclose(a, b):
                if isinstance(family, Categorical) and np.allclose(a - np.mean(a), b - np.mean(b)):
                    continue
                assert d > 0.0

    def test_kl_identity_by_quadrature(self):
        rng = np.random.default_rng(41)
        for fid in ("exponential-rate", "gaussian-moments"):
            fam = family_from_id(fid)
            for _ in range(10):
                p = random_natural(fam, rng)
                q = random_natural(fam, rng)
                assert fam.bregman_divergence(q, p) == pytest.approx(
                    kl_quadrature(fam, p, q), abs=1e-4
                ), f"{fid}: divergence != numeric KL for p={p}, q={q}"


class TestDomains:
    def test_boundary_margin_rejected(self):
        fam = family_from_id("exponential-rate")
        with pytest.raises(DomainError):
            fam.log_partition(-1e-13)
        with pytest.raises(DomainError):
            fam.log_partition(0.5)
        fam.log_partition(-1e-11)  # outside the margin: fine

    def test_gaussian_domain(self):
        fam = family_from_id("gaussian-moments")
        with pytest.raises(DomainError):
            fam.log_partition([0.0, 0.0])
        with pytest.raises(DomainError):
            fam.natural_from_mean([1.0, 1.0])  # zero variance

    def test_categorical_mean_domain(self):
        fam = family_from_id("categorical:2")
        with pytest.raises(DomainError):
            fam.natural_from_mean([0.5, 0.6])  # does not sum to 1
        with pytest.raises(DomainError):
            fam.natural_from_mean([1.0, 0.0])  # boundary
        fam.check_mean([1.0, 0.0], margin=0.0)  # closure admitted on request

    def test_vmf3_mean_domain(self):
        fam = family_from_id("vmf3")
        with pytest.raises(DomainError):
            fam.natural_from_mean([1.0, 0.0, 0.0])
        np.testing.assert_allclose(fam.natural_from_mean([0.0, 0.0, 0.0]), np.zeros(3))

    def test_vmf3_natural_domain_is_a_finite_norm(self):
        # Every kernel reads |theta|: where it overflows, log_partition was nan and the mean [0, 0, 0].
        fam = family_from_id("vmf3")
        with pytest.raises(DomainError, match=re.escape("vmf3: natural parameter [1.7e+308, 1.7e+308, 1.7e+308]")):
            fam.check_natural([1.7e308] * 3)
        assert fam.natural_in_domain([1e308] * 3) and not fam.natural_in_domain([1.1e308] * 3)
        theta = fam.check_natural([1e308, 0.0, 0.0])
        assert fam.log_partition(theta) == pytest.approx(1e308)
        np.testing.assert_allclose(fam.mean_from_natural(theta), [1.0, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_non_finite_rejected(self, family):
        with pytest.raises(DomainError):
            family.check_natural([math.nan] * family.dim)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_outcome_past_the_float_range_is_refused_by_the_family_rule(self, family, sign):
        # float(10**400) raises OverflowError; the outcome reads as inf, which every family's own rule refuses.
        rule = {"categorical:3": "an integer in 1..3", "exponential-rate": "a nonnegative real",
                "gaussian-moments": "a finite real", "weibull-moment:2": "a nonnegative real",
                "vmf3": "a finite 3-vector"}[family.id]
        big = sign * 10**400
        with pytest.raises(DomainError, match=re.escape(f"{family.id}: outcome must be {rule}, got {big!r}")):
            family.check_outcome(big)
        if family.id == "vmf3":
            with pytest.raises(DomainError, match=re.escape(f"vmf3: outcome must be {rule}, got [{big!r}, 0, 0]")):
                family.check_outcome([big, 0, 0])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_vector_past_the_float_range_is_refused_as_params_refuses_it(self, family, sign):
        value = [sign * 10**400] + [0] * (family.dim - 1)
        message = re.escape(f"theta must be a flat vector of {family.dim} reals, got {value!r}")
        with pytest.raises(DomainError, match=message):
            families.as_params(value, family.dim, "theta")
        with pytest.raises(DomainError, match=message):
            family.log_partition(value)

    def test_shape_mismatch_rejected(self):
        fam = family_from_id("gaussian-moments")
        with pytest.raises(DomainError):
            fam.log_partition([1.0, -0.5, 3.0])
        assert not fam.natural_in_domain([[1.0], [-0.5]])

    def test_boundary_blowup(self):
        # Legendre behavior: the log partition increases without bound as
        # the natural parameter approaches the boundary.
        fam = family_from_id("exponential-rate")
        values = [fam.log_partition(-(10.0 ** -k)) for k in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 18.0  # log(1e8)


class TestSampling:
    def test_categorical_near_degenerate(self):
        fam = family_from_id("categorical:2")
        rng = np.random.default_rng(43)
        draws = sample_batch(fam, [50.0, 0.0], rng, 10_000)
        assert np.mean(draws == 1) > 0.999

    def test_exponential_mean_clt(self):
        fam = family_from_id("exponential-rate")
        rng = np.random.default_rng(47)
        n = 100_000
        draws = sample_batch(fam, -2.0, rng, n)
        se = 0.5 / math.sqrt(n)  # sd of Exp(rate 2) is 1/2
        assert abs(np.mean(draws) - 0.5) < 3 * se

    def test_gaussian_moments_clt(self):
        fam = family_from_id("gaussian-moments")
        rng = np.random.default_rng(53)
        n = 100_000
        draws = sample_batch(fam, [1.0, -0.5], rng, n)
        # mean 1, variance 1; Var(x^2) = E[x^4] - E[x^2]^2 = 10 - 4 = 6
        assert abs(np.mean(draws) - 1.0) < 3 / math.sqrt(n)
        assert abs(np.mean(draws**2) - 2.0) < 3 * math.sqrt(6.0 / n)

    def test_weibull_moment_clt(self):
        fam = family_from_id("weibull-moment:2")
        rng = np.random.default_rng(59)
        n = 100_000
        draws = sample_batch(fam, -0.5, rng, n)
        # x^2 is Exp(rate 1/2): mean 2, sd 2
        assert abs(np.mean(draws**2) - 2.0) < 3 * 2.0 / math.sqrt(n)

    def test_deterministic_given_seed(self):
        fam = family_from_id("exponential-rate")
        a, b = np.random.default_rng(61), np.random.default_rng(61)
        assert [fam.sample(-1.0, a) for _ in range(10)] == [fam.sample(-1.0, b) for _ in range(10)]

    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_run_draws_equal_sample_draws(self, family_id):
        # Two ways to draw the same stream: one sample call per draw, and the sampler that run_simulation
        # builds once per run and calls once per round (the tests' sample_batch draws through it too).
        fam = family_from_id(family_id)
        theta = random_natural(fam, np.random.default_rng(73))
        rng = np.random.default_rng(67)
        one_by_one = [fam.sample(theta, rng) for _ in range(2_000)]
        draw, rng = fam._sampler(fam.check_natural(theta)), np.random.default_rng(67)
        per_run = [draw(rng) for _ in range(2_000)]
        assert _hex(per_run) == _hex(one_by_one)
        assert {type(v) for v in per_run} == {type(v) for v in one_by_one}

    def test_gaussian_sd_far_from_the_mean(self):
        # mean 1e8, variance 1: an sd taken from the mean map, sqrt(m2 - m*m), cancels to 0.0 here
        n = 10_000
        draws = sample_batch(family_from_id("gaussian-moments"), [1e8, -0.5], np.random.default_rng(79), n) - 1e8
        assert abs(np.std(draws) - 1.0) < 3 / math.sqrt(2 * n)

    def test_scalar_draw_types(self):
        rng = np.random.default_rng(67)
        assert isinstance(family_from_id("categorical:4").sample([0.0] * 4, rng), int)
        assert isinstance(family_from_id("exponential-rate").sample(-1.0, rng), float)


VMF3_DIRECTION = np.array([2.0, -1.0, 2.0]) / 3.0
VMF3_POLES = {"north": [0.0, 0.0, 1.0], "south": [0.0, 0.0, -1.0],
              "near-north": [1e-9, 0.0, 1.0], "near-south": [-1e-9, 1e-9, -1.0]}
VMF3_THETAS = {  # kappa 0 to 1e6 off the poles, and kappa 1 and 1e6 on and within 1e-9 of either pole
    **{f"kappa-{kappa:g}": kappa * VMF3_DIRECTION for kappa in (0.0, 1e-8, 1.0, 50.0, 1e6)},
    **{f"kappa-{kappa:g}-{pole}": kappa * np.array(direction) for kappa in (1.0, 1e6)
       for pole, direction in VMF3_POLES.items()},
}


@pytest.fixture(scope="module")
def vmf3_draws():
    """10,000 seeded draws at each of ``VMF3_THETAS``."""
    fam, rng = family_from_id("vmf3"), np.random.default_rng(83)
    return {name: sample_batch(fam, theta, rng, 10_000) for name, theta in VMF3_THETAS.items()}


def vmf3_cosine_cdf(kappa: float, w):
    """``expm1(kappa*(w+1)) / expm1(2*kappa)``, the law of the cosine to the mean direction, without overflow."""
    if kappa == 0.0:
        return (w + 1.0) / 2.0
    return np.exp(kappa * (w - 1.0)) * np.expm1(-kappa * (w + 1.0)) / np.expm1(-2.0 * kappa)


class TestVmf3Sampling:
    """The inverse-CDF draw of the cosine, its uniform angle, and the reflection onto the mean direction."""

    @pytest.mark.parametrize("name", sorted(VMF3_THETAS))
    def test_mean_within_three_standard_errors(self, name, vmf3_draws):
        draws = vmf3_draws[name]
        se = np.std(draws, axis=0) / math.sqrt(len(draws))
        mu = np.array(family_from_id("vmf3").mean_from_natural(VMF3_THETAS[name]))
        assert np.all(np.abs(np.mean(draws, axis=0) - mu) <= 3.0 * se)

    @pytest.mark.parametrize("name", sorted(VMF3_THETAS))
    def test_cosine_passes_ks_at_one_percent(self, name, vmf3_draws):
        theta = VMF3_THETAS[name]
        kappa = math.hypot(*theta)
        w = vmf3_draws[name] @ (theta / kappa if kappa else VMF3_DIRECTION)
        assert stats.kstest(w, lambda t: vmf3_cosine_cdf(kappa, t)).pvalue > 0.01

    def test_kappa_zero_draws_uniformly(self, vmf3_draws):
        # On the sphere each coordinate is uniform on [-1, 1] (Archimedes), and so is the azimuth on (-pi, pi].
        draws = vmf3_draws["kappa-0"]
        for coordinate in draws.T:
            assert stats.kstest(coordinate, stats.uniform(-1.0, 2.0).cdf).pvalue > 0.01
        azimuth = np.arctan2(draws[:, 1], draws[:, 0])
        assert stats.kstest(azimuth, stats.uniform(-math.pi, 2.0 * math.pi).cdf).pvalue > 0.01

    @staticmethod
    def assert_outcomes(draws):
        fam = family_from_id("vmf3")
        for x in draws:
            fam.check_outcome(x)
        assert np.max(np.abs(np.linalg.norm(draws, axis=1) - 1.0)) < 1e-15

    def test_every_draw_is_an_outcome(self, vmf3_draws):
        for draws in vmf3_draws.values():
            self.assert_outcomes(draws)

    @pytest.mark.parametrize("kappa", [1e-320, 1e-17, 18.5, 1e300])
    def test_extreme_draws_are_outcomes(self, kappa):
        # a subnormal norm, one below the uniform cut, one where expm1(-2k) nears -1, and one far past it
        self.assert_outcomes(sample_batch(family_from_id("vmf3"), kappa * VMF3_DIRECTION, np.random.default_rng(89),
                                          2_000))


class TestWeibullFamily:
    def test_order_one_collapses_to_exponential(self):
        weib = family_from_id("weibull-moment:1")
        expo = family_from_id("exponential-rate")
        for theta in (-0.3, -1.0, -4.0):
            assert weib.log_partition(theta) == pytest.approx(expo.log_partition(theta), abs=1e-14)
            for x in (0.0, 0.5, 2.0):
                assert weib.log_density(theta, x) == pytest.approx(expo.log_density(theta, x), abs=1e-14)

    def test_mean_parameter_is_kth_moment(self):
        fam = family_from_id("weibull-moment:3")
        rng = np.random.default_rng(71)
        theta = -1.7
        n = 200_000
        draws = sample_batch(fam, theta, rng, n)
        moment = np.mean(draws**3)
        se = np.std(draws**3) / math.sqrt(n)
        assert abs(moment - fam.mean_from_natural(theta)[0]) < 3.5 * se


@pytest.fixture(scope="module")
def vmf3_sweep_means():
    """10,000 seeded vmf3 means: |mu| log-uniform over [1e-300, 1) for half, 1 - |mu| over [1e-12, 1) for the rest."""
    rng = np.random.default_rng(2005)
    exponents = np.concatenate([rng.uniform(-300.0, 0.0, 5000), rng.uniform(-12.0, 0.0, 5000)])
    norms = np.concatenate([10.0 ** exponents[:5000], 1.0 - 10.0 ** exponents[5000:]])
    directions = rng.standard_normal((10_000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return [list(map(float, r * d)) for r, d in zip(norms, directions)]


class TestVmf3Inversion:
    def test_high_concentration_roundtrip(self):
        fam = family_from_id("vmf3")
        theta = np.array([0.0, 0.0, 50.0])
        mu = fam.mean_from_natural(theta)
        np.testing.assert_allclose(fam.natural_from_mean(mu), theta, rtol=1e-8)

    def test_tiny_concentration_roundtrip(self):
        fam = family_from_id("vmf3")
        theta = np.array([1e-6, -2e-6, 3e-6])
        mu = fam.mean_from_natural(theta)
        np.testing.assert_allclose(fam.natural_from_mean(mu), theta, rtol=1e-15, atol=0.0)

    def test_tiny_mean_inverts_to_three_times_it(self):
        # A(k) = k/3 - k**3/45 + ..., so the root is 3e-20; a tolerance on |A(k) - r| of 1e-12 would accept k = 1e-12.
        kappa = math.hypot(*family_from_id("vmf3").natural_from_mean([1e-20, 0.0, 0.0]))
        assert abs(kappa - 3e-20) <= 2 * math.ulp(3e-20)

    def test_roundtrip_sweep_within_8_ulps(self, vmf3_sweep_means):
        fam = family_from_id("vmf3")
        for mu in vmf3_sweep_means:
            back = fam.mean_from_natural(fam.natural_from_mean(mu))
            for a, b in zip(mu, back):
                assert abs(a - b) <= 8 * math.ulp(a), (mu, back.tolist())

    def test_inverse_evaluates_the_mean_map_at_most_64_times(self, vmf3_sweep_means, monkeypatch):
        from expfam_markets import families

        calls = []
        resultant = families._vmf_mean_resultant

        def counted(kappa):
            calls.append(kappa)
            return resultant(kappa)

        monkeypatch.setattr(families, "_vmf_mean_resultant", counted)
        fam = family_from_id("vmf3")
        most = 0
        for mu in vmf3_sweep_means:
            calls.clear()
            fam.natural_from_mean(mu)
            most = max(most, len(calls))
        assert 0 < most <= 64

    def test_mean_ratio_within_4_ulps(self):
        # (coth(k) - 1/k) / k against a 60-digit reference, on both sides of the k = 2 switch.
        from decimal import Decimal, localcontext

        from expfam_markets.families import _vmf_mean_ratio

        kappas = [10.0 ** (e / 8.0) for e in range(-48, 15)] + [0.0101, 1.999999, 2.0, 60.0]
        with localcontext() as ctx:
            ctx.prec = 60
            for kappa in kappas:
                k = Decimal(kappa)
                e2k = (2 * k).exp()
                reference = float(((e2k + 1) / (e2k - 1) - 1 / k) / k)
                assert abs(_vmf_mean_ratio(kappa) - reference) <= 4 * math.ulp(reference), kappa


class TestStatistic:
    def test_length_matches_dimension(self, family):
        outcomes = {
            "categorical:3": 2,
            "exponential-rate": 1.3,
            "gaussian-moments": -0.4,
            "weibull-moment:2": 1.3,
            "vmf3": [0.0, 0.0, 1.0],
        }
        phi = family.statistic(outcomes[family.id])
        assert np.asarray(phi).shape == (family.dim,)

    def test_categorical_statistic_is_unit_indicator(self):
        fam = family_from_id("categorical:3")
        for x in (1, 2, 3):
            phi = np.asarray(fam.statistic(x))
            assert phi[x - 1] == 1.0
            assert float(np.sum(phi)) == 1.0
            assert np.all((phi == 0.0) | (phi == 1.0))


def _bits(call) -> str:
    """The hex of the float ``call()`` returns, or the name and message of the error ``fsum`` raises in it."""
    try:
        return call().hex()
    except (OverflowError, ValueError) as exc:  # finite terms whose sum overflows; inf - inf
        return f"{type(exc).__name__}: {exc}"


def _outcomes(fam):
    """Trusted outcomes of ``fam``: Weibull ones up to the largest float, where ``x**k`` can overflow."""
    if isinstance(fam, Categorical):
        return st.integers(1, fam.k)
    if isinstance(fam, WeibullMoment):
        return st.floats(min_value=0.0, allow_infinity=False)
    if fam.dim == 2:
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)  # vmf3


class TestPair:
    """``_pair(vec, x)`` gives the bits of ``_dot(vec, _statistic(x))``: settlement pairs through it."""

    @staticmethod
    def assert_pairs_as_dot(fam, vec, x):
        vec = array("d", vec)
        assert _bits(lambda: fam._pair(vec, x)) == _bits(lambda: _dot(vec, fam._statistic(x)))

    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS + ("categorical:2", "weibull-moment:0.5"))
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_vectors_and_outcomes(self, family_id, data):
        fam = family_from_id(family_id)
        entry = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
        vec = data.draw(st.lists(entry, min_size=fam.dim, max_size=fam.dim))
        self.assert_pairs_as_dot(fam, vec, data.draw(_outcomes(fam)))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_every_categorical_outcome_with_signed_zeros(self, k):
        fam = Categorical(k)
        for vec in ([-0.0] * k, [0.0] * k, [(-0.0, 0.0)[i % 2] for i in range(k)],
                    [(-0.0, -1.5, 2.0)[i % 3] for i in range(k)]):
            for x in range(1, k + 1):
                self.assert_pairs_as_dot(fam, vec, x)

    @pytest.mark.parametrize("family_id", ["exponential-rate", "weibull-moment:2"])
    def test_one_dimensional_signed_zeros_and_an_overflowing_moment(self, family_id):
        fam = family_from_id(family_id)
        assert fam._statistic(1e200)[0] == (math.inf if fam.k == 2 else 1e200)
        for vec in ([-0.0], [0.0], [-1.0], [2.5], [1e308]):
            for x in (0.0, 1.5, 1e200):
                self.assert_pairs_as_dot(fam, vec, x)

    @pytest.mark.parametrize("vec", [[-0.0, -0.0], [0.0, -0.0], [-1.5, 2.0], [1e308, 1e308], [1e308, -1e308]])
    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, 1.5, 1e200, -1e200])
    def test_gaussian_signed_zeros_and_non_finite_totals(self, vec, x):
        # the two-term sum, where fsum gives +0.0, and _dot's own bits or DomainError where the total is not finite
        self.assert_pairs_as_dot(family_from_id("gaussian-moments"), vec, x)

    @pytest.mark.parametrize("family_id", ALL_FAMILY_IDS)
    def test_a_run_settles_without_dot(self, family_id, monkeypatch):
        config = SimConfig.from_dict(all_models_config(family_id, "round-robin", 22))
        calls, dot = [], families._dot
        monkeypatch.setattr(families, "_dot", lambda a, b: calls.append((a, b)) or dot(a, b))
        report = run_simulation(config)
        assert report.valid and len(report.events) == config.rounds
        # vmf3 has no pairing kernel: ExpFamily._pair is _dot
        assert (calls == []) == (type(config.family)._pair is not families.ExpFamily._pair)

    @pytest.mark.parametrize("a, b", [
        pytest.param([1e308, 1e308], [1.0, 1.0], id="finite-terms-whose-sum-overflows"),
        pytest.param([1e308, -0.5], [10.0, math.inf], id="inf-minus-inf"),
    ])
    def test_sum_without_a_float_value_is_a_domain_error(self, a, b):
        with pytest.raises(DomainError, match=re.escape(f"the inner product of {a} and {b} has no float value (")):
            _dot(array("d", a), b)


class TestRegistry:
    def test_ids_roundtrip(self):
        for fid in ALL_FAMILY_IDS:
            assert family_from_id(fid).id == fid

    @pytest.mark.parametrize("bad, message", [
        ("categorical", "categorical requires an outcome count, e.g. 'categorical:3'"),
        ("categorical:1", "categorical needs at least 2 outcomes, got 1"),
        ("categorical:x", "bad categorical outcome count 'x'"),
        ("weibull-moment", "weibull-moment requires a moment order, e.g. 'weibull-moment:2'"),
        ("weibull-moment:-2", "weibull-moment order must be positive and finite, got -2.0"),
        ("weibull-moment:abc", "bad weibull moment order 'abc'"),
        ("exponential-rate:3", "family 'exponential-rate' takes no parameter, got 'exponential-rate:3'"),
        ("vmf3:x", "family 'vmf3' takes no parameter, got 'vmf3:x'"),
        ("gaussian-moments:", "family 'gaussian-moments' takes no parameter, got 'gaussian-moments:'"),
        ("nope", "unknown family id 'nope'; known: categorical:K, exponential-rate, gaussian-moments, "
                 "weibull-moment:k, vmf3"),
        ("nope:3", "family 'nope' takes no parameter, got 'nope:3'"),
        ("3", "unknown family id '3'; known: categorical:K, exponential-rate, gaussian-moments, "
              "weibull-moment:k, vmf3"),
        (3, "family id must be a string, got 3"),
    ])
    def test_bad_ids(self, bad, message):
        with pytest.raises(DomainError) as excinfo:
            family_from_id(bad)
        assert str(excinfo.value) == message

    def test_weibull_order_past_the_float_range_is_refused(self):
        # float(10**400) raised OverflowError; inf is refused as family_from_id("weibull-moment:inf") is.
        with pytest.raises(DomainError, match="weibull-moment order must be positive and finite, got inf"):
            WeibullMoment(10**400)

    def test_weibull_id_formatting(self):
        assert family_from_id("weibull-moment:2.5").id == "weibull-moment:2.5"
        assert family_from_id("weibull-moment:2.0").id == "weibull-moment:2"

    @pytest.mark.parametrize("order", [0.1234567, 3.14159265])  # more digits than :g keeps
    def test_weibull_id_reads_back_as_its_order(self, order):
        fam = WeibullMoment(order)
        assert family_from_id(fam.id).k == fam.k

    def test_constructor_error_keeps_its_message(self):
        with pytest.raises(DomainError, match="needs at least 2 outcomes, got 1"):
            family_from_id("categorical:1")
