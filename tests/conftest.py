"""Shared test oracles: quadrature, finite differences, interior samplers.

The oracles here deliberately avoid the library's closed forms -- they
integrate the defining expressions numerically so that closed-form
implementations are checked against an independent path.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from scipy import integrate

import expfam_markets
from expfam_markets.families import (
    Categorical,
    ExpFamily,
    ExponentialRate,
    GaussianMoments,
    VonMisesFisher3,
    WeibullMoment,
    family_from_id,
)

ALL_FAMILY_IDS = (
    "categorical:3",
    "exponential-rate",
    "gaussian-moments",
    "weibull-moment:2",
    "vmf3",
)

# The keys each trader model reads beside ``id`` and ``model``, and a valid value of each for categorical:2.
TRADER_KEYS = {"risk-neutral": {"belief"}, "exp-utility": {"belief", "risk_aversion"},
               "budget-limited": {"belief", "risk_aversion", "budget"}, "bayesian": {"sample"}}
TRADER_KEY_VALUES = {"belief": {"probs": [0.7, 0.3]}, "risk_aversion": 1.0, "budget": 1.0,
                     "sample": {"mean": {"probs": [0.6, 0.4]}, "size": 2.0}}

# Two trades of cost 1.7e308 in one round: together they take the market's revenue past the float range.
REVENUE_OVERFLOW_CONFIG = {
    "family": "categorical:2", "theta0": [-1.7e308, -1.7e308], "true_theta": [0, 0], "rounds": 1, "seed": 1,
    "arrival": "fixed-sequence", "sequence": ["a", "b"], "traders": [
        {"id": "a", "model": "risk-neutral", "belief": {"theta": [0, 0]}},
        {"id": "b", "model": "risk-neutral", "belief": {"theta": [1.7e308, 1.7e308]}}]}
# The trade log that run wrote before a round's revenue was checked: its second record overflows the revenue.
REVENUE_OVERFLOW_LOG = (
    {"family": "categorical:2", "format": 2, "inv_liquidity": 1.0, "state_reset": False,
     "theta0": [-1.7e308, -1.7e308]},
    {"cost": 1.7e308, "delta": [1.7e308, 1.7e308], "round": 1, "trader_id": "a"},
    {"cost": 1.7e308, "delta": [1.7e308, 1.7e308], "round": 1, "trader_id": "b"},
)
REVENUE_OVERFLOW_ERROR = "revenue 1.7e+308 plus cost 1.7e+308 leaves the float range"


def subprocess_env() -> dict:
    """Environment for a child Python that imports this same package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(expfam_markets.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture(params=ALL_FAMILY_IDS)
def family(request) -> ExpFamily:
    return family_from_id(request.param)


# ----------------------------------------------------------------------
# Interior parameter samplers (kept well away from domain boundaries so
# finite differences and quadrature behave)
# ----------------------------------------------------------------------

def random_natural(fam: ExpFamily, rng: np.random.Generator) -> np.ndarray:
    if isinstance(fam, Categorical):
        return rng.uniform(-2.0, 2.0, fam.k)
    if isinstance(fam, (ExponentialRate, WeibullMoment)):
        return np.array([rng.uniform(-5.0, -0.2)])
    if isinstance(fam, GaussianMoments):
        return np.array([rng.uniform(-2.0, 2.0), rng.uniform(-3.0, -0.3)])
    if isinstance(fam, VonMisesFisher3):
        direction = rng.standard_normal(3)
        direction /= math.hypot(*direction)  # not np.linalg.norm, whose bits follow OpenBLAS's kernel
        return rng.uniform(0.1, 8.0) * direction
    raise AssertionError(f"no sampler for {fam.id}")


def random_mean(fam: ExpFamily, rng: np.random.Generator) -> np.ndarray:
    return fam.mean_from_natural(random_natural(fam, rng))


def sample_batch(fam: ExpFamily, theta, rng: np.random.Generator, n: int) -> np.ndarray:
    """The outcomes of ``n`` calls of ``fam.sample(theta, rng)``, as an ndarray.

    They are drawn through the sampler ``sample`` builds, built once, so theta is not checked ``n``
    times; ``test_families.py::TestSampling::test_run_draws_equal_sample_draws`` pins the bits equal.
    """
    draw = fam._sampler(fam.check_natural(theta))
    return np.array([draw(rng) for _ in range(n)])


# ----------------------------------------------------------------------
# Quadrature oracles
# ----------------------------------------------------------------------

def log_partition_quadrature(fam: ExpFamily, theta) -> float:
    """Numerically integrate exp<theta, phi(x)> against the base measure."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(fam, Categorical):
        return math.log(float(np.sum(np.exp(theta))))
    if isinstance(fam, ExponentialRate):
        val, _ = integrate.quad(lambda x: math.exp(theta[0] * x), 0.0, np.inf)
        return math.log(val)
    if isinstance(fam, WeibullMoment):
        k = fam.k
        val, _ = integrate.quad(lambda x: math.exp(theta[0] * x**k) * x ** (k - 1.0), 0.0, np.inf)
        return math.log(val)
    if isinstance(fam, GaussianMoments):
        t1, t2 = theta
        val, _ = integrate.quad(lambda x: math.exp(t1 * x + t2 * x * x), -np.inf, np.inf)
        return math.log(val)
    if isinstance(fam, VonMisesFisher3):
        kappa = float(np.linalg.norm(theta))
        val, _ = integrate.quad(lambda t: math.exp(kappa * math.cos(t)) * math.sin(t), 0.0, math.pi)
        return math.log(2.0 * math.pi * val)
    raise AssertionError(f"no quadrature for {fam.id}")


def normalization_quadrature(fam: ExpFamily, theta) -> float:
    """Integrate exp(log_density) times the base density over a truncation."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(fam, Categorical):
        return float(sum(math.exp(fam.log_density(theta, x)) for x in range(1, fam.k + 1)))
    if isinstance(fam, ExponentialRate):
        hi = 60.0 / (-theta[0])
        val, _ = integrate.quad(lambda x: math.exp(fam.log_density(theta, x)), 0.0, hi)
        return float(val)
    if isinstance(fam, WeibullMoment):
        k = fam.k
        hi = (60.0 / (-theta[0])) ** (1.0 / k)
        val, _ = integrate.quad(
            lambda x: math.exp(fam.log_density(theta, x)) * x ** (k - 1.0), 0.0, hi,
            limit=200,
        )
        return float(val)
    if isinstance(fam, GaussianMoments):
        mu = fam.mean_from_natural(theta)
        m = mu[0]
        sd = math.sqrt(mu[1] - m * m)
        val, _ = integrate.quad(lambda x: math.exp(fam.log_density(theta, x)), m - 12 * sd, m + 12 * sd)
        return float(val)
    if isinstance(fam, VonMisesFisher3):
        kappa = float(np.linalg.norm(theta))
        log_norm = fam.log_partition(theta)
        val, _ = integrate.quad(
            lambda t: math.exp(kappa * math.cos(t) - log_norm) * math.sin(t), 0.0, math.pi
        )
        return float(2.0 * math.pi * val)
    raise AssertionError(f"no normalization quadrature for {fam.id}")


def kl_quadrature(fam: ExpFamily, theta_p, theta_q) -> float:
    """KL(p_theta_p || p_theta_q) by numeric integration."""
    theta_p = np.atleast_1d(np.asarray(theta_p, dtype=float))
    theta_q = np.atleast_1d(np.asarray(theta_q, dtype=float))
    if isinstance(fam, Categorical):
        return float(sum(
            math.exp(fam.log_density(theta_p, x)) * (fam.log_density(theta_p, x) - fam.log_density(theta_q, x))
            for x in range(1, fam.k + 1)
        ))

    def integrand(x):
        lp = fam.log_density(theta_p, x)
        return math.exp(lp) * (lp - fam.log_density(theta_q, x))

    if isinstance(fam, ExponentialRate):
        hi = 60.0 / min(-theta_p[0], -theta_q[0])
        val, _ = integrate.quad(integrand, 0.0, hi, limit=200)
        return float(val)
    if isinstance(fam, GaussianMoments):
        mu = fam.mean_from_natural(theta_p)
        m = mu[0]
        sd = math.sqrt(mu[1] - m * m)
        val, _ = integrate.quad(integrand, m - 14 * sd, m + 14 * sd, limit=200)
        return float(val)
    raise AssertionError(f"no KL quadrature for {fam.id}")


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------

def central_diff_grad(func, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (func(x + step) - func(x - step)) / (2.0 * h)
    return grad


def finite_diff_hessian(func, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (
                func(x + ei + ej) - func(x + ei - ej) - func(x - ei + ej) + func(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return hess
