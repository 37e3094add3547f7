"""Catalog of exponential families and their parameter maps.

Each family couples a statistic ``phi`` with a base measure ``nu`` and is
determined by its log-partition function

    T(theta) = log integral exp<theta, phi(x)> dnu(x),

which is strictly convex on the interior of its domain ``Theta`` (for the
indicator-statistic categorical family, convex and flat only along the
all-ones direction).  The gradient of ``T`` maps natural parameters to mean
parameters (expected statistics); its inverse maps means back to naturals.
Everything downstream leans on these two maps: mean parameters are market
prices, natural parameters are share vectors, and ``T`` is the market
maker's cost function.

Registered families and their id strings:

* ``categorical:K``     -- outcomes ``{1..K}``, indicator statistic,
  counting base measure, ``T = logsumexp``.
* ``exponential-rate``  -- ``weibull-moment:1`` under its own id: outcomes
  ``[0, inf)``, statistic ``x``, Lebesgue base measure, ``T(theta) =
  -log(-theta)`` on ``theta < 0``.
* ``weibull-moment:k``  -- outcomes ``[0, inf)``, statistic ``x**k``.  With
  base measure ``x**(k-1) dx`` the substitution ``u = x**k`` gives
  ``integral exp(theta*x**k) x**(k-1) dx = 1/(k*(-theta))``, so
  ``T(theta) = -log(-theta) - log(k)`` on ``theta < 0`` and the mean
  parameter is the k-th raw moment ``E[x**k] = -1/theta``.
* ``gaussian-moments``  -- outcomes over the reals, statistic ``(x, x**2)``,
  Lebesgue base measure.  ``T(theta) = -theta1**2/(4*theta2)
  - 0.5*log(-2*theta2) + 0.5*log(2*pi)`` on ``theta2 < 0``; the additive
  ``0.5*log(2*pi)`` keeps ``T`` equal to its defining integral so that
  ``log_density`` is an honest Lebesgue log density.
* ``vmf3``              -- outcomes on the unit sphere in R^3, statistic
  ``x``, surface base measure.  ``T(theta) = log(4*pi*sinh(k)/k)`` with
  ``k = |theta|``, evaluated by a series for small ``k``.  Sampling is not
  supported.

All parameters are 1-D float64 arrays (scalars are accepted for
one-dimensional families).  Parameters within ``1e-12`` of a domain
boundary are rejected: ``T`` blows up at the boundary, so values there are
numerically meaningless.  Family objects are immutable after construction
and every operation is a pure function, safe to share across threads; random
sampling uses a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedError

BOUNDARY_MARGIN = 1e-12

_LOG_TWO_PI = math.log(2.0 * math.pi)
_LOG_FOUR_PI = math.log(4.0 * math.pi)


def as_params(value, dim: int, name: str = "params") -> np.ndarray:
    """Coerce a scalar or sequence to a finite float vector of length ``dim``."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DomainError(f"{name} must be a vector of length {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # the method skips np.all's Python-level dispatch
        raise DomainError(f"{name} must be finite, got {arr}")
    return arr


def _sum(values: list[float]) -> float:
    """Left-to-right float sum: the same bits on every machine (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _real_outcome(family: "ExpFamily", x) -> float:
    """``x`` as a float if it is a real number (not a bool); else DomainError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{family.id}: outcome must be a real number, got {x!r}")
    return float(x)


class ExpFamily(ABC):
    """A registered exponential family.

    Subclasses define the statistic, the domain tests, and closed forms for
    the log-partition function and its gradient/inverse-gradient.  The
    Bregman divergence and log density are derived here from those pieces.
    """

    dim: int

    @property
    @abstractmethod
    def id(self) -> str:
        """The family's registry id, e.g. ``"categorical:3"``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.id!r})"

    # ------------------------------------------------------------------
    # Domain checks
    # ------------------------------------------------------------------

    def check_natural(self, theta, margin: float = BOUNDARY_MARGIN) -> np.ndarray:
        """Validate a natural parameter, returning it as a float vector."""
        theta = as_params(theta, self.dim, "theta")
        if not self._natural_interior(theta, margin):
            raise DomainError(
                f"{self.id}: natural parameter {theta} outside the domain "
                f"(or within {margin:g} of its boundary)"
            )
        return theta

    def check_mean(self, mu, margin: float = BOUNDARY_MARGIN) -> np.ndarray:
        """Validate a mean parameter.  ``margin=0`` admits the closure."""
        mu = as_params(mu, self.dim, "mu")
        if not self._mean_interior(mu, margin):
            raise DomainError(
                f"{self.id}: mean parameter {mu} outside the realizable set "
                f"(or within {margin:g} of its boundary)"
            )
        return mu

    def natural_in_domain(self, theta, margin: float = BOUNDARY_MARGIN) -> bool:
        """True when ``theta`` is a valid interior natural parameter."""
        try:
            theta = as_params(theta, self.dim, "theta")
        except DomainError:
            return False
        return self._natural_interior(theta, margin)

    @abstractmethod
    def _natural_interior(self, theta: np.ndarray, margin: float) -> bool: ...

    @abstractmethod
    def _mean_interior(self, mu: np.ndarray, margin: float) -> bool: ...

    @abstractmethod
    def check_outcome(self, x):
        """Validate an outcome, returning its canonical form."""

    # ------------------------------------------------------------------
    # Core maps
    # ------------------------------------------------------------------

    def log_partition(self, theta) -> float:
        """Evaluate ``T(theta)``, the log normalizer of the family."""
        return float(self._log_partition(self.check_natural(theta)))

    def mean_from_natural(self, theta) -> np.ndarray:
        """Gradient map: expected statistic of the member with parameter ``theta``."""
        return self._mean(self.check_natural(theta))

    def natural_from_mean(self, mu) -> np.ndarray:
        """Inverse gradient map: the natural parameter whose mean is ``mu``."""
        return self._natural(self.check_mean(mu))

    @abstractmethod
    def _log_partition(self, theta: np.ndarray) -> float: ...

    @abstractmethod
    def _mean(self, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _natural(self, mu: np.ndarray) -> np.ndarray: ...

    def statistic(self, x) -> np.ndarray:
        """Evaluate the statistic ``phi`` at a validated outcome."""
        return self._statistic(self.check_outcome(x))

    @abstractmethod
    def _statistic(self, x) -> np.ndarray: ...

    def log_density(self, theta, x) -> float:
        """Log density ``<theta, phi(x)> - T(theta)`` w.r.t. the base measure."""
        theta = self.check_natural(theta)
        phi = self.statistic(x)
        return float(np.dot(theta, phi) - self._log_partition(theta))

    def bregman_divergence(self, theta_a, theta_b) -> float:
        """``T(a) - T(b) - <a - b, grad T(b)>``; nonnegative, zero iff equal.

        Equals the KL divergence from the member at ``theta_b`` to the member
        at ``theta_a`` with arguments swapped: ``KL(p_b || p_a)``.
        """
        theta_a = self.check_natural(theta_a)
        theta_b = self.check_natural(theta_b)
        return float(
            self._log_partition(theta_a)
            - self._log_partition(theta_b)
            - np.dot(theta_a - theta_b, self._mean(theta_b))
        )

    def sample(self, theta, rng: np.random.Generator, size: int | None = None):
        """Draw outcomes from the member at ``theta`` using a caller-owned rng.

        Returns a single outcome when ``size`` is None, else an array of
        ``size`` outcomes.  Draws are deterministic given the generator state.
        """
        theta = self.check_natural(theta)
        return self._sample(theta, rng, size)

    def _sample(self, theta: np.ndarray, rng: np.random.Generator, size):
        raise UnsupportedError(f"{self.id}: sampling is not supported")


class Categorical(ExpFamily):
    """Finite outcomes ``{1..K}`` with unit indicator statistic.

    The statistic is not minimal: adding a constant to every component of
    ``theta`` leaves the distribution unchanged, so the inverse gradient map
    pins the gauge by returning the representative with components summing
    to zero.
    """

    def __init__(self, k: int):
        k = int(k)
        if k < 2:
            raise DomainError(f"categorical needs at least 2 outcomes, got {k}")
        self.k = k
        self.dim = k

    @property
    def id(self) -> str:
        return f"categorical:{self.k}"

    def _natural_interior(self, theta, margin) -> bool:
        return True  # T is finite on all of R^K

    def _mean_interior(self, mu, margin) -> bool:
        return bool((mu >= margin).all() and abs(float(np.sum(mu)) - 1.0) <= 1e-9)

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not (xf.is_integer() and 1 <= xf <= self.k):
            raise DomainError(f"{self.id}: outcome must be an integer in 1..{self.k}, got {x!r}")
        return int(xf)

    def _log_partition(self, theta) -> float:
        values = theta.tolist()
        m = max(values)
        return m + math.log(_sum([math.exp(v - m) for v in values]))

    def _mean(self, theta) -> np.ndarray:
        values = theta.tolist()
        m = max(values)
        e = [math.exp(v - m) for v in values]
        total = _sum(e)
        return np.array([v / total for v in e])

    def _natural(self, mu) -> np.ndarray:
        logs = [math.log(v) for v in mu.tolist()]
        mean = _sum(logs) / len(logs)
        return np.array([v - mean for v in logs])

    def _statistic(self, x) -> np.ndarray:
        phi = np.zeros(self.k)
        phi[x - 1] = 1.0
        return phi

    def _sample(self, theta, rng, size):
        cdf = np.cumsum(self._mean(theta))
        u = rng.random() if size is None else rng.random(size)
        drawn = np.searchsorted(cdf, u, side="right") + 1
        drawn = np.minimum(drawn, self.k)  # guard cumulative rounding at 1.0
        return int(drawn) if size is None else drawn.astype(int)


class WeibullMoment(ExpFamily):
    """Nonnegative outcomes with statistic ``x**k`` and base measure ``x**(k-1) dx``.

    ``u = x**k`` turns the defining integral into the exponential-rate one
    scaled by ``1/k``, giving ``T(theta) = -log(-theta) - log(k)`` and mean
    parameter ``E[x**k] = -1/theta``.  Outcomes follow a Weibull law with
    shape ``k`` and scale ``(-1/theta)**(1/k)``.
    """

    dim = 1

    def __init__(self, k: float = 1.0):
        k = float(k)
        if not (math.isfinite(k) and k > 0):
            raise DomainError(f"weibull-moment order must be positive, got {k}")
        self.k = k

    @property
    def id(self) -> str:
        return f"weibull-moment:{self.k:g}"

    def _natural_interior(self, theta, margin) -> bool:
        return bool(theta[0] <= -margin)

    def _mean_interior(self, mu, margin) -> bool:
        return bool(mu[0] >= margin)

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not math.isfinite(xf) or xf < 0.0:
            raise DomainError(f"{self.id}: outcome must be a nonnegative real, got {x!r}")
        return xf

    def _log_partition(self, theta) -> float:
        return -math.log(-theta[0]) - math.log(self.k)

    def _mean(self, theta) -> np.ndarray:
        return np.array([-1.0 / theta[0]])

    def _natural(self, mu) -> np.ndarray:
        return np.array([-1.0 / mu[0]])

    def _statistic(self, x) -> np.ndarray:
        return np.array([x**self.k])

    def _sample(self, theta, rng, size):
        rate = -float(theta[0])
        power = 1.0 / self.k
        draws = [(-math.log1p(-u) / rate) ** power for u in np.atleast_1d(rng.random(size)).tolist()]
        return draws[0] if size is None else np.array(draws)


class ExponentialRate(WeibullMoment):
    """``weibull-moment:1`` under its own id: statistic ``x``, ``T(theta) = -log(-theta)``.

    The mean parameter is the distribution's mean ``-1/theta``; outcomes are
    exponential with rate ``-theta``.
    """

    @property
    def id(self) -> str:
        return "exponential-rate"


class GaussianMoments(ExpFamily):
    """Real outcomes with statistic ``(x, x**2)``: eliciting mean and variance.

    Mean parameters are the first two raw moments ``(m, m**2 + v)``; the
    realizable set requires positive variance ``mu2 - mu1**2 > 0``.
    """

    dim = 2

    @property
    def id(self) -> str:
        return "gaussian-moments"

    def _natural_interior(self, theta, margin) -> bool:
        return bool(theta[1] <= -margin)

    def _mean_interior(self, mu, margin) -> bool:
        return bool(mu[1] - mu[0] ** 2 >= margin)

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not math.isfinite(xf):
            raise DomainError(f"{self.id}: outcome must be a finite real, got {x!r}")
        return xf

    def _log_partition(self, theta) -> float:
        t1, t2 = theta
        return -(t1 * t1) / (4.0 * t2) - 0.5 * math.log(-2.0 * t2) + 0.5 * _LOG_TWO_PI

    def _mean(self, theta) -> np.ndarray:
        t1, t2 = theta
        m = -t1 / (2.0 * t2)
        return np.array([m, m * m - 1.0 / (2.0 * t2)])

    def _natural(self, mu) -> np.ndarray:
        m, m2 = mu
        v = m2 - m * m
        return np.array([m / v, -0.5 / v])

    def _statistic(self, x) -> np.ndarray:
        return np.array([x, x * x])

    def _sample(self, theta, rng, size):
        mu = self._mean(theta)
        m = mu[0]
        sd = math.sqrt(mu[1] - m * m)
        z = rng.standard_normal() if size is None else rng.standard_normal(size)
        drawn = m + sd * z
        return float(drawn) if size is None else drawn


def _vmf_mean_ratio(kappa: float) -> float:
    """``(coth(k) - 1/k) / k``, the factor mapping theta to its mean."""
    if kappa < 1e-2:
        k2 = kappa * kappa
        return 1.0 / 3.0 - k2 / 45.0 + 2.0 * k2 * k2 / 945.0 - k2 * k2 * k2 / 4725.0
    return (1.0 / math.tanh(kappa) - 1.0 / kappa) / kappa


def _vmf_mean_resultant(kappa: float) -> float:
    """``coth(k) - 1/k``, the norm of the mean at concentration ``k``."""
    return _vmf_mean_ratio(kappa) * kappa


def _vmf_mean_resultant_deriv(kappa: float) -> float:
    """Derivative of ``coth(k) - 1/k``; positive, so the map is invertible."""
    if kappa < 1e-2:
        k2 = kappa * kappa
        return 1.0 / 3.0 - k2 / 15.0 + 2.0 * k2 * k2 / 189.0 - 7.0 * k2 * k2 * k2 / 4725.0
    if kappa > 30.0:
        return 1.0 / (kappa * kappa) - 4.0 * math.exp(-2.0 * kappa)
    s = math.sinh(kappa)
    return 1.0 / (kappa * kappa) - 1.0 / (s * s)


class VonMisesFisher3(ExpFamily):
    """Unit-sphere outcomes in R^3 with identity statistic.

    The log normalizer has the closed form ``log(4*pi*sinh(k)/k)`` with
    ``k = |theta|`` (half-integer Bessel functions are elementary in three
    dimensions).  A series is used for ``k < 1e-4`` to avoid cancellation.
    Mean parameters fill the open unit ball; the inverse map solves
    ``coth(k) - 1/k = |mu|`` by damped Newton iteration, which is globally
    convergent because the left-hand side is increasing.  Sampling is not
    supported.
    """

    dim = 3

    _SERIES_CUTOFF = 1e-4

    @property
    def id(self) -> str:
        return "vmf3"

    def _natural_interior(self, theta, margin) -> bool:
        return True  # T is finite on all of R^3

    def _mean_interior(self, mu, margin) -> bool:
        return bool(float(np.linalg.norm(mu)) <= 1.0 - margin)

    def check_outcome(self, x):
        values = x.tolist() if isinstance(x, np.ndarray) else x
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise DomainError(f"{self.id}: outcome must be a finite 3-vector, got {x!r}")
        arr = np.array([_real_outcome(self, v) for v in values])
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{self.id}: outcome must be a finite 3-vector, got {x!r}")
        if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-8:
            raise DomainError(f"{self.id}: outcome must lie on the unit sphere, got norm {np.linalg.norm(arr)}")
        return arr

    def _log_partition(self, theta) -> float:
        kappa = float(np.linalg.norm(theta))
        if kappa < self._SERIES_CUTOFF:
            k2 = kappa * kappa
            return _LOG_FOUR_PI + k2 / 6.0 - k2 * k2 / 180.0
        # log(sinh k) = k + log1p(-exp(-2k)) - log 2, overflow-safe
        return _LOG_FOUR_PI + kappa + math.log1p(-math.exp(-2.0 * kappa)) - math.log(2.0) - math.log(kappa)

    def _mean(self, theta) -> np.ndarray:
        kappa = float(np.linalg.norm(theta))
        return theta * _vmf_mean_ratio(kappa)

    def _natural(self, mu) -> np.ndarray:
        r = float(np.linalg.norm(mu))
        if r == 0.0:
            return np.zeros(3)
        kappa = _invert_monotone(
            _vmf_mean_resultant,
            _vmf_mean_resultant_deriv,
            target=r,
            x0=r * (3.0 - r * r) / (1.0 - r * r),
        )
        return mu * (kappa / r)

    def _statistic(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)


def _invert_monotone(func, deriv, target: float, x0: float,
                     tol: float = 1e-12, max_iter: int = 100) -> float:
    """Solve ``func(x) = target`` for x > 0 by damped Newton with step halving."""
    x = max(x0, 1e-12)
    resid = func(x) - target
    for _ in range(max_iter):
        if abs(resid) <= tol:
            return x
        step = -resid / deriv(x)
        scale = 1.0
        for _ in range(60):
            candidate = x + scale * step
            if candidate > 0.0:
                new_resid = func(candidate) - target
                if abs(new_resid) < abs(resid):
                    x, resid = candidate, new_resid
                    break
            scale *= 0.5
        else:
            break  # no acceptable step; fall through to the error
    if abs(resid) <= tol:
        return x
    raise ConvergenceError(f"Newton inversion stalled at residual {resid:g} after {max_iter} iterations")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

FAMILY_IDS = (
    "categorical:K",
    "exponential-rate",
    "gaussian-moments",
    "weibull-moment:k",
    "vmf3",
)


def family_from_id(family_id: str) -> ExpFamily:
    """Build a family from its id string, e.g. ``"categorical:3"``."""
    if not isinstance(family_id, str):
        raise DomainError(f"family id must be a string, got {family_id!r}")
    name, sep, arg = family_id.partition(":")
    if name == "categorical":
        if not sep:
            raise DomainError("categorical requires an outcome count, e.g. 'categorical:3'")
        try:
            return Categorical(int(arg))
        except ValueError as exc:
            raise DomainError(f"bad categorical outcome count {arg!r}") from exc
    if name == "weibull-moment":
        if not sep:
            raise DomainError("weibull-moment requires a moment order, e.g. 'weibull-moment:2'")
        try:
            return WeibullMoment(float(arg))
        except ValueError as exc:
            raise DomainError(f"bad weibull moment order {arg!r}") from exc
    if sep:
        raise DomainError(f"family {name!r} takes no parameter, got {family_id!r}")
    if name == "exponential-rate":
        return ExponentialRate()
    if name == "gaussian-moments":
        return GaussianMoments()
    if name == "vmf3":
        return VonMisesFisher3()
    raise DomainError(f"unknown family id {family_id!r}; known: {', '.join(FAMILY_IDS)}")
