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
  ``k = |theta|``, evaluated by a series for small ``k``.

A family's ``id`` is a value, not a method: the three parameterless
families hold it as a class attribute, ``Categorical`` sets it when built,
and only ``WeibullMoment`` derives it, from its order.  ``family_from_id``
looks the parameterless families up in one table keyed by those class ids.

All parameters are ``array('d')`` float64 vectors (scalars are accepted
for one-dimensional families), so the scalar path imports no numpy.
Parameters within ``1e-12`` of a domain boundary are rejected: ``T`` blows
up at the boundary, so values there are numerically meaningless.  Family
objects are immutable after construction and every operation is a pure
function, safe to share across threads; random sampling uses a caller-owned
``numpy.random.Generator``, and every family samples.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from itertools import accumulate

from .errors import DomainError

BOUNDARY_MARGIN = 1e-12

_LOG_TWO_PI = math.log(2.0 * math.pi)
_LOG_FOUR_PI = math.log(4.0 * math.pi)


def _vector(value) -> array:
    """A scalar or a flat sequence of reals as a float vector; TypeError for anything else."""
    try:
        return array("d", value)
    except TypeError:  # a scalar, or a nested or non-numeric sequence
        return array("d", (value,))


def as_params(value, dim: int, name: str = "params") -> array:
    """Coerce a scalar or a flat sequence of reals to a finite float vector of length ``dim``."""
    try:
        vec = _vector(value)
    except (TypeError, OverflowError) as exc:  # OverflowError: an integer beyond the float range
        raise DomainError(f"{name} must be a flat vector of {dim} reals, got {value!r}") from exc
    if len(vec) != dim:
        raise DomainError(f"{name} must be a vector of length {dim}, got length {len(vec)}")
    if not all(map(math.isfinite, vec)):
        raise DomainError(f"{name} must be finite, got {vec.tolist()}")
    return vec


def _scaled(c: float, vec) -> array:
    """``c * vec`` elementwise: each product rounds as numpy's scalar-times-array did."""
    return array("d", [c * v for v in vec])


def _sum(values: list[float]) -> float:
    """Left-to-right float sum: the same bits on every machine (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dot(a, b) -> float:
    """``<a, b>`` as the correctly rounded sum of the products (the same bits on every machine), or DomainError."""
    try:
        return math.fsum([x * y for x, y in zip(a, b)])
    except (ValueError, OverflowError) as exc:  # inf - inf, or finite products whose sum overflows
        raise DomainError(f"the inner product of {list(a)} and {list(b)} has no float value ({exc})") from exc


def _real_outcome(family: "ExpFamily", x) -> float:
    """``x`` as a float (±inf past the float range) if it is a real number (not a bool); else DomainError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{family.id}: outcome must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer such as 10**400: every family's own rule refuses an infinite outcome
        return math.inf if x > 0 else -math.inf


class ExpFamily(ABC):
    """A registered exponential family.

    Subclasses define the statistic, the domain tests, and closed forms for
    the log-partition function and its gradient/inverse-gradient.  The
    Bregman divergence and log density are derived here from those pieces.
    """

    dim: int
    id: str  # the registry id, e.g. "categorical:3": a class value, or set by the constructor

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.id!r})"

    # ------------------------------------------------------------------
    # Domain checks
    # ------------------------------------------------------------------

    def check_natural(self, theta, margin: float = BOUNDARY_MARGIN) -> array:
        """Validate a natural parameter, returning it as a float vector."""
        theta = as_params(theta, self.dim, "theta")
        if not self._natural_interior(theta, margin):
            raise DomainError(
                f"{self.id}: natural parameter {theta.tolist()} outside the domain "
                f"(or within {margin:g} of its boundary)"
            )
        return theta

    def check_mean(self, mu, margin: float = BOUNDARY_MARGIN) -> array:
        """Validate a mean parameter.  ``margin=0`` admits the closure."""
        mu = as_params(mu, self.dim, "mu")
        if not self._mean_interior(mu, margin):
            raise DomainError(
                f"{self.id}: mean parameter {mu.tolist()} outside the realizable set "
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

    def _natural_interior(self, theta: array, margin: float) -> bool:
        return True  # T is finite on all of R^dim (categorical); a family with a boundary overrides this

    @abstractmethod
    def _mean_interior(self, mu: array, margin: float) -> bool: ...

    @abstractmethod
    def check_outcome(self, x):
        """Validate an outcome, returning its canonical form."""

    # ------------------------------------------------------------------
    # Core maps
    # ------------------------------------------------------------------

    def log_partition(self, theta) -> float:
        """Evaluate ``T(theta)``, the log normalizer of the family."""
        return self._log_partition(self.check_natural(theta))

    def mean_from_natural(self, theta) -> array:
        """Gradient map: expected statistic of the member with parameter ``theta``."""
        return self._mean(self.check_natural(theta))

    def natural_from_mean(self, mu) -> array:
        """Inverse gradient map: the natural parameter whose mean is ``mu``."""
        return self._natural(self.check_mean(mu))

    @abstractmethod
    def _log_partition(self, theta: array) -> float: ...

    @abstractmethod
    def _mean(self, theta: array) -> array: ...

    @abstractmethod
    def _natural(self, mu: array) -> array: ...

    def statistic(self, x) -> array:
        """Evaluate the statistic ``phi`` at a validated outcome."""
        return self._statistic(self.check_outcome(x))

    @abstractmethod
    def _statistic(self, x) -> array: ...

    def _pair(self, vec, x) -> float:
        """``<vec, phi(x)>`` at a trusted outcome, with ``_dot``'s bits or DomainError; vmf3 alone keeps it."""
        return _dot(vec, self._statistic(x))

    def log_density(self, theta, x) -> float:
        """Log density ``<theta, phi(x)> - T(theta)`` w.r.t. the base measure, paired through ``_pair``."""
        theta = self.check_natural(theta)
        return self._pair(theta, self.check_outcome(x)) - self._log_partition(theta)

    def bregman_divergence(self, theta_a, theta_b) -> float:
        """``T(a) - T(b) - <a - b, grad T(b)>``; nonnegative, zero iff equal.

        Equals the KL divergence from the member at ``theta_b`` to the member
        at ``theta_a`` with arguments swapped: ``KL(p_b || p_a)``.
        """
        theta_a = self.check_natural(theta_a)
        theta_b = self.check_natural(theta_b)
        return (self._log_partition(theta_a) - self._log_partition(theta_b)
                - _dot([a - b for a, b in zip(theta_a, theta_b)], self._mean(theta_b)))

    def sample(self, theta, rng):
        """Draw one outcome from the member at ``theta`` using a caller-owned ``numpy.random.Generator``.

        Returns one call of ``_sampler``'s draw function; draws are deterministic given the generator state.
        """
        return self._sampler(self.check_natural(theta))(rng)

    @abstractmethod
    def _sampler(self, theta: array):
        """``draw(rng)`` for the member at ``theta``: one outcome per call.

        Its constants are computed here, once; ``sample`` and ``run_simulation`` both draw through it.
        A draw calls only ``rng.random()`` or ``rng.standard_normal()``, one kind per family and with no
        argument: those two are all that ``run_simulation``'s block-serving stand-in (``harness._served``) has.
        """


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
        self.id = f"categorical:{k}"

    def _mean_interior(self, mu, margin) -> bool:
        return all(v >= margin for v in mu) and abs(_sum(mu) - 1.0) <= 1e-9

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not (xf.is_integer() and 1 <= xf <= self.k):
            raise DomainError(f"{self.id}: outcome must be an integer in 1..{self.k}, got {x!r}")
        return int(xf)

    def _log_partition(self, theta) -> float:
        m = max(theta)
        return m + math.log(_sum([math.exp(v - m) for v in theta]))

    def _mean(self, theta) -> array:
        m = max(theta)
        e = [math.exp(v - m) for v in theta]
        total = _sum(e)
        return array("d", [v / total for v in e])

    def _natural(self, mu) -> array:
        logs = [math.log(v) for v in mu]
        mean = _sum(logs) / len(logs)
        return array("d", [v - mean for v in logs])

    def _statistic(self, x) -> array:
        phi = array("d", (0.0,)) * self.k
        phi[x - 1] = 1.0
        return phi

    def _pair(self, vec, x) -> float:
        return vec[x - 1] + 0.0  # fsum of one nonzero product is it, of zeros +0.0; + 0.0 turns -0.0 into +0.0

    def _sampler(self, theta):
        cdf = list(accumulate(self._mean(theta)))  # left to right, as numpy's cumsum
        last = self.k - 1  # searching only the first k-1 bounds caps the outcome at k if the sum rounds below 1
        return lambda rng: bisect_right(cdf, rng.random(), 0, last) + 1


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
        short = f"{self.k:g}"  # six significant digits: kept only where they read back as k
        return f"weibull-moment:{short if float(short) == self.k else repr(self.k)}"

    def _natural_interior(self, theta, margin) -> bool:
        return theta[0] <= -margin

    def _mean_interior(self, mu, margin) -> bool:
        return mu[0] >= margin

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not math.isfinite(xf) or xf < 0.0:
            raise DomainError(f"{self.id}: outcome must be a nonnegative real, got {x!r}")
        return xf

    def _log_partition(self, theta) -> float:
        return -math.log(-theta[0]) - math.log(self.k)

    def _mean(self, theta) -> array:
        return array("d", (-1.0 / theta[0],))

    def _natural(self, mu) -> array:
        return array("d", (-1.0 / mu[0],))

    def _moment(self, x) -> float:
        try:
            return x**self.k
        except OverflowError:  # float ** raises where numpy and x*x give inf
            return math.inf

    def _statistic(self, x) -> array:
        return array("d", (self._moment(x),))

    def _pair(self, vec, x) -> float:
        return vec[0] * self._moment(x) + 0.0  # fsum of one term is that term, with -0.0 as +0.0

    def _sampler(self, theta):
        rate = -theta[0]
        power = 1.0 / self.k

        def draw(rng):
            try:
                return (-math.log1p(-rng.random()) / rate) ** power
            except OverflowError as exc:  # a draw beyond the largest float: no outcome can be reported
                raise DomainError(f"{self.id}: a draw at theta {theta.tolist()} overflows") from exc
        return draw


class ExponentialRate(WeibullMoment):
    """``weibull-moment:1`` under its own id: statistic ``x``, ``T(theta) = -log(-theta)``.

    The mean parameter is the distribution's mean ``-1/theta``; outcomes are
    exponential with rate ``-theta``.
    """

    id = "exponential-rate"  # a class value takes precedence over WeibullMoment's order-derived property


class GaussianMoments(ExpFamily):
    """Real outcomes with statistic ``(x, x**2)``: eliciting mean and variance.

    Mean parameters are the first two raw moments ``(m, m**2 + v)``; the
    realizable set requires positive variance ``mu2 - mu1**2 > 0``.
    """

    id = "gaussian-moments"
    dim = 2

    def _natural_interior(self, theta, margin) -> bool:
        # Prices (m, m**2 + v) that overflow are as meaningless as a theta at the boundary.
        return theta[1] <= -margin and theta[1] < 0.0 and all(map(math.isfinite, self._mean(theta)))

    def _mean_interior(self, mu, margin) -> bool:
        return mu[1] - mu[0] * mu[0] >= margin  # float ** raises OverflowError where * gives inf

    def check_outcome(self, x):
        xf = _real_outcome(self, x)
        if not math.isfinite(xf):
            raise DomainError(f"{self.id}: outcome must be a finite real, got {x!r}")
        return xf

    def _log_partition(self, theta) -> float:
        t1, t2 = theta  # Python floats: an overflow gives inf, not a RuntimeWarning
        return -(t1 * t1) / (4.0 * t2) - 0.5 * math.log(-2.0 * t2) + 0.5 * _LOG_TWO_PI

    def _mean(self, theta) -> array:
        t1, t2 = theta
        m = -t1 / (2.0 * t2)
        return array("d", (m, m * m - 1.0 / (2.0 * t2)))

    def _natural(self, mu) -> array:
        m, m2 = mu
        v = m2 - m * m
        return array("d", (m / v, -0.5 / v))

    def _statistic(self, x) -> array:
        return array("d", (x, x * x))

    def _pair(self, vec, x) -> float:
        # A finite total is fsum's (the rounded sum of two terms, -0.0 as +0.0); _dot keeps every other case
        total = vec[0] * x + vec[1] * (x * x) + 0.0
        return total if math.isfinite(total) else _dot(vec, self._statistic(x))

    def _sampler(self, theta):
        m, sd = self._mean(theta)[0], math.sqrt(-0.5 / theta[1])  # not sqrt(m2 - m*m), which cancels once |m| >> sd
        return lambda rng: m + sd * rng.standard_normal()


def _vmf_mean_ratio(kappa: float) -> float:
    """``(coth(k) - 1/k) / k``, the factor mapping theta to its mean.

    Below ``k = 2`` the difference cancels, so it is Lambert's continued
    fraction ``1/(3 + k**2/(5 + k**2/(7 + ...)))``, cut after 14 levels.
    """
    if kappa < 2.0:
        k2 = kappa * kappa
        tail = 29.0
        for n in range(27, 1, -2):
            tail = n + k2 / tail
        return 1.0 / tail
    return (1.0 / math.tanh(kappa) - 1.0 / kappa) / kappa


def _vmf_mean_resultant(kappa: float) -> float:
    """``coth(k) - 1/k``, the norm of the mean at concentration ``k``."""
    return _vmf_mean_ratio(kappa) * kappa


class VonMisesFisher3(ExpFamily):
    """Unit-sphere outcomes in R^3 with identity statistic.

    The log normalizer has the closed form ``log(4*pi*sinh(k)/k)`` with
    ``k = |theta|`` (half-integer Bessel functions are elementary in three
    dimensions).  A series is used for ``k < 1e-4`` to avoid cancellation.
    A natural parameter is any vector whose norm ``k`` is a finite float.
    Mean parameters fill the open unit ball; the inverse map solves
    ``coth(k) - 1/k = |mu|`` by bisection at geometric midpoints on the
    bracket ``[3|mu|, 1/(1 - |mu|)]``, which always holds the root.  It stops
    when no midpoint falls strictly inside the bracket, so it has no
    tolerance, cap or failure path.

    A draw inverts the cosine's CDF ``expm1(k*(w + 1)) / expm1(2*k)`` at one
    ``random()`` (Wood 1994), takes a uniform angle from a second, and
    reflects the point from the pole farther from ``theta`` onto its
    direction.
    """

    id = "vmf3"
    dim = 3

    _SERIES_CUTOFF = 1e-4

    def _natural_interior(self, theta, margin) -> bool:
        return math.isfinite(math.hypot(*theta))  # every kernel reads k = |theta|, which overflows near 1.8e308

    def _mean_interior(self, mu, margin) -> bool:
        return math.hypot(*mu) <= 1.0 - margin

    def check_outcome(self, x):
        values = x.tolist() if hasattr(x, "tolist") else x  # an ndarray or array('d')
        if not isinstance(values, (list, tuple)) or len(values) != 3:
            raise DomainError(f"{self.id}: outcome must be a finite 3-vector, got {x!r}")
        vec = array("d", [_real_outcome(self, v) for v in values])
        if not all(map(math.isfinite, vec)):
            raise DomainError(f"{self.id}: outcome must be a finite 3-vector, got {x!r}")
        if abs(math.hypot(*vec) - 1.0) > 1e-8:
            raise DomainError(f"{self.id}: outcome must lie on the unit sphere, got norm {math.hypot(*vec)}")
        return vec

    def _log_partition(self, theta) -> float:
        kappa = math.hypot(*theta)
        if kappa < self._SERIES_CUTOFF:
            k2 = kappa * kappa
            return _LOG_FOUR_PI + k2 / 6.0 - k2 * k2 / 180.0
        # log(sinh k) = k + log1p(-exp(-2k)) - log 2, overflow-safe
        return _LOG_FOUR_PI + kappa + math.log1p(-math.exp(-2.0 * kappa)) - math.log(2.0) - math.log(kappa)

    def _mean(self, theta) -> array:
        return _scaled(_vmf_mean_ratio(math.hypot(*theta)), theta)

    def _natural(self, mu) -> array:
        r = math.hypot(*mu)
        if r == 0.0:
            return array("d", (0.0, 0.0, 0.0))
        # A(k) = coth(k) - 1/k is increasing and concave with A'(0) = 1/3, so A(3r) <= r; and coth(k) > 1
        # gives A(1/(1 - r)) > r.  check_mean keeps r <= 1 - 1e-12, so hi stays below about 1e12.
        lo, hi = 3.0 * r, 1.0 / (1.0 - r)
        # Each step halves log(hi/lo) and keeps A(lo) <= r <= A(hi); the loop ends once the midpoint rounds
        # to an end.  The midpoint is not sqrt(lo * hi), which underflows for a tiny r.
        kappa = math.sqrt(lo) * math.sqrt(hi)
        while lo < kappa < hi:
            if _vmf_mean_resultant(kappa) < r:
                lo = kappa
            else:
                hi = kappa
            kappa = math.sqrt(lo) * math.sqrt(hi)
        return _scaled(hi / r, mu)

    def _statistic(self, x) -> array:
        return array("d", x)

    def _sampler(self, theta):
        kappa = math.hypot(*theta)
        # Below 1e-16 the law is uniform within a draw's rounding, and a subnormal k would throw w below -1.
        uniform = kappa < 1e-16
        scale = math.expm1(-2.0 * kappa)  # rounds to -1 above k = 18 or so, where v * scale stays above -1
        mx, my, mz = (0.0, 0.0, 1.0) if uniform else [t / kappa for t in theta]
        pole = -1.0 if mz >= 0.0 else 1.0  # the farther pole: u = (mx, my, mz - pole) has |u_z| >= 1, so no cancelling

        def draw(rng):
            v = rng.random()
            w = 2.0 * v - 1.0 if uniform else 1.0 + math.log1p(v * scale) / kappa  # the cosine to the mean direction
            s = math.sqrt(max(0.0, 1.0 - w * w))
            angle = 2.0 * math.pi * rng.random()
            a, b = s * math.cos(angle), s * math.sin(angle)
            c = w - (mx * a + my * b) / (1.0 + abs(mz))  # (a, b, pole*w) reflected in the plane normal to u
            return array("d", (a + mx * c, b + my * c, pole * (w - c) + mz * c))
        return draw


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

_PARAMETERLESS = {cls.id: cls for cls in (ExponentialRate, GaussianMoments, VonMisesFisher3)}
# name: (class, parser of the argument, what it requires, an example argument, what a bad argument is)
_PARAMETERIZED = {"categorical": (Categorical, int, "an outcome count", 3, "categorical outcome count"),
                  "weibull-moment": (WeibullMoment, float, "a moment order", 2, "weibull moment order")}


def family_from_id(family_id: str) -> ExpFamily:
    """Build a family from its id string, e.g. ``"categorical:3"``."""
    if not isinstance(family_id, str):
        raise DomainError(f"family id must be a string, got {family_id!r}")
    name, sep, arg = family_id.partition(":")
    if name in _PARAMETERIZED:
        cls, parse, requires, example, what = _PARAMETERIZED[name]
        if not sep:
            raise DomainError(f"{name} requires {requires}, e.g. '{name}:{example}'")
        try:
            value = parse(arg)
        except ValueError as exc:
            raise DomainError(f"bad {what} {arg!r}") from exc
        return cls(value)
    if sep:
        raise DomainError(f"family {name!r} takes no parameter, got {family_id!r}")
    if name not in _PARAMETERLESS:
        raise DomainError(f"unknown family id {family_id!r}; known: {', '.join(FAMILY_IDS)}")
    return _PARAMETERLESS[name]()
