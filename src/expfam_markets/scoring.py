"""Log scoring rules for statistic expectations.

A report is a mean parameter ``mu``; the score at outcome ``x`` is the log
density of the family member whose expected statistic equals the report.
Because the log density is linear in the statistic, the expected score under
any belief depends on the belief only through its expected statistic, which
is what makes the rule proper: truthfully reporting the expectation
maximizes the expected score, for any belief supported on the family's
outcome space, not just members of the family.

The canonical scaling here is the raw log density with respect to the
family's base measure.  Textbook displays of these rules often drop
report-independent terms or constant factors; those variants differ from
ours by an affine map ``a * S + b(x)`` with ``a > 0``, which preserves
properness.  For ``gaussian-moments`` the external convention is a
``(mean, variance)`` report, converted here to raw moments.
"""

from __future__ import annotations

import math
from array import array

from .errors import DomainError
from .families import ExpFamily, _dot, _float


def log_score(family: ExpFamily, report_mu, x) -> float:
    """Score a mean-parameter report against a realized outcome.

    Returns ``log p(x; report_mu)``; ``-inf`` is possible only at
    zero-density outcomes and is returned rather than raised.
    """
    theta = family.natural_from_mean(report_mu)
    return family.log_density(theta, x)


def expected_score(family: ExpFamily, report_mu, belief_mu) -> float:
    """Expected score of a report under any belief with mean ``belief_mu``.

    Evaluates ``<theta_hat, belief_mu> - T(theta_hat)`` where ``theta_hat``
    is the natural parameter of the report; linear in the belief mean.
    ``belief_mu`` may lie on the boundary of the realizable set (empirical
    means can), the report must be interior.
    """
    theta_hat = family.natural_from_mean(report_mu)
    belief = family.check_mean(belief_mu, margin=0.0)
    return _dot(theta_hat, belief) - family.log_partition(theta_hat)


def score_regret(family: ExpFamily, belief_mu, report_mu) -> float:
    """Expected score lost by reporting ``report_mu`` instead of the truth.

    Equals the Bregman divergence of the log-partition function between the
    two reports' natural parameters, so it is nonnegative and zero only for
    a truthful report.
    """
    return expected_score(family, belief_mu, belief_mu) - expected_score(family, report_mu, belief_mu)


def moments_from_mean_variance(mean: float, variance: float) -> array:
    """Convert a (mean, variance) report to raw moments ``(m, m**2 + v)``; DomainError unless both are finite, v > 0."""
    mean, variance = _float(mean), _float(variance)
    if not math.isfinite(mean):
        raise DomainError(f"mean must be finite, got {mean}")
    if not 0.0 < variance < math.inf:
        raise DomainError(f"variance must be positive and finite, got {variance}")
    return array("d", (mean, mean * mean + variance))
