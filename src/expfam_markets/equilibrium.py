"""Equilibrium of a market populated by exponential-utility traders.

Each trader ``i`` holds belief ``theta_hat_i`` and risk aversion ``a_i > 0``
and chooses a portfolio ``delta_i``; all trade against one market with cost
``T`` (unit inverse liquidity) starting from ``theta0``.  The (monotone
transform of) trader ``i``'s expected utility is

    U_i(deltas) = -T(theta0 + sum_j delta_j) + T(theta0 + sum_{j!=i} delta_j)
                  - (1/a_i) * [T(theta_hat_i - a_i*delta_i) - T(theta_hat_i)]

and unilateral changes of ``delta_i`` move every ``U_i`` by exactly the
same amount as the potential

    Phi(deltas) = -T(theta0 + sum_j delta_j)
                  - sum_i (1/a_i) * T(theta_hat_i - a_i*delta_i),

so allocations are a Nash equilibrium precisely at local optima of ``Phi``.

Uniqueness sketch: ``-Phi`` is jointly convex (a convex function of the sum
plus separable convex terms) and strictly convex for families with a
minimal statistic -- its Hessian is a positive-semidefinite all-pairs block
of ``hess T(theta0 + sum delta)`` plus a block-diagonal positive-definite
``a_i * hess T(theta_hat_i - a_i*delta_i)``.  The stationary point is
therefore the unique global optimum, and solving the stationarity
conditions in closed form gives the equilibrium share vector

    theta_eq = (theta0 + sum_i theta_hat_i / a_i) / (1 + sum_i 1/a_i),

a convex combination of the initial state and the beliefs weighted by risk
tolerance ``1/a_i``, with per-trader allocations ``delta_i = (theta_hat_i -
theta_eq) / a_i``.  (For the categorical family the statistic is
non-minimal: allocations are unique only up to offsetting shifts along the
all-ones direction, but the equilibrium share vector, prices, and potential
value are still unique, and the deterministic best-response map below
converges to the closed-form allocation.)

Cyclic best response coordinate-ascends ``Phi`` and serves as an
independent check of the closed form; each response is the trade the
simulation engine makes, ``traders._exp_utility_move``, so the check covers
the engine's decision rule.  Its relative tolerance ``_TOL`` (1e-10) and its
cap ``_MAX_SWEEPS`` (1,000 sweeps) are constants.  Risk-neutral traders
(``a = 0``) are rejected: the closed form divides by ``a_i``, and a
risk-neutral trader has no finite-optimum response once another trader
disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .families import ExpFamily, as_params
from .traders import _exp_utility_move

_MAX_SWEEPS = 1000
_TOL = 1e-10


@dataclass
class EquilibriumProblem:
    """Initial market state plus the traders' beliefs and risk aversions."""

    family: ExpFamily
    theta0: np.ndarray
    beliefs: list[np.ndarray]
    risk_aversions: list[float]

    def __post_init__(self):
        fam = self.family
        self.theta0 = np.asarray(fam.check_natural(self.theta0))
        if len(self.beliefs) != len(self.risk_aversions):
            raise DomainError("beliefs and risk_aversions must have equal length")
        self.beliefs = [np.asarray(fam.check_natural(b)) for b in self.beliefs]
        self.risk_aversions = [float(a) for a in self.risk_aversions]
        for a in self.risk_aversions:
            if not (a > 0.0 and 1.0 / a < np.inf):
                raise DomainError(f"risk aversion must be strictly positive with a finite tolerance 1/a, got {a}")


def _check_allocation(problem: EquilibriumProblem, deltas) -> tuple[list[np.ndarray], np.ndarray]:
    """The checked allocations, with the share vector ``theta0 + sum(deltas)`` they lead to."""
    deltas = [np.asarray(as_params(d, problem.family.dim, f"delta[{i}]")) for i, d in enumerate(deltas)]
    if len(deltas) != len(problem.beliefs):
        raise DomainError(f"expected {len(problem.beliefs)} allocations, got {len(deltas)}")
    return deltas, problem.theta0 + sum(deltas, np.zeros(problem.family.dim))


def potential(problem: EquilibriumProblem, deltas) -> float:
    """Game potential at an allocation; unilateral deviations change it by
    exactly the deviating trader's log-utility change, so best responses
    never decrease it and Nash equilibria sit at its optimum."""
    fam = problem.family
    deltas, total = _check_allocation(problem, deltas)
    value = -fam.log_partition(total)
    for belief, a, delta in zip(problem.beliefs, problem.risk_aversions, deltas):
        value -= fam.log_partition(belief - a * delta) / a
    return value


def log_utility(problem: EquilibriumProblem, deltas, i: int) -> float:
    """Trader ``i``'s objective (a monotone transform of expected utility)."""
    fam = problem.family
    deltas, total = _check_allocation(problem, deltas)
    others = total - deltas[i]
    belief, a = problem.beliefs[i], problem.risk_aversions[i]
    return (
        -fam.log_partition(total)
        + fam.log_partition(others)
        - (fam.log_partition(belief - a * deltas[i]) - fam.log_partition(belief)) / a
    )


def closed_form_equilibrium(problem: EquilibriumProblem) -> tuple[np.ndarray, list[np.ndarray]]:
    """Equilibrium share vector and per-trader allocations.

    The share vector is the risk-tolerance-weighted average of the initial
    state and the beliefs; allocations follow from stationarity,
    ``delta_i = (theta_hat_i - theta_eq) / a_i``.  A share vector that
    overflows raises DomainError, with no numpy warning before it.
    """
    tolerances = [1.0 / a for a in problem.risk_aversions]
    with np.errstate(over="ignore", invalid="ignore"):  # check_natural refuses a non-finite theta_eq
        theta_eq = problem.theta0 + sum(
            t * b for t, b in zip(tolerances, problem.beliefs)
        )
        theta_eq = theta_eq / (1.0 + sum(tolerances))
    problem.family.check_natural(theta_eq)
    deltas = [(b - theta_eq) / a for b, a in zip(problem.beliefs, problem.risk_aversions)]
    return theta_eq, deltas


@dataclass
class BestResponseResult:
    """Outcome of cyclic best-response dynamics."""

    deltas: list[np.ndarray]
    theta_eq: np.ndarray
    sweeps: int
    potentials: list[float]  # potential value after each sweep


@np.errstate(over="ignore", invalid="ignore")  # potential refuses a non-finite response or share vector
def best_response_dynamics(problem: EquilibriumProblem) -> BestResponseResult:
    """Iterate each trader's best response until allocations stop moving.

    Trader ``i``'s best response is the engine's exponential-utility move
    (``traders._exp_utility_move``) at the residual state ``theta_rest``,
    the market with its own position removed, at unit inverse liquidity:
    ``(theta_hat_i - theta_rest) / (1 + a_i)``.  Sweeps ascend the
    potential; convergence is declared when no allocation component moves
    more than ``_TOL`` times the largest absolute component of the share
    vector and the allocations within a sweep, and ConvergenceError is
    raised after ``_MAX_SWEEPS`` sweeps without it.  A response that
    overflows raises DomainError when ``potential`` checks the sweep, with
    no numpy warning before it.
    """
    deltas = [np.zeros(problem.family.dim) for _ in problem.beliefs]
    theta = problem.theta0.copy()
    potentials = []
    for sweep in range(1, _MAX_SWEEPS + 1):
        largest_move = 0.0
        for i, (belief, a) in enumerate(zip(problem.beliefs, problem.risk_aversions)):
            theta_rest = theta - deltas[i]
            response = np.asarray(_exp_utility_move(theta_rest, 1.0, belief, a))
            largest_move = max(largest_move, float(np.max(np.abs(response - deltas[i]))))
            deltas[i] = response
            theta = theta_rest + response
        potentials.append(potential(problem, deltas))
        if largest_move <= _TOL * float(np.max(np.abs([theta, *deltas]))):
            return BestResponseResult(deltas=deltas, theta_eq=theta, sweeps=sweep, potentials=potentials)
    raise ConvergenceError(
        f"best response dynamics did not converge within {_MAX_SWEEPS} sweeps (last move {largest_move:g})"
    )
