"""Budget-constrained approximation via a geometric sweep of oracle weights.

Given an alpha-approximate weighted-sum oracle and 0 < eps <= 1, sweeping
the weights (1+eps)^i over an exactly computed index range and keeping the
best record inside the budget filter yields an
(alpha*(1+2*eps), alpha*(1+2/eps))-approximation for minimizing f2 subject
to f1 <= B.  With eps = 1 the factors specialize to (3*alpha, 3*alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Bounds,
    GuaranteeCertificate,
    ProblemAdapter,
    SolutionRecord,
    ceil_log,
    check_epsilon,
    floor_log,
    pow_one_plus_eps,
    rational,
)
from .errors import NoCertificate


@dataclass(frozen=True)
class IndexRange:
    """Inclusive integer exponent range for the weight grid (1+eps)^i."""

    i_min: int
    i_max: int

    def __post_init__(self):
        if self.i_min > self.i_max:
            raise ValueError(f"empty index range {self}")

    def __iter__(self):
        return iter(range(self.i_min, self.i_max + 1))

    def __len__(self):
        return self.i_max - self.i_min + 1


@dataclass(frozen=True)
class BudgetQuery:
    """A budget B > 0 on f1 together with the accuracy parameter eps."""

    budget: Fraction
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "budget", rational(self.budget))
        object.__setattr__(self, "eps", check_epsilon(self.eps))
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")


def index_range(eps, budget, bounds: Bounds) -> IndexRange:
    """Exponent range bracketing the ideal weight eps*B/OPT(B).

    i_min is the largest integer with (1+eps)^i_min <= eps*B/UB(2) and
    i_max the smallest with (1+eps)^i_max >= eps*B/LB(2), both found by
    exact rational comparison of powers rather than logarithms.
    """
    eps = check_epsilon(eps)
    budget = rational(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    base = 1 + eps
    return IndexRange(
        floor_log(base, eps * budget / bounds.ub2),
        ceil_log(base, eps * budget / bounds.lb2),
    )


def sweep_call_bound(eps, bounds: Bounds) -> int:
    """Upper bound ceil(log_{1+eps}(UB(2)/LB(2))) + 2 on the sweep's call count."""
    return ceil_log(1 + check_epsilon(eps), bounds.ub2 / bounds.lb2) + 2


def solve_budget_sweep(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Sweep the whole weight grid and return the best budget-respecting record.

    Every index is evaluated (no early exit: the guarantee lives at an
    unknown index).  Among records with f1 <= alpha*(1+2*eps)*B the one
    with minimum f2 is returned, ties broken by minimum f1, then first
    found.  Raises NoCertificate, carrying the full sweep transcript, when
    no record passes the filter; that is not a proof of infeasibility.
    """
    eps, budget = query.eps, query.budget
    alpha = adapter.alpha()
    rng = index_range(eps, budget, adapter.bounds(instance))
    records = [adapter.solve_weighted_sum(instance, pow_one_plus_eps(eps, i)) for i in rng]
    limit = alpha * (1 + 2 * eps) * budget
    qualifying = [r for r in records if r.image.f1 <= limit]
    if not qualifying:
        raise NoCertificate(records)
    best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1))
    certificate = GuaranteeCertificate(
        alpha=alpha,
        budget_factor=alpha * (1 + 2 * eps),
        cost_factor=alpha * (1 + Fraction(2) / eps),
        budget=budget,
        oracle_calls=len(records),
    )
    return best, certificate


def solve_budget_fixed(
    adapter: ProblemAdapter, instance, budget
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """The sweep with eps pinned to 1: a (3*alpha, 3*alpha)-approximation."""
    query = BudgetQuery(budget=rational(budget), eps=Fraction(1))
    return solve_budget_sweep(adapter, instance, query)
