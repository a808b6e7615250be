"""Accelerated budget-constrained search for exact weighted-sum oracles.

Two variants: binary search over the geometric weight grid, and a
Megiddo-style parametric search that simulates the oracle symbolically
over the weight and resolves each weight-dependent comparison with one
concrete oracle run.  Both are sound only for exact (alpha = 1) oracles;
approximate oracles break the monotonicity both variants rely on, so they
are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .core import (
    GuaranteeCertificate,
    LinearValue,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    pow_one_plus_eps,
)
from .errors import ExactOracleRequired, NotParametricCapable
from .sweep import BudgetQuery, certify, grid_factors, index_range, parametric_factors

_pair = attrgetter("numerator", "denominator")  # a Fraction as its two ints


def critical_gamma(p: LinearValue, q: LinearValue) -> Optional[Fraction]:
    """The unique weight where p and q cross, or None when slopes agree.

    Parallel (and identical) lines have a gamma-independent comparison,
    which the caller resolves from the constants alone.
    """
    if p.slope == q.slope:
        return None
    return Fraction(q.constant - p.constant, p.slope - q.slope)


def solve_budget_binary(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Binary search over the weight grid; a (1+2*eps, 1+2/eps)-approximation.

    The exact oracle's records are monotone along the grid (f1 nondecreasing,
    f2 nonincreasing in the index), so records passing the f1 filter form a
    prefix; the search returns the record of the largest accepted index with
    at most ceil(log2(grid size)) + 1 oracle calls, plus ``certify``'s one on
    a relaxed instance.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("binary search needs an exact weighted-sum oracle")
    eps, budget = query.eps, query.budget
    grid = index_range(eps, budget, adapter.bounds(instance))
    factors = grid_factors(1, eps)
    limit = factors[0] * budget
    lo, hi = grid[0], grid[-1]
    best = None
    probes = []
    while lo <= hi:
        mid = (lo + hi) // 2
        record = adapter.solve_weighted_sum(instance, pow_one_plus_eps(eps, mid))
        probes.append(record)
        if record.image.f1 > limit:
            hi = mid - 1
        else:
            best = record
            lo = mid + 1
    return certify(adapter, instance, probes, best, limit, factors, budget)


@dataclass(frozen=True)
class ParametricOutcome:
    """Full transcript of one parametric search run."""

    record: SolutionRecord
    certificate: GuaranteeCertificate
    interval: tuple
    comparisons: int
    probes: tuple
    midpoint_record: SolutionRecord
    master_token: object


def parametric_search(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> ParametricOutcome:
    """Megiddo simulation of the exact oracle over a symbolic weight.

    Starting from the interval [lo, hi] = [eps*B/UB(2), eps*B/LB(2)], the
    master run of the oracle executes over LinearValue quantities and
    decides each comparison at the interval's midpoint.  A comparison
    whose critical weight lies strictly inside (lo, hi) is first resolved
    by one concrete oracle run there: a record breaking f1 <= (1+eps)*B
    moves hi to that weight; otherwise the record meets the filter and no
    smaller weight improves f2, so lo moves there and the record becomes
    the witness.  At the end the concrete oracle runs once at the final
    midpoint; ``certify`` gets that record when it meets the filter, else
    the witness (the midpoint record can miss the filter only through an
    endpoint tie).  The result satisfies f1 <= (1+eps)*B and
    f2 <= (1+1/eps)*OPT(B); oracle calls are at most one per master-run
    comparison, plus one (two on a relaxed instance, through ``certify``).
    ``interval`` is the final (lo, hi).
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric search needs an exact oracle")
    if not isinstance(adapter, ParametricAdapter):
        raise NotParametricCapable(f"{type(adapter).__name__} has no parametric run")
    eps, budget = query.eps, query.budget
    bounds = adapter.bounds(instance)
    lo, hi = eps * budget / bounds.ub2, eps * budget / bounds.lb2
    factors = parametric_factors(eps)
    limit = factors[0] * budget
    mid = (lo + hi) / 2
    witness, comparisons, probes = None, 0, []
    # lo, hi and mid as (numerator, denominator) ints, read by every
    # comparison and rebuilt only when a probe moves lo or hi.
    lo_n, lo_d, hi_n, hi_d, mid_n, mid_d = *_pair(lo), *_pair(hi), *_pair(mid)

    def compare(p: LinearValue, q: LinearValue) -> int:
        nonlocal lo, hi, mid, lo_n, lo_d, hi_n, hi_d, mid_n, mid_d, witness, comparisons
        comparisons += 1
        # p - q = c + s*gamma at gamma = n/d has the sign of c*d + s*n, with
        # d > 0: ints, with no Fraction built.  The line crosses zero strictly
        # inside (lo, hi) exactly when its signs at lo and at hi are opposite.
        c, s = p.constant - q.constant, p.slope - q.slope
        at_lo = c * lo_d + s * lo_n
        at_hi = c * hi_d + s * hi_n
        if (at_lo < 0 < at_hi) or (at_hi < 0 < at_lo):
            crit = critical_gamma(p, q)
            probes.append(adapter.solve_weighted_sum(instance, crit))
            if probes[-1].image.f1 > limit:
                hi, (hi_n, hi_d) = crit, _pair(crit)
            else:
                lo, witness, (lo_n, lo_d) = crit, probes[-1], _pair(crit)
            mid = (lo + hi) / 2
            mid_n, mid_d = _pair(mid)
        value = c * mid_d + s * mid_n
        return (value > 0) - (value < 0)

    master_token = adapter.run_parametric(instance, compare)
    midpoint_record = adapter.solve_weighted_sum(instance, mid)
    picked = midpoint_record if midpoint_record.image.f1 <= limit else witness
    record, certificate = certify(
        adapter, instance, [*probes, midpoint_record], picked, limit, factors, budget
    )
    return ParametricOutcome(
        record=record,
        certificate=certificate,
        interval=(lo, hi),
        comparisons=comparisons,
        probes=tuple(probes),
        midpoint_record=midpoint_record,
        master_token=master_token,
    )


def solve_budget_parametric(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Parametric search, returning just the record and its certificate."""
    outcome = parametric_search(adapter, instance, query)
    return outcome.record, outcome.certificate
