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

from .core import (
    GuaranteeCertificate,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    pow_one_plus_eps,
    ratio_of,
    sign_at,
)
from .errors import ExactOracleRequired, NotParametricCapable
from .sweep import BudgetQuery, certify, grid_factors, index_range, parametric_factors


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
    """Full transcript of one parametric search run.

    ``probes`` are the concrete oracle's records at the critical weights,
    and ``midpoint_record`` the master run's token and image, produced at
    the midpoint of the final ``interval``.
    """

    record: SolutionRecord
    certificate: GuaranteeCertificate
    interval: tuple
    comparisons: int
    probes: tuple
    midpoint_record: SolutionRecord


def _midpoint(lo, hi) -> tuple:
    """The midpoint of the int pairs lo = (a, b) and hi = (c, d), unreduced: (a*d + c*b, 2*b*d)."""
    (a, b), (c, d) = lo, hi
    return a * d + c * b, 2 * b * d


def parametric_search(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> ParametricOutcome:
    """Megiddo simulation of the exact oracle over a symbolic weight.

    Starting from the interval [lo, hi] = [eps*B/UB(2), eps*B/LB(2)], the
    master run of the oracle executes over LinearValue quantities and
    decides each comparison at the interval's midpoint, all three held as
    int pairs for ``sign_at``.  A comparison whose line c + s*gamma has
    opposite signs at lo and hi is first resolved by one concrete oracle
    run at its critical weight -c/s: a record breaking f1 <= (1+eps)*B
    moves hi to that weight; otherwise the record meets the filter and no
    smaller weight improves f2, so lo moves there and the record becomes
    the witness.  The master run's record is the oracle's answer at the
    final midpoint, so the oracle is not called there: each comparison was
    answered by its sign at the midpoint of an interval that its line does
    not cross, which is its sign everywhere inside that interval, and every
    later interval nests inside that one, so every answer still holds at
    the final midpoint.  ``certify`` gets that record when it meets the
    filter, else the witness (the midpoint record can miss the filter only
    through an endpoint tie).  The result satisfies f1 <= (1+eps)*B and
    f2 <= (1+1/eps)*OPT(B).  Oracle calls are one per probe, at most one
    per master-run comparison, plus one for the master run (two on a
    relaxed instance, through ``certify``).  ``interval`` is the final
    (lo, hi).
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric search needs an exact oracle")
    if not isinstance(adapter, ParametricAdapter):
        raise NotParametricCapable(f"{type(adapter).__name__} has no parametric run")
    eps, budget = query.eps, query.budget
    bounds = adapter.bounds(instance)
    lo, hi = ratio_of(eps * budget / bounds.ub2), ratio_of(eps * budget / bounds.lb2)
    factors = parametric_factors(eps)
    limit = factors[0] * budget
    mid = _midpoint(lo, hi)
    witness, comparisons, probes = None, 0, []

    def compare(p, q) -> int:
        nonlocal lo, hi, mid, witness, comparisons
        comparisons += 1
        # p - q = c + s*gamma crosses 0 strictly inside (lo, hi) exactly
        # when its signs at lo and at hi are opposite.
        c, s = p.constant - q.constant, p.slope - q.slope
        if sign_at(c, s, lo) * sign_at(c, s, hi) < 0:
            crit = Fraction(-c, s)
            probes.append(adapter.solve_weighted_sum(instance, crit))
            if probes[-1].image.f1 > limit:
                hi = ratio_of(crit)
            else:
                lo, witness = ratio_of(crit), probes[-1]
            mid = _midpoint(lo, hi)
        return sign_at(c, s, mid)

    master = adapter.run_parametric(instance, compare)
    midpoint_record = SolutionRecord(master.token, master.image, Fraction(*mid))
    picked = midpoint_record if midpoint_record.image.f1 <= limit else witness
    record, certificate = certify(
        adapter, instance, [*probes, midpoint_record], picked, limit, factors, budget
    )
    return ParametricOutcome(
        record=record,
        certificate=certificate,
        interval=(Fraction(*lo), Fraction(*hi)),
        comparisons=comparisons,
        probes=tuple(probes),
        midpoint_record=midpoint_record,
    )


def solve_budget_parametric(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Parametric search, returning just the record and its certificate."""
    outcome = parametric_search(adapter, instance, query)
    return outcome.record, outcome.certificate
