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
from typing import Optional

from .core import (
    GuaranteeCertificate,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    pow_one_plus_eps,
    rational,
)
from .errors import ExactOracleRequired, NoCertificate, NotParametricCapable
from .sweep import BudgetQuery, grid_factors, index_range


@dataclass(frozen=True)
class LinearValue:
    """A quantity constant + slope * gamma, linear in the symbolic weight."""

    constant: Fraction
    slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "constant", rational(self.constant))
        object.__setattr__(self, "slope", rational(self.slope))

    def at(self, gamma) -> Fraction:
        return self.constant + rational(gamma) * self.slope

    def __add__(self, other: "LinearValue") -> "LinearValue":
        return LinearValue(self.constant + other.constant, self.slope + other.slope)

    def __sub__(self, other: "LinearValue") -> "LinearValue":
        return LinearValue(self.constant - other.constant, self.slope - other.slope)


LINEAR_ZERO = LinearValue(0, 0)


@dataclass(frozen=True)
class GammaInterval:
    """A closed positive weight interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if not 0 < self.lo <= self.hi:
            raise ValueError(f"interval must satisfy 0 < lo <= hi, got {self}")

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, gamma) -> bool:
        return self.lo <= rational(gamma) <= self.hi


def critical_gamma(p: LinearValue, q: LinearValue) -> Optional[Fraction]:
    """The unique weight where p and q cross, or None when slopes agree.

    Parallel (and identical) lines have a gamma-independent comparison,
    which the caller resolves from the constants alone.
    """
    if p.slope == q.slope:
        return None
    return (q.constant - p.constant) / (p.slope - q.slope)


def solve_budget_binary(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Binary search over the weight grid; a (1+2*eps, 1+2/eps)-approximation.

    The exact oracle's records are monotone along the grid (f1 nondecreasing,
    f2 nonincreasing in the index), so records passing the f1 filter form a
    prefix; the search returns the record of the largest accepted index with
    at most ceil(log2(grid size)) + 1 oracle calls.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("binary search needs an exact weighted-sum oracle")
    eps, budget = query.eps, query.budget
    rng = index_range(eps, budget, adapter.bounds(instance))
    budget_factor, cost_factor = grid_factors(1, eps)
    limit = budget_factor * budget
    lo, hi = rng.i_min, rng.i_max
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
    if best is None:
        raise NoCertificate(probes, limit)
    certificate = GuaranteeCertificate(
        alpha=Fraction(1),
        budget_factor=budget_factor,
        cost_factor=cost_factor,
        budget=budget,
        oracle_calls=len(probes),
    )
    return best, certificate


def resolve_comparison(
    adapter: ProblemAdapter,
    instance,
    interval: GammaInterval,
    gamma_crit,
    budget,
    eps,
    probes: Optional[list] = None,
) -> tuple[str, GammaInterval]:
    """Decide which side of a critical weight still contains a good weight.

    Outside the open interval no oracle call is needed: the comparison
    outcome is fixed across the whole interval (ties at an endpoint resolve
    to the endpoint's known side).  Inside, one concrete run at gamma_crit
    decides: a record breaking f1 <= (1+eps)*B pushes the search left of
    gamma_crit, otherwise the record already meets the budget filter and no
    smaller weight improves f2, so the search moves right.  The returned
    interval is the (possibly narrowed) remaining interval.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric resolution needs an exact oracle")
    gamma_crit = rational(gamma_crit)
    if gamma_crit <= interval.lo:
        return "right", interval
    if gamma_crit >= interval.hi:
        return "left", interval
    record = adapter.solve_weighted_sum(instance, gamma_crit)
    if probes is not None:
        probes.append(record)
    if record.image.f1 > (1 + rational(eps)) * rational(budget):
        return "left", GammaInterval(interval.lo, gamma_crit)
    return "right", GammaInterval(gamma_crit, interval.hi)


@dataclass(frozen=True)
class ParametricOutcome:
    """Full transcript of one parametric search run."""

    record: SolutionRecord
    certificate: GuaranteeCertificate
    interval: GammaInterval
    comparisons: int
    probes: tuple
    midpoint_record: SolutionRecord
    master_token: object


def parametric_search(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> ParametricOutcome:
    """Megiddo simulation of the exact oracle over a symbolic weight.

    Starting from the interval [eps*B/UB(2), eps*B/LB(2)], the master run
    of the oracle executes over LinearValue quantities; every comparison
    whose critical weight falls strictly inside the current interval is
    resolved by one concrete oracle run, narrowing the interval.  On
    termination the concrete oracle runs once at the final interval's
    midpoint; that record is returned when it meets f1 <= (1+eps)*B, else
    the last in-budget probe record is returned (the midpoint record can
    miss the filter only through an endpoint tie).  The result satisfies
    f1 <= (1+eps)*B and f2 <= (1+1/eps)*OPT(B); total oracle calls are at
    most one per master-run comparison, plus one.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric search needs an exact oracle")
    if not isinstance(adapter, ParametricAdapter):
        raise NotParametricCapable(f"{type(adapter).__name__} has no parametric run")
    eps, budget = query.eps, query.budget
    bounds = adapter.bounds(instance)
    state = {
        "interval": GammaInterval(eps * budget / bounds.ub2, eps * budget / bounds.lb2),
        "witness": None,
        "comparisons": 0,
    }
    probes: list = []

    def compare(p: LinearValue, q: LinearValue) -> int:
        state["comparisons"] += 1
        crit = critical_gamma(p, q)
        if crit is not None and state["interval"].lo < crit < state["interval"].hi:
            before = len(probes)
            side, state["interval"] = resolve_comparison(
                adapter, instance, state["interval"], crit, budget, eps, probes
            )
            if side == "right" and len(probes) > before:
                state["witness"] = probes[-1]
        value = (p - q).at(state["interval"].midpoint)
        return -1 if value < 0 else (1 if value > 0 else 0)

    master_token = adapter.run_parametric(instance, compare)
    interval = state["interval"]
    midpoint_record = adapter.solve_weighted_sum(instance, interval.midpoint)
    calls = len(probes) + 1
    limit = (1 + eps) * budget
    if midpoint_record.image.f1 <= limit:
        chosen = midpoint_record
    elif state["witness"] is not None:
        chosen = state["witness"]
    else:
        raise NoCertificate([*probes, midpoint_record], limit)
    certificate = GuaranteeCertificate(
        alpha=Fraction(1),
        budget_factor=1 + eps,
        cost_factor=1 + 1 / eps,
        budget=budget,
        oracle_calls=calls,
    )
    return ParametricOutcome(
        record=chosen,
        certificate=certificate,
        interval=interval,
        comparisons=state["comparisons"],
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
