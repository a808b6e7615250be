"""Approximate Pareto-curve construction.

Sweeping the weighted-sum oracle over a grid of weights spanning
[eps*LB(1)/UB(2), eps*UB(1)/LB(2)] and keeping the nondominated records
yields an (alpha*(1+2*eps), alpha*(1+2/eps))-approximate Pareto curve.  An
exact oracle's all-weights search over that range tightens the factors to
(1+eps, 1+1/eps).  Zero objective values are handled by two dedicated
boundary calls at extreme weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Bounds,
    ProblemAdapter,
    ceil_log,
    check_epsilon,
    dominates,
    floor_log,
    pow_one_plus_eps,
    rational,
)
from .sweep import IndexRange


@dataclass(frozen=True)
class ParetoSet:
    """Mutually nondominated records with their (factor1, factor2) guarantee.

    Records are kept sorted by increasing f1; the guarantee means every
    feasible solution x has some record r with f1(r) <= factor1 * f1(x)
    and f2(r) <= factor2 * f2(x).  ``oracle_calls`` counts the
    weighted-sum calls made to build the curve.
    """

    records: tuple
    factor1: Fraction
    factor2: Fraction
    oracle_calls: int = 0

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: (r.image.f1, r.image.f2)))
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "factor1", rational(self.factor1))
        object.__setattr__(self, "factor2", rational(self.factor2))
        if self.factor1 < 1 or self.factor2 < 1:
            raise ValueError("guarantee factors must be >= 1")
        images = [r.image for r in records]
        for i, a in enumerate(images):
            for j, b in enumerate(images):
                if i != j and (a == b or dominates(a, b)):
                    raise ValueError(f"records not mutually nondominated: {a} vs {b}")

    @property
    def images(self):
        return tuple(r.image for r in self.records)


def filter_dominated(records) -> list:
    """The unique maximal pairwise-nondominated sublist.

    Records whose image is dominated by any other are dropped; among
    records with identical images the first stays.  Removing a dominated
    record never breaks coverage because the dominating record covers
    everything it did.
    """
    records = list(records)
    kept = []
    seen = set()
    for r in records:
        if any(dominates(other.image, r.image) for other in records):
            continue
        if r.image in seen:
            continue
        seen.add(r.image)
        kept.append(r)
    return kept


def pareto_index_range(eps, bounds: Bounds) -> IndexRange:
    """Exponent range bracketing [eps*LB(1)/UB(2), eps*UB(1)/LB(2)] exactly."""
    eps = check_epsilon(eps)
    base = 1 + eps
    return IndexRange(
        floor_log(base, eps * bounds.lb1 / bounds.ub2),
        ceil_log(base, eps * bounds.ub1 / bounds.lb2),
    )


def pareto_call_bound(eps, bounds: Bounds) -> int:
    """Grid-size bound ceil(log_{1+eps}(UB1*UB2/(LB1*LB2))) + 2."""
    eps = check_epsilon(eps)
    ratio = (bounds.ub1 * bounds.ub2) / (bounds.lb1 * bounds.lb2)
    return ceil_log(1 + eps, ratio) + 2


def approximate_pareto(adapter: ProblemAdapter, instance, eps) -> ParetoSet:
    """Sweep the Pareto weight grid; an (a*(1+2e), a*(1+2/e))-approximate curve.

    One oracle call per grid index; on relaxed instances the two
    ``boundary_solutions`` calls add the zero-component points, which no
    grid weight need reach.  The union of returned records is filtered
    for dominance, which preserves the guarantee.
    """
    eps = check_epsilon(eps)
    bounds = adapter.bounds(instance)
    records = [
        adapter.solve_weighted_sum(instance, pow_one_plus_eps(eps, i))
        for i in pareto_index_range(eps, bounds)
    ]
    calls = len(records)
    if instance.relaxed:
        records += [r for r in boundary_solutions(adapter, instance, bounds) if r is not None]
        calls += 2
    alpha = adapter.alpha()
    return ParetoSet(
        tuple(filter_dominated(records)),
        alpha * (1 + 2 * eps),
        alpha * (1 + Fraction(2) / eps),
        calls,
    )


def pareto_from_parametric(adapter: ProblemAdapter, instance, eps) -> ParetoSet:
    """Curve from the exact oracle's all-weights search; tighter factors.

    The search runs over [eps*LB(1)/(2*UB(2)), 2*UB(1)/LB(2)], which holds
    every solution's ideal weight eps*f1/f2 and both ``boundary_solutions``
    weights.  Its records include an optimal one at each of those weights,
    which upgrades the guarantee to (1+eps, 1+1/eps), zero components
    included.  Raises ExactOracleRequired for approximate oracles.
    """
    eps = check_epsilon(eps)
    bounds = adapter.bounds(instance)
    records = adapter.solve_all_weights(
        instance, eps * bounds.lb1 / (2 * bounds.ub2), 2 * bounds.ub1 / bounds.lb2
    )
    return ParetoSet(tuple(filter_dominated(records)), 1 + eps, 1 + 1 / eps, len(records))


def boundary_solutions(adapter: ProblemAdapter, instance, bounds: Bounds = None):
    """Approximate the zero-component Pareto points (a, 0) and (0, b).

    A Pareto curve contains at most one point with f2 = 0 and one with
    f1 = 0.  Calling the oracle at a weight above alpha*UB(1)/LB(2) forces
    f2 = 0 exactly whenever such a point exists (the factor-2 margin keeps
    the inequality strict); symmetrically below LB(1)/(alpha*UB(2)) for
    f1 = 0.  A slot whose record keeps a nonzero component is reported as
    None: no such Pareto point is claimed.
    """
    if bounds is None:
        bounds = adapter.bounds(instance)
    alpha = adapter.alpha()
    high = adapter.solve_weighted_sum(instance, 2 * alpha * bounds.ub1 / bounds.lb2)
    low = adapter.solve_weighted_sum(instance, bounds.lb1 / (2 * alpha * bounds.ub2))
    return (
        high if high.image.f2 == 0 else None,
        low if low.image.f1 == 0 else None,
    )
