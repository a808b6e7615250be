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

from .core import Bounds, ProblemAdapter, check_epsilon, rational
from .core import pow_one_plus_eps  # noqa: F401  unused; perfbench's tracer wraps this name
from .sweep import covering_range, grid_factors, parametric_factors, solve_grid, zero_f2_weight


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
        # Sorted by (f1, f2), the records are mutually nondominated and
        # distinct iff f1 strictly increases and f2 strictly decreases.
        for a, b in zip(records, records[1:]):
            if not (a.image.f1 < b.image.f1 and a.image.f2 > b.image.f2):
                raise ValueError(f"records not mutually nondominated: {a.image} vs {b.image}")

    @property
    def images(self):
        return tuple(r.image for r in self.records)


def filter_dominated(records) -> list:
    """The unique maximal pairwise-nondominated sublist.

    Records whose image is dominated by any other are dropped; among
    records with identical images the first stays.  Removing a dominated
    record never breaks coverage because the dominating record covers
    everything it did.

    Maxima-of-vectors scan (Kung, Luccio and Preparata, JACM 22(4), 1975):
    after a stable sort by (f1, f2), a record is nondominated and the
    first of its image iff its f2 is strictly below every f2 before it.
    O(n log n); the kept records are returned in their input order.
    """
    records = list(records)
    order = sorted(range(len(records)), key=lambda k: (records[k].image.f1, records[k].image.f2))
    kept = []
    for k in order:
        if not kept or records[k].image.f2 < records[kept[-1]].image.f2:
            kept.append(k)
    return [records[k] for k in sorted(kept)]


def pareto_index_range(eps, bounds: Bounds) -> range:
    """Exponent range bracketing [eps*LB(1)/UB(2), eps*UB(1)/LB(2)] exactly."""
    eps = check_epsilon(eps)
    return covering_range(eps, eps * bounds.lb1 / bounds.ub2, eps * bounds.ub1 / bounds.lb2)


def approximate_pareto(adapter: ProblemAdapter, instance, eps) -> ParetoSet:
    """Walk the Pareto weight grid; an (a*(1+2e), a*(1+2/e))-approximate curve.

    ``solve_grid`` solves the weights (1+eps)**i, i in ``pareto_index_range``.
    On relaxed instances the two ``boundary_solutions`` calls add the
    zero-component points, which no grid weight need reach.  The union of
    returned records is filtered for dominance, which preserves the
    guarantee.  ``oracle_calls`` counts the calls made.
    """
    eps = check_epsilon(eps)
    bounds = adapter.bounds(instance)
    records = solve_grid(adapter, instance, eps, pareto_index_range(eps, bounds))
    calls = len(records)
    if instance.relaxed:
        records += [r for r in boundary_solutions(adapter, instance, bounds) if r is not None]
        calls += 2
    return ParetoSet(tuple(filter_dominated(records)), *grid_factors(adapter.alpha(), eps), calls)


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
    return ParetoSet(tuple(filter_dominated(records)), *parametric_factors(eps), len(records))


def boundary_solutions(adapter: ProblemAdapter, instance, bounds: Bounds = None):
    """Approximate the zero-component Pareto points (a, 0) and (0, b).

    A Pareto curve contains at most one point with f2 = 0 and one with
    f1 = 0.  Calling the oracle at ``zero_f2_weight``, above
    alpha*UB(1)/LB(2), forces f2 = 0 exactly whenever such a point exists
    (the factor-2 margin keeps the inequality strict); symmetrically below
    LB(1)/(alpha*UB(2)) for f1 = 0.  A slot whose record keeps a nonzero
    component is reported as None: no such Pareto point is claimed.
    """
    if bounds is None:
        bounds = adapter.bounds(instance)
    alpha = adapter.alpha()
    high = adapter.solve_weighted_sum(instance, zero_f2_weight(alpha, bounds))
    low = adapter.solve_weighted_sum(instance, bounds.lb1 / (2 * alpha * bounds.ub2))
    return (
        high if high.image.f2 == 0 else None,
        low if low.image.f1 == 0 else None,
    )
