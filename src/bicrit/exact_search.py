"""Accelerated budget-constrained search for exact weighted-sum oracles.

Parametric search walks the lower envelope of the weighted-sum lines
(``core.envelope_walk``) inward from the two ends of the weight range
[eps*B/UB(2), eps*B/LB(2)], one oracle call per crossing of two lines, to
the weight where the optimal records' f1 passes the limit (1+eps)*B.
After a logarithmic number of steps it hands the narrowed range to
Megiddo's simulation, which runs the oracle symbolically over the weight
and resolves each weight-dependent comparison with one concrete oracle
run.
``solve_budget_binary`` is the grid's search under another name: with an
exact oracle the sweep already brackets its budget boundary in a
logarithmic number of calls.  Both are sound only for exact (alpha = 1)
oracles; approximate oracles break the monotonicity both rely on, so
they are rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .core import (
    GuaranteeCertificate,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    crossing_split,
    envelope_walk,
    ratio_of,
    sign_at,
)
from .core import pow_one_plus_eps  # noqa: F401  unused; perfbench's tracer wraps this name
from .errors import ExactOracleRequired, NotParametricCapable
from .sweep import BudgetQuery, certify, parametric_factors, solve_budget_sweep
from .sweep import index_range  # noqa: F401  unused; perfbench's tracer wraps this name


def solve_budget_binary(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """The exact sweep's boundary search; a (1+2*eps, 1+2/eps)-approximation.

    The exact oracle's records are monotone along the grid (f1
    nondecreasing, f2 nonincreasing in the index), so records passing the
    f1 filter form a prefix, and ``sweep.solve_grid_boundary`` brackets
    its last index i* in at most 2*ceil(log2(n - 1)) + 2 oracle calls for
    n grid weights, plus ``certify``'s one on a relaxed instance.  It
    returns the oracle's record at i*, as bisection over the grid would,
    and refuses an approximate oracle, whose records need not be monotone.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("binary search needs an exact weighted-sum oracle")
    return solve_budget_sweep(adapter, instance, query)


@dataclass(frozen=True)
class ParametricOutcome:
    """Full transcript of one parametric search run.

    ``walk`` holds the records the envelope walk solved, in call order: at
    eps*B/LB(2); at eps*B/UB(2), unless the first met the f1 limit or the
    two weights are equal; then one per probe of ``core.envelope_walk``,
    each at a crossing that is not already a solved weight.  The
    simulation's transcript is filled in only when it ran: ``interval`` is
    its final (lo, hi), ``comparisons`` counts the master run's
    comparisons, ``probes`` are the concrete oracle's records at the
    critical weights, and ``midpoint_record`` is the master run's token
    and image, produced at the midpoint of ``interval``.
    """

    record: SolutionRecord
    certificate: GuaranteeCertificate
    walk: tuple
    interval: Optional[tuple] = None
    comparisons: int = 0
    probes: tuple = ()
    midpoint_record: Optional[SolutionRecord] = None


def _midpoint(lo, hi) -> tuple:
    """The midpoint of the int pairs lo = (a, b) and hi = (c, d), unreduced: (a*d + c*b, 2*b*d)."""
    (a, b), (c, d) = lo, hi
    return a * d + c * b, 2 * b * d


def walk_step_budget(instance) -> int:
    """ceil(log2(m + 1)) for the instance's m weight pairs: the crossing steps the walk may take."""
    return len(instance.ratios).bit_length()


def parametric_search(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> ParametricOutcome:
    """A walk along the lower envelope, safeguarded by Megiddo's simulation.

    Let x* have f1(x*) <= B and f2(x*) = OPT(B) > 0, and gamma* =
    eps*B/OPT(B).  A record y optimal at a weight g has f1(y) + g*f2(y) <=
    B + g*OPT(B).  So f2(y) <= B/g + OPT(B), and at g <= gamma* every such
    y has f1(y) <= B + g*OPT(B) <= (1+eps)*B, the f1 limit.  Every step
    below rests on these two facts.

    The search solves hi = eps*B/LB(2) first.  OPT(B) >= LB(2), so a record
    there within the limit has f2 <= LB(2)/eps + OPT(B) <= (1+1/eps)*OPT(B),
    and it is the answer.  Otherwise it solves lo = eps*B/UB(2) <= gamma*,
    unless lo = hi: if that record misses the limit, no solution has
    f1 <= B, and the search ends in NoCertificate.  Else L = lo's record
    meets the limit and R = hi's misses it, and ``core.envelope_walk``
    narrows the bracket (L, R) at ``crossing_split``, the crossing c of
    their lines: a probe at c that meets the limit replaces L, and one that
    misses it replaces R.  The walk ends when ``crossing_split`` gives None:
    L and R are then both optimal at c.  R misses the limit, so c > gamma*,
    and L's image is the answer, with f2(L) <= B/c + OPT(B) <
    (1+1/eps)*OPT(B).  A probe on L's and R's lines at c rather than below
    them ends the walk this way, as the new L or R, without another call.
    The search returns the first walk record of L's image, so a probe that
    ties with L's image is not preferred to L.  This is the hull walk of
    Handler and Zang (Networks 10(4), 1980).

    The walk may take super-polynomially many steps (Carstensen, 1983).
    When ``walk_step_budget`` of them leave a bracket that
    ``crossing_split`` does not end, Megiddo's simulation (JACM 30(4), 1983)
    finishes the search on [lo, hi] = [L's weight, R's weight], with L as
    its witness.  The master run of the oracle asks for the sign of each
    comparison's line c + s*gamma, two ints, and gets its sign at the
    interval's midpoint, all three held as int pairs for ``sign_at``.  A
    comparison whose line has opposite signs at lo and hi is first
    resolved by one concrete oracle run at its critical weight -c/s: a
    record missing the limit moves hi there; otherwise lo moves there and
    the record becomes the witness.  So hi stays a solved weight whose
    record misses the limit, and lo one whose record, the witness, meets
    it.  No critical weight lies inside the final (lo, hi), so the master
    run's record is the oracle's answer on all of it, and by continuity it
    is optimal at both ends; the oracle is not called at the midpoint.  If
    that record meets the limit, it is optimal at hi > gamma* and is the
    answer.  If not, lo > gamma*, and the witness, optimal at lo, is.

    ``certify`` gets the answer and, on a relaxed instance, where OPT(B)
    may be 0, makes its zero-f2 call.  The result satisfies
    f1 <= (1+eps)*B and f2 <= (1+1/eps)*OPT(B).  Oracle calls are at most
    2 + ``walk_step_budget``, plus, when the simulation runs, one per probe
    (at most one per comparison) and one for the master run, plus
    ``certify``'s call.
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
    solve = partial(adapter.solve_weighted_sum, instance)

    def meets(record) -> bool:
        return record.image.f1 <= limit

    walk = [solve(hi)]
    if not meets(walk[0]) and lo != hi:
        walk.append(solve(lo))
    left, right = walk[-1], walk[0]
    picked, simulation = None, {}
    if meets(right):
        picked = right
    elif meets(left):
        steps = walk_step_budget(instance)
        probes, (left, right) = envelope_walk(solve, crossing_split, [left, right], meets, steps)
        walk += probes
        if crossing_split(left, right) is None:
            picked = next(record for record in walk if record.image == left.image)
        else:
            weights = left.produced_at, right.produced_at
            picked, simulation = _simulate(adapter, instance, *weights, left, limit)
    solved = [*walk, *simulation["probes"], simulation["midpoint_record"]] if simulation else walk
    record, certificate = certify(adapter, instance, solved, picked, limit, factors, budget)
    return ParametricOutcome(record, certificate, tuple(walk), **simulation)


def _simulate(adapter: ParametricAdapter, instance, lo, hi, witness, limit) -> tuple:
    """Megiddo's simulation over the weights [lo, hi]: (its pick, its transcript's fields).

    ``witness`` is a record optimal at lo within the f1 ``limit``, or None.
    The pick is the master run's record when it meets the limit, else the
    last witness, which is None only if no probe met the limit either.
    """
    lo, hi = ratio_of(lo), ratio_of(hi)
    mid = _midpoint(lo, hi)
    comparisons, probes = 0, []

    def compare(c, s) -> int:
        nonlocal lo, hi, mid, witness, comparisons
        comparisons += 1
        # c + s*gamma crosses 0 strictly inside (lo, hi) exactly when its
        # signs at lo and at hi are opposite.
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
    return picked, {
        "interval": (Fraction(*lo), Fraction(*hi)),
        "comparisons": comparisons,
        "probes": tuple(probes),
        "midpoint_record": midpoint_record,
    }


def solve_budget_parametric(
    adapter: ParametricAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Parametric search, returning just the record and its certificate."""
    outcome = parametric_search(adapter, instance, query)
    return outcome.record, outcome.certificate
