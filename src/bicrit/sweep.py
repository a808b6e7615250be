"""Budget-constrained approximation via a geometric sweep of oracle weights.

Given an alpha-approximate weighted-sum oracle and 0 < eps <= 1, sweeping
the weights (1+eps)^i over an exactly computed index range and keeping the
best record inside the budget filter yields an
(alpha*(1+2*eps), alpha*(1+2/eps))-approximation for minimizing f2 subject
to f1 <= B.  With eps = 1 the factors specialize to (3*alpha, 3*alpha).
An exact oracle's records are monotone along the grid, so its sweep
brackets the last grid index inside the budget filter, whose record has
the least f2 there, and solves only O(log) weights around it.  Both the
grid walk and that bracket search narrow brackets of grid indices with
``core.envelope_walk``; the splits they give it are ``_crossing_split``
and ``_midpoint``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .core import (
    Bounds,
    GuaranteeCertificate,
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    check_epsilon,
    crossing,
    envelope_walk,
    grid_index,
    grid_index_between,
    pow_one_plus_eps,
    ratio_of,
    rational,
    sign_at,
)
from .errors import NoCertificate


def covering_range(eps, lo, hi) -> range:
    """The exponents ``range(i_min, i_max + 1)`` of the narrowest grid covering [lo, hi].

    i_min is the largest integer with (1+eps)^i_min <= lo and i_max the
    smallest with (1+eps)^i_max >= hi, both found exactly by ``grid_index``
    climbing from index 0.  These two are the only grid searches on a
    ``Fraction``: ``solve_grid`` places every crossing inside the range
    with ``grid_index_between``, climbing from a weight it has solved.
    """
    i_max, exact = grid_index(eps, hi)
    return range(grid_index(eps, lo)[0], i_max + (not exact) + 1)


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


def index_range(eps, budget, bounds: Bounds) -> range:
    """Exponent range bracketing the ideal weight eps*B/OPT(B).

    i_min is the largest integer with (1+eps)^i_min <= eps*B/UB(2) and
    i_max the smallest with (1+eps)^i_max >= eps*B/LB(2).
    """
    eps = check_epsilon(eps)
    budget = rational(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    return covering_range(eps, eps * budget / bounds.ub2, eps * budget / bounds.lb2)


def grid_factors(alpha, eps) -> tuple[Fraction, Fraction]:
    """The grid's guarantee (alpha*(1+2*eps), alpha*(1+2/eps)) for an alpha-approximate oracle."""
    return alpha * (1 + 2 * eps), alpha * (1 + Fraction(2) / eps)


def parametric_factors(eps) -> tuple[Fraction, Fraction]:
    """The guarantee (1+eps, 1+1/eps) of an exact oracle's parametric and all-weights searches."""
    return 1 + eps, 1 + 1 / eps


def solve_grid(adapter: ProblemAdapter, instance, eps, grid: range) -> list:
    """Oracle records on the weights (1+eps)**i, i in ``grid``: one per call, in index order.

    ``grid`` is a nonempty range of consecutive indices; an empty one
    raises ValueError.

    The walk solves both ends of the grid and ``core.envelope_walk`` splits
    every index interval inside until its ends are neighbours, or, when the
    oracle is exact, until they returned the same image: by the walker's
    concavity argument an exact oracle returns that image at every skipped
    index.  An approximate one (alpha != 1) is called at every index, so
    its intervals are split at their midpoints (``_midpoint``).  The full
    sweep's images thus come in runs of neighbouring indices, and the walk
    narrows every change of image down to two neighbouring solved indices,
    so every image is solved at the lowest index of its run.  Nothing in
    this uses where an interval is split, so any index inside it gives the
    same first record of every run.

    An exact oracle's interval with end images A != B is split where their
    lines f1 + gamma*f2 cross, at a weight c the oracle never returns B
    below and never A above (``envelope_walk``).  The split
    (``_crossing_split``) is the floor index of c, the largest with weight
    <= c, clamped into [left+1, j-1].  Between two images adjacent on the
    envelope a change costs at most two calls: the floor index returns A
    (or B, when c is that weight), and its neighbour across c returns the
    other one; any other answer is a new envelope image, whose runs the
    walk narrows the same way.  Every split lies strictly inside its
    interval, so the walk still makes at most one call per grid weight.
    ``core.grid_index_between`` finds the floor index on ints, climbing
    from w_left's int pair.

    An approximate oracle that is a ``ParametricAdapter`` is walked by
    ``solve_grid_symbolic`` instead: one run per range of grid indices on
    which its answer cannot change, so the first index of every run of
    equal answers is solved.

    ``approximate_pareto``, for every oracle, and ``solve_budget_sweep``,
    for an approximate one, keep only the first record of an image, so each
    returns the full sweep's records (token, image, ``produced_at``) with
    fewer calls: the Pareto filter keeps the first record of each
    nondominated image, and the sweep the first of least (f2, f1) within
    its f1 limit, which reads images only, so it raises NoCertificate
    exactly when the full sweep does.  An exact sweep does not walk the
    grid: ``solve_grid_boundary`` brackets the last index within its f1
    limit.
    """
    if not grid:
        raise ValueError(f"empty index range {grid}")
    exact = adapter.alpha() == 1
    if not exact and isinstance(adapter, ParametricAdapter):
        return solve_grid_symbolic(adapter, instance, eps, grid)

    solve = partial(_solve_at, adapter, instance, eps)
    ends = [solve(i) for i in sorted({grid[0], grid[-1]})]
    _, solved = envelope_walk(solve, partial(_crossing_split, eps) if exact else _midpoint, ends)
    return [record for _, _, record in solved]


def _solve_at(adapter: ProblemAdapter, instance, eps, i: int) -> tuple:
    """(i, (1+eps)**i as an int pair, the oracle's record at that weight)."""
    weight = pow_one_plus_eps(eps, i)
    return i, ratio_of(weight), adapter.solve_weighted_sum(instance, weight)


def _crossing_split(eps, left: tuple, right: tuple) -> Optional[int]:
    """An exact walk's split of the bracket between two ``_solve_at`` triples on ``eps``'s grid.

    For triples at indices i < j whose images A and B are both optimal it
    returns None when the two are neighbours or A = B.  Otherwise A.f1 <
    B.f1, A.f2 > B.f2 and their lines cross at a weight c in
    [(1+eps)**i, (1+eps)**j]; the split is the floor grid index of c,
    clamped into [i+1, j-1], or i+1 when that is the only index inside.
    """
    (i, start, a), (j, _, b) = left, right
    if j - i < 2 or a.image == b.image:
        return None
    if j - i == 2:
        return i + 1
    m, _ = grid_index_between(eps, crossing(a.image, b.image), i, start, j)
    return min(max(m, i + 1), j - 1)


def _midpoint(left: tuple, right: tuple) -> Optional[int]:
    """The midpoint index between two ``_solve_at`` triples, or None when they are neighbours."""
    i, j = left[0], right[0]
    return None if j - i < 2 else (i + j) // 2


def solve_grid_boundary(adapter: ProblemAdapter, instance, eps, grid: range, limit) -> tuple:
    """``(records, picked)``: an exact oracle's search of ``grid`` for its f1 ``limit``.

    ``records`` are the records solved, in call order, and ``picked`` is
    the oracle's record at i*, the last index of ``grid`` whose record
    meets the limit, or None when no grid record meets it.

    An exact oracle's records are monotone along the grid: f2 never rises
    and f1 never falls (``core.envelope_walk``).  So the indices whose
    records meet the limit form a prefix of the grid, ending at i*; if
    ``grid[0]`` misses it, every record does, and the search stops after
    that one call.  Within the prefix f2 never rises, so i*'s record has
    the least f2 among the grid's records within the limit, and an earlier
    record with the same f2 has f1 <= its f1.  A smaller f1 would make i*'s
    value at its own weight exceed that record's, against its optimality,
    so every record of least (f2, f1) within the limit has i*'s image: the
    full walk's pick differs from i*'s record at most in ``produced_at``,
    the first index of that image's run.

    The search solves ``grid[0]`` and ``grid[-1]``; if the last meets the
    limit, it is i*.  Otherwise ``envelope_walk`` narrows the bracket
    (below, above) of solved indices, below meeting the limit and above
    missing it, until the two are neighbours; then below is i*.  The two
    images differ in f1, so ``_crossing_split`` applies, and as in
    ``solve_grid`` a change between two images adjacent on the lower
    envelope costs at most two calls.  A crossing split need not halve the
    bracket, though: many envelope images between the ends can make it
    creep forward one image per call.  So the first walk stops after
    k = ceil(log2(grid[-1] - grid[0])) crossing splits, and a second one
    splits the bracket at its midpoint (a budgeted form of the safeguarded
    secant step of Dekker, 1969, and Brent, 1973, ch. 4).

    The bound: for n = len(grid) >= 2 weights the bracket starts with width
    d = n - 1, and every split lies strictly inside it, so its width never
    grows past d.  Bisecting a width w <= d down to 1 takes at most
    ceil(log2 w) <= k splits, so a query makes at most 2 + k + k =
    2*ceil(log2(n - 1)) + 2 calls (one for n = 1), and since every split
    lies strictly between two neighbouring solved indices, no grid weight
    is solved twice: never more than one call per grid weight either.
    """
    records = []

    def solve(i):
        solved = _solve_at(adapter, instance, eps, i)
        records.append(solved[2])
        return solved

    def meets(solved) -> bool:
        return solved[2].image.f1 <= limit

    below = solve(grid[0])
    if not meets(below):
        return records, None
    above = solve(grid[-1]) if len(grid) > 1 else below
    if meets(above):
        return records, above[2]
    k = (grid[-1] - grid[0] - 1).bit_length()
    _, bracket = envelope_walk(solve, partial(_crossing_split, eps), [below, above], meets, k)
    _, (below, _) = envelope_walk(solve, _midpoint, bracket, meets)
    return records, below[2]


def solve_grid_symbolic(adapter: ParametricAdapter, instance, eps, grid: range) -> list:
    """One record per symbolic run over ranges of ``grid``, in index order.

    Megiddo's parametric simulation (JACM 30(4), 1983), run over a finite
    grid.  Each ``run_parametric`` call covers an index range [a, b].  A
    comparison asks for the sign of a linear form d = c + s*gamma, given as
    its two ints, at every weight (1+eps)**i, i in [a, b].  d is linear and
    the weights increase, so when d has the same sign at both end weights
    (``sign_at`` on their int pairs; 0 at both included) it has it on the
    whole range, and that sign is the answer.  Otherwise d is 0 at one end
    or crosses 0 inside, at the critical weight -c/s, which
    ``grid_index_between`` places between two grid indices of [a, b] or on
    one, climbing from a's int pair.  That splits [a, b]: the run keeps the lowest piece, pushes the
    rest for later runs and answers for it; earlier answers still hold on
    it, so every run ends with one token that is the oracle's answer at
    every index of its final range.  A grid weight equal to the critical
    weight gets a piece of its own, where the answer is 0.  The ranges
    partition the grid, so there are never more runs than indices.  Each
    run counts as one oracle call; its record is the run's token and image
    with ``produced_at`` the range's first weight: the oracle's record
    there.  A change of answer always falls between two ranges, so the
    first record of each run of equal answers is returned, which is all
    that ``solve_grid``'s consumers read.  The run refreshes b's int pair
    whenever it narrows b.
    """
    pending = [(grid[0], grid[-1])]
    records = []
    while pending:
        a, b = pending.pop()
        first = pow_one_plus_eps(eps, a)
        a_end = ratio_of(first)
        b_end = a_end if b == a else ratio_of(pow_one_plus_eps(eps, b))

        def compare(c, s) -> int:
            nonlocal b, b_end
            at_a = sign_at(c, s, a_end)
            if at_a == sign_at(c, s, b_end):  # so d has that sign on all of [a, b]
                return at_a
            # Here s != 0 and -c/s lies in [(1+eps)**a, (1+eps)**b], so a <= lo, hi <= b.
            hi, exact = grid_index_between(eps, (-c, s) if s > 0 else (c, -s), a, a_end, b)
            lo = hi + (not exact)  # weights below index lo are below -c/s, above hi above
            sign = 1 if s > 0 else -1
            pieces = ((a, lo - 1, -sign), (lo, hi, 0), (hi + 1, b, sign))
            (_, end, answer), *rest = [piece for piece in pieces if piece[0] <= piece[1]]
            pending.extend((x, y) for x, y, _ in reversed(rest))
            if end != b:
                b = end
                b_end = a_end if b == a else ratio_of(pow_one_plus_eps(eps, b))
            return answer

        run = adapter.run_parametric(instance, compare)
        records.append(SolutionRecord(run.token, run.image, first))
    return records


def zero_f2_weight(alpha, bounds: Bounds) -> Fraction:
    """The weight 2*alpha*UB(1)/LB(2), where the oracle returns f2 = 0 if any solution has it.

    A record with f2 > 0 has f2 >= LB(2) and so weighted value at least
    2*alpha*UB(1) there, while a solution x with f2 = 0 has value
    f1(x) <= UB(1); the oracle's answer is within alpha of that, so it has
    f2 = 0 and f1 <= alpha*f1(x).
    """
    return 2 * alpha * bounds.ub1 / bounds.lb2


def certify(adapter: ProblemAdapter, instance, records, picked, limit, factors, budget):
    """``(record, GuaranteeCertificate)`` for a budget search, or NoCertificate.

    ``records`` are the records the search solved, one per call, and
    ``picked`` the one it chose within the f1 ``limit``, or None.  On a
    relaxed instance OPT(B) may be 0, which no search weight eps*B/OPT(B)
    reaches; so unless ``picked`` has f2 = 0, one more call is made at
    ``zero_f2_weight``.  When OPT(B) = 0 it returns f2 = 0 and
    f1 <= alpha*B, within every search's limit, and that record is taken.
    ``oracle_calls`` counts the records, and NoCertificate carries them.
    """
    records = list(records)
    if instance.relaxed and (picked is None or picked.image.f2 != 0):
        gamma = zero_f2_weight(adapter.alpha(), adapter.bounds(instance))
        records.append(adapter.solve_weighted_sum(instance, gamma))
        if records[-1].image.f2 == 0 and records[-1].image.f1 <= limit:
            picked = records[-1]
    if picked is None:
        raise NoCertificate(records, limit)
    certificate = GuaranteeCertificate(
        alpha=adapter.alpha(),
        budget_factor=factors[0],
        cost_factor=factors[1],
        budget=budget,
        oracle_calls=len(records),
    )
    return picked, certificate


def solve_budget_sweep(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Search the weight grid and return the best budget-respecting record.

    Among the records on the weights (1+eps)**i, i in ``index_range``, with
    f1 <= alpha*(1+2*eps)*B, one with minimum f2, ties broken by minimum
    f1, is picked, and ``certify`` returns it.  An exact oracle's grid is
    searched by ``solve_grid_boundary``, which returns the record at i*,
    the last index within that f1 limit: it has the least (f2, f1), and
    it is the record ``solve_budget_binary`` names too.  Its calls stay
    within 2*ceil(log2(n - 1)) + 2 for n grid weights, and when the first
    grid record misses the limit, so does every other, and its
    NoCertificate carries that one record.  An approximate oracle's grid
    is walked by ``solve_grid`` with no early exit, since the guarantee
    lives at an unknown index; the lowest index breaks the remaining ties,
    and its NoCertificate carries every record the walk solved.  Either
    way ``certify`` adds its call on a relaxed instance, and the
    NoCertificate carries the f1 limit and is no proof of infeasibility.
    """
    eps, budget = query.eps, query.budget
    grid = index_range(eps, budget, adapter.bounds(instance))
    factors = grid_factors(adapter.alpha(), eps)
    limit = factors[0] * budget
    if adapter.alpha() == 1:
        records, best = solve_grid_boundary(adapter, instance, eps, grid, limit)
    else:
        records = solve_grid(adapter, instance, eps, grid)
        qualifying = [r for r in records if r.image.f1 <= limit]
        best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1), default=None)
    return certify(adapter, instance, records, best, limit, factors, budget)


def solve_budget_fixed(
    adapter: ProblemAdapter, instance, budget
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """The sweep with eps pinned to 1: a (3*alpha, 3*alpha)-approximation."""
    query = BudgetQuery(budget=budget, eps=Fraction(1))
    return solve_budget_sweep(adapter, instance, query)
