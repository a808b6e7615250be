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
    ParametricAdapter,
    ProblemAdapter,
    SolutionRecord,
    check_epsilon,
    crossing,
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

    The walk solves both ends of the grid and splits each index interval
    (left, j) inside until its ends are neighbours, but skips the inside of
    an interval whose ends returned the same image when the oracle is
    exact.  An approximate one (alpha != 1) is called at every index, so
    its intervals are split at their midpoints.  Skipping is sound because
    the envelope g(gamma) = min_x f1(x) + gamma*f2(x) is concave.  If one
    image A is optimal at weights gamma_a < gamma_b, A's line meets g at
    both ends, and a concave g lies on or above that chord between them
    while never exceeding A's line, so A is optimal on all of
    [gamma_a, gamma_b].  Any other optimal image B there has a line that
    stays >= g = A's line and touches it at an interior point, so B's line
    is A's: an exact oracle returns image A at every skipped index.  The
    full sweep's images thus come in runs of neighbouring indices, and the
    walk narrows every change of image down to two neighbouring solved
    indices, so every image is solved at the lowest index of its run.
    Nothing in this uses where an interval is split, so any index inside
    it gives the same first record of every run.

    An exact oracle's interval with end images A != B is split where
    their lines f1 + gamma*f2 cross (the dichotomic step of Aneja and
    Nair, Management Science 25(1), 1979).  Both ends are optimal, at
    w_left < w_j, so A.f2 > B.f2, A.f1 < B.f1, and the crossing
    c = (B.f1 - A.f1)/(A.f2 - B.f2) lies in [w_left, w_j].  Below c
    A's line is below B's, so the oracle never returns B there; above c
    it never returns A.  The split is the floor index of c, the largest
    with weight <= c, clamped into [left+1, j-1].  Between two images
    adjacent on the envelope a change costs at most two calls: the floor
    index returns A (or B, when c is that weight), and its neighbour
    across c returns the other one; any other answer is a new envelope
    image, whose runs the walk narrows the same way.  Every split lies
    strictly inside its interval, so the walk still makes at most one call
    per grid weight.  ``core.grid_index_between`` finds the floor index on
    ints, climbing from w_left's int pair.

    An approximate oracle that is a ``ParametricAdapter`` is walked by
    ``solve_grid_symbolic`` instead: one run per range of grid indices on
    which its answer cannot change, so the first index of every run of
    equal answers is solved.

    Both consumers keep only the first record of an image, so each returns
    the full sweep's records (token, image, ``produced_at``) with fewer
    calls: ``approximate_pareto``'s filter keeps the first record of each
    nondominated image, and ``solve_budget_sweep`` the first of least
    (f2, f1) within its f1 limit, which reads images only, so it raises
    NoCertificate exactly when the full sweep does.
    """
    if not grid:
        raise ValueError(f"empty index range {grid}")
    exact = adapter.alpha() == 1
    if not exact and isinstance(adapter, ParametricAdapter):
        return solve_grid_symbolic(adapter, instance, eps, grid)

    def solve(i):
        weight = pow_one_plus_eps(eps, i)
        return i, ratio_of(weight), adapter.solve_weighted_sum(instance, weight)

    # ``done`` is the last (index, weight's int pair, record) in ``records``;
    # ``pending`` holds the solved ones right of it, nearest on top.  No
    # recursive closure: its reference cycle would hold the records until a
    # gc run.
    done = solve(grid[0])
    records = [done[2]]
    pending = [solve(grid[-1])] if len(grid) > 1 else []
    while pending:
        (left, start, a), (j, _, b) = done, pending[-1]
        if j - left < 2 or (exact and a.image == b.image):
            records.append(b)
            done = pending.pop()
        elif exact and j - left > 2:  # with one index inside, the midpoint is it
            m, _ = grid_index_between(eps, crossing(a.image, b.image), left, start, j)
            pending.append(solve(min(max(m, left + 1), j - 1)))
        else:
            pending.append(solve((left + j) // 2))
    return records


def solve_grid_symbolic(adapter: ParametricAdapter, instance, eps, grid: range) -> list:
    """One record per symbolic run over ranges of ``grid``, in index order.

    Megiddo's parametric simulation (JACM 30(4), 1983), run over a finite
    grid.  Each ``run_parametric`` call covers an index range [a, b].  A
    comparison of linear values p, q is the sign of d = p - q = c + s*gamma
    at every weight (1+eps)**i, i in [a, b].  d is linear and the weights
    increase, so when d has the same sign at both end weights (``sign_at``
    on their int pairs; 0 at both included) it has it on the whole range,
    and that sign is the answer.  Otherwise d is 0 at one end or crosses 0
    inside, at the critical weight -c/s, which ``grid_index_between`` places
    between two grid indices of [a, b] or on one, climbing from a's int
    pair.  That splits [a, b]: the run keeps the lowest piece, pushes the
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

        def compare(p, q) -> int:
            nonlocal b, b_end
            c, s = p.constant - q.constant, p.slope - q.slope
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
    """Walk the whole weight grid and return the best budget-respecting record.

    ``solve_grid`` walks it (no early exit: the guarantee lives at an
    unknown index).  Among records with f1 <= alpha*(1+2*eps)*B the one
    with minimum f2 is picked, ties broken by minimum f1, then lowest
    index, and ``certify`` returns it.  NoCertificate, carrying the records
    solved and that f1 limit, is raised when no record passes; that is not
    a proof of infeasibility.
    """
    eps, budget = query.eps, query.budget
    records = solve_grid(adapter, instance, eps, index_range(eps, budget, adapter.bounds(instance)))
    factors = grid_factors(adapter.alpha(), eps)
    limit = factors[0] * budget
    qualifying = [r for r in records if r.image.f1 <= limit]
    best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1), default=None)
    return certify(adapter, instance, records, best, limit, factors, budget)


def solve_budget_fixed(
    adapter: ProblemAdapter, instance, budget
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """The sweep with eps pinned to 1: a (3*alpha, 3*alpha)-approximation."""
    query = BudgetQuery(budget=budget, eps=Fraction(1))
    return solve_budget_sweep(adapter, instance, query)
