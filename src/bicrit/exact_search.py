"""Accelerated budget-constrained search for exact weighted-sum oracles.

Parametric search walks the lower envelope of the weighted-sum lines
(``core.envelope_walk``) inward from the two ends of the weight range
[eps*B/UB(2), eps*B/LB(2)], one oracle call per crossing of two lines, to
the weight where the optimal records' f1 passes the limit (1+eps)*B.
After a logarithmic number of crossing steps it goes on with
``rational_split``, which alternates the crossings with midpoints until
the bracket is too short to hold two breakpoints of the envelope: a
search for a rational of bounded denominator that needs only the
concrete oracle, so every exact adapter runs it.
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

from .core import (
    GuaranteeCertificate,
    ProblemAdapter,
    SolutionRecord,
    crossing_split,
    envelope_walk,
    ratio_of,
)
from .core import pow_one_plus_eps  # noqa: F401  unused; perfbench's tracer wraps this name
from .errors import ExactOracleRequired
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
    """One parametric search run: its answer, its certificate and its walk.

    ``walk`` holds the records the envelope walk solved, in call order: at
    eps*B/LB(2); at eps*B/UB(2), unless the first met the f1 limit or the
    two weights are equal; then one per probe of ``core.envelope_walk``,
    crossing steps first and ``rational_split``'s probes after them.
    """

    record: SolutionRecord
    certificate: GuaranteeCertificate
    walk: tuple


def walk_step_budget(instance) -> int:
    """ceil(log2(m + 1)) for the instance's m weight pairs: the crossing steps the walk may take."""
    return len(instance.ratios).bit_length()


def parametric_call_bound(adapter: ProblemAdapter, instance, query: BudgetQuery) -> int:
    """The most oracle calls ``parametric_search`` makes, known before it runs.

    2 + ceil(log2(m+1)) + 2*(G + A + 1), plus ``certify``'s call on a
    relaxed instance, where G = ceil(log2 log2(UB(2)/LB(2))), A =
    ceil(log2(3*hi*S**2)), each taken as 0 when it is not positive,
    hi = eps*B/LB(2) and S = sum(instance.scaled.second).  The proof is in
    ``rational_split``.
    """
    bounds = adapter.bounds(instance)
    (n, d), geometric = ratio_of(bounds.ub2 / bounds.lb2), 0
    while n > d << (1 << geometric):  # UB(2)/LB(2) > 2**(2**G)
        geometric += 1
    top = query.eps * query.budget / bounds.lb2 * 3 * sum(instance.scaled.second) ** 2
    arithmetic = max(0, _ceil_log2(*ratio_of(top)))
    return 2 + walk_step_budget(instance) + 2 * (geometric + arithmetic + 1) + instance.relaxed


def _ceil_log2(n: int, d: int) -> int:
    """The least integer j with n/d <= 2**j, for positive ints n and d."""
    j = n.bit_length() - d.bit_length()  # so 2**(j-1) < n/d < 2**(j+1)
    return j + (n > d << j if j >= 0 else n << -j > d)


def _halving_weight(a: Fraction, b: Fraction) -> Fraction:
    """A weight strictly inside (a, b), 0 < a < b: a power of two while b > 4a, else (a+b)/2.

    The power is 2**k with k the upper middle of [k_lo, k_hi], the
    exponents of the powers of two strictly inside (a, b); b > 4a puts at
    least two there.
    """
    if b <= 4 * a:
        return (a + b) / 2
    k_lo = 1 - _ceil_log2(a.denominator, a.numerator)  # least k with 2**k > a
    k_hi = _ceil_log2(b.numerator, b.denominator) - 1  # greatest k with 2**k < b
    return Fraction(2) ** ((k_lo + k_hi + 1) // 2)


def rational_split(instance):
    """The parametric walk's safeguard: a split for ``core.envelope_walk`` that always ends.

    Let S = sum(instance.scaled.second).  The split is None when
    ``crossing_split`` is; otherwise, for a bracket solved at weights
    a < b with (b - a)*S**2 >= 1, its calls alternate the crossing with
    ``_halving_weight``, crossing first, and once (b - a)*S**2 < 1 it is
    the crossing alone.  This is the search for a rational of bounded
    denominator (Papadimitriou, IPL 8(1), 1979; Kwek and Mehlhorn, IPL
    86(1), 2003), which needs only the concrete oracle.

    Why it ends.  A breakpoint of the lower envelope is a weight where two
    optimal lines of different slopes meet: (F1_Y - F1_X)/(F2_X - F2_Y)
    for the scaled int sums F of two solutions, whose f2 sums lie in
    [0, S].  So its denominator is at most S, and two breakpoints differ
    by at least 1/S**2.  Take a bracket (L, R), L optimal at a, R at b,
    b - a < 1/S**2, and a probe P at their crossing c, a < c < b.  If P
    lay strictly below L's and R's lines at c, L's line would leave the
    envelope at a breakpoint in [a, c), and R's at one in (c, b]: two
    breakpoints closer than 1/S**2.  So P lies on both lines at c, and the
    new bracket, (L, P) or (P, R), has equal images or lines that cross at
    P's own weight: ``crossing_split`` ends the walk after that one probe.

    The bound.  Every probe lies strictly inside its bracket, so the
    brackets stay inside [lo, hi] = [eps*B/UB(2), eps*B/LB(2)] and never
    widen.  While b > 4a, let k_lo and k_hi be as in ``_halving_weight``
    and n = k_hi - k_lo + 2, so that a >= 2**(k_lo - 1), b <= 2**(k_hi+1)
    and n < log2(b/a) + 2.  A split at 2**k leaves a bracket inside
    [2**(k_lo-1), 2**k] or [2**k, 2**(k_hi+1)], whose exponents differ by
    at most ceil(n/2), and any bracket inside [2**x, 2**y] has n <= y - x.
    A power-of-two split needs b > 4a, so n >= 3; after t of them n <=
    ceil(n_0/2**t), so there are T splits with 2**T < n_0 < L + 2 <= 2L
    for L = log2(hi/lo) > 2, and T <= ceil(log2 L) = G.  Past that b <= 4a
    stays so, and the width b - a <= 3a < 3*hi halves with every midpoint;
    after A = ceil(log2(3*hi*S**2)) of them it is below 1/S**2.  So at
    most G + A midpoints are probed, at most one crossing before each and
    one after the last, and then one crossing of a short bracket: at most
    2*(G + A + 1) probes in all (``parametric_call_bound``).
    """
    square = sum(instance.scaled.second) ** 2
    crossing_turn = False

    def split(left: SolutionRecord, right: SolutionRecord):
        nonlocal crossing_turn
        c = crossing_split(left, right)
        a, b = left.produced_at, right.produced_at
        crossing_turn = not crossing_turn
        if c is None or crossing_turn or (b - a) * square < 1:
            return c
        return _halving_weight(a, b)

    return split


def parametric_search(adapter: ProblemAdapter, instance, query: BudgetQuery) -> ParametricOutcome:
    """A walk along the lower envelope, safeguarded by ``rational_split``.

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
    ``crossing_split`` does not end, the walk goes on with
    ``rational_split``.  Its midpoints are probed and kept like its
    crossings, every record is optimal at its own weight, and it ends
    only where ``crossing_split`` does, so the argument above holds as it
    stands.

    ``certify`` gets the answer and, on a relaxed instance, where OPT(B)
    may be 0, makes its zero-f2 call.  The result satisfies
    f1 <= (1+eps)*B and f2 <= (1+1/eps)*OPT(B), and the oracle calls stay
    within ``parametric_call_bound``.  Any exact adapter runs it.
    """
    if adapter.alpha() != 1:
        raise ExactOracleRequired("parametric search needs an exact oracle")
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
    picked = None
    if meets(right):
        picked = right
    elif meets(left):
        steps = walk_step_budget(instance)
        probes, ends = envelope_walk(solve, crossing_split, [left, right], meets, steps)
        more, (left, _) = envelope_walk(solve, rational_split(instance), ends, meets)
        walk += probes + more
        picked = next(record for record in walk if record.image == left.image)
    record, certificate = certify(adapter, instance, walk, picked, limit, factors, budget)
    return ParametricOutcome(record, certificate, tuple(walk))


def solve_budget_parametric(
    adapter: ProblemAdapter, instance, query: BudgetQuery
) -> tuple[SolutionRecord, GuaranteeCertificate]:
    """Parametric search, returning just the record and its certificate."""
    outcome = parametric_search(adapter, instance, query)
    return outcome.record, outcome.certificate
