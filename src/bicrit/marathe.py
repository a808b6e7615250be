"""Reimplementation of the Marathe et al. parametric search heuristic.

The 1998 algorithm binary-searches an integer threshold D for the ratio
h(D)/D, where h(D) is the oracle value under the objective (D/B)*f1 + f2.
This module reproduces it faithfully together with its two documented
failure modes: the ratio is not monotone once the oracle is approximate
(so the binary search is ill-defined), and even with an exact oracle the
search interval can exclude every valid threshold on a feasible instance,
making the algorithm report "no solution" incorrectly.  The module makes
no attempt to repair the algorithm.  ``adversarial_wrap`` builds on the
ground truth's ``enumerate_all`` the worst-case legal approximate oracle
that reproduces the first failure, and that negative tests use too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Optional

from .core import ProblemAdapter, SolutionRecord, check_weight, rational
from .errors import BicritError
from .oracle import enumerate_all, exact_opt_budget
from .problems import BiweightedGraph, MstAdapter
from .sweep import zero_f2_weight


@dataclass(frozen=True)
class MaratheTrace:
    """Every threshold probed, with the achieved value and solution token.

    ``outcome`` is the record the search settled on, or None when it found
    no valid threshold (reported downstream as "no solution").  ``params``
    echoes (budget, eps, ub2); eps here is the source algorithm's free
    accuracy parameter and may exceed 1.
    """

    tested: tuple
    outcome: Optional[SolutionRecord]
    params: tuple


def h_value(adapter: ProblemAdapter, instance, big_d, budget) -> tuple[Fraction, SolutionRecord]:
    """Oracle value h(D) under the objective (D/B)*f1 + f2, with its record.

    For D > 0 the objective is a positive multiple of f1 + (B/D)*f2, so
    one standard weighted-sum call answers it and the value is rescaled
    exactly.  For D = 0 the objective degenerates to f2 alone, realized by
    a call at ``sweep.zero_f2_weight``; the weighted-sum contract does not
    promise exact f2-minimality there, but the search never evaluates h(0)
    (see ``marathe_search``).
    """
    big_d, budget = rational(big_d), rational(budget)
    if big_d < 0 or budget <= 0:
        raise ValueError("h(D) needs D >= 0 and B > 0")
    if big_d == 0:
        gamma = zero_f2_weight(adapter.alpha(), adapter.bounds(instance))
        record = adapter.solve_weighted_sum(instance, gamma)
        return record.image.f2, record
    record = adapter.solve_weighted_sum(instance, budget / big_d)
    return (big_d / budget) * record.image.f1 + record.image.f2, record


def marathe_search(adapter: ProblemAdapter, instance, budget, eps, ub2) -> MaratheTrace:
    """Binary search for D' with h(D')/D' > a(1+eps) >= h(D'+1)/(D'+1).

    D' ranges over the integers 0..floor(eps*ub2).  The ratio at D' = 0 is
    taken as +infinity, so the strict inequality holds there vacuously and
    no oracle call is spent on it.  On success the outcome is the oracle's
    solution at threshold D'+1; on failure the outcome is None.  The
    search only terminates correctly when h(D)/D is monotone, which holds
    for exact oracles but not in general.
    """
    budget, eps, ub2 = rational(budget), rational(eps), rational(ub2)
    if eps <= 0:
        raise ValueError("the source algorithm needs eps > 0")
    threshold = adapter.alpha() * (1 + eps)
    d_max = math.floor(eps * ub2)
    cache: dict[int, tuple[Fraction, SolutionRecord]] = {}
    tested: list[tuple[Fraction, Fraction, Any]] = []

    def evaluated(d: int):
        if d not in cache:
            cache[d] = h_value(adapter, instance, d, budget)
            tested.append((Fraction(d), cache[d][0], cache[d][1].token))
        return cache[d]

    def ratio_exceeds(d: int) -> bool:
        if d == 0:
            return True
        h, _ = evaluated(d)
        return h > threshold * d

    found = None
    lo, hi = 0, d_max
    while lo <= hi:
        mid = (lo + hi) // 2
        if ratio_exceeds(mid):
            if not ratio_exceeds(mid + 1):
                found = mid
                break
            lo = mid + 1
        else:
            hi = mid - 1
    outcome = None if found is None else cache[found + 1][1]
    return MaratheTrace(tested=tuple(tested), outcome=outcome, params=(budget, eps, ub2))


def adversarial_wrap(inner: ProblemAdapter, alpha, instance, script=None) -> ProblemAdapter:
    """Wrap ``inner`` as an alpha-approximate adversary bound to ``instance``.

    The default policy returns, among all feasible solutions whose
    weighted value is within alpha of the optimum, the one maximizing f1
    (ties by maximal f2, then enumeration order).  ``script`` maps a
    weight gamma to a forced token; scripted answers are validated to be
    alpha-legal.  The instance must be small enough to enumerate.
    """
    alpha = rational(alpha)
    if alpha < 1:
        raise ValueError("adversary factor must be >= 1")
    candidates = enumerate_all(instance)
    return _AdversarialAdapter(inner, alpha, instance, candidates, dict(script or {}))


class _AdversarialAdapter(ProblemAdapter):
    def __init__(self, inner, alpha, instance, candidates, script):
        self._inner = inner
        self._alpha = alpha
        self._instance = instance
        self._candidates = candidates
        self._script = {rational(g): token for g, token in script.items()}

    def alpha(self) -> Fraction:
        return self._alpha

    def bounds(self, instance):
        return self._inner.bounds(instance)

    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        if instance != self._instance:
            raise ValueError("adversary is bound to the instance it was built for")
        gamma = check_weight(gamma)
        best = min(r.image.weighted(gamma) for r in self._candidates)
        legal = [r for r in self._candidates if r.image.weighted(gamma) <= self._alpha * best]
        forced = self._script.get(gamma)
        if forced is not None:
            chosen = next((r for r in legal if r.token == forced), None)
            if chosen is None:
                raise ValueError(f"scripted answer at gamma={gamma} is not alpha-legal")
        else:
            chosen = max(legal, key=lambda r: (r.image.f1, r.image.f2))
        return replace(chosen, produced_at=gamma)


def example1_graph() -> BiweightedGraph:
    """Triangle whose spanning trees have images (4,2), (2,4), (4,4)."""
    return BiweightedGraph(3, [(0, 1, (3, 1)), (1, 2, (1, 3)), (0, 2, (1, 1))], kind="mst")


def example2_graph() -> BiweightedGraph:
    """Triangle whose spanning trees have images (4,2), (3,3), (3,3)."""
    return BiweightedGraph(3, [(0, 1, (2, 1)), (1, 2, (2, 1)), (0, 2, (1, 2))], kind="mst")


# The non-monotone demonstration needs the adversary to answer the D=3
# query with the true optimum and the D=4 query with the worst 5/4-legal
# tree; the generic worst-by-f1 policy would answer both with the same
# tree and the ratio would stay monotone.  Keys are the standard-form
# weights gamma = B/D for B=2.
EXAMPLE1_SCRIPT = {
    Fraction(2, 3): frozenset({1, 2}),  # D=3 -> the (2,4) tree
    Fraction(1, 2): frozenset({0, 2}),  # D=4 -> the (4,2) tree
}


def reproduce_example1() -> MaratheTrace:
    """Non-monotone h(D)/D under a 5/4-approximate oracle.

    On the first demo triangle with B=2, the scripted adversary yields
    h(3)/3 = 7/3 < 5/2 = h(4)/4, so the ratio the binary search relies on
    increases between consecutive thresholds.  Exact rationals, checked
    with no tolerance.
    """
    graph = example1_graph()
    budget = Fraction(2)
    adversary = adversarial_wrap(MstAdapter(), Fraction(5, 4), graph, script=EXAMPLE1_SCRIPT)
    h3, rec3 = h_value(adversary, graph, 3, budget)
    h4, rec4 = h_value(adversary, graph, 4, budget)
    if h3 != 7 or h4 != 10:
        raise BicritError(f"expected h(3)=7 and h(4)=10, got {h3} and {h4}")
    if not h3 / 3 < h4 / 4:
        raise BicritError("ratio failed to increase; the demonstration is broken")
    tested = ((Fraction(3), h3, rec3.token), (Fraction(4), h4, rec4.token))
    return MaratheTrace(tested=tested, outcome=None, params=(budget, Fraction(1), Fraction(4)))


def reproduce_example2() -> MaratheTrace:
    """The exact-oracle search misses a feasible instance.

    On the second demo triangle with B=3, eps=2/3, ub2=3, every ratio
    h(D+1)/(D+1) in the search window stays above a(1+eps), so the search
    returns no solution even though two trees satisfy the budget; the
    feasibility witness exact_opt_budget(B=3) = 3 is checked here.
    """
    graph = example2_graph()
    trace = marathe_search(MstAdapter(), graph, Fraction(3), Fraction(2, 3), Fraction(3))
    if trace.outcome is not None:
        raise BicritError("search unexpectedly produced a solution")
    if exact_opt_budget(graph, Fraction(3)) != 3:
        raise BicritError("feasibility witness failed: expected OPT(3) = 3")
    return trace
