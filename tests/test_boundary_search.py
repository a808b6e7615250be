"""The exact grid search (``sweep``, ``fixed``, ``binary``) against the full grid walk and bisection."""

from __future__ import annotations

from fractions import Fraction

import pytest

from _suite import (
    OncePerWeight,
    boundary_call_bound,
    check_exact_search,
    creeping_front,
    exact_cases,
    front_budgets,
    front_cases,
    positive_budgets,
    search_outcome,
)
from bicrit.core import CostPair
from bicrit.exact_search import solve_budget_binary
from bicrit.problems import BiweightedGraph, MstAdapter, ShortestPathAdapter
from bicrit.sweep import (
    BudgetQuery,
    certify,
    grid_factors,
    index_range,
    solve_budget_fixed,
    solve_budget_sweep,
    solve_grid,
)

EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 20))


def walk_sweep(adapter, instance, query):
    """The sweep the boundary search replaced: the whole grid walked, then filtered."""
    eps, budget = query.eps, query.budget
    records = solve_grid(adapter, instance, eps, index_range(eps, budget, adapter.bounds(instance)))
    factors = grid_factors(adapter.alpha(), eps)
    limit = factors[0] * budget
    qualifying = [r for r in records if r.image.f1 <= limit]
    best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1), default=None)
    return certify(adapter, instance, records, best, limit, factors, budget)


def _fixed(adapter, instance, query):
    return solve_budget_fixed(adapter, instance, query.budget)


def _compare(adapter, instance, query) -> tuple:
    """Check every exact grid search against the walk; return (walk's calls, search's calls).

    ``sweep``, ``binary`` and, at eps 1, ``fixed`` run one search, so they
    make the same calls.
    """
    walked = search_outcome(walk_sweep, adapter, instance, query)
    searches = [solve_budget_sweep, solve_budget_binary]
    if query.eps == 1:
        searches.append(_fixed)
    calls = {check_exact_search(s, adapter, instance, query, walked) for s in searches}
    assert len(calls) == 1
    walk_calls = len(walked[1]) if walked[0] == "no certificate" else walked[1].oracle_calls
    return walk_calls, calls.pop()


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_suite_and_relaxed_sweeps_match_the_walk(eps):
    for case in exact_cases():
        for budget in positive_budgets(case):
            _compare(case.raw_adapter, case.instance, BudgetQuery(budget, eps))


# eps -> (the walk's calls, the boundary search's calls) over the 24 multi-point
# fronts, at every budget of ``front_budgets``.
FRONT_CALLS = {
    Fraction(1): (2133, 915),
    Fraction(1, 2): (2367, 1034),
    Fraction(1, 4): (2644, 1190),
    Fraction(1, 20): (2780, 1207),
    Fraction(1, 100): (2494, 1103),
}


@pytest.mark.parametrize("eps", (*EPSILONS, Fraction(1, 100)), ids=str)
def test_multi_point_fronts_match_the_walk(eps):
    totals = [0, 0]
    for case in front_cases():
        for budget in front_budgets(case):
            walked, searched = _compare(case.raw_adapter, case.instance, BudgetQuery(budget, eps))
            totals[0] += walked
            totals[1] += searched
    assert tuple(totals) == FRONT_CALLS[eps]


@pytest.mark.parametrize(
    ("order", "tie", "calls", "picked_at"),
    [(1, (9, 1), 4, Fraction(1)), (-1, (1, 5), 3, Fraction(2))],
    ids=["tie_to_b", "tie_to_a"],
)
def test_crossing_on_a_grid_weight(order, tie, calls, picked_at):
    # A = (1, 5) and B = (9, 1) cross at gamma = 2 = 2**1.  Budget 5/2 at
    # eps 1 has the grid [-2, 2] and the f1 limit 15/2, which A meets and B
    # misses.  The ends return A and B, so the first split is index 1, where
    # Kruskal breaks the tie by edge order.  A there ends the search at i* = 1;
    # B there brackets (-2, 1), split at 0, which returns A, so i* = 0.  The
    # walk makes the same calls, and both pick A, the walk at index -2.
    graph = BiweightedGraph(2, [(0, 1, pair) for pair in [(9, 1), (1, 5)][::order]], kind="mst")
    query = BudgetQuery(Fraction(5, 2), Fraction(1))
    assert index_range(query.eps, query.budget, MstAdapter().bounds(graph)) == range(-2, 3)
    assert MstAdapter().solve_weighted_sum(graph, Fraction(2)).image == CostPair(*tie)
    assert _compare(MstAdapter(), graph, query) == (calls, calls)
    once = OncePerWeight(MstAdapter())
    record, _ = solve_budget_sweep(once, graph, query)
    assert once.weights[:3] == [Fraction(1, 4), Fraction(4), Fraction(2)]
    assert (record.image, record.produced_at) == (CostPair(1, 5), picked_at)
    walked, _ = walk_sweep(MstAdapter(), graph, query)
    assert (walked.image, walked.produced_at) == (CostPair(1, 5), Fraction(1, 4))


@pytest.mark.parametrize("kind", ["mst", "path"])
def test_safeguard_bounds_a_creeping_bracket(kind):
    # At B = 1 and eps 1 the f1 limit is 3, which only image 0 meets.  The
    # crossing of image 0's line with image k's lies between image k-1's two
    # breakpoints, so each crossing split returns image k-1: unsafeguarded, the
    # bracket would creep down one image per call, 31 calls on these 94 grid
    # weights.  After ceil(log2(93)) = 7 crossing splits it bisects instead.
    graph = creeping_front(kind, 30)
    adapter = MstAdapter() if kind == "mst" else ShortestPathAdapter()
    query = BudgetQuery(Fraction(1), Fraction(1))
    assert len(index_range(query.eps, query.budget, adapter.bounds(graph))) == 94
    _, searched = _compare(adapter, graph, query)
    assert searched <= boundary_call_bound(94) == 16
