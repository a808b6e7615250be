"""The exact sweep's boundary search against the full grid walk it replaced."""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _suite import (
    OncePerWeight,
    build_suite,
    exact_pareto,
    make_case,
    random_relaxed_instance,
    search_outcome,
)
from bicrit.core import CostPair, pow_one_plus_eps
from bicrit.problems import BiweightedGraph, MstAdapter
from bicrit.sweep import (
    BudgetQuery,
    certify,
    grid_factors,
    index_range,
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


def _compare(adapter, instance, query) -> tuple:
    """Check the boundary search against the walk; return (walk's calls, search's calls)."""
    once = OncePerWeight(adapter)
    got = search_outcome(solve_budget_sweep, once, instance, query)
    want = search_outcome(walk_sweep, adapter, instance, query)
    if want[0] == "no certificate":
        # The first end misses the limit, so only the grid's two ends are
        # solved, plus ``certify``'s call on a relaxed instance.
        grid = index_range(query.eps, query.budget, adapter.bounds(instance))
        weights = [pow_one_plus_eps(query.eps, i) for i in sorted({grid[0], grid[-1]})]
        ends = tuple(adapter.solve_weighted_sum(instance, w) for w in weights)
        relaxed_call = want[1][-1:] if instance.relaxed else ()
        assert got == ("no certificate", ends + relaxed_call, want[2])
        return len(want[1]), len(got[1])
    (record, certificate), (want_record, want_certificate) = got, want
    assert record == want_record
    assert certificate.oracle_calls <= want_certificate.oracle_calls
    assert replace(certificate, oracle_calls=want_certificate.oracle_calls) == want_certificate
    return want_certificate.oracle_calls, certificate.oracle_calls


def _budgets(case):
    """Every positive achievable budget, and one below all of them."""
    budgets = [b for b in case.budgets if b > 0]
    return [*budgets, budgets[0] / 4]


@functools.cache
def _exact_cases():
    """Every exact instance of the acceptance suite, then ten relaxed ones of each exact kind."""
    cases = [case for case in build_suite() if case.alpha == 1]
    rng = random.Random(83)
    for kind in ("mst", "path", "cut"):
        for _ in range(10):
            cases.append(make_case(kind, random_relaxed_instance(rng, kind, rng.randint(2, 7))))
    return cases


def _front_instance(rng, kind, n) -> BiweightedGraph:
    """A tree plus n random edges, weights d*10**k (d in 1..9, k in 0..3)."""

    def weight():
        return rng.randint(1, 9) * 10 ** rng.randint(0, 3)

    ends = [(rng.randrange(v), v) for v in range(1, n)]
    ends += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
    edges = [(u, v, (weight(), weight())) for u, v in ends]
    terminals = {} if kind == "mst" else {"source": 0, "sink": n - 1}
    return BiweightedGraph(n, edges, kind=kind, **terminals)


@functools.cache
def _front_cases():
    """Eight instances of each exact kind whose exact Pareto front has at least four points."""
    rng = random.Random(89)
    cases = []
    for kind in ("mst", "path", "cut"):
        kept = 0
        while kept < 8:
            instance = _front_instance(rng, kind, rng.randint(7, 9))
            if len(exact_pareto(instance).records) >= 4:
                cases.append(make_case(kind, instance))
                kept += 1
    return cases


def _front_budgets(case):
    """Each front point's f1, the midpoints between neighbouring ones, and one below all."""
    f1s = sorted({r.image.f1 for r in exact_pareto(case.instance).records})
    return [*f1s, *((a + b) / 2 for a, b in zip(f1s, f1s[1:])), f1s[0] / 4]


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_suite_and_relaxed_sweeps_match_the_walk(eps):
    for case in _exact_cases():
        for budget in _budgets(case):
            _compare(case.raw_adapter, case.instance, BudgetQuery(budget, eps))


# eps -> (the walk's calls, the boundary search's calls) over the 24 multi-point
# fronts, at every budget of ``_front_budgets``.
FRONT_CALLS = {
    Fraction(1): (2133, 1681),
    Fraction(1, 2): (2367, 1714),
    Fraction(1, 4): (2644, 1810),
    Fraction(1, 20): (2780, 1848),
    Fraction(1, 100): (2494, 1730),
}


@pytest.mark.parametrize("eps", (*EPSILONS, Fraction(1, 100)), ids=str)
def test_multi_point_fronts_match_the_walk(eps):
    totals = [0, 0]
    for case in _front_cases():
        for budget in _front_budgets(case):
            walked, searched = _compare(case.raw_adapter, case.instance, BudgetQuery(budget, eps))
            totals[0] += walked
            totals[1] += searched
    assert tuple(totals) == FRONT_CALLS[eps]


@pytest.mark.parametrize(
    ("order", "tie", "calls"), [(1, (9, 1), 4), (-1, (1, 5), 3)], ids=["tie_to_b", "tie_to_a"]
)
def test_crossing_on_a_grid_weight(order, tie, calls):
    # A = (1, 5) and B = (9, 1) cross at gamma = 2 = 2**1.  Budget 5/2 at
    # eps 1 has the grid [-2, 2] and the f1 limit 15/2, which A meets and B
    # misses.  The ends return A and B, so the first split is index 1, where
    # Kruskal breaks the tie by edge order.  A there ends the search (A's run
    # starts at the solved index -2); B there brackets (-2, 1), split at 0.
    # The walk makes the same calls.
    graph = BiweightedGraph(2, [(0, 1, pair) for pair in [(9, 1), (1, 5)][::order]], kind="mst")
    query = BudgetQuery(Fraction(5, 2), Fraction(1))
    assert index_range(query.eps, query.budget, MstAdapter().bounds(graph)) == range(-2, 3)
    assert MstAdapter().solve_weighted_sum(graph, Fraction(2)).image == CostPair(*tie)
    assert _compare(MstAdapter(), graph, query) == (calls, calls)
    once = OncePerWeight(MstAdapter())
    record, _ = solve_budget_sweep(once, graph, query)
    assert once.weights[:3] == [Fraction(1, 4), Fraction(4), Fraction(2)]
    assert (record.image, record.produced_at) == (CostPair(1, 5), Fraction(1, 4))
