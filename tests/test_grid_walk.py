"""The exact grid walk's crossing split against the bisection walk it replaced."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import OncePerWeight, build_suite, make_case, random_relaxed_instance
from bicrit.core import (
    CostPair,
    grid_index,
    grid_index_between,
    pow_one_plus_eps,
    ratio_of,
)
from bicrit.marathe import adversarial_wrap
from bicrit.pareto import approximate_pareto, pareto_index_range
from bicrit.problems import BiweightedGraph, MstAdapter
from bicrit.sweep import index_range, solve_grid

EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 50))


def bisection_walk(adapter, instance, eps, grid):
    """The walk the crossing split replaced: every interval split at its midpoint."""
    exact = adapter.alpha() == 1

    def solve(i):
        return adapter.solve_weighted_sum(instance, pow_one_plus_eps(eps, i))

    left, records = grid[0], [solve(grid[0])]
    pending = [(grid[-1], solve(grid[-1]))] if len(grid) > 1 else []
    while pending:
        j, last = pending[-1]
        if j - left > 1 and not (exact and records[-1].image == last.image):
            m = (left + j) // 2
            pending.append((m, solve(m)))
        else:
            records.append(last)
            left = j
            pending.pop()
    return records


def _firsts(records):
    """The first record (token, image, ``produced_at``) of each run of equal images."""
    return [r for k, r in enumerate(records) if k == 0 or records[k - 1].image != r.image]


def _calls(walk, adapter, instance, eps, grid):
    """A walk's records and the weights it solved, in call order: one call per record."""
    once = OncePerWeight(adapter)
    records = walk(once, instance, eps, grid)
    assert len(records) == len(once.weights)
    return records, once.weights


def _exact_cases():
    """Every exact instance of the acceptance suite, then ten relaxed ones of each exact kind."""
    cases = [case for case in build_suite() if case.kind != "vc"]
    rng = random.Random(61)
    for kind in ("mst", "path", "cut"):
        for _ in range(10):
            cases.append(make_case(kind, random_relaxed_instance(rng, kind, rng.randint(2, 7))))
    return cases


def _grids(case, eps):
    """The Pareto range and the budget ranges at LB1, (LB1+UB1)/2 and UB1."""
    bounds = case.raw_adapter.bounds(case.instance)
    budgets = (bounds.lb1, (bounds.lb1 + bounds.ub1) / 2, bounds.ub1)
    return [pareto_index_range(eps, bounds), *(index_range(eps, b, bounds) for b in budgets)]


# eps -> (bisection's calls, the crossing split's calls) over the 210 instances'
# 840 walks; 4200 walks in all.
SUITE_CALLS = {
    Fraction(1): (2280, 2121),
    Fraction(1, 2): (2396, 2119),
    Fraction(1, 4): (2349, 1994),
    Fraction(1, 10): (2165, 1853),
    Fraction(1, 50): (1856, 1724),
}


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_suite_walks_match_bisection_with_no_more_calls(eps):
    totals = [0, 0]
    for case in _exact_cases():
        for grid in _grids(case, eps):
            want, bisected = _calls(bisection_walk, case.adapter, case.instance, eps, grid)
            got, walked = _calls(solve_grid, case.adapter, case.instance, eps, grid)
            assert _firsts(got) == _firsts(want)
            assert len(walked) <= len(bisected)
            totals[0] += len(bisected)
            totals[1] += len(walked)
    assert tuple(totals) == SUITE_CALLS[eps]


def _two_trees(*pairs):
    """Two nodes joined by one edge per weight pair: each tree is one edge."""
    return BiweightedGraph(2, [(0, 1, pair) for pair in pairs], kind="mst")


@pytest.mark.parametrize("order", [1, -1], ids=["tie_to_b", "tie_to_a"])
def test_crossing_on_a_grid_weight(order):
    # A = (22, 22) and B = (25, 19) cross at gamma = 1 = 2**0.  Kruskal breaks
    # the tie there by edge order, so either image may come back at index 0;
    # both orders cost two calls after the ends.
    graph = _two_trees(*[(25, 19), (22, 22)][::order])
    grid = range(-3, 4)
    records, weights = _calls(solve_grid, MstAdapter(), graph, Fraction(1), grid)
    full = [MstAdapter().solve_weighted_sum(graph, pow_one_plus_eps(1, i)) for i in grid]
    assert _firsts(records) == _firsts(full)
    assert [r.image for r in _firsts(records)] == [CostPair(22, 22), CostPair(25, 19)]
    assert len(weights) == 4


def test_two_images_on_a_fine_grid_take_two_calls_after_the_ends():
    # A = (1, 1000) and B = (2, 1) cross at 1/999, inside a grid of 764 weights.
    graph = _two_trees((1, 1000), (2, 1))
    eps = Fraction(1, 100)
    grid = pareto_index_range(eps, MstAdapter().bounds(graph))
    assert len(grid) > 700
    records, weights = _calls(solve_grid, MstAdapter(), graph, eps, grid)
    assert len(weights) <= 4
    change = [r.produced_at for r in _firsts(records)][1]
    assert change / (1 + eps) < Fraction(1, 999) <= change
    assert [r.image for r in _firsts(records)] == [CostPair(1, 1000), CostPair(2, 1)]


def test_adversary_is_called_once_per_grid_weight():
    # An approximate oracle gets no crossing split: every grid weight is
    # solved, once, in the bisection walk's order.
    graph = _two_trees((1, 1000), (2, 1), (3, 2))
    adversary = adversarial_wrap(MstAdapter(), 2, graph)
    eps = Fraction(1, 100)
    grid = pareto_index_range(eps, adversary.bounds(graph))
    records, weights = _calls(solve_grid, adversary, graph, eps, grid)
    assert sorted(weights) == [pow_one_plus_eps(eps, i) for i in grid]
    assert (records, weights) == _calls(bisection_walk, adversary, graph, eps, grid)
    assert approximate_pareto(adversary, graph, eps).oracle_calls == len(grid)


class TestGridIndexBetween:
    def _check(self, eps, value, i, j):
        """Compare with ``grid_index`` on ``value``, held as an unreduced int pair."""
        ratio = (6 * value.numerator, 6 * value.denominator)
        start = ratio_of(pow_one_plus_eps(eps, i))
        assert grid_index_between(eps, ratio, i, start, j) == grid_index(eps, value)

    def test_random_values_and_brackets(self):
        rng = random.Random(67)
        for _ in range(400):
            eps = Fraction(1, rng.choice((1, 2, 3, 4, 10, 50, 100)))
            value = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            k, _ = grid_index(eps, value)
            ceiling = k + (value != pow_one_plus_eps(eps, k))
            i, j = k - rng.randint(0, 40), ceiling + rng.randint(0, 40)
            self._check(eps, value, i, j)

    def test_exact_hits_at_and_between_the_bracket_ends(self):
        rng = random.Random(71)
        for _ in range(200):
            eps = Fraction(1, rng.randint(1, 60))
            i = rng.randint(-80, 80)
            j = i + rng.randint(0, 80)
            self._check(eps, pow_one_plus_eps(eps, rng.randint(i, j)), i, j)
            self._check(eps, pow_one_plus_eps(eps, i), i, j)
            self._check(eps, pow_one_plus_eps(eps, j), i, j)

    def test_weights_of_more_than_20000_digits(self):
        eps = Fraction(1, 10)
        i, j = 20_000, 20_300
        assert pow_one_plus_eps(eps, i).numerator > 10**20_000
        rng = random.Random(73)
        for k in (i, j, rng.randint(i, j), rng.randint(i, j)):
            power = pow_one_plus_eps(eps, k)
            for value in (power, power + Fraction(1, 7), power * Fraction(1001, 1000) - 1):
                if pow_one_plus_eps(eps, i) <= value <= pow_one_plus_eps(eps, j):
                    self._check(eps, value, i, j)
                    self._check(eps, 1 / value, -j, -i)
