"""``core.envelope_walk`` against the four hand-written bracket loops it replaced.

The references live in tests/_suite.py: ``reference_solve_grid``,
``reference_solve_grid_boundary``, ``reference_solve_all_weights`` and
``reference_walk_search``.  Each search runs on the suite's exact and
relaxed instances and on the multi-point fronts of
tests/test_boundary_search.py, at eps 1, 1/4 and 1/100.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from _suite import (
    OncePerWeight,
    build_suite,
    exact_cases,
    front_budgets,
    front_cases,
    positive_budgets,
    reference_solve_all_weights,
    reference_solve_grid,
    reference_solve_grid_boundary,
    reference_walk_search,
    search_outcome,
)
from bicrit import exact_search
from bicrit.core import CostPair, ParametricAdapter, SolutionRecord, crossing_split, envelope_walk
from bicrit.exact_search import parametric_search
from bicrit.marathe import adversarial_wrap
from bicrit.pareto import ParetoSet, filter_dominated, pareto_from_parametric, pareto_index_range
from bicrit.sweep import (
    BudgetQuery,
    grid_factors,
    index_range,
    parametric_factors,
    solve_grid,
    solve_grid_boundary,
)

EPSILONS = (Fraction(1), Fraction(1, 4), Fraction(1, 100))


class Recorded(OncePerWeight):
    """Records the weights solved, in call order, and allows a weight to repeat."""

    def solve_weighted_sum(self, instance, gamma):
        self.weights.append(gamma)
        return self._inner.solve_weighted_sum(instance, gamma)


class ParametricOnce(OncePerWeight, ParametricAdapter):
    def run_parametric(self, instance, compare):
        return self._inner.run_parametric(instance, compare)


class ParametricRecorded(Recorded, ParametricAdapter):
    def run_parametric(self, instance, compare):
        return self._inner.run_parametric(instance, compare)


def _queries():
    """(case, its budgets) over the exact and relaxed suite cases, then the fronts."""
    return [(case, positive_budgets(case)) for case in exact_cases()] + [
        (case, front_budgets(case)) for case in front_cases()
    ]


def _grids(case, eps):
    """The Pareto range and the budget ranges at LB1, (LB1+UB1)/2 and UB1."""
    bounds = case.raw_adapter.bounds(case.instance)
    budgets = (bounds.lb1, (bounds.lb1 + bounds.ub1) / 2, bounds.ub1)
    return [pareto_index_range(eps, bounds), *(index_range(eps, b, bounds) for b in budgets)]


def _run(search, wrapper, adapter, *args):
    """``search(wrapper(adapter), *args)`` and the weights it solved, in call order."""
    wrapped = wrapper(adapter)
    return search(wrapped, *args), wrapped.weights


def _all_weights(adapter, instance, lo, hi):
    return adapter.solve_all_weights(instance, lo, hi)


def _parametric(search):
    """``search`` as ``search_outcome`` runs it: its outcome or its NoCertificate's fields."""
    return lambda adapter, *args: search_outcome(search, adapter, *args)


# eps -> (grid walks, boundary searches) checked over the 234 instances.
GRID_CHECKS = {
    Fraction(1): (936, 1808),
    Fraction(1, 4): (936, 1808),
    Fraction(1, 100): (936, 1808),
}


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_grid_walks_and_boundary_searches_make_the_loops_calls(eps):
    walks = searches = 0
    for case, budgets in _queries():
        adapter, instance = case.raw_adapter, case.instance
        for grid in _grids(case, eps):
            got = _run(solve_grid, OncePerWeight, adapter, instance, eps, grid)
            assert got == _run(reference_solve_grid, Recorded, adapter, instance, eps, grid)
            walks += 1
        for budget in budgets:
            grid = index_range(eps, budget, adapter.bounds(instance))
            limit = grid_factors(1, eps)[0] * budget
            args = instance, eps, grid, limit
            got = _run(solve_grid_boundary, OncePerWeight, adapter, *args)
            assert got == _run(reference_solve_grid_boundary, Recorded, adapter, *args)
            searches += 1
    assert (walks, searches) == GRID_CHECKS[eps]


@pytest.mark.parametrize("eps", EPSILONS[:2], ids=str)
def test_approximate_grid_walks_split_at_midpoints_as_the_loop_did(eps):
    # An approximate oracle that is no ParametricAdapter is solved at every
    # grid weight, in the loop's midpoint order.
    for case in build_suite()[::20]:
        if case.alpha != 1:
            continue
        adversary = adversarial_wrap(case.raw_adapter, 2, case.instance)
        grid = pareto_index_range(eps, adversary.bounds(case.instance))
        got = _run(solve_grid, OncePerWeight, adversary, case.instance, eps, grid)
        assert got == _run(reference_solve_grid, Recorded, adversary, case.instance, eps, grid)
        assert len(got[1]) == len(grid)


# eps -> (all-weights searches, those whose calls came in another order).
ALL_WEIGHTS_CHECKS = {
    Fraction(1): (234, 32),
    Fraction(1, 4): (234, 32),
    Fraction(1, 100): (234, 32),
}


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
def test_all_weights_search_solves_the_loops_records(eps):
    # The walker splits the leftmost bracket first and the loop the
    # rightmost, so calls may come in another order: the records solved,
    # counted with their multiplicity, and the curve must be the same.
    searches = reordered = 0
    for case, _ in _queries():
        adapter, instance = case.raw_adapter, case.instance
        bounds = adapter.bounds(instance)
        lo, hi = eps * bounds.lb1 / (2 * bounds.ub2), 2 * bounds.ub1 / bounds.lb2
        got, weights = _run(_all_weights, OncePerWeight, adapter, instance, lo, hi)
        want, want_weights = _run(reference_solve_all_weights, Recorded, adapter, instance, lo, hi)
        assert Counter(got) == Counter(want)
        assert got[:2] == want[:2]
        want_curve = ParetoSet(tuple(filter_dominated(want)), *parametric_factors(eps), len(want))
        assert pareto_from_parametric(OncePerWeight(adapter), instance, eps) == want_curve
        searches += 1
        reordered += weights != want_weights
    assert (searches, reordered) == ALL_WEIGHTS_CHECKS[eps]


# (eps, steps) -> (queries, those ending in NoCertificate, those the simulation finished).
PARAMETRIC_CHECKS = {
    (Fraction(1), 0): (814, 152, 128),
    (Fraction(1, 4), 0): (814, 152, 168),
    (Fraction(1, 100), 0): (814, 152, 114),
    (Fraction(1), 1): (814, 152, 119),
    (Fraction(1, 4), 1): (814, 152, 147),
    (Fraction(1, 100), 1): (814, 152, 100),
    (Fraction(1), 2): (814, 152, 80),
    (Fraction(1, 4), 2): (814, 152, 98),
    (Fraction(1, 100), 2): (814, 152, 59),
    (Fraction(1), None): (814, 152, 0),
    (Fraction(1, 4), None): (814, 152, 0),
    (Fraction(1, 100), None): (814, 152, 0),
}


@pytest.mark.parametrize("eps", EPSILONS, ids=str)
@pytest.mark.parametrize("steps", [0, 1, 2, None], ids=["steps0", "steps1", "steps2", "default"])
def test_parametric_search_makes_the_loops_calls_and_outcome(eps, steps, monkeypatch):
    # The whole outcome, record and transcript, and the weights solved, in
    # call order.  A probe that ties its bracket's lines at their crossing
    # ends the walk; when it meets the f1 limit it is the walk's new left
    # end, and the search returns the first walk record of its image, the
    # record the loop returned.
    if steps is not None:
        monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: steps)
    counts = [0, 0, 0]
    for case, budgets in _queries():
        if case.kind not in ("mst", "path"):
            continue
        adapter, instance = case.raw_adapter, case.instance
        for budget in budgets:
            args = instance, BudgetQuery(budget, eps)
            got = _run(_parametric(parametric_search), ParametricOnce, adapter, *args)
            want = _run(_parametric(reference_walk_search), ParametricRecorded, adapter, *args)
            assert got == want
            ended = isinstance(got[0], tuple)  # a NoCertificate's records and f1 limit
            simulated = not ended and got[0].interval is not None
            counts = [count + k for count, k in zip(counts, (1, ended, simulated))]
    assert tuple(counts) == PARAMETRIC_CHECKS[eps, steps]


def _integer_walk(ends, meets=None, steps=None):
    """``envelope_walk`` on ints: each point solves to itself, and brackets split at midpoints."""

    def split(a, b):
        return None if b - a < 2 else (a + b) // 2

    return envelope_walk(lambda point: point, split, ends, meets, steps)


def test_every_bracket_is_split_leftmost_first():
    assert _integer_walk([0, 8]) == ([4, 2, 1, 3, 6, 5, 7], list(range(9)))
    assert _integer_walk([0, 2, 8]) == ([1, 5, 3, 4, 6, 7], list(range(9)))
    assert _integer_walk([3]) == ([], [3])
    assert _integer_walk([0, 8], steps=3) == ([4, 2, 1], [0, 1, 2, 4, 8])


def test_a_meeting_probe_replaces_the_left_end_and_a_missing_one_the_right():
    def meets(point):
        return point <= 5

    assert _integer_walk([0, 8], meets) == ([4, 6, 5], [5, 6])
    assert _integer_walk([0, 8], meets, steps=2) == ([4, 6], [4, 6])
    assert _integer_walk([0, 8], meets, steps=0) == ([], [0, 8])
    assert _integer_walk([5, 6], meets) == ([], [5, 6])


def _record(f1, f2, gamma):
    return SolutionRecord(None, CostPair(f1, f2), Fraction(gamma))


def test_crossing_split_stops_at_equal_images_and_at_an_ends_own_weight():
    # (1, 4) and (4, 1) cross at 1.
    assert crossing_split(_record(1, 4, Fraction(1, 2)), _record(4, 1, 2)) == 1
    assert crossing_split(_record(1, 4, 1), _record(4, 1, 2)) is None
    assert crossing_split(_record(1, 4, Fraction(1, 2)), _record(4, 1, 1)) is None
    assert crossing_split(_record(1, 4, Fraction(1, 2)), _record(1, 4, 2)) is None
