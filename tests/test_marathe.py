from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from _suite import cost_pairs, grid_guarantee, parametric_guarantee, random_mst_instance
from bicrit.core import CostPair
from bicrit.marathe import (
    EXAMPLE1_SCRIPT,
    adversarial_wrap,
    example1_graph,
    example2_graph,
    h_value,
    marathe_search,
    reproduce_example1,
    reproduce_example2,
)
from bicrit.oracle import exact_opt_budget, verify_budget
from bicrit.problems import BiweightedGraph, MstAdapter
from bicrit.sweep import BudgetQuery, solve_budget_sweep
from bicrit.exact_search import solve_budget_binary, solve_budget_parametric


class TestHValue:
    def test_exact_oracle_values(self, ex1):
        adapter = MstAdapter()
        h3, rec3 = h_value(adapter, ex1, Fraction(3), Fraction(2))
        assert h3 == 7 and rec3.image == CostPair(2, 4)
        h4, rec4 = h_value(adapter, ex1, Fraction(4), Fraction(2))
        assert h4 == 8 and rec4.image == CostPair(2, 4)

    def test_adversary_value(self, ex1):
        adversary = adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1, script=EXAMPLE1_SCRIPT)
        h4, rec4 = h_value(adversary, ex1, Fraction(4), Fraction(2))
        assert h4 == 10 and rec4.image == CostPair(4, 2)

    def test_degenerate_threshold_minimizes_second_objective(self, ex1):
        h0, rec0 = h_value(MstAdapter(), ex1, Fraction(0), Fraction(2))
        assert h0 == rec0.image.f2 == 2

    def test_rejects_bad_arguments(self, ex1):
        with pytest.raises(ValueError):
            h_value(MstAdapter(), ex1, Fraction(-1), Fraction(2))
        with pytest.raises(ValueError):
            h_value(MstAdapter(), ex1, Fraction(1), Fraction(0))


class TestSearch:
    def test_no_solution_on_feasible_instance(self, ex2):
        trace = marathe_search(MstAdapter(), ex2, Fraction(3), Fraction(2, 3), Fraction(3))
        assert trace.outcome is None
        assert exact_opt_budget(ex2, Fraction(3)) == 3
        tested = {int(d): h for d, h, _ in trace.tested}
        for d, h in tested.items():
            assert h == Fraction(4, 3) * d + 2

    def test_success_case_returns_threshold_plus_one_solution(self, ex1):
        # Exact oracle, B=2, eps=1, ub2=4: ratios 4, 3, 7/3 stay above
        # alpha*(1+eps)=2 until D=4 where h(4)/4 = 2, so D'=3 is found and
        # the oracle's solution at threshold 4 comes back.
        trace = marathe_search(MstAdapter(), ex1, Fraction(2), Fraction(1), Fraction(4))
        assert trace.outcome is not None
        assert trace.outcome.image == CostPair(2, 4)

    def test_zero_threshold_boundary_convention(self):
        # h(1)/1 already sits below the bar, so the vacuously-true ratio at
        # D'=0 pairs with it and the oracle solution at threshold 1 returns.
        graph = BiweightedGraph(2, [(0, 1, (3, 1))], kind="mst")
        trace = marathe_search(MstAdapter(), graph, Fraction(100), Fraction(1), Fraction(1))
        assert trace.outcome is not None and trace.outcome.image == CostPair(3, 1)
        assert [int(d) for d, _, _ in trace.tested] == [1]

    def test_ratio_monotone_for_exact_oracles(self):
        rng = random.Random(67)
        instances = [example1_graph(), example2_graph()] + [
            random_mst_instance(rng, rng.randint(3, 5)) for _ in range(6)
        ]
        adapter = MstAdapter()
        for inst in instances:
            ub2 = adapter.bounds(inst).ub2
            for eps in (Fraction(1), Fraction(2, 3), Fraction(3, 2)):
                budget = adapter.bounds(inst).lb1 + 1
                last = None
                for d in range(1, math.floor(eps * ub2) + 1):
                    h, _ = h_value(adapter, inst, Fraction(d), budget)
                    ratio = h / d
                    if last is not None:
                        assert ratio <= last
                    last = ratio

    def test_eps_above_one_is_allowed(self, ex2):
        trace = marathe_search(MstAdapter(), ex2, Fraction(3), Fraction(3, 2), Fraction(3))
        assert trace.params[1] == Fraction(3, 2)


class TestReproductions:
    def test_example1_exact_rationals(self):
        trace = reproduce_example1()
        by_d = {int(d): h for d, h, _ in trace.tested}
        assert by_d == {3: 7, 4: 10}
        assert Fraction(by_d[3], 3) == Fraction(7, 3)
        assert Fraction(by_d[4], 4) == Fraction(5, 2)
        assert Fraction(7, 3) < Fraction(5, 2)

    def test_example1_exact_counterpart_is_monotone(self, ex1):
        adapter = MstAdapter()
        h3, _ = h_value(adapter, ex1, Fraction(3), Fraction(2))
        h4, _ = h_value(adapter, ex1, Fraction(4), Fraction(2))
        assert h3 / 3 == Fraction(7, 3) >= h4 / 4 == 2

    def test_example2_no_solution_but_our_solvers_succeed(self, ex2):
        trace = reproduce_example2()
        assert trace.outcome is None
        adapter = MstAdapter()
        budget, eps = Fraction(3), Fraction(2, 3)
        opt = exact_opt_budget(ex2, budget)
        rec, _ = solve_budget_sweep(adapter, ex2, BudgetQuery(budget, eps))
        assert verify_budget(ex2, rec, budget, opt, grid_guarantee(1, eps))
        rec, _ = solve_budget_binary(adapter, ex2, BudgetQuery(budget, eps))
        assert verify_budget(ex2, rec, budget, opt, grid_guarantee(1, eps))
        rec, _ = solve_budget_parametric(adapter, ex2, BudgetQuery(budget, eps))
        assert verify_budget(ex2, rec, budget, opt, parametric_guarantee(eps))

    def test_trace_invariant_h_matches_token_value(self):
        for trace, graph in (
            (reproduce_example1(), example1_graph()),
            (reproduce_example2(), example2_graph()),
        ):
            budget = trace.params[0]
            weights = cost_pairs(graph)
            for d, h, token in trace.tested:
                f1 = sum(weights[i].f1 for i in token)
                f2 = sum(weights[i].f2 for i in token)
                assert h == (d / budget) * f1 + f2
