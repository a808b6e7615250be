from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import (
    CachingAdapter,
    make_case,
    random_mst_instance,
    random_path_instance,
    random_vc_instance,
)
from bicrit.core import Bounds, CostPair, pow_one_plus_eps
from bicrit.errors import NoCertificate
from bicrit.oracle import exact_opt_budget, verify_budget
from bicrit.problems import MstAdapter
from bicrit.sweep import (
    BudgetQuery,
    IndexRange,
    index_range,
    solve_budget_fixed,
    solve_budget_sweep,
    sweep_call_bound,
)


class TestIndexRange:
    def test_examples(self):
        b = Bounds(1, 1, 2, 5)
        assert index_range(Fraction(1), Fraction(3), b) == IndexRange(-1, 1)
        assert index_range(Fraction(1), Fraction(1), Bounds(1, 1, 1, 1)) == IndexRange(0, 0)
        assert index_range(Fraction(1, 2), Fraction(2), Bounds(1, 1, 1, 4)) == IndexRange(-4, 0)

    def test_brackets_the_ideal_weight(self):
        rng = random.Random(29)
        for _ in range(50):
            lb2 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            ub2 = lb2 + Fraction(rng.randint(0, 9), rng.randint(1, 3))
            bounds = Bounds(1, 1, lb2, ub2)
            eps = Fraction(1, rng.randint(1, 4))
            budget = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            rng_idx = index_range(eps, budget, bounds)
            base = 1 + eps
            assert base**rng_idx.i_min <= eps * budget / ub2
            assert base**rng_idx.i_max >= eps * budget / lb2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            IndexRange(2, 1)
        with pytest.raises(ValueError):
            index_range(Fraction(1), Fraction(0), Bounds(1, 1, 1, 1))
        with pytest.raises(ValueError):
            index_range(Fraction(2), Fraction(1), Bounds(1, 1, 1, 1))

    def test_budget_query_validation(self):
        with pytest.raises(ValueError):
            BudgetQuery(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            BudgetQuery(Fraction(1), Fraction(3, 2))


class TestSweep:
    def test_example_instance_budget_three(self, ex2):
        record, cert = solve_budget_sweep(MstAdapter(), ex2, BudgetQuery(Fraction(3), Fraction(1)))
        assert record.image == CostPair(4, 2)
        assert record.image.f1 <= 9
        assert record.image.f2 <= 3 * exact_opt_budget(ex2, Fraction(3))
        assert (cert.budget_factor, cert.cost_factor) == (3, 3)
        assert cert.oracle_calls == 3

    def test_example_instance_budget_four(self, ex2):
        record, _ = solve_budget_sweep(MstAdapter(), ex2, BudgetQuery(Fraction(4), Fraction(1)))
        assert record.image.f2 <= 3 * exact_opt_budget(ex2, Fraction(4))
        assert record.image.f1 <= 12

    def test_single_solution_instance(self, single_edge):
        record, _ = solve_budget_sweep(
            MstAdapter(), single_edge, BudgetQuery(Fraction(3), Fraction(1))
        )
        assert record.image == CostPair(3, 7)

    def test_fixed_has_three_alpha_factors(self, ex1):
        record, cert = solve_budget_fixed(MstAdapter(), ex1, Fraction(2))
        assert record.image == CostPair(4, 2)
        assert record.image.f1 <= 6
        assert (cert.budget_factor, cert.cost_factor) == (3, 3)

    def test_infeasible_budget_raises_with_transcript(self, ex1):
        with pytest.raises(NoCertificate) as excinfo:
            solve_budget_fixed(MstAdapter(), ex1, Fraction(1, 10))
        assert len(excinfo.value.records) == 3


class TestSweepProperties:
    def test_guarantee_soundness_and_call_count(self):
        rng = random.Random(37)
        instances = (
            [random_mst_instance(rng, rng.randint(3, 5)) for _ in range(8)]
            + [random_path_instance(rng, rng.randint(3, 5)) for _ in range(6)]
            + [random_vc_instance(rng, rng.randint(3, 6)) for _ in range(6)]
        )
        for inst in instances:
            case = make_case(inst.kind, inst)
            bounds = case.raw_adapter.bounds(inst)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                for budget in case.budgets:
                    record, cert = solve_budget_sweep(
                        case.adapter, inst, BudgetQuery(budget, eps)
                    )
                    opt = exact_opt_budget(inst, budget)
                    assert opt is not None
                    assert verify_budget(record, budget, eps, case.alpha, opt)
                    assert cert.oracle_calls <= sweep_call_bound(eps, bounds)

    def test_weight_coverage(self):
        rng = random.Random(43)
        for _ in range(10):
            inst = random_mst_instance(rng, rng.randint(3, 5))
            case = make_case("mst", inst)
            bounds = case.raw_adapter.bounds(inst)
            for eps in (Fraction(1), Fraction(1, 2)):
                for budget in case.budgets:
                    opt = exact_opt_budget(inst, budget)
                    ideal = eps * budget / opt
                    rng_idx = index_range(eps, budget, bounds)
                    lo = pow_one_plus_eps(eps, rng_idx.i_min)
                    hi = pow_one_plus_eps(eps, rng_idx.i_max)
                    assert lo <= ideal <= hi
                    assert any(
                        ideal / (1 + eps) <= pow_one_plus_eps(eps, i) <= (1 + eps) * ideal
                        for i in rng_idx
                    )

    def test_no_early_exit(self, ex2):
        adapter = CachingAdapter(MstAdapter(), ex2)
        _, cert = solve_budget_sweep(adapter, ex2, BudgetQuery(Fraction(3), Fraction(1)))
        rng_idx = index_range(Fraction(1), Fraction(3), adapter.bounds(ex2))
        assert cert.oracle_calls == adapter.invocations == len(rng_idx)
