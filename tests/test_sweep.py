from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import (
    CachingAdapter,
    OncePerWeight,
    boundary_call_bound,
    build_suite,
    grid_guarantee,
    make_case,
    parametric_guarantee,
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
    reference_binary,
    sweep_call_bound,
)
from bicrit.core import Bounds, CostPair, ParametricAdapter, pow_one_plus_eps
from bicrit.errors import NoCertificate
from bicrit.exact_search import solve_budget_binary, solve_budget_parametric
from bicrit.oracle import exact_opt_budget, verify_budget
from bicrit.problems import BiweightedGraph, MstAdapter, mst
from bicrit.sweep import (
    BudgetQuery,
    grid_factors,
    index_range,
    parametric_factors,
    solve_budget_fixed,
    solve_budget_sweep,
    solve_grid,
    zero_f2_weight,
)


def _full_sweep(adapter, instance, query):
    """The per-index sweep the grid walker replaced: every grid index solved.

    Returns the grid records, then the chosen record and its (budget, cost)
    factors, or None when no record passes the f1 filter.
    """
    eps, budget = query.eps, query.budget
    alpha = adapter.alpha()
    rng = index_range(eps, budget, adapter.bounds(instance))
    records = [adapter.solve_weighted_sum(instance, pow_one_plus_eps(eps, i)) for i in rng]
    limit = alpha * (1 + 2 * eps) * budget
    qualifying = [r for r in records if r.image.f1 <= limit]
    if not qualifying:
        return records, None
    best = min(qualifying, key=lambda r: (r.image.f2, r.image.f1))
    return records, (best, (alpha * (1 + 2 * eps), alpha * (1 + Fraction(2) / eps)))


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 100)])
def test_factors_are_the_readme_formulas(eps):
    # The checks take their factors from tests/_suite.py; the solvers print these.
    for alpha in (Fraction(1), Fraction(5, 4), Fraction(2)):
        assert grid_factors(alpha, eps) == grid_guarantee(alpha, eps)
    assert parametric_factors(eps) == parametric_guarantee(eps)


class TestIndexRange:
    def test_examples(self):
        b = Bounds(1, 1, 2, 5)
        assert index_range(Fraction(1), Fraction(3), b) == range(-1, 2)
        assert index_range(Fraction(1), Fraction(1), Bounds(1, 1, 1, 1)) == range(0, 1)
        assert index_range(Fraction(1, 2), Fraction(2), Bounds(1, 1, 1, 4)) == range(-4, 1)

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
            assert base ** rng_idx[0] <= eps * budget / ub2
            assert base ** rng_idx[-1] >= eps * budget / lb2

    def test_invalid_inputs(self, ex2):
        adapter = CachingAdapter(MstAdapter(), ex2)
        with pytest.raises(ValueError):
            solve_grid(adapter, ex2, Fraction(1), range(2, 2))
        assert adapter.invocations == 0
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
        # The grid's two ends: the last one already meets the f1 limit.
        assert cert.oracle_calls == 2

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
        adapter = CachingAdapter(MstAdapter(), ex1)
        with pytest.raises(NoCertificate) as excinfo:
            solve_budget_fixed(adapter, ex1, Fraction(1, 10))
        records = excinfo.value.records
        # The transcript holds the records solved, one per call, in index order.
        assert len(records) == adapter.invocations
        weights = [r.produced_at for r in records]
        assert weights == sorted(set(weights))
        grid = index_range(Fraction(1), Fraction(1, 10), adapter.bounds(ex1))
        assert set(weights) <= {pow_one_plus_eps(Fraction(1), i) for i in grid}
        assert excinfo.value.f1_limit == Fraction(3, 10)
        assert all(r.image.f1 > excinfo.value.f1_limit for r in records)


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
                    assert verify_budget(inst, record, budget, opt, grid_guarantee(case.alpha, eps))
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
                    lo = pow_one_plus_eps(eps, rng_idx[0])
                    hi = pow_one_plus_eps(eps, rng_idx[-1])
                    assert lo <= ideal <= hi
                    assert any(
                        ideal / (1 + eps) <= pow_one_plus_eps(eps, i) <= (1 + eps) * ideal
                        for i in rng_idx
                    )

    def test_no_early_exit(self, ex2):
        adapter = CachingAdapter(MstAdapter(), ex2)
        _, cert = solve_budget_sweep(adapter, ex2, BudgetQuery(Fraction(3), Fraction(1)))
        rng_idx = index_range(Fraction(1), Fraction(3), adapter.bounds(ex2))
        assert cert.oracle_calls == adapter.invocations <= len(rng_idx)
        # Vertex cover's grid is run symbolically, one counted run per grid range.
        case = make_case("vc", random_vc_instance(random.Random(5), 5))
        query = BudgetQuery(case.budgets[-1], Fraction(1, 2))
        _, cert = solve_budget_sweep(case.adapter, case.instance, query)
        rng_idx = index_range(query.eps, query.budget, case.raw_adapter.bounds(case.instance))
        assert cert.oracle_calls == case.adapter.invocations <= len(rng_idx)


class TestMatchesFullSweep:
    """The sweep must pick the full per-index sweep's image and factors.

    With an approximate oracle it picks the full sweep's record, record for
    record; with an exact one, the record at the last index within the f1
    limit, as bisection does (``reference_binary``).
    """

    def _check(self, case, query):
        """Compare one query with the full sweep; True when the sweep skipped calls."""
        grid = len(index_range(query.eps, query.budget, case.raw_adapter.bounds(case.instance)))
        full_records, expected = _full_sweep(case.adapter, case.instance, query)
        exact = case.alpha == 1
        # An exact search solves no weight twice; vc's runs need its own adapter.
        adapter = OncePerWeight(case.adapter) if exact else case.adapter
        before = case.adapter.invocations
        if expected is None:
            with pytest.raises(NoCertificate) as excinfo:
                solve_budget_sweep(adapter, case.instance, query)
            solved = excinfo.value.records
            calls = case.adapter.invocations - before
            assert len(solved) == calls
            weights = {r.produced_at for r in solved}
            assert list(solved) == [r for r in full_records if r.produced_at in weights]
            # An exact search stops at the grid's first record, which misses the limit.
            assert not exact or solved == (full_records[0],)
        else:
            record, cert = solve_budget_sweep(adapter, case.instance, query)
            calls = case.adapter.invocations - before
            assert record.image == expected[0].image
            if exact:
                assert record == reference_binary(case.raw_adapter, case.instance, query)[0]
            else:
                assert record == expected[0]
            assert (cert.budget_factor, cert.cost_factor) == expected[1]
            assert cert.oracle_calls == calls
        # One counted symbolic run per range for vc; an exact search brackets
        # the f1 limit, at most one call per grid weight and within its bound.
        assert calls <= grid
        assert not exact or calls <= boundary_call_bound(grid)
        return calls < grid

    def _budgets(self, case):
        # Every achievable budget, and one no record can meet even after
        # the alpha*(1+2*eps) <= 3*alpha filter slack.
        return [*case.budgets, case.budgets[0] / (4 * case.alpha)]

    def test_acceptance_suite(self):
        for case in build_suite():
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                for budget in self._budgets(case):
                    self._check(case, BudgetQuery(budget, eps))

    def test_fine_epsilon(self):
        rng = random.Random(31)
        makers = (random_mst_instance, random_path_instance, random_cut_instance)
        skipped = False
        for _ in range(4):
            for make in makers:
                inst = make(rng, rng.randint(4, 6))
                case = make_case(inst.kind, inst)
                for budget in self._budgets(case):
                    skipped |= self._check(case, BudgetQuery(budget, Fraction(1, 50)))
        assert skipped


class TestRelaxedBudget:
    """On relaxed instances OPT(B) may be 0, which no grid or interval weight reaches."""

    def _searches(self, adapter, eps):
        searches = [solve_budget_sweep]
        if eps == 1:
            searches.append(lambda a, inst, q: solve_budget_fixed(a, inst, q.budget))
        if adapter.alpha() == 1:
            searches.append(solve_budget_binary)
            if isinstance(adapter, ParametricAdapter):
                searches.append(solve_budget_parametric)
        return searches

    def test_random_relaxed_instances_meet_the_guarantee(self):
        rng = random.Random(71)
        for _ in range(8):
            for kind in ("mst", "path", "cut", "vc"):
                case = make_case(kind, random_relaxed_instance(rng, kind, rng.randint(2, 6)))
                for budget in [b for b in case.budgets if b > 0]:
                    opt = exact_opt_budget(case.instance, budget)
                    for eps in (Fraction(1), Fraction(1, 4)):
                        query = BudgetQuery(budget, eps)
                        for search in self._searches(case.adapter, eps):
                            before = case.adapter.invocations
                            record, cert = search(case.adapter, case.instance, query)
                            if search is solve_budget_parametric:
                                factors = parametric_guarantee(eps)
                            else:  # the grid's: fixed runs at eps 1, binary at alpha 1
                                factors = grid_guarantee(case.alpha, eps)
                            assert verify_budget(case.instance, record, budget, opt, factors)
                            assert cert.oracle_calls == case.adapter.invocations - before

    def test_zero_f2_record_is_taken(self, boundary_fixture):
        # Images (1,0), (0,1), (1,1): OPT(1) = 0, and at eps = 1/4 no search
        # weight returns (1,0); the extra call at zero_f2_weight does.
        adapter = CachingAdapter(MstAdapter(), boundary_fixture)
        gamma = zero_f2_weight(1, adapter.bounds(boundary_fixture))
        query = BudgetQuery(Fraction(1), Fraction(1, 4))
        for search in self._searches(adapter, query.eps):
            before = adapter.invocations
            record, cert = search(adapter, boundary_fixture, query)
            assert record.image == CostPair(1, 0) and record.produced_at == gamma
            assert cert.oracle_calls == adapter.invocations - before

    def test_no_certificate_lists_the_extra_call(self):
        # Trees (1,0) and (2,1) both break f1 <= 3/10, the sweep's limit at B = 1/10.
        graph = BiweightedGraph(2, [(0, 1, (1, 0)), (0, 1, (2, 1))], kind="mst", relaxed=True)
        adapter = CachingAdapter(MstAdapter(), graph)
        with pytest.raises(NoCertificate) as excinfo:
            solve_budget_sweep(adapter, graph, BudgetQuery(Fraction(1, 10), Fraction(1)))
        records = excinfo.value.records
        assert len(records) == adapter.invocations
        assert records[-1].produced_at == zero_f2_weight(1, adapter.bounds(graph))
        assert records[-1].image == CostPair(1, 0)
        assert excinfo.value.f1_limit == Fraction(3, 10)

    def test_no_extra_call_when_not_needed(self, boundary_fixture, ex2, monkeypatch):
        weights = []
        solve = mst.mst_oracle
        monkeypatch.setattr(
            mst, "mst_oracle", lambda g, gamma: weights.append(gamma) or solve(g, gamma)
        )
        # Parametric search's master run is one oracle call, at no weight of its own.
        run = MstAdapter.run_parametric
        monkeypatch.setattr(
            MstAdapter, "run_parametric", lambda *args: weights.append(None) or run(*args)
        )
        # Strict instance: never.  Relaxed, when the picked record has f2 = 0: neither.
        for graph, budget in ((ex2, Fraction(3)), (boundary_fixture, Fraction(2))):
            for search in self._searches(MstAdapter(), Fraction(1)):
                weights.clear()
                record, cert = search(MstAdapter(), graph, BudgetQuery(budget, Fraction(1)))
                assert cert.oracle_calls == len(weights)
                assert zero_f2_weight(1, MstAdapter().bounds(graph)) not in weights
                assert graph is ex2 or record.image.f2 == 0
