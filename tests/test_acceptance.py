"""Acceptance gate: every criterion runs at its stated tolerance.

All comparisons are exact rational comparisons (zero tolerance).  The
generated suite holds 220 instances: 60 each of spanning-tree, path, and
cut instances with at most 8 nodes, and 40 vertex-cover instances with at
most 10 vertices.  Each criterion prints one PASS line; run with
``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from _suite import (
    boundary_call_bound,
    build_suite,
    grid_guarantee,
    parametric_call_bound,
    parametric_guarantee,
    pareto_call_bound,
    weighted_minimum,
)
from bicrit.core import CostPair, pow_one_plus_eps
from bicrit.exact_search import parametric_search, solve_budget_binary
from bicrit.marathe import (
    example1_graph,
    example2_graph,
    h_value,
    reproduce_example1,
    reproduce_example2,
)
from bicrit.oracle import (
    enumerate_all,
    exact_opt_budget,
    verify_budget,
    verify_pareto_coverage,
)
from bicrit.pareto import (
    approximate_pareto,
    boundary_solutions,
    pareto_from_parametric,
    pareto_index_range,
)
from bicrit.problems import BiweightedGraph, MstAdapter
from bicrit.sweep import BudgetQuery, index_range, solve_budget_sweep

EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def opt_cache(suite):
    cache = {}
    for idx, case in enumerate(suite):
        for budget in case.budgets:
            cache[(idx, budget)] = exact_opt_budget(case.instance, budget)
    return cache


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_c01_sweep_budget_guarantee(suite, opt_cache):
    assert len(suite) >= 200
    assert all(
        case.instance.node_count <= (10 if case.kind == "vc" else 8) for case in suite
    )
    trials = 0
    for idx, case in enumerate(suite):
        for eps in EPSILONS:
            for budget in case.budgets:
                record, _ = solve_budget_sweep(
                    case.adapter, case.instance, BudgetQuery(budget, eps)
                )
                opt = opt_cache[(idx, budget)]
                assert opt is not None
                factors = grid_guarantee(case.alpha, eps)
                assert verify_budget(case.instance, record, budget, opt, factors)
                trials += 1
    _report(1, f"sweep met (a(1+2e), a(1+2/e)) in {trials}/{trials} feasible cases "
               f"over {len(suite)} instances")


def test_c02_binary_search_parity_and_call_bound(suite, opt_cache):
    trials = 0
    for idx, case in enumerate(suite):
        if case.kind == "vc":
            continue
        bounds = case.raw_adapter.bounds(case.instance)
        for eps in EPSILONS:
            for budget in case.budgets:
                record, cert = solve_budget_binary(
                    case.adapter, case.instance, BudgetQuery(budget, eps)
                )
                opt = opt_cache[(idx, budget)]
                assert verify_budget(case.instance, record, budget, opt, grid_guarantee(1, eps))
                grid = len(index_range(eps, budget, bounds))
                assert cert.oracle_calls <= boundary_call_bound(grid)
                trials += 1
    _report(2, f"binary search met (1+2e, 1+2/e) and its call bound in {trials} runs")


def test_c03_grid_monotonicity(suite):
    pairs = 0
    for case in suite:
        if case.kind == "vc":
            continue
        bounds = case.raw_adapter.bounds(case.instance)
        for eps in EPSILONS:
            for budget in case.budgets:
                grid = index_range(eps, budget, bounds)
                records = [
                    case.adapter.solve_weighted_sum(case.instance, pow_one_plus_eps(eps, i))
                    for i in grid
                ]
                for i in range(len(records)):
                    for j in range(i + 1, len(records)):
                        assert records[i].image.f1 <= records[j].image.f1
                        assert records[i].image.f2 >= records[j].image.f2
                        pairs += 1
    _report(3, f"f1 nondecreasing and f2 nonincreasing on all {pairs} grid pairs")


def test_c04_parametric_tightening(suite, opt_cache):
    trials = 0
    for idx, case in enumerate(suite):
        if case.kind not in ("mst", "path"):
            continue
        for eps in EPSILONS:
            for budget in case.budgets:
                outcome = parametric_search(
                    case.adapter, case.instance, BudgetQuery(budget, eps)
                )
                opt = opt_cache[(idx, budget)]
                factors = parametric_guarantee(eps)
                assert verify_budget(case.instance, outcome.record, budget, opt, factors)
                bound = parametric_call_bound(case.instance, outcome.comparisons)
                assert outcome.certificate.oracle_calls <= bound
                trials += 1
    _report(4, f"parametric search met the tighter (1+e, 1+1/e) in {trials} runs")


def test_c05_pareto_coverage_and_call_bound(suite):
    grid_runs = parametric_runs = 0
    for case in suite:
        bounds = case.raw_adapter.bounds(case.instance)
        for eps in EPSILONS:
            before = case.adapter.invocations
            curve = approximate_pareto(case.adapter, case.instance, eps)
            calls = case.adapter.invocations - before
            grid = len(pareto_index_range(eps, bounds))
            # An exact oracle's grid is bisected; vc's is run symbolically,
            # one counted run per grid range.
            assert calls == curve.oracle_calls <= grid
            assert calls <= pareto_call_bound(eps, bounds)
            assert verify_pareto_coverage(
                curve.records, case.records, *grid_guarantee(case.alpha, eps)
            )
            grid_runs += 1
            if case.kind != "vc":
                before = case.adapter.invocations
                tight = pareto_from_parametric(case.adapter, case.instance, eps)
                calls = case.adapter.invocations - before
                assert verify_pareto_coverage(
                    tight.records, case.records, *parametric_guarantee(eps)
                )
                # Records optimal at positive weights are nondominated, so the
                # curve keeps one point per distinct image the search found.
                assert calls == tight.oracle_calls <= 2 * len(tight.records)
                parametric_runs += 1
    _report(5, f"pareto coverage held in {grid_runs} grid runs and "
               f"{parametric_runs} mst/path/cut parametric runs, within the call bounds")


def test_c06_nonmonotone_ratio_reproduction():
    trace = reproduce_example1()
    values = {int(d): h for d, h, _ in trace.tested}
    assert values[3] == 7 and Fraction(values[3], 3) == Fraction(7, 3)
    assert values[4] == 10 and Fraction(values[4], 4) == Fraction(5, 2)
    assert Fraction(7, 3) < Fraction(5, 2)
    adapter = MstAdapter()
    exact3, _ = h_value(adapter, example1_graph(), Fraction(3), Fraction(2))
    exact4, _ = h_value(adapter, example1_graph(), Fraction(4), Fraction(2))
    assert exact3 / 3 >= exact4 / 4
    _report(6, "adversarial ratios are exactly 7/3 < 5/2; exact-oracle run is monotone")


def test_c07_missed_feasible_reproduction():
    trace = reproduce_example2()
    assert trace.outcome is None
    graph = example2_graph()
    budget, eps = Fraction(3), Fraction(2, 3)
    opt = exact_opt_budget(graph, budget)
    assert opt == 3
    adapter = MstAdapter()
    rec, _ = solve_budget_sweep(adapter, graph, BudgetQuery(budget, eps))
    assert verify_budget(graph, rec, budget, opt, grid_guarantee(1, eps))
    rec, _ = solve_budget_binary(adapter, graph, BudgetQuery(budget, eps))
    assert verify_budget(graph, rec, budget, opt, grid_guarantee(1, eps))
    outcome = parametric_search(adapter, graph, BudgetQuery(budget, eps))
    assert verify_budget(graph, outcome.record, budget, opt, parametric_guarantee(eps))
    _report(7, "prior search returns no solution at B=3 while all three solvers certify one")


def test_c08_boundary_exactness():
    fixture = BiweightedGraph(
        2,
        [(0, 1, (1, 0)), (0, 1, (0, 1)), (0, 1, (1, 1))],
        kind="mst",
        relaxed=True,
    )
    adapter = MstAdapter()
    high, low = boundary_solutions(adapter, fixture)
    assert high.image == CostPair(1, 0) and high.image.f2 == 0
    assert low.image == CostPair(0, 1) and low.image.f1 == 0
    curve = approximate_pareto(adapter, fixture, Fraction(1))
    records = enumerate_all(fixture)
    assert len(records) == 3
    assert verify_pareto_coverage(curve.records, records, 3, 3)
    _report(8, "boundary records hit f2=0 and f1=0 exactly; relaxed curve covers at (3,3)")


def test_c09_vertex_cover_composite_factor(suite, opt_cache):
    trials = 0
    for idx, case in enumerate(suite):
        if case.kind != "vc":
            continue
        for eps in EPSILONS:
            for budget in case.budgets:
                record, cert = solve_budget_sweep(
                    case.adapter, case.instance, BudgetQuery(budget, eps)
                )
                assert cert.budget_factor == 2 + 4 * eps
                assert cert.cost_factor == 2 + 4 / eps
                opt = opt_cache[(idx, budget)]
                assert verify_budget(case.instance, record, budget, opt, (2 + 4 * eps, 2 + 4 / eps))
                trials += 1
    _report(9, f"vertex-cover sweep met (2+4e, 2+4/e) in {trials}/{trials} cases")


def test_c10_oracle_self_consistency(suite):
    import random

    rng = random.Random(71)
    checks = 0
    for case in suite:
        if case.kind == "vc":
            continue
        for _ in range(25):
            gamma = Fraction(rng.randint(1, 60), rng.randint(1, 20))
            record = case.adapter.solve_weighted_sum(case.instance, gamma)
            assert record.image.weighted(gamma) == weighted_minimum(case.records, gamma)
            checks += 1
    _report(10, f"exact plugins matched the brute-force minimum in all {checks} draws")
