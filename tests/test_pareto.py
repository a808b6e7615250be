from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import CachingAdapter, random_mst_instance, random_vc_instance
from bicrit.core import Bounds, CostPair, SolutionRecord
from bicrit.errors import ExactOracleRequired
from bicrit.oracle import enumerate_all, verify_pareto_coverage
from bicrit.pareto import (
    ParetoSet,
    approximate_pareto,
    boundary_solutions,
    filter_dominated,
    pareto_call_bound,
    pareto_from_parametric,
    pareto_index_range,
)
from bicrit.problems import BiweightedGraph, MstAdapter, VertexCoverAdapter, VertexWeightedGraph
from bicrit.sweep import IndexRange


def _record(f1, f2):
    return SolutionRecord(token=(f1, f2), image=CostPair(f1, f2))


class TestIndexRange:
    def test_examples(self):
        assert pareto_index_range(Fraction(1), Bounds(2, 4, 2, 4)) == IndexRange(-1, 1)
        assert pareto_index_range(Fraction(1), Bounds(1, 1, 1, 1)) == IndexRange(0, 0)

    def test_smaller_eps_strictly_widens_the_grid(self):
        bounds = Bounds(2, 4, 2, 4)
        wide = pareto_index_range(Fraction(1, 2), bounds)
        narrow = pareto_index_range(Fraction(1), bounds)
        assert len(wide) > len(narrow)


class TestFilterDominated:
    def test_examples(self):
        records = [_record(4, 2), _record(2, 4), _record(4, 4)]
        assert [r.image for r in filter_dominated(records)] == [
            CostPair(4, 2),
            CostPair(2, 4),
        ]
        assert filter_dominated([]) == []
        dup = [_record(3, 3), _record(3, 3)]
        assert filter_dominated(dup) == [dup[0]]

    def test_idempotent(self):
        rng = random.Random(3)
        records = [_record(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(20)]
        once = filter_dominated(records)
        assert filter_dominated(once) == once

    def test_preserves_coverage(self):
        rng = random.Random(5)
        for _ in range(20):
            records = [_record(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(12)]
            kept = filter_dominated(records)
            a, b = Fraction(2), Fraction(3)
            assert verify_pareto_coverage(records, records, a, b) == verify_pareto_coverage(
                kept, records, a, b
            )


class TestParetoSet:
    def test_sorted_by_first_cost(self):
        ps = ParetoSet((_record(4, 2), _record(2, 4)), 1, 1)
        assert [r.image.f1 for r in ps.records] == [2, 4]

    def test_rejects_dominated_members(self):
        with pytest.raises(ValueError):
            ParetoSet((_record(4, 2), _record(4, 4)), 1, 1)
        with pytest.raises(ValueError):
            ParetoSet((_record(1, 1),), Fraction(1, 2), 1)


class TestApproximatePareto:
    def test_example_instance_coverage(self, ex1):
        ps = approximate_pareto(MstAdapter(), ex1, Fraction(1))
        assert verify_pareto_coverage(ps, enumerate_all(ex1), 3, 3)
        assert (ps.factor1, ps.factor2) == (3, 3)

    def test_supported_images_only(self, ex2):
        ps = approximate_pareto(MstAdapter(), ex2, Fraction(1))
        assert {(r.image.f1, r.image.f2) for r in ps.records} <= {(4, 2), (3, 3)}
        assert verify_pareto_coverage(ps, enumerate_all(ex2), 3, 3)

    def test_single_solution_instance(self, single_edge):
        ps = approximate_pareto(MstAdapter(), single_edge, Fraction(1))
        assert len(ps.records) == 1 and ps.records[0].image == CostPair(3, 7)

    def test_call_count_equals_grid_size_within_bound(self):
        rng = random.Random(11)
        for _ in range(8):
            inst = random_mst_instance(rng, rng.randint(3, 5))
            adapter = CachingAdapter(MstAdapter(), inst)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                adapter.invocations = 0
                ps = approximate_pareto(adapter, inst, eps)
                bounds = adapter.bounds(inst)
                grid = len(pareto_index_range(eps, bounds))
                assert adapter.invocations == ps.oracle_calls == grid
                assert grid <= pareto_call_bound(eps, bounds)

    def test_coverage_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(6):
            inst = random_mst_instance(rng, rng.randint(3, 5))
            for eps in (Fraction(1), Fraction(1, 2)):
                ps = approximate_pareto(MstAdapter(), inst, eps)
                assert verify_pareto_coverage(
                    ps, enumerate_all(inst), ps.factor1, ps.factor2
                )
        for _ in range(4):
            inst = random_vc_instance(rng, rng.randint(3, 6))
            ps = approximate_pareto(VertexCoverAdapter(), inst, Fraction(1, 2))
            assert verify_pareto_coverage(ps, enumerate_all(inst), ps.factor1, ps.factor2)


class TestParametricPareto:
    def test_example_instances(self, ex1, ex2):
        ps1 = pareto_from_parametric(MstAdapter(), ex1, Fraction(1))
        assert {(r.image.f1, r.image.f2) for r in ps1.records} == {(4, 2), (2, 4)}
        assert (ps1.factor1, ps1.factor2) == (2, 2)
        ps2 = pareto_from_parametric(MstAdapter(), ex2, Fraction(1))
        assert {(r.image.f1, r.image.f2) for r in ps2.records} == {(4, 2), (3, 3)}
        assert verify_pareto_coverage(ps2, enumerate_all(ex2), 2, 2)

    def test_single_edge(self, single_edge):
        ps = pareto_from_parametric(MstAdapter(), single_edge, Fraction(1))
        assert len(ps.records) == 1

    def test_tighter_coverage_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(6):
            inst = random_mst_instance(rng, rng.randint(3, 5), extra=2)
            for eps in (Fraction(1), Fraction(1, 2)):
                ps = pareto_from_parametric(MstAdapter(), inst, eps)
                assert verify_pareto_coverage(
                    ps, enumerate_all(inst), 1 + eps, 1 + 1 / eps
                )

    def test_requires_curve_capability(self):
        cover = VertexWeightedGraph(2, ((0, 1),), ((1, 1), (1, 1)))
        with pytest.raises(ExactOracleRequired):
            pareto_from_parametric(VertexCoverAdapter(), cover, Fraction(1))


class TestBoundary:
    def test_fixture_slots_are_exact_zeros(self, boundary_fixture):
        high, low = boundary_solutions(MstAdapter(), boundary_fixture)
        assert high.image == CostPair(1, 0) and high.image.f2 == 0
        assert low.image == CostPair(0, 1) and low.image.f1 == 0

    def test_two_edge_fixture_weighted_choices(self):
        graph = BiweightedGraph(
            2, [(0, 1, (1, 0)), (0, 1, (0, 1))], kind="mst", relaxed=True
        )
        high, low = boundary_solutions(MstAdapter(), graph)
        assert high.produced_at == 2 and high.image == CostPair(1, 0)
        assert low.produced_at == Fraction(1, 2) and low.image == CostPair(0, 1)

    def test_strictly_positive_instance_reports_absence(self, ex1):
        assert boundary_solutions(MstAdapter(), ex1) == (None, None)

    def test_slot_reported_iff_zero_component_solution_exists(self):
        rng = random.Random(19)
        for _ in range(12):
            edges = []
            n = rng.randint(2, 3)
            for v in range(1, n):
                edges.append((rng.randrange(v), v, (rng.randint(0, 2), rng.randint(1, 3))))
            edges.append((0, n - 1, (rng.randint(1, 3), rng.randint(0, 2))))
            inst = BiweightedGraph(n, tuple(edges), kind="mst", relaxed=True)
            records = enumerate_all(inst)
            zero_f2 = [r for r in records if r.image.f2 == 0]
            high, low = boundary_solutions(MstAdapter(), inst)
            assert (high is not None) == bool(zero_f2)
            if zero_f2:
                assert high.image.f1 <= min(r.image.f1 for r in zero_f2)
            zero_f1 = [r for r in records if r.image.f1 == 0]
            assert (low is not None) == bool(zero_f1)


class TestExtendedPareto:
    """Curves of relaxed instances, extended by their zero-component points."""

    def test_fixture_coverage(self, boundary_fixture):
        adapter = CachingAdapter(MstAdapter(), boundary_fixture)
        ps = approximate_pareto(adapter, boundary_fixture, Fraction(1))
        images = {(r.image.f1, r.image.f2) for r in ps.records}
        assert images == {(1, 0), (0, 1)}
        assert verify_pareto_coverage(ps, enumerate_all(boundary_fixture), 3, 3)
        grid = len(pareto_index_range(Fraction(1), adapter.bounds(boundary_fixture)))
        assert ps.oracle_calls == adapter.invocations == grid + 2

    def test_strict_instance_matches_plain_pareto(self, ex1):
        adapter = CachingAdapter(MstAdapter(), ex1)
        ps = approximate_pareto(adapter, ex1, Fraction(1))
        grid = len(pareto_index_range(Fraction(1), adapter.bounds(ex1)))
        assert ps.oracle_calls == adapter.invocations == grid
        assert ps.images == (CostPair(2, 4), CostPair(4, 2))

    def test_parametric_curve_keeps_zero_cost_points(self, boundary_fixture):
        for eps in (Fraction(1), Fraction(1, 4)):
            ps = pareto_from_parametric(MstAdapter(), boundary_fixture, eps)
            assert ps.images == (CostPair(0, 1), CostPair(1, 0))
            assert verify_pareto_coverage(
                ps, enumerate_all(boundary_fixture), 1 + eps, 1 + 1 / eps
            )
