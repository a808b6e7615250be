from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from _suite import exact_pareto, grid_guarantee, image_of, random_mst_instance
from bicrit import oracle
from bicrit.core import CostPair, SolutionRecord
from bicrit.errors import CapExceeded
from bicrit.oracle import (
    enumerate_all,
    exact_opt_budget,
    verify_budget,
    verify_pareto_by_enumeration,
    verify_pareto_coverage,
)
from bicrit.problems import BiweightedGraph, VertexWeightedGraph


def images_of(records):
    return Counter((r.image.f1, r.image.f2) for r in records)


class TestEnumerate:
    def test_tree_images(self, ex1, ex2, single_edge):
        assert images_of(enumerate_all(ex1)) == Counter({(4, 2): 1, (2, 4): 1, (4, 4): 1})
        assert images_of(enumerate_all(ex2)) == Counter({(4, 2): 1, (3, 3): 2})
        assert len(enumerate_all(single_edge)) == 1

    def test_path_enumeration(self):
        graph = BiweightedGraph(
            4,
            [(0, 1, (1, 1)), (1, 3, (1, 1)), (0, 2, (2, 3)), (2, 3, (1, 2)), (0, 3, (3, 1))],
            kind="path",
            source=0,
            sink=3,
        )
        tokens = {r.token for r in enumerate_all(graph)}
        assert tokens == {(0, 1), (2, 3), (4,)}

    def test_cut_enumeration(self):
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (1, 2, (4, 1))], kind="cut", source=0, sink=2
        )
        tokens = {r.token for r in enumerate_all(graph)}
        assert tokens == {frozenset({0}), frozenset({0, 1})}

    def test_cover_enumeration(self):
        graph = VertexWeightedGraph(2, ((0, 1),), ((1, 1), (2, 2)))
        tokens = {r.token for r in enumerate_all(graph)}
        assert tokens == {frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_no_duplicates_and_tokens_evaluate(self):
        rng = random.Random(19)
        inst = random_mst_instance(rng, 5, extra=2)
        records = enumerate_all(inst)
        tokens = [r.token for r in records]
        assert len(tokens) == len(set(tokens))
        for rec in records:
            assert image_of(inst, rec.token) == rec.image
            assert rec.produced_at is None

    def test_caps(self, ex1, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "MAX_NODES", 2)
            with pytest.raises(CapExceeded):
                enumerate_all(ex1)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "MAX_SOLUTIONS", 2)
            with pytest.raises(CapExceeded):
                enumerate_all(ex1)
        assert len(enumerate_all(ex1)) == 3


class TestOptBudget:
    def test_examples(self, ex2):
        assert exact_opt_budget(ex2, Fraction(3)) == 3
        assert exact_opt_budget(ex2, Fraction(4)) == 2
        assert exact_opt_budget(ex2, Fraction(1)) is None

    def test_monotone_nonincreasing_in_budget(self, ex1):
        budgets = sorted({r.image.f1 for r in enumerate_all(ex1)})
        values = [exact_opt_budget(ex1, b) for b in budgets]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier


class TestExactPareto:
    def test_examples(self, ex1, ex2, single_edge):
        assert set(images_of(exact_pareto(ex1).records)) == {(4, 2), (2, 4)}
        assert set(images_of(exact_pareto(ex2).records)) == {(4, 2), (3, 3)}
        assert len(exact_pareto(single_edge).records) == 1

    def test_pareto_covers_everything_at_unit_factors(self, ex1):
        records = enumerate_all(ex1)
        assert verify_pareto_coverage(exact_pareto(ex1).records, records, 1, 1)


def _record(f1, f2):
    return SolutionRecord(token=(f1, f2), image=CostPair(f1, f2))


def _tree(f1, f2):
    """A one-edge spanning-tree instance, and the record of its one tree, of image (f1, f2)."""
    instance = BiweightedGraph(2, [(0, 1, (f1, f2))], kind="mst")
    return instance, SolutionRecord(frozenset({0}), CostPair(f1, f2))


class TestVerifyBudget:
    def test_examples(self):
        factors = grid_guarantee(1, Fraction(1))
        assert verify_budget(*_tree(4, 2), 4, 2, factors)
        assert not verify_budget(*_tree(4, 2), 1, 2, factors)
        assert verify_budget(*_tree(3, 3), 3, 3, factors)

    def test_variant_factors(self):
        tree = _tree(4, 2)
        assert verify_budget(*tree, 4, 2, (1, 1))
        assert not verify_budget(*tree, 4, 2, (Fraction(1, 2), 1))
        assert not verify_budget(*tree, 4, 1, (1, 1))

    def test_without_an_optimum_only_f1_is_checked(self):
        # opt None: no solution meets B, so f2 has no bound; f1 <= budget_factor*B still holds.
        factors = (Fraction(3), Fraction(3))
        assert verify_budget(*_tree(6, 10**6), 2, None, factors)
        assert not verify_budget(*_tree(6 + Fraction(1, 10**9), 1), 2, None, factors)

    def test_the_token_must_be_a_solution_of_the_printed_image(self, ex1):
        # ex1's trees have images (4, 2), (2, 4) and (4, 4); (4, 2) meets B = 4 exactly.
        records = {r.image: r for r in enumerate_all(ex1)}
        best = records[CostPair(4, 2)]
        assert verify_budget(ex1, best, 4, 2, (1, 1))
        other = records[CostPair(2, 4)]
        assert verify_pareto_by_enumeration(ex1, [other, best], 1, 1) == (True, 3)
        for forged in [
            replace(best, token=records[CostPair(4, 4)].token),
            replace(best, token=frozenset({0})),
            replace(best, token=(0, 2, "x")),
            replace(best, image=CostPair(4, 1)),
        ]:
            assert not verify_budget(ex1, forged, 4, 2, (1, 1))
            assert verify_pareto_by_enumeration(ex1, [other, forged], 1, 1) == (False, 3)


class TestVerifyCoverage:
    def test_examples(self, ex2):
        records = enumerate_all(ex2)
        exact = exact_pareto(ex2)
        assert verify_pareto_coverage(exact.records, records, 1, 1)
        assert not verify_pareto_coverage((_record(4, 2),), records, 1, 1)
        assert verify_pareto_coverage(records, records, 1, 1)

    def test_one_scaling_per_verdict(self, monkeypatch):
        # A verdict derives the lcm scaling once and checks every token under it.
        instance = random_mst_instance(random.Random(6), 6, 3)
        curve = exact_pareto(instance).records
        assert len(curve) >= 3
        calls = []
        scaled_weights = oracle._scaled_weights
        monkeypatch.setattr(
            oracle, "_scaled_weights", lambda graph: calls.append(graph) or scaled_weights(graph)
        )
        verdict, checked = verify_pareto_by_enumeration(instance, curve, 1, 1)
        assert verdict and checked > len(curve)
        assert calls == [instance]
        budget = curve[0].image.f1
        assert verify_budget(instance, curve[0], budget, exact_opt_budget(instance, budget), (1, 1))
        assert calls == [instance] * 3  # exact_opt_budget's enumeration, then the verdict's
