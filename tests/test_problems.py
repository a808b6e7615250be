from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import (
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_vc_instance,
    weighted_minimum,
)
from bicrit.core import CostPair
from bicrit.errors import (
    DisconnectedGraph,
    ExactOracleRequired,
    InfeasibleToken,
    Unreachable,
    ValidationError,
)
from bicrit.oracle import enumerate_all
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    VertexWeightedGraph,
    adapter_for,
    adversarial_wrap,
    cut_oracle,
    mst_oracle,
    mst_parametric_run,
    sp_oracle,
    vc_oracle,
)

ADAPTERS = {
    "mst": MstAdapter(),
    "path": ShortestPathAdapter(),
    "cut": MinCutAdapter(),
    "vc": VertexCoverAdapter(),
}


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            BiweightedGraph(2, [(0, 0, (1, 1))], kind="mst")

    def test_rejects_bad_node_id(self):
        with pytest.raises(ValidationError):
            BiweightedGraph(2, [(0, 2, (1, 1))], kind="mst")

    def test_rejects_nonpositive_weight_when_strict(self):
        with pytest.raises(ValidationError):
            BiweightedGraph(2, [(0, 1, (0, 1))], kind="mst")

    def test_relaxed_accepts_zero_but_needs_a_positive_per_dimension(self):
        BiweightedGraph(2, [(0, 1, (0, 1)), (0, 1, (1, 0))], kind="mst", relaxed=True)
        with pytest.raises(ValidationError):
            BiweightedGraph(2, [(0, 1, (0, 1)), (0, 1, (0, 2))], kind="mst", relaxed=True)

    def test_path_needs_source_and_sink(self):
        with pytest.raises(ValidationError):
            BiweightedGraph(2, [(0, 1, (1, 1))], kind="path")

    def test_mst_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            BiweightedGraph(1, [], kind="mst")

    def test_vertex_weights_must_match_node_count(self):
        with pytest.raises(ValidationError):
            VertexWeightedGraph(2, ((0, 1),), ((1, 1),))


class TestMstOracle:
    def test_example_instance_choices(self, ex1, ex2, single_edge):
        assert mst_oracle(ex1, Fraction(2)).token == frozenset({0, 2})
        assert mst_oracle(ex1, Fraction(2)).image == CostPair(4, 2)
        # all three edges tie at gamma=1 on ex2; stable order keeps edges 0,1
        assert mst_oracle(ex2, Fraction(1)).token == frozenset({0, 1})
        assert mst_oracle(single_edge, Fraction(5)).image == CostPair(3, 7)

    def test_weighted_value_example(self, ex1):
        rec = mst_oracle(ex1, Fraction(3, 2))
        assert rec.image.weighted(Fraction(3, 2)) == 7

    def test_optimum_flips_at_unit_weight(self, ex2):
        # The (4,2) tree wins iff 4 + 2g <= 3 + 3g, i.e. iff g >= 1.
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            rec = mst_oracle(ex2, gamma)
            assert rec.image == CostPair(3, 3)
            assert rec.image.weighted(gamma) == min(4 + 2 * gamma, 3 + 3 * gamma)
        for gamma in (Fraction(1), Fraction(3, 2), Fraction(5)):
            rec = mst_oracle(ex2, gamma)
            assert rec.image == CostPair(4, 2)
            assert rec.image.weighted(gamma) == min(4 + 2 * gamma, 3 + 3 * gamma)

    def test_disconnected_graph_raises(self):
        graph = BiweightedGraph(3, [(0, 1, (1, 1))], kind="mst")
        with pytest.raises(DisconnectedGraph):
            mst_oracle(graph, Fraction(1))

    def test_produced_at_recorded(self, ex1):
        assert mst_oracle(ex1, Fraction(7, 3)).produced_at == Fraction(7, 3)

    def test_parametric_run_matches_concrete_oracle(self, ex1, ex2, single_edge):
        def counting_comparator_at(gamma, counter):
            def compare(p, q):
                counter.append(1)
                a, b = p.at(gamma), q.at(gamma)
                return -1 if a < b else (1 if a > b else 0)

            return compare

        for graph in (ex1, ex2):
            counter = []
            token = mst_parametric_run(graph, counting_comparator_at(Fraction(2), counter))
            assert token == mst_oracle(graph, Fraction(2)).token
        counter = []
        mst_parametric_run(single_edge, counting_comparator_at(Fraction(1), counter))
        assert counter == []


class TestShortestPathOracle:
    def test_parallel_edge_tiebreak_and_flip(self):
        graph = BiweightedGraph(
            2, [(0, 1, (1, 3)), (0, 1, (3, 1))], kind="path", source=0, sink=1
        )
        assert sp_oracle(graph, 0, 1, Fraction(1)).token == (0,)
        assert sp_oracle(graph, 0, 1, Fraction(3)).token == (1,)

    def test_two_route_flip_at_unit_weight(self):
        graph = BiweightedGraph(
            3,
            [(0, 1, (1, 1)), (1, 2, (1, 1)), (0, 2, (3, 1))],
            kind="path",
            source=0,
            sink=2,
        )
        assert sp_oracle(graph, 0, 2, Fraction(1, 2)).image == CostPair(2, 2)
        assert sp_oracle(graph, 0, 2, Fraction(2)).image == CostPair(3, 1)

    def test_unreachable(self):
        graph = BiweightedGraph(
            3, [(0, 1, (1, 1)), (0, 1, (2, 2)), (1, 0, (1, 2))], kind="path", source=0, sink=2
        )
        with pytest.raises(Unreachable):
            sp_oracle(graph, 0, 2, Fraction(1))


class TestCutOracle:
    def test_single_edge(self):
        graph = BiweightedGraph(2, [(0, 1, (2, 3))], kind="cut", source=0, sink=1)
        rec = cut_oracle(graph, 0, 1, Fraction(5))
        assert rec.token == frozenset({0}) and rec.image == CostPair(2, 3)

    def test_chain_tie_and_flip(self):
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (1, 2, (4, 1))], kind="cut", source=0, sink=2
        )
        tie = cut_oracle(graph, 0, 2, Fraction(1))
        assert tie.image.weighted(Fraction(1)) == 5
        assert tie.token == frozenset({0})
        assert cut_oracle(graph, 0, 2, Fraction(4)).token == frozenset({0, 1})

    def test_cut_value_equals_crossing_weight(self):
        rng = random.Random(2)
        for _ in range(10):
            graph = random_cut_instance(rng, 4 + rng.randint(0, 2))
            gamma = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            rec = cut_oracle(graph, graph.source, graph.sink, gamma)
            assert rec.image.weighted(gamma) == weighted_minimum(enumerate_all(graph), gamma)


class TestVertexCoverOracle:
    def test_single_edge_prefers_lighter_endpoint(self):
        graph = VertexWeightedGraph(2, ((0, 1),), ((1, 1), (5, 5)))
        rec = vc_oracle(graph, Fraction(1))
        assert rec.token == frozenset({0}) and rec.image.weighted(Fraction(1)) == 2

    def test_triangle_within_twice_optimum(self):
        graph = VertexWeightedGraph(3, ((0, 1), (0, 2), (1, 2)), ((1, 1),) * 3)
        rec = vc_oracle(graph, Fraction(1))
        assert rec.image.weighted(Fraction(1)) <= 2 * 4

    def test_edgeless_graph_gives_empty_cover(self):
        graph = VertexWeightedGraph(3, (), ((1, 1), (2, 2), (3, 3)))
        rec = vc_oracle(graph, Fraction(1))
        assert rec.token == frozenset() and rec.image == CostPair(0, 0)

    def test_two_approximation_bound(self):
        rng = random.Random(31)
        for _ in range(25):
            graph = random_vc_instance(rng, rng.randint(3, 8))
            records = enumerate_all(graph)
            for _ in range(5):
                gamma = Fraction(rng.randint(1, 8), rng.randint(1, 4))
                rec = vc_oracle(graph, gamma)
                assert rec.image.weighted(gamma) <= 2 * weighted_minimum(records, gamma)


class TestExactness:
    def test_exact_plugins_match_brute_force(self):
        rng = random.Random(17)
        makers = {
            "mst": random_mst_instance,
            "path": random_path_instance,
            "cut": random_cut_instance,
        }
        for kind, make in makers.items():
            for _ in range(6):
                inst = make(rng, rng.randint(3, 5))
                records = enumerate_all(inst)
                adapter = ADAPTERS[kind]
                for _ in range(25):
                    gamma = Fraction(rng.randint(1, 40), rng.randint(1, 15))
                    rec = adapter.solve_weighted_sum(inst, gamma)
                    assert rec.image.weighted(gamma) == weighted_minimum(records, gamma)


class TestEvaluate:
    def test_tree_examples(self, ex1, ex2, single_edge):
        adapter = MstAdapter()
        assert adapter.evaluate(ex1, frozenset({0, 2})) == CostPair(4, 2)
        assert adapter.evaluate(ex2, frozenset({0, 1})) == CostPair(4, 2)
        assert adapter.evaluate(single_edge, frozenset({0})) == CostPair(3, 7)

    def test_infeasible_tokens_raise(self, ex1):
        adapter = MstAdapter()
        with pytest.raises(InfeasibleToken):
            adapter.evaluate(ex1, frozenset({0}))
        with pytest.raises(InfeasibleToken):
            adapter.evaluate(ex1, frozenset({0, 9}))
        path = BiweightedGraph(
            3, [(0, 1, (1, 1)), (1, 2, (1, 1))], kind="path", source=0, sink=2
        )
        with pytest.raises(InfeasibleToken):
            ShortestPathAdapter().evaluate(path, (0,))
        cut = BiweightedGraph(2, [(0, 1, (1, 1))], kind="cut", source=0, sink=1)
        with pytest.raises(InfeasibleToken):
            MinCutAdapter().evaluate(cut, frozenset({0, 1}))
        cover = VertexWeightedGraph(2, ((0, 1),), ((1, 1), (1, 1)))
        with pytest.raises(InfeasibleToken):
            VertexCoverAdapter().evaluate(cover, frozenset())

    def test_enumerated_tokens_evaluate_within_bounds(self):
        rng = random.Random(23)
        instances = [
            random_mst_instance(rng, 4),
            random_path_instance(rng, 4),
            random_cut_instance(rng, 4),
            random_vc_instance(rng, 5),
        ]
        for inst in instances:
            adapter = adapter_for(inst)
            bounds = adapter.bounds(inst)
            for rec in enumerate_all(inst):
                image = adapter.evaluate(inst, rec.token)
                assert image == rec.image
                if image.f1 > 0:
                    assert bounds.lb1 <= image.f1 <= bounds.ub1
                if image.f2 > 0:
                    assert bounds.lb2 <= image.f2 <= bounds.ub2


class TestBounds:
    def test_example_bounds(self, ex1, ex2, single_edge):
        adapter = MstAdapter()
        b1 = adapter.bounds(ex1)
        assert (b1.lb1, b1.ub1, b1.lb2, b1.ub2) == (2, 5, 2, 5)
        b2 = adapter.bounds(ex2)
        assert (b2.lb1, b2.ub1, b2.lb2, b2.ub2) == (2, 5, 2, 4)
        bs = adapter.bounds(single_edge)
        assert (bs.lb1, bs.ub1, bs.lb2, bs.ub2) == (3, 3, 7, 7)

    def test_vertex_cover_bounds(self):
        graph = VertexWeightedGraph(3, ((0, 1),), ((1, 4), (2, 1), (5, 5)))
        b = VertexCoverAdapter().bounds(graph)
        assert (b.lb1, b.ub1, b.lb2, b.ub2) == (1, 8, 1, 10)


class TestParametricAll:
    """``ProblemAdapter.solve_all_weights``, the dichotomic all-weights search."""

    def test_example_searches(self, ex1):
        # The (2,4) and (4,2) trees tie at gamma=1, so that crossing ends the search.
        records = MstAdapter().solve_all_weights(ex1, Fraction(1, 4), Fraction(4))
        assert [r.produced_at for r in records] == [Fraction(1, 4), Fraction(4), Fraction(1)]
        assert {r.image for r in records} >= {CostPair(2, 4), CostPair(4, 2)}
        uniform = BiweightedGraph(
            3, [(0, 1, (2, 3)), (1, 2, (2, 3)), (0, 2, (2, 3))], kind="mst"
        )
        records = MstAdapter().solve_all_weights(uniform, Fraction(1, 9), Fraction(9))
        assert len(records) == 2 and records[0].image == records[1].image

    def test_completeness_at_random_weights(self):
        rng = random.Random(41)
        makers = {
            "mst": random_mst_instance,
            "path": random_path_instance,
            "cut": random_cut_instance,
        }
        lo, hi = Fraction(1, 20), Fraction(60)
        for kind, make in makers.items():
            for _ in range(8):
                graph = make(rng, rng.randint(3, 5), 2)
                everything = enumerate_all(graph)
                records = ADAPTERS[kind].solve_all_weights(graph, lo, hi)
                assert len(records) <= 2 * len({r.image for r in records})
                for _ in range(100):
                    gamma = Fraction(rng.randint(1, 60), rng.randint(1, 20))
                    best = min(r.image.weighted(gamma) for r in records)
                    assert best == weighted_minimum(everything, gamma)

    def test_requires_exact_oracle(self):
        cover = VertexWeightedGraph(2, ((0, 1),), ((1, 1), (1, 1)))
        with pytest.raises(ExactOracleRequired):
            VertexCoverAdapter().solve_all_weights(cover, Fraction(1), Fraction(2))


class TestAdversary:
    def test_always_alpha_legal(self):
        rng = random.Random(13)
        for _ in range(6):
            inst = random_mst_instance(rng, 4, extra=2)
            records = enumerate_all(inst)
            adv = adversarial_wrap(MstAdapter(), Fraction(5, 4), inst)
            for _ in range(10):
                gamma = Fraction(rng.randint(1, 12), rng.randint(1, 6))
                value = adv.solve_weighted_sum(inst, gamma).image.weighted(gamma)
                assert value <= Fraction(5, 4) * weighted_minimum(records, gamma)

    def test_reports_wrapped_alpha(self, ex1):
        assert adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1).alpha() == Fraction(5, 4)
        with pytest.raises(ValueError):
            adversarial_wrap(MstAdapter(), Fraction(1, 2), ex1)

    def test_alpha_one_matches_exact_value(self, ex1):
        adv = adversarial_wrap(MstAdapter(), Fraction(1), ex1)
        for gamma in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            assert adv.solve_weighted_sum(ex1, gamma).image.weighted(
                gamma
            ) == mst_oracle(ex1, gamma).image.weighted(gamma)

    def test_worst_policy_prefers_max_f1(self, ex1):
        # At gamma=1/2 both the (4,2) and (2,4) trees are 5/4-legal.
        adv = adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1)
        assert adv.solve_weighted_sum(ex1, Fraction(1, 2)).image == CostPair(4, 2)

    def test_scripted_answers(self, ex1):
        script = {Fraction(2, 3): frozenset({1, 2}), Fraction(1, 2): frozenset({0, 2})}
        adv = adversarial_wrap(MstAdapter(), Fraction(5, 4), ex1, script=script)
        assert adv.solve_weighted_sum(ex1, Fraction(2, 3)).image == CostPair(2, 4)
        assert adv.solve_weighted_sum(ex1, Fraction(1, 2)).image == CostPair(4, 2)

    def test_illegal_script_rejected(self, ex1):
        adv = adversarial_wrap(
            MstAdapter(), Fraction(5, 4), ex1, script={Fraction(2): frozenset({0, 1})}
        )
        with pytest.raises(ValueError):
            adv.solve_weighted_sum(ex1, Fraction(2))

    def test_wrong_instance_rejected(self, ex1, ex2):
        adv = adversarial_wrap(MstAdapter(), Fraction(1), ex1)
        with pytest.raises(ValueError):
            adv.solve_weighted_sum(ex2, Fraction(1))
