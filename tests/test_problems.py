from __future__ import annotations

import ast
import dataclasses
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from _suite import (
    build_suite,
    image_of,
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
    weighted_minimum,
)
from bicrit import exact_search, oracle, pareto, problems, sweep
from bicrit.core import CostPair, ParametricAdapter
from bicrit.errors import (
    DisconnectedGraph,
    ExactOracleRequired,
    InfeasibleToken,
    Unreachable,
    ValidationError,
)
from bicrit.exact_search import parametric_search
from bicrit.formats import instance_digest, instance_from_dict, serialize_instance
from bicrit.marathe import adversarial_wrap
from bicrit.oracle import enumerate_all, token_image
from bicrit.pareto import approximate_pareto, pareto_from_parametric, pareto_index_range
from bicrit.problems import (
    BiweightedGraph,
    MinCutAdapter,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    VertexWeightedGraph,
    adapter_for,
    cut_oracle,
    mst_oracle,
    sp_oracle,
    vc_oracle,
)
from bicrit.sweep import BudgetQuery, solve_grid

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

    def test_both_kinds_store_the_same_seven_fields(self):
        names = ("node_count", "edges", "ratios", "kind", "source", "sink", "relaxed")
        for cls in (BiweightedGraph, VertexWeightedGraph):
            assert tuple(field.name for field in dataclasses.fields(cls)) == names

    def test_from_ratios_needs_one_pair_per_element(self):
        with pytest.raises(ValidationError, match="one weight pair per edge"):
            BiweightedGraph.from_ratios(3, [(0, 1), (1, 2)], [((1, 1), (1, 1))], "mst")
        with pytest.raises(ValidationError, match="one weight pair per vertex"):
            VertexWeightedGraph.from_ratios(3, [(0, 1)], [((1, 1), (1, 1))] * 2, "vc")

    def test_vertex_weighted_graph_is_vc_only(self):
        with pytest.raises(ValidationError, match="kind 'vc'"):
            VertexWeightedGraph.from_ratios(2, [(0, 1)], [((1, 1), (1, 1))] * 2, "mst")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BiweightedGraph(3, [(0, 1.0, (1, 1)), (1, 2, (1, 1))]),
            lambda: BiweightedGraph(3, [(0, True, (1, 1)), (1, 2, (1, 1))]),
            lambda: BiweightedGraph(3.0, [(0, 1, (1, 1)), (1, 2, (1, 1))]),
            lambda: BiweightedGraph(2, [(0, 1, (1, 1))], relaxed="yes"),
            lambda: BiweightedGraph(3, _PATH_EDGES, kind="path", source=True, sink=2),
            lambda: BiweightedGraph(3, _PATH_EDGES, kind="path", source=0, sink=2.0),
            lambda: VertexWeightedGraph(2, [(0, 1.0)], [(1, 1)] * 2),
            lambda: VertexWeightedGraph(True, [], [(1, 1)]),
            lambda: VertexWeightedGraph(2, [(0, 1)], [(1, 1)] * 2, relaxed=1),
        ],
        ids=[
            "float-end",
            "bool-end",
            "float-node-count",
            "str-relaxed",
            "bool-source",
            "float-sink",
            "vc-float-end",
            "vc-bool-node-count",
            "vc-int-relaxed",
        ],
    )
    def test_refuses_what_is_not_an_exact_int_or_bool(self, build):
        with pytest.raises(ValidationError, match="expected (int|bool), got"):
            build()

    @pytest.mark.parametrize("name", ["node_count", "ratios", "relaxed", "scaled", "other"])
    def test_graphs_are_frozen(self, name):
        rng = random.Random(11)
        for graph in (random_path_instance(rng, 4), random_vc_instance(rng, 4)):
            with pytest.raises(FrozenInstanceError):
                setattr(graph, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(graph, name)

    @pytest.mark.parametrize("kind", ["mst", "path", "cut", "vc"])
    def test_constructed_graph_equals_and_hashes_as_its_read_back_form(self, kind):
        rng = random.Random(12)
        strict = {
            "mst": random_mst_instance,
            "path": random_path_instance,
            "cut": random_cut_instance,
            "vc": random_vc_instance,
        }[kind]
        for _ in range(10):
            for graph in (strict(rng, rng.randint(2, 6)), random_relaxed_instance(rng, kind, 5)):
                read = instance_from_dict(serialize_instance(graph))
                assert read == graph and hash(read) == hash(graph)
                assert type(read) is type(graph)
                assert instance_digest(read) == instance_digest(graph)
        # Weights given to the constructor as non-canonical texts digest as
        # the file that spells them canonically.
        spellings = (("2/4", "1/2"), ("+3", "3"), ("-0", "0"), ("007", "7"), ("6/3", "2"))
        for text, canonical in spellings:
            graph = _three_node_graph(kind, [(text, "1"), ("1", text), ("2", "3")])
            read = instance_from_dict(
                _three_node_file(kind, [(canonical, "1"), ("1", canonical), ("2", "3")])
            )
            assert read == graph
            assert instance_digest(graph) == instance_digest(read)


_PATH_EDGES = [(0, 1, (1, 1)), (1, 2, (1, 1))]
_THREE_NODE_ENDS = ((0, 1), (1, 2), (0, 2))


def _three_node_graph(kind, weights):
    """A relaxed 3-node ``kind`` instance built by the constructor from ``weights``."""
    if kind == "vc":
        return VertexWeightedGraph(3, _THREE_NODE_ENDS[:2], weights, relaxed=True)
    edges = [(u, v, w) for (u, v), w in zip(_THREE_NODE_ENDS, weights)]
    ends = {} if kind == "mst" else {"source": 0, "sink": 2}
    return BiweightedGraph(3, edges, kind=kind, relaxed=True, **ends)


def _three_node_file(kind, weights):
    """The instance file of ``_three_node_graph(kind, weights)``, written out by hand."""
    data = {"kind": kind, "nodes": 3, "relaxed": True}
    entries = [{"w1": a, "w2": b} for a, b in weights]
    if kind == "vc":
        data["edges"] = [{"u": u, "v": v} for u, v in _THREE_NODE_ENDS[:2]]
        data["vertex_weights"] = entries
        return data
    data["edges"] = [{"u": u, "v": v, **w} for (u, v), w in zip(_THREE_NODE_ENDS, entries)]
    if kind != "mst":
        data["source"], data["sink"] = 0, 2
    return data


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
            def compare(c, s):
                counter.append(1)
                d = c + gamma * s
                return -1 if d < 0 else (1 if d > 0 else 0)

            return compare

        for graph in (ex1, ex2):
            counter = []
            run = MstAdapter().run_parametric(graph, counting_comparator_at(Fraction(2), counter))
            assert run.token == mst_oracle(graph, Fraction(2)).token
        counter = []
        MstAdapter().run_parametric(single_edge, counting_comparator_at(Fraction(1), counter))
        assert counter == []


class TestShortestPathOracle:
    def test_parallel_edge_tiebreak_and_flip(self):
        graph = BiweightedGraph(
            2, [(0, 1, (1, 3)), (0, 1, (3, 1))], kind="path", source=0, sink=1
        )
        assert sp_oracle(graph, Fraction(1)).token == (0,)
        assert sp_oracle(graph, Fraction(3)).token == (1,)

    def test_two_route_flip_at_unit_weight(self):
        graph = BiweightedGraph(
            3,
            [(0, 1, (1, 1)), (1, 2, (1, 1)), (0, 2, (3, 1))],
            kind="path",
            source=0,
            sink=2,
        )
        assert sp_oracle(graph, Fraction(1, 2)).image == CostPair(2, 2)
        assert sp_oracle(graph, Fraction(2)).image == CostPair(3, 1)

    def test_unreachable(self):
        graph = BiweightedGraph(
            3, [(0, 1, (1, 1)), (0, 1, (2, 2)), (1, 0, (1, 2))], kind="path", source=0, sink=2
        )
        with pytest.raises(Unreachable):
            sp_oracle(graph, Fraction(1))


class TestCutOracle:
    def test_single_edge(self):
        graph = BiweightedGraph(2, [(0, 1, (2, 3))], kind="cut", source=0, sink=1)
        rec = cut_oracle(graph, Fraction(5))
        assert rec.token == frozenset({0}) and rec.image == CostPair(2, 3)

    def test_chain_tie_and_flip(self):
        graph = BiweightedGraph(
            3, [(0, 1, (1, 4)), (1, 2, (4, 1))], kind="cut", source=0, sink=2
        )
        tie = cut_oracle(graph, Fraction(1))
        assert tie.image.weighted(Fraction(1)) == 5
        assert tie.token == frozenset({0})
        assert cut_oracle(graph, Fraction(4)).token == frozenset({0, 1})

    def test_cut_value_equals_crossing_weight(self):
        rng = random.Random(2)
        for _ in range(10):
            graph = random_cut_instance(rng, 4 + rng.randint(0, 2))
            gamma = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            rec = cut_oracle(graph, gamma)
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
    # Tokens are checked and summed by the ground truth, ``oracle.token_image``.
    def test_tree_examples(self, ex1, ex2, single_edge):
        assert image_of(ex1, frozenset({0, 2})) == CostPair(4, 2)
        assert image_of(ex2, frozenset({0, 1})) == CostPair(4, 2)
        assert image_of(single_edge, frozenset({0})) == CostPair(3, 7)
        assert token_image(single_edge, frozenset({0})) == (1, 3, 7)

    def test_infeasible_tokens_raise(self, ex1):
        for token in [frozenset({0}), frozenset({0, 9}), (0, 0), (0, "1"), (-1, 0)]:
            with pytest.raises(InfeasibleToken):
                token_image(ex1, token)
        path = BiweightedGraph(
            3, [(0, 1, (1, 1)), (1, 2, (1, 1)), (0, 2, (1, 1))], kind="path", source=0, sink=2
        )
        assert image_of(path, (0, 1)) == CostPair(2, 2)
        for token in [(0,), (1, 0), (0, 1, 2), (0, 0, 2), (2, 2, 2), (3,)]:
            with pytest.raises(InfeasibleToken):
                token_image(path, token)
        cut = BiweightedGraph(3, [(0, 1, (1, 1)), (1, 2, (1, 1))], kind="cut", source=0, sink=2)
        assert image_of(cut, frozenset({0, 1})) == CostPair(1, 1)
        for token in [frozenset({0, 2}), frozenset({1}), frozenset(), frozenset({0, 3})]:
            with pytest.raises(InfeasibleToken):
                token_image(cut, token)
        cover = VertexWeightedGraph(3, ((0, 1), (1, 2)), ((1, 1), (1, 2), (1, 1)))
        assert image_of(cover, frozenset({1})) == CostPair(1, 2)
        for token in [frozenset(), frozenset({0}), frozenset({0, 2, 3})]:
            with pytest.raises(InfeasibleToken):
                token_image(cover, token)

    def test_enumerated_tokens_evaluate_within_bounds(self):
        rng = random.Random(23)
        instances = [
            random_mst_instance(rng, 4),
            random_path_instance(rng, 4),
            random_cut_instance(rng, 4),
            random_vc_instance(rng, 5),
        ]
        for inst in instances:
            bounds = adapter_for(inst).bounds(inst)
            for rec in enumerate_all(inst):
                image = image_of(inst, rec.token)
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


def _imports(tree):
    """The dotted parts of each module, and of each name, imported anywhere, function bodies too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            yield module
            yield from (module + [alias.name] for alias in node.names)


def test_problem_modules_do_not_import_the_algorithm_layer():
    algorithms = {"sweep", "exact_search", "pareto", "oracle"}
    modules = sorted(Path(problems.__file__).parent.glob("*.py"))
    assert {m.name for m in modules} >= {"graphs.py", "vertex_cover.py"}
    for module in modules:
        for parts in _imports(ast.parse(module.read_text())):
            assert not algorithms & set(parts), (module.name, ".".join(parts))


def test_oracle_imports_only_core_and_errors():
    # The ground truth shares no code with the algorithms and plugins it checks.
    source = Path(oracle.__file__)
    package = {m.stem for m in source.parent.glob("*.py")} | {"problems"}
    imported = {part for parts in _imports(ast.parse(source.read_text())) for part in parts}
    assert imported & package == {"core", "errors"}


def test_searches_import_nothing_from_oracle():
    # The searches read the images their oracles return; only ``--verify`` reads the ground truth.
    for module in (sweep, exact_search, pareto):
        for parts in _imports(ast.parse(Path(module.__file__).read_text())):
            assert "oracle" not in parts, (module.__name__, ".".join(parts))


def test_every_symbolic_run_returns_its_evaluated_record(monkeypatch):
    # The searches take a run's image as it comes; the ground truth must agree with it.
    # With no walk steps allowed, parametric search runs mst and path symbolically
    # whenever the ends of its weight range straddle the f1 limit.
    monkeypatch.setattr(exact_search, "walk_step_budget", lambda instance: 0)
    runs = []
    for adapter in (MstAdapter, ShortestPathAdapter, VertexCoverAdapter):

        def recorded(self, instance, compare, _run=adapter.run_parametric):
            record = _run(self, instance, compare)
            runs.append((self, instance, record))
            return record

        monkeypatch.setattr(adapter, "run_parametric", recorded)
    for case in build_suite():
        bounds = case.raw_adapter.bounds(case.instance)
        for eps in (Fraction(1), Fraction(1, 4)):
            if case.kind == "vc":
                solve_grid(case.raw_adapter, case.instance, eps, pareto_index_range(eps, bounds))
            elif case.kind != "cut":
                for budget in case.budgets:
                    parametric_search(case.raw_adapter, case.instance, BudgetQuery(budget, eps))
    assert {instance.kind for _, instance, _ in runs} == {"mst", "path", "vc"}
    for adapter, instance, record in runs:
        assert record.produced_at is None
        assert record.image == image_of(instance, record.token)


def test_ground_truth_images_every_token_the_searches_return(monkeypatch):
    # Every answer of a plugin's oracle, concrete or symbolic, on the suite: the
    # ground truth accepts its token and sums it to the image the plugin computed.
    answers = []
    for adapter in (MstAdapter, ShortestPathAdapter, MinCutAdapter, VertexCoverAdapter):
        methods = ["solve_weighted_sum"]
        if issubclass(adapter, ParametricAdapter):
            methods.append("run_parametric")
        for name in methods:

            def recorded(self, instance, arg, _method=getattr(adapter, name)):
                record = _method(self, instance, arg)
                answers.append((instance, record))
                return record

            monkeypatch.setattr(adapter, name, recorded)
    for case in build_suite():
        for eps in (Fraction(1), Fraction(1, 4)):
            approximate_pareto(case.raw_adapter, case.instance, eps)
            if case.alpha == 1:
                pareto_from_parametric(case.raw_adapter, case.instance, eps)
            budget = case.budgets[len(case.budgets) // 2]
            sweep.solve_budget_sweep(case.raw_adapter, case.instance, BudgetQuery(budget, eps))
            if case.kind in ("mst", "path"):
                parametric_search(case.raw_adapter, case.instance, BudgetQuery(budget, eps))
    assert {instance.kind for instance, _ in answers} == {"mst", "path", "cut", "vc"}
    for instance, record in answers:
        image = image_of(instance, record.token)
        assert image == record.image
        if instance.kind != "cut":  # a cut's token is its source side, not the edges it sums
            assert image == instance.scaled.image(record.token)
