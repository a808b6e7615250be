"""The brute-force oracle against the recursive, Fraction-summing enumerators it replaced.

The reference below is the earlier ``oracle`` enumeration, kept verbatim in
behaviour: recursive backtracking for spanning trees and simple paths, set
membership for cut sides and covers, one ``Fraction`` addition per member.
``enumerate_all`` must return the same records in the same order, with equal
tokens (of the same type) and equal images.  The verification folds, which
build no records, must agree with the record-based checks and keep the caps.
"""

from __future__ import annotations

import gc
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _suite import (
    build_suite,
    cost_pairs,
    exact_pareto,
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit import oracle
from bicrit.cli import ALGORITHMS, main
from bicrit.core import CostPair, SolutionRecord
from bicrit.errors import CapExceeded
from bicrit.oracle import (
    _covers,
    enumerate_all,
    exact_opt_budget,
    verify_pareto_by_enumeration,
    verify_pareto_coverage,
)
from bicrit.pareto import approximate_pareto, filter_dominated
from bicrit.problems import BiweightedGraph, VertexWeightedGraph, adapter_for
from bicrit.problems.graphs import ScaledWeights

# -- the reference ------------------------------------------------------


def _ref_sum_image(weights, indices) -> CostPair:
    f1 = f2 = Fraction(0)
    for i in indices:
        f1 += weights[i].f1
        f2 += weights[i].f2
    return CostPair(f1, f2)


class _RefCounter:
    def __init__(self, limit):
        self.left = limit

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise CapExceeded("enumeration exceeded max_solutions")


def _ref_spanning_trees(graph, counter):
    n = graph.node_count
    endpoints = graph.edges
    m = len(endpoints)

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def can_connect(parent, start):
        probe = list(parent)
        comps = len({find(probe, x) for x in range(n)})
        for j in range(start, m):
            u, v = endpoints[j]
            ru, rv = find(probe, u), find(probe, v)
            if ru != rv:
                probe[ru] = rv
                comps -= 1
        return comps == 1

    out = []

    def recurse(idx, parent, chosen):
        if len(chosen) == n - 1:
            counter.tick()
            out.append(frozenset(chosen))
            return
        if idx == m or m - idx < (n - 1) - len(chosen):
            return
        if not can_connect(parent, idx):
            return
        u, v = endpoints[idx]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            taken = list(parent)
            taken[ru] = rv
            recurse(idx + 1, taken, chosen + [idx])
        recurse(idx + 1, parent, chosen)

    recurse(0, list(range(n)), [])
    return out


def _ref_simple_paths(graph, counter):
    adjacency = graph.adjacency
    sink = graph.sink
    out = []
    path = []

    def recurse(node, visited):
        if node == sink:
            counter.tick()
            out.append(tuple(path))
            return
        for idx, other in adjacency[node]:
            if other in visited:
                continue
            path.append(idx)
            recurse(other, visited | {other})
            path.pop()

    recurse(graph.source, {graph.source})
    return out


def _ref_cuts(graph, counter):
    others = [v for v in range(graph.node_count) if v not in (graph.source, graph.sink)]
    out = []
    for mask in range(1 << len(others)):
        counter.tick()
        side = {graph.source}
        for bit, node in enumerate(others):
            if mask >> bit & 1:
                side.add(node)
        out.append(frozenset(side))
    return out


def _ref_covers(graph, counter):
    n = graph.node_count
    out = []
    for mask in range(1 << n):
        if all(mask >> u & 1 or mask >> v & 1 for u, v in graph.edges):
            counter.tick()
            out.append(frozenset(v for v in range(n) if mask >> v & 1))
    return out


def reference_enumerate_all(instance):
    """The reference enumeration, under the oracle's caps as they are at the call."""
    if instance.node_count > oracle.MAX_NODES:
        raise CapExceeded("node cap")
    counter = _RefCounter(oracle.MAX_SOLUTIONS)
    weights = cost_pairs(instance)
    members = iter
    if isinstance(instance, VertexWeightedGraph):
        tokens = _ref_covers(instance, counter)
    else:
        if instance.kind == "mst":
            tokens = _ref_spanning_trees(instance, counter)
        elif instance.kind == "path":
            tokens = _ref_simple_paths(instance, counter)
        else:
            tokens = _ref_cuts(instance, counter)
            endpoints = instance.edges

            def members(side):
                return (i for i, (u, v) in enumerate(endpoints) if (u in side) != (v in side))

    return [SolutionRecord(token=t, image=_ref_sum_image(weights, members(t))) for t in tokens]


def reference_opt_budget(records, budget):
    values = [r.image.f2 for r in records if r.image.f1 <= budget]
    return min(values) if values else None


def reference_coverage(cover, all_records, a, b):
    for x in all_records:
        if not any(
            r.image.f1 <= a * x.image.f1 and r.image.f2 <= b * x.image.f2 for r in cover
        ):
            return False
    return True


# -- helpers ------------------------------------------------------------


def _fingerprint(records):
    """Everything a record carries, with the token's type and the images' exact parts."""
    return [
        (
            type(r.token),
            r.token,
            r.image.f1.numerator,
            r.image.f1.denominator,
            r.image.f2.numerator,
            r.image.f2.denominator,
            r.produced_at,
        )
        for r in records
    ]


def assert_same_enumeration(instance):
    expected = reference_enumerate_all(instance)
    got = enumerate_all(instance)
    assert _fingerprint(got) == _fingerprint(expected)
    assert got == expected
    return got


def _reweighted(instance, draw):
    """The instance with every weight pair replaced by ``draw()``."""
    weights = [draw() for _ in instance.ratios]
    ratios = [tuple((x.numerator, x.denominator) for x in (w.f1, w.f2)) for w in weights]
    return type(instance).from_ratios(
        instance.node_count, instance.edges, ratios, instance.kind, instance.source, instance.sink
    )


def _random_instance(rng, kind):
    n = rng.randint(2 if kind == "mst" else 3, 8)
    if kind == "mst":
        return random_mst_instance(rng, n, rng.randint(0, 4))
    if kind == "path":
        return random_path_instance(rng, n, rng.randint(0, 5))
    if kind == "cut":
        return random_cut_instance(rng, n, rng.randint(0, 4))
    return random_vc_instance(rng, n)


KINDS = ("mst", "path", "cut", "vc")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


# -- the differential tests ---------------------------------------------


@pytest.fixture(scope="module")
def suite():
    return build_suite()


def test_suite_enumerations_match_the_reference(suite):
    assert len(suite) == 220
    for case in suite:
        assert_same_enumeration(case.instance)


def test_relaxed_instances_with_zero_weights_match():
    rng = random.Random(4101)
    for i in range(120):
        instance = random_relaxed_instance(rng, KINDS[i % 4], rng.randint(3, 7))
        records = assert_same_enumeration(instance)
        assert records, "every relaxed instance here has a solution"


@pytest.mark.parametrize("style", ["huge", "non_reduced", "coprime"])
def test_awkward_denominators_match(style):
    rng = random.Random(f"denominators/{style}")

    def draw_huge():
        return CostPair(
            Fraction(rng.randint(1, 10**60), rng.randint(10**40, 10**45)),
            Fraction(rng.randint(1, 10**30), rng.choice((3**70, 7**55, 2**150 + 1))),
        )

    def draw_non_reduced():
        # Written as p/q strings with a common factor; sums such as 1/6 + 1/3 reduce too.
        k = rng.randint(2, 9)
        return CostPair(
            f"{k * rng.randint(1, 12)}/{k * rng.choice((2, 3, 4, 6, 12))}",
            f"{k * rng.randint(1, 12)}/{k * rng.choice((2, 3, 6))}",
        )

    def draw_coprime():
        return CostPair(
            Fraction(rng.randint(1, 99), rng.choice(PRIMES)),
            Fraction(rng.randint(1, 99), rng.choice(PRIMES) ** rng.randint(1, 3)),
        )

    draw = {"huge": draw_huge, "non_reduced": draw_non_reduced, "coprime": draw_coprime}[style]
    for i in range(40):
        instance = _reweighted(_random_instance(rng, KINDS[i % 4]), draw)
        assert_same_enumeration(instance)


def _scan_covers(graph):
    """The cover enumeration the backtracking one replaced: every one of the 2**n masks."""
    n = graph.node_count
    edge_masks = [1 << u | 1 << v for u, v in graph.edges]
    for mask in range(1 << n):
        if all(mask & e for e in edge_masks):
            nodes = [v for v in range(n) if mask >> v & 1]
            yield frozenset(nodes), nodes


def test_covers_match_the_subset_scan(suite):
    rng = random.Random(4109)
    graphs = [case.instance for case in suite if case.instance.kind == "vc"]
    graphs += [random_relaxed_instance(rng, "vc", rng.randint(2, 9)) for _ in range(30)]
    graphs += [random_vc_instance(rng, 12) for _ in range(3)]
    complete = [(u, v) for u in range(12) for v in range(u)]
    graphs.append(VertexWeightedGraph(12, complete, [(1, 1)] * 12))
    graphs.append(VertexWeightedGraph(5, (), [(1, 2)] * 5))  # edgeless: every subset is a cover
    assert len(graphs) > 60
    for graph in graphs:
        expected = list(_scan_covers(graph))
        assert list(_covers(graph)) == expected
    assert len(expected) == 2**5


def test_cap_semantics_match(monkeypatch):
    rng = random.Random(4102)
    for i in range(60):
        instance = _random_instance(rng, KINDS[i % 4])
        total = len(reference_enumerate_all(instance))
        for limit in (0, total - 1, total):
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "MAX_SOLUTIONS", max(limit, 0))
                try:
                    expected = reference_enumerate_all(instance)
                except CapExceeded:
                    with pytest.raises(CapExceeded):
                        enumerate_all(instance)
                else:
                    assert enumerate_all(instance) == expected


def test_opt_budget_matches_at_every_achievable_budget(suite):
    for case in suite[::3]:
        records = reference_enumerate_all(case.instance)
        budgets = sorted({r.image.f1 for r in records})
        probes = budgets + [b - Fraction(1, 7) for b in budgets[:2]] + [budgets[-1] * 2]
        for budget in probes:
            assert exact_opt_budget(case.instance, budget) == reference_opt_budget(
                records, budget
            )


def test_coverage_matches_at_random_factors(suite):
    rng = random.Random(4103)
    for case in suite[::2]:
        records = reference_enumerate_all(case.instance)
        for _ in range(6):
            cover = rng.sample(records, rng.randint(1, len(records)))
            a = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            b = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            expected = reference_coverage(cover, records, a, b)
            assert verify_pareto_coverage(cover, records, a, b) is expected
            front = filter_dominated(cover)
            expected = reference_coverage(front, records, a, b)
            assert verify_pareto_coverage(front, records, a, b) is expected


# -- the int folds against the records they replace -----------------------


def _fold_instances(suite):
    """Suite instances of all four kinds, and relaxed ones with zero images."""
    rng = random.Random(4106)
    relaxed = [random_relaxed_instance(rng, KINDS[i % 4], rng.randint(3, 7)) for i in range(40)]
    return [case.instance for case in suite[::4]] + relaxed


def test_folds_raise_at_the_caps(monkeypatch):
    rng = random.Random(4107)
    for i in range(40):
        instance = _random_instance(rng, KINDS[i % 4])
        total = len(reference_enumerate_all(instance))
        curve = exact_pareto(instance).records
        for name, limit in (("MAX_SOLUTIONS", total - 1), ("MAX_NODES", instance.node_count - 1)):
            with monkeypatch.context() as patch:
                patch.setattr(oracle, name, limit)
                with pytest.raises(CapExceeded):
                    exact_opt_budget(instance, 10**6)
                with pytest.raises(CapExceeded):
                    verify_pareto_by_enumeration(instance, curve, 1, 1)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "MAX_SOLUTIONS", total)
            patch.setattr(oracle, "MAX_NODES", instance.node_count)
            assert exact_opt_budget(instance, 10**6) == min(r.image.f2 for r in curve)
            assert verify_pareto_by_enumeration(instance, curve, 1, 1) == (True, total)


def test_opt_budget_fold_matches_on_relaxed_instances(suite):
    for instance in _fold_instances(suite):
        records = reference_enumerate_all(instance)
        budgets = sorted({r.image.f1 for r in records})
        for budget in [Fraction(-1), Fraction(0), *budgets, budgets[0] - Fraction(1, 7)]:
            expected = reference_opt_budget(records, budget)
            assert exact_opt_budget(instance, budget) == expected


def test_enumerated_coverage_matches_the_record_check(suite):
    rng = random.Random(4108)
    for instance in _fold_instances(suite):
        records = enumerate_all(instance)
        adapter = adapter_for(instance)
        curves = [exact_pareto(instance)]
        curves += [approximate_pareto(adapter, instance, Fraction(1, k)) for k in (1, 4)]
        for curve in curves:
            factors = curve.factor1, curve.factor2
            expected = verify_pareto_coverage(curve.records, records, *factors)
            assert expected is True
            got = verify_pareto_by_enumeration(instance, curve.records, *factors)
            assert got == (expected, len(records))
        # A point less on the exact curve leaves that point's solutions uncovered.
        exact = curves[0].records
        for i in range(len(exact)):
            short = exact[:i] + exact[i + 1 :]
            assert verify_pareto_coverage(short, records, 1, 1) is False
            assert verify_pareto_by_enumeration(instance, short, 1, 1) == (False, len(records))
        for _ in range(4):
            cover = rng.sample(records, rng.randint(1, len(records)))
            a = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            b = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            expected = reference_coverage(cover, records, a, b)
            assert verify_pareto_by_enumeration(instance, cover, a, b) == (expected, len(records))


def test_oracle_never_reads_the_plugins_scaling(monkeypatch):
    def refuse(*_):
        raise AssertionError("the oracle read the plugins' ScaledWeights")

    rng = random.Random(4104)
    instances = [_random_instance(rng, kind) for kind in KINDS]
    expected = [reference_enumerate_all(instance) for instance in instances]
    for cls in (BiweightedGraph, VertexWeightedGraph):
        monkeypatch.setattr(cls, "scaled", property(refuse))
    monkeypatch.setattr(ScaledWeights, "of", classmethod(refuse))
    for instance, records in zip(instances, expected):
        assert enumerate_all(instance) == records


# -- memory and run-time properties -------------------------------------


def _cyclic_garbage_of(enumerate_fn, instances):
    gc.collect()
    gc.disable()
    try:
        for instance in instances:
            enumerate_fn(instance)
        return gc.collect()
    finally:
        gc.enable()


def test_enumeration_leaves_no_cyclic_garbage():
    rng = random.Random(4105)
    instances = [random_mst_instance(rng, 7, 3), random_path_instance(rng, 8, 6)]
    for instance in instances:
        instance.adjacency  # built on first use; not part of the measurement
    assert _cyclic_garbage_of(enumerate_all, instances) == 0
    # The recursive reference leaves a cycle per call, so the measurement can see one.
    assert _cyclic_garbage_of(reference_enumerate_all, instances) > 0


def _cli_runs():
    """(argv, exit code) for every command kind the CLI reports on."""
    demos = Path(__file__).resolve().parent.parent / "instances"
    runs = []
    for problem, name in (("path", "demo_path"), ("mst", "demo_mst_b")):
        source = ["--problem", problem, "--input", str(demos / f"{name}.json")]
        for algorithm in ALGORITHMS:
            eps = "1" if algorithm == "fixed" else "1/2"
            argv = ["solve-budget", *source, "--algorithm", algorithm, "--budget", "3"]
            runs.append(([*argv, "--epsilon", eps], 0))
        runs.append((["pareto", *source, "--epsilon", "1/2"], 0))
        runs.append((["pareto", *source, "--epsilon", "1/2", "--parametric"], 0))
    no_certificate = ["--problem", "mst", "--input", str(demos / "demo_mst_a.json")]
    runs.append((["solve-budget", *no_certificate, "--budget", "1/10"], 3))
    return runs


def test_cli_reports_leave_no_cyclic_garbage(capsys):
    main(["repro", "--case", "marathe-ex1"])  # builds the parser, which is kept for the process
    for argv, code in _cli_runs():
        codes = []
        assert _cyclic_garbage_of(lambda a: codes.append(main(a)), [argv]) == 0, argv
        assert codes == [code], argv
    capsys.readouterr()
    # json's indenting encoder leaves a cycle per call, so the measurement can see one.
    assert _cyclic_garbage_of(lambda v: json.dumps(v, indent=2), [{"a": [1]}]) > 0


def test_spanning_trees_past_the_recursion_limit():
    edges = tuple((0, 1, (1 + i % 3, 1 + i % 5)) for i in range(3000))
    records = enumerate_all(BiweightedGraph(2, edges, kind="mst"))
    assert [r.token for r in records] == [frozenset({i}) for i in range(3000)]


def test_path_enumeration_skips_dead_ends(monkeypatch):
    # Nodes 0-9 pairwise joined twice; the sink hangs off the source only.
    edges = [(u, v, (1, 1)) for u in range(10) for v in range(u + 1, 10) for _ in range(2)]
    edges.append((0, 10, (2, 3)))
    graph = BiweightedGraph(11, tuple(edges), kind="path", source=0, sink=10)
    monkeypatch.setattr(oracle, "MAX_SOLUTIONS", 1)
    records = enumerate_all(graph)
    assert [(r.token, r.image) for r in records] == [((90,), CostPair(2, 3))]
