"""The integer weighted-sum oracles against the Fraction oracles they replaced.

Each concrete oracle now combines the instance's scaled int weights
``q*W1 + p*W2`` for gamma = p/q.  The reference runs below are the earlier
oracles as plain functions: Kruskal sorted through
``cmp_to_key(fraction_compare)``, Dijkstra with a linear min-scan over all
nodes, Edmonds-Karp on a dense n x n matrix, and local ratio, all on
``Fraction`` values ``w1 + gamma*w2``.  Every test asserts the same token,
image and ``produced_at``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from _suite import (
    build_suite,
    cost_pairs,
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit.core import CostPair, SolutionRecord, pow_one_plus_eps, sign_at
from bicrit.pareto import pareto_index_range
from bicrit.problems import (
    BiweightedGraph,
    MstAdapter,
    ShortestPathAdapter,
    VertexWeightedGraph,
    adapter_for,
    cut_oracle,
    min_cut,
    mst,
    mst_oracle,
    shortest_path,
    sp_oracle,
    vc_oracle,
    vertex_cover,
)
from bicrit.problems.graphs import union


def fraction_compare(a, b) -> int:
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def _image(weights, indices) -> CostPair:
    indices = list(indices)
    return CostPair(sum(weights[i].f1 for i in indices), sum(weights[i].f2 for i in indices))


def reference_kruskal(graph, gamma) -> frozenset:
    values = [w.weighted(gamma) for w in cost_pairs(graph)]
    endpoints = graph.edges
    order = sorted(
        range(len(endpoints)), key=cmp_to_key(lambda a, b: fraction_compare(values[a], values[b]))
    )
    parent = list(range(graph.node_count))
    chosen = [i for i in order if union(parent, *endpoints[i])]
    return frozenset(chosen[: graph.node_count - 1])


def reference_dijkstra(graph, gamma) -> tuple:
    n, source, sink = graph.node_count, graph.source, graph.sink
    values = [w.weighted(gamma) for w in cost_pairs(graph)]
    adjacency = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(graph.edges):
        adjacency[u].append((idx, v))
        adjacency[v].append((idx, u))
    dist = [None] * n
    dist[source] = Fraction(0)
    pred = [None] * n
    visited = [False] * n
    while True:
        current = None
        for node in range(n):
            if visited[node] or dist[node] is None:
                continue
            if current is None or fraction_compare(dist[node], dist[current]) < 0:
                current = node
        if current is None or current == sink:
            break
        visited[current] = True
        for idx, other in adjacency[current]:
            if visited[other]:
                continue
            candidate = dist[current] + values[idx]
            if dist[other] is None or fraction_compare(candidate, dist[other]) < 0:
                dist[other] = candidate
                pred[other] = (idx, current)
    path, node = [], sink
    while node != source:
        idx, node = pred[node]
        path.append(idx)
    return tuple(reversed(path))


def reference_edmonds_karp(graph, gamma) -> frozenset:
    n, source, sink = graph.node_count, graph.source, graph.sink
    cap = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in zip(graph.edges, cost_pairs(graph)):
        cap[u][v] += w.weighted(gamma)
        cap[v][u] += w.weighted(gamma)
    flow = [[Fraction(0)] * n for _ in range(n)]

    def bfs(stop):
        parent = [None] * n
        parent[source] = source
        queue = [source]
        while queue and (stop is None or parent[stop] is None):
            u = queue.pop(0)
            for v in range(n):
                if parent[v] is None and cap[u][v] - flow[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        return parent

    while (parent := bfs(sink))[sink] is not None:
        path, v = [], sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(cap[u][v] - flow[u][v] for u, v in path)
        for u, v in path:
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
    return frozenset(v for v, p in enumerate(bfs(None)) if p is not None)


def reference_local_ratio(graph, gamma) -> frozenset:
    residual = [w.weighted(gamma) for w in cost_pairs(graph)]
    for u, v in graph.edges:
        delta = residual[v] if fraction_compare(residual[v], residual[u]) < 0 else residual[u]
        residual[u] -= delta
        residual[v] -= delta
    return frozenset(v for v in range(graph.node_count) if residual[v] == 0)


def reference_record(graph, gamma) -> SolutionRecord:
    """The Fraction oracle's record for ``graph`` at ``gamma``."""
    if graph.kind == "vc":
        token = reference_local_ratio(graph, gamma)
        return SolutionRecord(token, _image(cost_pairs(graph), token), gamma)
    if graph.kind == "cut":
        token = reference_edmonds_karp(graph, gamma)
        crossing = [i for i, (u, v) in enumerate(graph.edges) if (u in token) != (v in token)]
        return SolutionRecord(token, _image(cost_pairs(graph), crossing), gamma)
    run = reference_kruskal if graph.kind == "mst" else reference_dijkstra
    token = run(graph, gamma)
    return SolutionRecord(token, _image(cost_pairs(graph), token), gamma)


def concrete_record(graph, gamma) -> SolutionRecord:
    return adapter_for(graph).solve_weighted_sum(graph, gamma)


def _check(graph, gammas):
    for gamma in gammas:
        assert concrete_record(graph, gamma) == reference_record(graph, gamma), (graph, gamma)


class _CountingTuple(tuple):
    """A stand-in for one of ``scaled``'s tuples that counts item reads and iterations."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("kind", ["mst", "path", "vc"])
def test_symbolic_runs_read_the_instances_int_tuples(kind):
    """Kruskal, Dijkstra and local ratio read the instance's scaled ints and leave them as built.

    Each reads the int tuples ``first`` and ``second`` and asks its
    comparator forms of two ints.  Local ratio, which subtracts, has to
    copy its two int lists first, and Dijkstra packs them into values of
    its own.
    """
    graph = _random_instance(random.Random(157), kind)
    adapter = adapter_for(graph)
    scaled = graph.scaled
    first, second = scaled.first, scaled.second
    spies = [_CountingTuple(first), _CountingTuple(second)]
    object.__setattr__(scaled, "first", spies[0])
    object.__setattr__(scaled, "second", spies[1])
    forms = set()

    def compare(c, s):
        forms.add((type(c), type(s)))
        return sign_at(c, s, (3, 2))

    tokens = [adapter.run_parametric(graph, compare).token for _ in range(2)]
    assert (scaled.first, scaled.second) == tuple(spies) == (first, second)
    assert all(spy.reads >= 2 for spy in spies)
    assert forms == {(int, int)}
    assert tokens == [adapter.solve_weighted_sum(graph, Fraction(3, 2)).token] * 2


def _grid_weights(graph, eps):
    grid = pareto_index_range(eps, adapter_for(graph).bounds(graph))
    return [pow_one_plus_eps(eps, i) for i in grid]


def _random_instance(rng, kind):
    n = rng.randint(3, 8)
    return {
        "mst": random_mst_instance,
        "path": random_path_instance,
        "cut": random_cut_instance,
        "vc": random_vc_instance,
    }[kind](rng, n)


class TestSameRecords:
    def test_acceptance_suite_at_every_grid_weight(self):
        for case in build_suite():
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                _check(case.instance, _grid_weights(case.instance, eps))

    def test_random_instances_at_random_weights(self):
        rng = random.Random(131)
        for _ in range(25):
            for kind in ("mst", "path", "cut", "vc"):
                graph = _random_instance(rng, kind)
                gammas = [Fraction(rng.randint(1, 400), rng.randint(1, 400)) for _ in range(6)]
                _check(graph, gammas)

    def test_thousand_bit_grid_weights(self):
        rng = random.Random(137)
        eps = Fraction(1, 50)
        longest = 0
        for _ in range(6):
            for kind in ("mst", "path", "cut", "vc"):
                graph = _random_instance(rng, kind)
                weights = _grid_weights(graph, eps)
                picked = [weights[0], weights[-1], *rng.sample(weights, 4)]
                longest = max(longest, *(g.numerator.bit_length() for g in picked))
                _check(graph, picked)
        assert longest >= 1000

    def test_relaxed_instances_with_zero_weights(self):
        rng = random.Random(139)
        zeros = 0
        for _ in range(15):
            for kind in ("mst", "path", "cut", "vc"):
                graph = random_relaxed_instance(rng, kind, rng.randint(2, 7))
                zeros += sum(w.f1 == 0 or w.f2 == 0 for w in cost_pairs(graph))
                gammas = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3)]
                _check(graph, gammas + _grid_weights(graph, Fraction(1, 2)))
        assert zeros > 0


class TestParallelEdgesAndTies:
    """Equal combined weights: every oracle breaks ties as the Fraction one did."""

    GAMMAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))

    @pytest.mark.parametrize("kind", ["mst", "path", "cut"])
    def test_parallel_edges(self, kind):
        # Three parallel 0-1 edges whose combined weights tie at gamma = 1
        # and at gamma = 1/2 or 2, plus a 1-2 edge and its parallel twin.
        edges = [
            (0, 1, (1, 2)),
            (0, 1, (2, 1)),
            (0, 1, (Fraction(3, 2), Fraction(3, 2))),
            (1, 2, (1, 1)),
            (1, 2, (1, 1)),
            (0, 2, (3, 1)),
        ]
        ends = {} if kind == "mst" else {"source": 0, "sink": 2}
        _check(BiweightedGraph(3, edges, kind=kind, **ends), self.GAMMAS)

    @pytest.mark.parametrize("kind", ["mst", "path", "cut"])
    def test_equal_weights_everywhere(self, kind):
        # A 4-cycle with a chord, all weights equal: every answer is a tie.
        edges = [(0, 1, (1, 1)), (1, 3, (1, 1)), (0, 2, (1, 1)), (2, 3, (1, 1)), (1, 2, (1, 1))]
        ends = {} if kind == "mst" else {"source": 0, "sink": 3}
        _check(BiweightedGraph(4, edges, kind=kind, **ends), self.GAMMAS)

    def test_vertex_cover_ties(self):
        weights = ((1, 2), (2, 1), (Fraction(3, 2), Fraction(3, 2)), (3, 3))
        edges = ((0, 1), (1, 2), (0, 2), (2, 3))
        _check(VertexWeightedGraph(4, edges, weights), self.GAMMAS)


def test_every_compared_value_is_an_int(monkeypatch):
    """The concrete oracles hand their routines ints only; ``+`` and ``-`` keep them ints."""
    checked = set()

    def ints(values, routine):
        values = list(values)
        assert all(type(v) is int for v in values), (routine, values)
        checked.add(routine)
        return values

    kruskal = mst.kruskal_run
    monkeypatch.setattr(
        mst,
        "kruskal_run",
        lambda n, ends, key: kruskal(n, ends, lambda i: ints([key(i)], "kruskal")[0]),
    )
    dijkstra = shortest_path.dijkstra_run

    def label(pair):
        ints([pair[0]], "dijkstra")
        return tuple(pair)

    monkeypatch.setattr(
        shortest_path,
        "dijkstra_run",
        lambda adj, s, t, values: dijkstra(adj, s, t, ints(values, "path"), label),
    )
    edmonds_karp = min_cut.edmonds_karp_cut
    monkeypatch.setattr(
        min_cut,
        "edmonds_karp_cut",
        lambda nbrs, ends, caps, s, t: edmonds_karp(nbrs, ends, ints(caps, "cut"), s, t),
    )
    local_ratio = vertex_cover.local_ratio_run

    def checked_local_ratio(graph, compare):
        ints([*graph.scaled.first, *graph.scaled.second], "vc")
        return local_ratio(graph, lambda c, s: compare(*ints([c, s], "local ratio")))

    monkeypatch.setattr(vertex_cover, "local_ratio_run", checked_local_ratio)
    rng = random.Random(149)
    for kind, oracle in (("mst", mst_oracle), ("path", sp_oracle), ("cut", cut_oracle)):
        graph = _random_instance(rng, kind)
        for gamma in (Fraction(1, 3), Fraction(7, 2), pow_one_plus_eps(Fraction(1, 50), 300)):
            oracle(graph, gamma)
    graph = _random_instance(rng, "vc")
    vc_oracle(graph, Fraction(5, 7))
    assert checked == {"kruskal", "dijkstra", "path", "cut", "vc", "local ratio"}


@pytest.mark.parametrize("adapter", [MstAdapter(), ShortestPathAdapter()])
def test_symbolic_runs_compare_ints(adapter):
    rng = random.Random(151)
    graph = _random_instance(rng, "mst" if isinstance(adapter, MstAdapter) else "path")

    def compare(c, s):
        assert type(c) is int and type(s) is int, (c, s)
        d = c + Fraction(3, 2) * s
        return (d > 0) - (d < 0)

    assert adapter.run_parametric(graph, compare).token == adapter.solve_weighted_sum(
        graph, Fraction(3, 2)
    ).token
