"""Reference computations made apart from bicrit, used to check its reports.

Instances are the dicts the workloads write to disk, so every check sees
the weights the program ingested.  Nothing here imports bicrit.  The
weighted-sum solvers scale all weights to integers once and, for a weight
gamma = p/q, compare the integers q*a + p*b; they share no code with the
plugins they check.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Instance:
    """An instance as written to its file.

    For "mst", "path" and "cut" the weights belong to the edges; for "vc"
    they belong to the vertices and the edges carry none.
    """

    kind: str
    nodes: int
    edges: tuple
    w1: tuple
    w2: tuple
    source: int | None = None
    sink: int | None = None

    @classmethod
    def from_dict(cls, data) -> "Instance":
        kind = data["kind"]
        edges = tuple((e["u"], e["v"]) for e in data["edges"])
        weighted = data["vertex_weights"] if kind == "vc" else data["edges"]
        return cls(
            kind,
            data["nodes"],
            edges,
            tuple(Fraction(w["w1"]) for w in weighted),
            tuple(Fraction(w["w2"]) for w in weighted),
            data.get("source"),
            data.get("sink"),
        )

    def to_dict(self) -> dict:
        def text(value):
            return str(value.numerator) if value.denominator == 1 else str(value)

        out = {"kind": self.kind, "relaxed": False, "nodes": self.nodes}
        if self.kind == "vc":
            out["edges"] = [{"u": u, "v": v} for u, v in self.edges]
            out["vertex_weights"] = [
                {"w1": text(a), "w2": text(b)} for a, b in zip(self.w1, self.w2)
            ]
        else:
            out["edges"] = [
                {"u": u, "v": v, "w1": text(a), "w2": text(b)}
                for (u, v), a, b in zip(self.edges, self.w1, self.w2)
            ]
        if self.source is not None:
            out["source"] = self.source
            out["sink"] = self.sink
        return out

    def scaled(self):
        """Integer weights (a, b) and the common scale L with w = a/L."""
        scale = math.lcm(*(w.denominator for w in self.w1 + self.w2))
        return (
            [int(w * scale) for w in self.w1],
            [int(w * scale) for w in self.w2],
            scale,
        )


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def members(inst: Instance, token):
    """Indices of the weighted items a solution pays for."""
    if inst.kind == "cut":
        side = set(token)
        return [i for i, (u, v) in enumerate(inst.edges) if (u in side) != (v in side)]
    return list(token)


def image(inst: Instance, token) -> tuple:
    """(f1, f2) of a solution, summed from the instance's weights."""
    chosen = members(inst, token)
    return sum((inst.w1[i] for i in chosen), Fraction(0)), sum(
        (inst.w2[i] for i in chosen), Fraction(0)
    )


def infeasibility(inst: Instance, token) -> str | None:
    """Why ``token`` is not a solution of ``inst``, or None when it is one.

    Tokens are in report form: a list of edge indices for "mst" (any order)
    and "path" (in walk order from the source), a list of source-side nodes
    for "cut" and of cover vertices for "vc".
    """
    if not isinstance(token, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in token
    ):
        return "token is not a list of integers"
    limit = inst.nodes if inst.kind in ("cut", "vc") else len(inst.edges)
    if any(not 0 <= x < limit for x in token):
        return "token names a missing node or edge"
    if len(set(token)) != len(token):
        return "token repeats an element"
    if inst.kind == "mst":
        if len(token) != inst.nodes - 1:
            return "a spanning tree has nodes-1 edges"
        parent = list(range(inst.nodes))
        for idx in token:
            u, v = inst.edges[idx]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return "edges close a cycle"
            parent[ru] = rv
        return None
    if inst.kind == "path":
        node, seen = inst.source, {inst.source}
        for idx in token:
            u, v = inst.edges[idx]
            if node not in (u, v):
                return "edges do not form a walk from the source"
            node = v if node == u else u
            if node in seen:
                return "path revisits a node"
            seen.add(node)
        return None if node == inst.sink else "walk does not end at the sink"
    if inst.kind == "cut":
        side = set(token)
        if inst.source not in side or inst.sink in side:
            return "a cut keeps the source and excludes the sink"
        return None
    cover = set(token)
    for u, v in inst.edges:
        if u not in cover and v not in cover:
            return f"edge ({u},{v}) is uncovered"
    return None


def _kruskal(inst, values):
    parent = list(range(inst.nodes))
    chosen, total = [], 0
    for idx in sorted(range(len(values)), key=values.__getitem__):
        u, v = inst.edges[idx]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(idx)
            total += values[idx]
    return chosen, total


def _dijkstra(inst, values):
    adjacency = [[] for _ in range(inst.nodes)]
    for idx, (u, v) in enumerate(inst.edges):
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    dist = {inst.source: 0}
    pred = {}
    heap = [(0, inst.source)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == inst.sink:
            break
        for other, idx in adjacency[node]:
            cand = d + values[idx]
            if other not in dist or cand < dist[other]:
                dist[other] = cand
                pred[other] = (node, idx)
                heapq.heappush(heap, (cand, other))
    path, node = [], inst.sink
    while node != inst.source:
        node, idx = pred[node]
        path.append(idx)
    return path[::-1], dist[inst.sink]


def _max_flow_cut(inst, values):
    """Minimum s-t cut by Edmonds-Karp on an arc list; returns (source side, capacity)."""
    head, cap, adjacency = [], [], [[] for _ in range(inst.nodes)]
    for (u, v), c in zip(inst.edges, values):
        for a, b in ((u, v), (v, u)):
            adjacency[a].append(len(head))
            head.append(b)
            cap.append(c)
    # arc 2k and 2k+1 are the two directions of edge k, each the other's residual
    while True:
        via = {inst.source: None}
        queue = deque([inst.source])
        while queue and inst.sink not in via:
            node = queue.popleft()
            for arc in adjacency[node]:
                if cap[arc] > 0 and head[arc] not in via:
                    via[head[arc]] = arc
                    queue.append(head[arc])
        if inst.sink not in via:
            side = sorted(via)
            return side, sum(
                values[i] for i, (u, v) in enumerate(inst.edges) if (u in via) != (v in via)
            )
        path, node = [], inst.sink
        while node != inst.source:
            arc = via[node]
            path.append(arc)
            node = head[arc ^ 1]
        push = min(cap[arc] for arc in path)
        for arc in path:
            cap[arc] -= push
            cap[arc ^ 1] += push


_SOLVERS = {"mst": _kruskal, "path": _dijkstra, "cut": _max_flow_cut}


def weighted_optimum(inst: Instance, gamma: Fraction) -> tuple:
    """An exact minimiser of f1 + gamma*f2 and its value, for mst, path and cut."""
    a, b, scale = inst.scaled()
    p, q = gamma.numerator, gamma.denominator
    token, total = _SOLVERS[inst.kind](inst, [q * x + p * y for x, y in zip(a, b)])
    return token, Fraction(total, q * scale)


def random_minimal_cover(rng, inst: Instance) -> list:
    """A vertex cover from which no vertex can be dropped, in random drop order."""
    cover = set(range(inst.nodes))
    order = list(range(inst.nodes))
    rng.shuffle(order)
    for v in order:
        if all(u in cover for e in inst.edges if v in e for u in e if u != v):
            cover.discard(v)
    return sorted(cover)


# Enumeration is tried on instances of at most MAX_NODES nodes and given
# up beyond LIMIT solutions (bicrit's own --verify cap is 12 nodes).
MAX_NODES = 12
LIMIT = 50_000


def enumerate_solutions(inst: Instance):
    """Every solution with its image, or None when the instance is too large."""
    n = inst.nodes
    if n > MAX_NODES:
        return None
    if inst.kind == "mst":
        if math.comb(len(inst.edges), n - 1) > 20 * LIMIT:  # candidate edge sets
            return None
        tokens = [
            list(c)
            for c in itertools.combinations(range(len(inst.edges)), n - 1)
            if infeasibility(inst, list(c)) is None
        ]
    elif inst.kind == "path":
        adjacency = [[] for _ in range(n)]
        for idx, (u, v) in enumerate(inst.edges):
            adjacency[u].append((v, idx))
            adjacency[v].append((u, idx))
        tokens = []
        stack = [(inst.source, (inst.source,), ())]
        while stack:
            node, visited, path = stack.pop()
            if node == inst.sink:
                tokens.append(list(path))
                if len(tokens) > LIMIT:
                    return None
                continue
            for other, idx in adjacency[node]:
                if other not in visited:
                    stack.append((other, visited + (other,), path + (idx,)))
    elif inst.kind == "cut":
        others = [v for v in range(n) if v not in (inst.source, inst.sink)]
        if 2 ** len(others) > LIMIT:
            return None
        tokens = [
            sorted([inst.source, *(v for k, v in enumerate(others) if mask >> k & 1)])
            for mask in range(2 ** len(others))
        ]
    else:
        tokens = [
            t
            for mask in range(2**n)
            for t in [[v for v in range(n) if mask >> v & 1]]
            if infeasibility(inst, t) is None
        ]
    if len(tokens) > LIMIT:
        return None
    return [(t, image(inst, t)) for t in tokens]
