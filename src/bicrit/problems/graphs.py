"""Instance types for the graph problem plugins, and the helpers they share.

Both graph kinds are immutable after construction.  Parallel edges are
first-class (the zero-cost boundary fixtures need them); self-loops are
rejected since no plugin can use one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from ..core import Bounds, CostPair
from ..errors import ValidationError

GRAPH_KINDS = ("mst", "path", "cut")


def _as_cost_pair(w) -> CostPair:
    if isinstance(w, CostPair):
        return w
    return CostPair(*w)


def _check_positivity(pairs, relaxed: bool, what: str):
    for i, w in enumerate(pairs):
        if not relaxed and (w.f1 <= 0 or w.f2 <= 0):
            raise ValidationError(
                f"{what} {i} has nonpositive weight {w} but the instance is not relaxed"
            )
    for dim, get in (("1", lambda w: w.f1), ("2", lambda w: w.f2)):
        if not any(get(w) > 0 for w in pairs):
            raise ValidationError(f"no positive {what} weight in dimension {dim}")


@dataclass(frozen=True)
class BiweightedGraph:
    """Undirected multigraph with a CostPair per edge.

    ``kind`` selects the solution space: spanning trees ("mst"),
    simple source-sink paths ("path"), or source-sink cuts ("cut").
    ``relaxed`` enables the nonnegative-cost regime in which zero weight
    components are permitted.
    """

    node_count: int
    edges: tuple = ()
    kind: str = "mst"
    source: Optional[int] = None
    sink: Optional[int] = None
    relaxed: bool = False

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValidationError(f"unknown graph kind {self.kind!r}")
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        edges = []
        for u, v, w in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValidationError(f"edge ({u},{v}) references a missing node")
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            edges.append((u, v, _as_cost_pair(w)))
        object.__setattr__(self, "edges", tuple(edges))
        _check_positivity([w for _, _, w in self.edges], self.relaxed, "edge")
        if self.kind == "mst":
            if self.node_count < 2:
                raise ValidationError("spanning-tree instance needs >= 2 nodes")
            if self.source is not None or self.sink is not None:
                raise ValidationError("mst instances carry no source/sink")
        else:
            if self.source is None or self.sink is None:
                raise ValidationError(f"{self.kind} instance needs source and sink")
            for name, node in (("source", self.source), ("sink", self.sink)):
                if not 0 <= node < self.node_count:
                    raise ValidationError(f"{name} {node} is not a node")
            if self.source == self.sink:
                raise ValidationError("source and sink must differ")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def endpoints(self):
        return [(u, v) for u, v, _ in self.edges]

    def weights(self):
        return [w for _, _, w in self.edges]

    def adjacency(self):
        """Per-node list of (edge index, other endpoint), in edge order."""
        adj = [[] for _ in range(self.node_count)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((i, v))
            adj[v].append((i, u))
        return adj

    def is_connected(self) -> bool:
        return connected_components(self.node_count, self.endpoints()) == 1


@dataclass(frozen=True)
class VertexWeightedGraph:
    """Undirected graph with a CostPair per vertex, for vertex-cover instances."""

    node_count: int
    edges: tuple = ()
    vertex_weights: tuple = ()
    relaxed: bool = False
    kind: str = field(default="vc", init=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError("graph needs at least one node")
        edges = []
        for u, v in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValidationError(f"edge ({u},{v}) references a missing node")
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            edges.append((u, v))
        object.__setattr__(self, "edges", tuple(edges))
        if len(self.vertex_weights) != self.node_count:
            raise ValidationError("one weight pair per vertex required")
        object.__setattr__(
            self, "vertex_weights", tuple(_as_cost_pair(w) for w in self.vertex_weights)
        )
        _check_positivity(self.vertex_weights, self.relaxed, "vertex")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def fraction_compare(a, b) -> int:
    """Three-way comparison of concrete values, the plugins' non-symbolic comparator."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def sum_image(weights, indices) -> CostPair:
    """Image of the solution made of the weight pairs at ``indices``."""
    return CostPair(sum(weights[i].f1 for i in indices), sum(weights[i].f2 for i in indices))


def cost_bounds(weights, relaxed: bool, multiplicity: int = 1) -> Bounds:
    """Bounds for solutions that use each weight pair at most once.

    The upper bound is the sum of all weights.  Strict regime: a solution
    uses at least ``multiplicity`` pairs (n-1 edges for a spanning tree),
    each at least the minimum weight.  Relaxed regime: only the positive
    costs are bounded, and a solution may hold a single positive pair, so
    the per-dimension minimum positive weight is the valid lower bound.
    """
    out = []
    for get in (attrgetter("f1"), attrgetter("f2")):
        values = [get(w) for w in weights]
        low = min(v for v in values if v > 0) if relaxed else multiplicity * min(values)
        out.append((low, sum(values)))
    (lb1, ub1), (lb2, ub2) = out
    return Bounds(lb1, ub1, lb2, ub2)


def find_root(parent, x) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union(parent, u, v) -> bool:
    """Merge the sets of ``u`` and ``v``; False when they were one set already."""
    ru, rv = find_root(parent, u), find_root(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


def connected_components(node_count: int, endpoints) -> int:
    parent = list(range(node_count))
    return node_count - sum(union(parent, u, v) for u, v in endpoints)
