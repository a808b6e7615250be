"""Instance types for the graph problem plugins, and the helpers they share.

Both graph kinds are immutable after construction.  Parallel edges are
first-class (the zero-cost boundary fixtures need them); self-loops are
rejected since no plugin can use one.  What the oracles derive from an
instance alone, its ``ScaledWeights`` and its adjacency, is built on first
use and kept with the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from ..core import Bounds, CostPair
from ..errors import ValidationError
from ..exact_search import LinearValue

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

    @cached_property
    def adjacency(self) -> tuple:
        """Per-node tuple of (edge index, other endpoint), in edge order."""
        adj = [[] for _ in range(self.node_count)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((i, v))
            adj[v].append((i, u))
        return tuple(map(tuple, adj))

    @cached_property
    def neighbours(self) -> tuple:
        """Per-node tuple of the distinct adjacent nodes, in index order."""
        return tuple(tuple(sorted({other for _, other in incident})) for incident in self.adjacency)

    @cached_property
    def scaled(self) -> "ScaledWeights":
        """The edge weights as ints, for the oracles."""
        return ScaledWeights.of(self.weights())

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

    @cached_property
    def scaled(self) -> "ScaledWeights":
        """The vertex weights as ints, for the oracles."""
        return ScaledWeights.of(self.vertex_weights)


@dataclass(frozen=True)
class ScaledWeights:
    """An instance's weight pairs as ints (D*w1, D*w2), D the lcm of their denominators.

    For gamma = p/q the int ``q*W1 + p*W2`` is D*q*(w1 + gamma*w2), and
    D*q > 0.  So the ints compare, add up and bound cuts exactly as the
    combined rational weights do: every comparison, every sum's order and
    every max-flow/min-cut answer stays the same, and the oracles never
    build a ``Fraction`` until the image.
    """

    first: tuple
    second: tuple
    scale: int

    @classmethod
    def of(cls, pairs) -> "ScaledWeights":
        scale = lcm(*(x.denominator for w in pairs for x in (w.f1, w.f2)))
        return cls(
            tuple(w.f1.numerator * (scale // w.f1.denominator) for w in pairs),
            tuple(w.f2.numerator * (scale // w.f2.denominator) for w in pairs),
            scale,
        )

    def combined(self, gamma: Fraction) -> list:
        """The int ``q*W1 + p*W2`` per pair, for gamma = p/q."""
        p, q = gamma.numerator, gamma.denominator
        return [q * a + p * b for a, b in zip(self.first, self.second)]

    def linear(self) -> list:
        """``LinearValue(W1, W2)`` per pair: D times the combined weight, symbolic in gamma."""
        return [LinearValue(a, b) for a, b in zip(self.first, self.second)]

    def image(self, indices) -> CostPair:
        """Exact image of the solution made of the pairs at ``indices``."""
        return CostPair(
            Fraction(sum(self.first[i] for i in indices), self.scale),
            Fraction(sum(self.second[i] for i in indices), self.scale),
        )


def three_way(a, b) -> int:
    """Three-way comparison of concrete values, the plugins' non-symbolic comparator."""
    return (a > b) - (a < b)


def keyed_by(compare):
    """Tuple type ordered by ``compare`` on its first item, then by its other items.

    A symbolic run's stand-in for a plain tuple such as (distance, node).
    It makes one ``compare`` call per comparison, where a tuple of
    ``cmp_to_key`` objects makes two (``==``, then ``<``).
    """

    class Keyed(tuple):
        __slots__ = ()

        def __lt__(self, other):
            order = compare(self[0], other[0])
            return order < 0 or (order == 0 and self[1:] < other[1:])

    return Keyed


def cost_bounds(scaled: ScaledWeights, relaxed: bool, multiplicity: int = 1) -> Bounds:
    """Bounds for solutions that use each weight pair at most once.

    The upper bound is the sum of all weights.  Strict regime: a solution
    uses at least ``multiplicity`` pairs (n-1 edges for a spanning tree),
    each at least the minimum weight.  Relaxed regime: only the positive
    costs are bounded, and a solution may hold a single positive pair, so
    the per-dimension minimum positive weight is the valid lower bound.
    """
    out = []
    for values in (scaled.first, scaled.second):
        low = min(v for v in values if v > 0) if relaxed else multiplicity * min(values)
        out.append((Fraction(low, scaled.scale), Fraction(sum(values), scaled.scale)))
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
