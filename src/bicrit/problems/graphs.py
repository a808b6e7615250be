"""Instance types for the graph problem plugins, and the helpers they share.

Both graph kinds are one frozen dataclass record, ``_Graph``, with seven
fields: ``node_count``; ``edges``, (u, v) per edge; ``ratios``, the
weights; ``kind``; ``source`` and ``sink``, None unless the kind needs
them; and ``relaxed``.  Per weight pair, ``ratios`` holds
((p1, q1), (p2, q2)) with w1 = p1/q1 and w2 = p2/q2 in lowest terms,
q > 0; pair i weighs edge i, or vertex i for "vc".  Parallel edges are
first-class (the zero-cost boundary fixtures need them); self-loops are
rejected since no plugin can use one.  The constructors take
``CostPair``s, or pairs that ``CostPair`` accepts, and turn each into its
int pairs; ``from_ratios`` takes the int pairs straight from a reader.
Both go through the one ``_Graph._build``, which refuses a node count,
end, source or sink that is not an exact int and a ``relaxed`` that is
not a bool, runs the checks every kind shares, then the kind's own.
Only what the oracles read is derived from ``ratios`` and the ends, on
first read, and kept with the instance: the ``ScaledWeights``, the
adjacency and the neighbours.  ``CostPair``s appear only as images;
``formats`` writes the canonical texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Optional

from ..core import Bounds, CostPair, rational
from ..errors import ValidationError

GRAPH_KINDS = ("mst", "path", "cut")


def _ratio(w) -> tuple:
    """The reduced int pairs ((p1, q1), (p2, q2)) of a CostPair, or of a pair of rationals."""
    a, b = (w.f1, w.f2) if isinstance(w, CostPair) else map(rational, w)
    return (a.numerator, a.denominator), (b.numerator, b.denominator)


def _cost_pair(ratio) -> CostPair:
    (p1, q1), (p2, q2) = ratio
    return CostPair(Fraction(p1, q1), Fraction(p2, q2))


def _typed(value, expected, where):
    # Exact types, as the reader checks them: a bool is an int subclass but never a node.
    if type(value) is not expected:
        raise ValidationError(f"{where}: expected {expected.__name__}, got {type(value).__name__}")


def _check_positivity(ratios, relaxed: bool, what: str):
    for i, ((p1, _), (p2, _)) in enumerate(ratios):
        if not relaxed and (p1 <= 0 or p2 <= 0):
            raise ValidationError(
                f"{what} {i} has nonpositive weight {_cost_pair(ratios[i])} "
                "but the instance is not relaxed"
            )
    for dim in (0, 1):
        if not any(ratio[dim][0] > 0 for ratio in ratios):
            raise ValidationError(f"no positive {what} weight in dimension {dim + 1}")


@dataclass(frozen=True, init=False)
class _Graph:
    """The one instance record of both graph kinds, the checks they share, and its weights."""

    node_count: int
    edges: tuple
    ratios: tuple
    kind: str
    source: Optional[int]
    sink: Optional[int]
    relaxed: bool

    _element = "edge"  # what each weight pair weighs

    @classmethod
    def from_ratios(cls, node_count, edges, ratios, kind, source=None, sink=None, relaxed=False):
        """The graph of the seven fields, its weights given as reduced int pairs ``ratios``."""
        graph = cls.__new__(cls)
        graph._build(node_count, edges, ratios, kind, source, sink, relaxed)
        return graph

    def _build(self, node_count, edges, ratios, kind, source, sink, relaxed):
        """Check and store the graph; ``_check_kind`` adds the checks of its kind."""
        # From a list, the tuple is made at its size (see ``adjacency``).
        edges, ratios = tuple(list(map(tuple, edges))), tuple(ratios)
        _typed(node_count, int, "node_count")
        _typed(relaxed, bool, "relaxed")
        for name, node in (("source", source), ("sink", sink)):
            if node is not None:
                _typed(node, int, name)
        # One C-level pass over the ends; only a faulty one is looked for again.
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            _typed(next(x for x in chain.from_iterable(edges) if type(x) is not int), int, "edges")
        if node_count < 1:
            raise ValidationError("graph needs at least one node")
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValidationError(f"edge ({u},{v}) references a missing node")
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
        what = self._element
        if len(ratios) != (node_count if what == "vertex" else len(edges)):
            raise ValidationError(f"one weight pair per {what} required")
        for ratio in ratios:
            if ratio[0][0] < 0 or ratio[1][0] < 0:
                _cost_pair(ratio)  # raises CostPair's own error
        _check_positivity(ratios, relaxed, what)
        self._check_kind(node_count, kind, source, sink)
        self.__dict__.update(
            node_count=node_count,
            edges=edges,
            ratios=ratios,
            kind=kind,
            source=source,
            sink=sink,
            relaxed=relaxed,
        )

    @cached_property
    def scaled(self) -> "ScaledWeights":
        """The weights as ints, for the oracles."""
        return ScaledWeights.of(self.ratios)


# Each kind is a dataclass of its own, so that it refuses to set any
# attribute, not only the seven fields.
@dataclass(frozen=True, init=False)
class BiweightedGraph(_Graph):
    """Undirected multigraph with a weight pair per edge.

    ``kind`` selects the solution space: spanning trees ("mst"),
    simple source-sink paths ("path"), or source-sink cuts ("cut").
    ``relaxed`` enables the nonnegative-cost regime in which zero weight
    components are permitted.
    """

    def __init__(
        self,
        node_count: int,
        edges,
        kind: str = "mst",
        source: Optional[int] = None,
        sink: Optional[int] = None,
        relaxed: bool = False,
    ):
        ends, ratios = [], []
        for u, v, w in edges:
            ends.append((u, v))
            ratios.append(_ratio(w))
        self._build(node_count, ends, ratios, kind, source, sink, relaxed)

    def _check_kind(self, node_count, kind, source, sink):
        if kind not in GRAPH_KINDS:
            raise ValidationError(f"unknown graph kind {kind!r}")
        if kind == "mst":
            if node_count < 2:
                raise ValidationError("spanning-tree instance needs >= 2 nodes")
            if source is not None or sink is not None:
                raise ValidationError("mst instances carry no source/sink")
        else:
            if source is None or sink is None:
                raise ValidationError(f"{kind} instance needs source and sink")
            for name, node in (("source", source), ("sink", sink)):
                if not 0 <= node < node_count:
                    raise ValidationError(f"{name} {node} is not a node")
            if source == sink:
                raise ValidationError("source and sink must differ")

    @cached_property
    def adjacency(self) -> tuple:
        """Per-node tuple of (edge index, other endpoint), in edge order."""
        adj = [[] for _ in range(self.node_count)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((i, v))
            adj[v].append((i, u))
        # Tuples of lists, as everywhere in this module: CPython resizes a
        # tuple built from a generator and keeps the freed tuple in a free
        # list that only a full collection empties, so memory would grow
        # with every instance.
        return tuple([tuple(incident) for incident in adj])

    @cached_property
    def neighbours(self) -> tuple:
        """Per-node tuple of the distinct adjacent nodes, in index order."""
        return tuple([tuple(sorted({other for _, other in adj})) for adj in self.adjacency])

    def is_connected(self) -> bool:
        return connected_components(self.node_count, self.edges) == 1


@dataclass(frozen=True, init=False)
class VertexWeightedGraph(_Graph):
    """Undirected graph with a weight pair per vertex, for vertex-cover instances."""

    _element = "vertex"

    def __init__(self, node_count: int, edges, vertex_weights, relaxed: bool = False):
        ratios = [_ratio(w) for w in vertex_weights]
        self._build(node_count, edges, ratios, "vc", None, None, relaxed)

    def _check_kind(self, node_count, kind, source, sink):
        if kind != "vc" or source is not None or sink is not None:
            raise ValidationError("a vertex-weighted graph has kind 'vc' and no source/sink")


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
    def of(cls, ratios) -> "ScaledWeights":
        """From ``((p1, q1), (p2, q2))`` per pair, each q > 0."""
        scale = lcm(*{q for pair in ratios for _, q in pair})
        return cls(
            tuple([p * (scale // q) for (p, q), _ in ratios]),
            tuple([p * (scale // q) for _, (p, q) in ratios]),
            scale,
        )

    def combined(self, gamma: Fraction) -> list:
        """The int ``q*W1 + p*W2`` per pair, for gamma = p/q."""
        p, q = gamma.numerator, gamma.denominator
        return [q * a + p * b for a, b in zip(self.first, self.second)]

    def image(self, indices) -> CostPair:
        """Exact image of the solution made of the pairs at ``indices``."""
        return CostPair(
            Fraction(sum(self.first[i] for i in indices), self.scale),
            Fraction(sum(self.second[i] for i in indices), self.scale),
        )


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
