"""Instance types for the graph problem plugins, and the helpers they share.

Both graph kinds are frozen dataclasses.  Parallel edges are first-class
(the zero-cost boundary fixtures need them); self-loops are rejected
since no plugin can use one.  An instance is its node count, its ends,
its flags and its weights as ``ratios``: per weight pair,
((p1, q1), (p2, q2)) with w1 = p1/q1 and w2 = p2/q2 in lowest terms,
q > 0.  The constructors take ``CostPair``s, or pairs that ``CostPair``
accepts, and turn each into its int pairs; ``from_ratios`` takes the int
pairs straight from a reader.  Both go through one ``_build`` per kind,
which runs every check.  Only what the oracles read is derived from
``ratios`` and the ends, on first read, and kept with the instance: the
``ScaledWeights``, the adjacency and the neighbours.  ``CostPair``s
appear only as images; ``formats`` writes the canonical texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from ..core import Bounds, CostPair, LinearValue, rational
from ..errors import ValidationError

GRAPH_KINDS = ("mst", "path", "cut")


def _ratio(w) -> tuple:
    """The reduced int pairs ((p1, q1), (p2, q2)) of a CostPair, or of a pair of rationals."""
    a, b = (w.f1, w.f2) if isinstance(w, CostPair) else map(rational, w)
    return (a.numerator, a.denominator), (b.numerator, b.denominator)


def _cost_pair(ratio) -> CostPair:
    (p1, q1), (p2, q2) = ratio
    return CostPair(Fraction(p1, q1), Fraction(p2, q2))


def _check_ends(node_count: int, u, v):
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise ValidationError(f"edge ({u},{v}) references a missing node")
    if u == v:
        raise ValidationError(f"self-loop at node {u}")


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


class _Graph:
    """The reader's entry and the oracles' weights, shared by both graph kinds."""

    @classmethod
    def from_ratios(cls, *args, **kwargs):
        """The graph that ``_build`` makes of the reduced int pairs ``ratios``.

        It takes ``_build``'s arguments.
        """
        graph = cls.__new__(cls)
        graph._build(*args, **kwargs)
        return graph

    @cached_property
    def scaled(self) -> "ScaledWeights":
        """The weights as ints, for the oracles."""
        return ScaledWeights.of(self.ratios)


@dataclass(frozen=True, init=False)
class BiweightedGraph(_Graph):
    """Undirected multigraph with a weight pair per edge.

    ``kind`` selects the solution space: spanning trees ("mst"),
    simple source-sink paths ("path"), or source-sink cuts ("cut").
    ``relaxed`` enables the nonnegative-cost regime in which zero weight
    components are permitted.
    """

    node_count: int
    _ends: tuple
    ratios: tuple
    kind: str
    source: Optional[int]
    sink: Optional[int]
    relaxed: bool

    def __init__(
        self,
        node_count: int,
        edges=(),
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

    def _build(self, node_count, ends, ratios, kind="mst", source=None, sink=None, relaxed=False):
        """Check and store the graph with edge ``ends[i]`` weighted by ``ratios[i]``."""
        if kind not in GRAPH_KINDS:
            raise ValidationError(f"unknown graph kind {kind!r}")
        if node_count < 1:
            raise ValidationError("graph needs at least one node")
        for (u, v), ratio in zip(ends, ratios, strict=True):
            if not (0 <= u < node_count and 0 <= v < node_count and u != v):
                _check_ends(node_count, u, v)
            if ratio[0][0] < 0 or ratio[1][0] < 0:
                _cost_pair(ratio)  # raises CostPair's own error
        _check_positivity(ratios, relaxed, "edge")
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
        self.__dict__.update(
            node_count=node_count,
            _ends=tuple(ends),
            ratios=tuple(ratios),
            kind=kind,
            source=source,
            sink=sink,
            relaxed=relaxed,
        )

    @property
    def edge_count(self) -> int:
        return len(self._ends)

    def endpoints(self) -> tuple:
        return self._ends

    @cached_property
    def adjacency(self) -> tuple:
        """Per-node tuple of (edge index, other endpoint), in edge order."""
        adj = [[] for _ in range(self.node_count)]
        for i, (u, v) in enumerate(self._ends):
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
        return connected_components(self.node_count, self._ends) == 1


@dataclass(frozen=True, init=False)
class VertexWeightedGraph(_Graph):
    """Undirected graph with a weight pair per vertex, for vertex-cover instances."""

    node_count: int
    edges: tuple
    ratios: tuple
    relaxed: bool
    kind = "vc"

    def __init__(self, node_count: int, edges=(), vertex_weights=(), relaxed: bool = False):
        self._build(node_count, edges, [_ratio(w) for w in vertex_weights], relaxed)

    def _build(self, node_count, edges, ratios, relaxed=False):
        """Check and store the graph with vertex ``i`` weighted by ``ratios[i]``."""
        if node_count < 1:
            raise ValidationError("graph needs at least one node")
        checked = []
        for u, v in edges:
            _check_ends(node_count, u, v)
            checked.append((u, v))
        if len(ratios) != node_count:
            raise ValidationError("one weight pair per vertex required")
        for ratio in ratios:
            if ratio[0][0] < 0 or ratio[1][0] < 0:
                _cost_pair(ratio)  # raises CostPair's own error
        _check_positivity(ratios, relaxed, "vertex")
        self.__dict__.update(
            node_count=node_count, edges=tuple(checked), ratios=tuple(ratios), relaxed=relaxed
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)


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


class Keyed(tuple):
    """Tuple ordered by a comparator on its first item, then by the items after it.

    A symbolic run's stand-in for a plain tuple such as (distance, node).
    The comparator rides along as the last item, so one type serves every
    run and no class is built per run.  It makes one comparator call per
    comparison, where a tuple of ``cmp_to_key`` objects makes two (``==``,
    then ``<``).
    """

    __slots__ = ()

    def __lt__(self, other):
        order = self[-1](self[0], other[0])
        return order < 0 or (order == 0 and self[1:-1] < other[1:-1])


def keyed_by(compare):
    """A symbolic run's label maker: ``item`` becomes ``Keyed(item + (compare,))``."""
    return lambda item: Keyed(item + (compare,))


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
