"""The ground truth's four enumerators: every solution of a small instance with its int sums.

Each enumerator takes ``(graph, first, second)``, the graph and its
weights as ints (``oracle._scaled_weights``: each weight times D, the lcm
of the denominators), and yields ``(key, D*f1, D*f2)`` per solution.  The
key is the cheapest form of the solution the walk holds: a spanning
tree's chosen edge indices, a path's edge-index tuple in walk order, or
the node mask of a cut's source side or of a vertex cover.
``oracle.enumerate_all`` turns keys into tokens; the verdicts read only
the sums.

The sums ride along on the walk: trees and paths add an edge's ints when
they take the edge, covers add a node's ints when they take the node, and
each partial solution on a stack carries its own two sums (the cost per
solution of a backtracking enumerator is the cost of its walk: Read and
Tarjan, Networks 5(3), 1975).  Cut sides come in subset-mask order, and
a binary counter flips fewer than two bits per step, amortised (Knuth,
TAOCP 4A, 7.2.1.1), so each side's sums are updated from the previous
side's through the edges at the flipped nodes.

Spanning trees, simple paths and vertex covers are enumerated by
backtracking that extends only partial solutions that lead to a solution
(it prunes dead branches before it enters them), and every side of a cut
is a solution, so the work is bounded by the number of solutions the
caller takes.  The walks keep explicit stacks rather than recursing, so
no edge count reaches the recursion limit and no call leaves a reference
cycle behind.  The module imports nothing from the package.
"""

from __future__ import annotations


def _reach(neighbours, start, blocked=0) -> int:
    """Bitmask of the nodes reachable from ``start`` avoiding the ``blocked`` mask."""
    seen = frontier = 1 << start
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= neighbours[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~(seen | blocked)
        seen |= frontier
    return seen


def _spans(neighbours, forest, full) -> bool:
    """True iff the forest's components joined by ``neighbours`` reach every node."""
    return _reach([a | c for a, c in zip(neighbours, forest)], 0) == full


def _spanning_trees(graph, first, second):
    """Yield (edge-index tuple, D*f1, D*f2) per spanning tree, include-first DFS order.

    A state is (next edge, forest, chosen edges, their two sums); the
    forest is the list of per-node component bitmasks.  Every state on the
    stack extends to a spanning tree: the forest plus the edges from the
    next one on spans the graph, and enough of them are left.  Taking the
    next edge keeps that true, so only skipping it needs a check, and only
    when the edge would join two components.

    Forests and suffix rows are lists, not tuples: freed length-n tuples
    pile up in CPython's tuple free lists, which only a full collection
    empties, and on the verify-small benchmark they read as resident memory.
    """
    n = graph.node_count
    edges = graph.edges
    m = len(edges)
    need = n - 1
    full = (1 << n) - 1
    # suffix[idx][v]: the neighbours of v over edges idx..m-1.
    suffix = [None] * m
    masks = [0] * n
    for idx in range(m - 1, -1, -1):
        u, v = edges[idx]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        suffix[idx] = masks.copy()
    forest = [1 << v for v in range(n)]
    if m < need or not _spans(suffix[0], forest, full):
        return
    stack = [(0, forest, (), 0, 0)]
    while stack:
        idx, forest, chosen, s1, s2 = stack.pop()
        u, v = edges[idx]
        joins = not forest[u] >> v & 1
        if m - idx > need - len(chosen) and (
            not joins or _spans(suffix[idx + 1], forest, full)
        ):
            stack.append((idx + 1, forest, chosen, s1, s2))
        if joins:
            chosen += (idx,)
            s1 += first[idx]
            s2 += second[idx]
            if len(chosen) == need:
                yield chosen, s1, s2
            else:
                merged = forest[u] | forest[v]
                taken = [merged if c & merged else c for c in forest]
                stack.append((idx + 1, taken, chosen, s1, s2))


def _simple_paths(graph, first, second):
    """Yield (edge-index tuple, D*f1, D*f2) per simple source-sink path, adjacency DFS order.

    The walk steps to a neighbour only if the sink is reachable from it
    without revisiting a node, so every partial path it holds ends in a
    solution.  Each frame holds the sums of the path up to its node.
    """
    adjacency = graph.adjacency
    neighbours = [sum(1 << w for w in ws) for ws in graph.neighbours]
    sink = graph.sink
    path = []
    visited = 1 << graph.source

    def frame(node, s1, s2):
        live = neighbours[node] & _reach(neighbours, sink, visited)
        return iter(adjacency[node]), live, node, s1, s2

    stack = [frame(graph.source, 0, 0)]
    while stack:
        edges, live, node, s1, s2 = stack[-1]
        for idx, other in edges:
            if live >> other & 1:
                break
        else:
            stack.pop()
            visited ^= 1 << node
            if path:
                path.pop()
            continue
        if other == sink:
            yield (*path, idx), s1 + first[idx], s2 + second[idx]
            continue
        path.append(idx)
        visited |= 1 << other
        stack.append(frame(other, s1 + first[idx], s2 + second[idx]))


def _cuts(graph, first, second):
    """Yield (source-side node mask, D*f1, D*f2) per cut, in subset-mask order.

    The nodes other than the terminals are the counter's bits, lowest
    index first.  The first side is {source}, whose crossing edges are
    the edges at the source.  Counting up from mask - 1 to mask flips the
    lowest set bit of mask and every bit below it, one node at a time.  A
    node that enters the side starts crossing its edges to the nodes
    outside and stops crossing those to the nodes inside; a node that
    leaves does the opposite.  So each edge at a flipped node, tested
    after the flip, has its ints added if it now crosses and subtracted
    if it no longer does.
    """
    source = graph.source
    others = [v for v in range(graph.node_count) if v not in (source, graph.sink)]
    # incident[v]: (other end's bit, D*w1, D*w2) per edge at v.
    incident = [
        [(1 << other, first[idx], second[idx]) for idx, other in edges]
        for edges in graph.adjacency
    ]
    side = 1 << source
    s1 = sum(w1 for _, w1, _ in incident[source])
    s2 = sum(w2 for _, _, w2 in incident[source])
    yield side, s1, s2
    flips = [(1 << v, incident[v]) for v in others]
    for mask in range(1, 1 << len(others)):
        for bit, edges in flips[: (mask & -mask).bit_length()]:
            side ^= bit
            if side & bit:
                for other, w1, w2 in edges:
                    if side & other:
                        s1 -= w1
                        s2 -= w2
                    else:
                        s1 += w1
                        s2 += w2
            else:
                for other, w1, w2 in edges:
                    if side & other:
                        s1 += w1
                        s2 += w2
                    else:
                        s1 -= w1
                        s2 -= w2
        yield side, s1, s2


def _covers(graph, first, second):
    """Yield (node mask, D*f1, D*f2) per vertex cover, in subset-mask order.

    Nodes are decided from the highest index down, out before in, so the
    masks come in increasing order.  A node is left out only if all of its
    neighbours decided before it are in; then no edge has both ends out,
    and taking every node still undecided completes a cover.
    """
    n = graph.node_count
    above = [0] * n  # above[v]: v's neighbours with a higher index
    for u, v in graph.edges:
        above[min(u, v)] |= 1 << max(u, v)
    stack = [(n, 0, 0, 0)]  # (nodes decided: those >= v, the ones taken in, their sums)
    while stack:
        v, mask, s1, s2 = stack.pop()
        if v == 0:
            yield mask, s1, s2
            continue
        v -= 1
        stack.append((v, mask | 1 << v, s1 + first[v], s2 + second[v]))
        if not above[v] & ~mask:
            stack.append((v, mask, s1, s2))
