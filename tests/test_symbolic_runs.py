"""Local ratio, Kruskal and Dijkstra on int forms against their runs over ``LinearValue``s.

The symbolic runs of vertex cover and spanning trees keep every quantity
as an int constant and an int slope, and Dijkstra's packs the two into
one int, ``c << k | s``; each hands every comparison to the comparator as
one linear form (c, s) of two ints.  ``_suite.ReferenceVertexCover``,
``_suite.ReferenceMst`` and ``_suite.ReferenceShortestPath`` are the runs
they replaced, over ``_suite.LinearValue``s, with each comparison of p
and q passed on as p - q.  Each pair must ask the same forms in the same
order, so they return the same tokens under any comparator, the same
grid records and the same Megiddo transcripts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import _suite
from _suite import (
    ReferenceMst,
    ReferenceShortestPath,
    ReferenceVertexCover,
    build_suite,
    exact_cases,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
)
from bicrit.core import ratio_of, sign_at
from bicrit.exact_search import _simulate
from bicrit.pareto import pareto_index_range
from bicrit.problems import (
    BiweightedGraph,
    MstAdapter,
    ShortestPathAdapter,
    VertexCoverAdapter,
    mst_oracle,
    sp_oracle,
    vc_oracle,
)
from bicrit.sweep import solve_grid

# Point comparators' weights: the suite's weights, ints up to 6 over 1 or 2, tie often at these.
POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2))


def _full_paths():
    """Two paths whose W2 sum is ``sum(second)``, 2**k - 1, so every bit of the packed slope is set.

    The first is a chain, whose one path takes every edge.  The second,
    relaxed, doubles each hop of it with an edge of W2 0 and a W1 above
    the first one's combined weight at every point of ``POINTS``, so the
    path is the same, and its labels meet the doubles' at every hop.
    """
    hops = [(1, 2**i) for i in range(5)]
    chain = BiweightedGraph(
        6, [(i, i + 1, pair) for i, pair in enumerate(hops)], kind="path", source=0, sink=5
    )
    doubled = [
        (i, i + 1, pair) for i, (w1, w2) in enumerate(hops) for pair in ((w1, w2), (w1 + 4 * w2, 0))
    ]
    relaxed = BiweightedGraph(6, doubled, kind="path", source=0, sink=5, relaxed=True)
    return [chain, relaxed]


def _instances(kind):
    """The suite's instances of ``kind``, then seeded random and relaxed ones.

    For paths: every path instance of ``exact_cases``, 40 random ones and
    ``_full_paths``.
    """
    rng = random.Random(f"int forms/{kind}")
    if kind == "path":
        return [
            *(case.instance for case in exact_cases() if case.kind == "path"),
            *(random_path_instance(rng, rng.randint(2, 9)) for _ in range(40)),
            *_full_paths(),
        ]
    random_instance = random_vc_instance if kind == "vc" else random_mst_instance
    return [
        *(case.instance for case in build_suite() if case.kind == kind),
        *(random_instance(rng, rng.randint(2, 9)) for _ in range(20)),
        *(random_relaxed_instance(rng, kind, rng.randint(2, 7)) for _ in range(20)),
    ]


def _logged(compare, log):
    """``compare``, appending each form (c, s) it is asked to ``log``."""
    return lambda c, s: log.append((c, s)) or compare(c, s)


def _point(gamma):
    at = ratio_of(gamma)
    return lambda c, s: sign_at(c, s, at)


@pytest.mark.parametrize(
    ("new", "reference", "concrete"),
    [
        (VertexCoverAdapter(), ReferenceVertexCover(), vc_oracle),
        (MstAdapter(), ReferenceMst(), mst_oracle),
        (ShortestPathAdapter(), ReferenceShortestPath(), sp_oracle),
    ],
    ids=["vc", "mst", "path"],
)
def test_runs_ask_the_reference_forms_under_point_comparators(new, reference, concrete):
    kind = {vc_oracle: "vc", mst_oracle: "mst", sp_oracle: "path"}[concrete]
    for instance in _instances(kind):
        for gamma in POINTS:
            asked, expected = [], []
            run = new.run_parametric(instance, _logged(_point(gamma), asked))
            want = reference.run_parametric(instance, _logged(_point(gamma), expected))
            assert run == want, (instance, gamma)
            assert asked == expected, (instance, gamma)
            assert all(type(c) is type(s) is int for c, s in asked), (instance, gamma)
            assert run.token == concrete(instance, gamma).token, (instance, gamma)


def test_grid_records_match_the_reference_run():
    for instance in _instances("vc"):
        bounds = VertexCoverAdapter().bounds(instance)
        for eps in (Fraction(1), Fraction(1, 4), Fraction(1, 50)):
            grid = pareto_index_range(eps, bounds)
            records = solve_grid(VertexCoverAdapter(), instance, eps, grid)
            assert records == solve_grid(ReferenceVertexCover(), instance, eps, grid)


def test_megiddo_transcripts_match_the_reference_run():
    for kind, new, reference in (
        ("mst", MstAdapter(), ReferenceMst()),
        ("path", ShortestPathAdapter(), ReferenceShortestPath()),
    ):
        ran = 0
        for instance in _instances(kind):
            bounds = new.bounds(instance)
            for eps in (Fraction(1), Fraction(1, 4)):
                lo, hi = eps * 3 / bounds.ub2, eps * 3 / bounds.lb2
                limit = (1 + eps) * 3
                got = _simulate(new, instance, lo, hi, None, limit)
                assert got == _simulate(reference, instance, lo, hi, None, limit)
                ran += got[1]["comparisons"] > 0 and len(got[1]["probes"]) > 0
        assert ran > 0, kind


@pytest.mark.parametrize("kind", ["vc", "mst"])
def test_symbolic_runs_build_no_linear_value(kind, monkeypatch):
    """Local ratio's and Kruskal's symbolic runs complete with ``LinearValue`` unbuildable.

    ``_suite.LinearValue`` is the value type of the reference runs.  Its
    constructor checks its fields in ``__post_init__``, and ``+`` and
    ``-`` build through it: with all three refusing, a run that made one
    per residual update or per comparison fails here, while the forms it
    asks stay pairs of ints.
    """

    def refuse(*args):
        raise AssertionError(f"a symbolic run built a LinearValue from {args}")

    adapter = VertexCoverAdapter() if kind == "vc" else MstAdapter()
    instances = _instances(kind)
    tokens = [adapter.solve_weighted_sum(instance, Fraction(3, 2)).token for instance in instances]
    for name in ("__post_init__", "__add__", "__sub__"):
        monkeypatch.setattr(_suite.LinearValue, name, refuse)
    for instance, token in zip(instances, tokens):
        asked = []
        run = adapter.run_parametric(instance, _logged(_point(Fraction(3, 2)), asked))
        assert run.token == token, instance
        assert all(type(c) is type(s) is int for c, s in asked), instance
    instance = instances[0]
    bounds = adapter.bounds(instance)
    if kind == "vc":
        eps = Fraction(1, 4)
        assert solve_grid(adapter, instance, eps, pareto_index_range(eps, bounds))
    else:
        _simulate(adapter, instance, 3 / bounds.ub2, 3 / bounds.lb2, None, 6)
