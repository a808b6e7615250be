"""Seeded inputs of the three workloads.

A workload is a list of instance files and a round of CLI operations on
them.  A run repeats whole rounds, so every run attempts the same
operations in the same proportions.  The seed fixes the graphs, weights
and budgets; the shape of a round (kinds, sizes, algorithms, epsilons)
is the same for every seed, so rounds of different seeds cost about the
same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .reference import Instance, image, random_minimal_cover, weighted_optimum

WORKLOADS = ("budget-medium", "pareto-fine", "verify-small")

# Weight of the big-integer part of the speed reference (see clock.Gauge):
# pareto-fine's oracles work on weights of thousands of bits, the other
# two workloads on small rationals.  Fitted on the baseline machine so
# that normalised time tracks the workload's time as the machine drifts.
BIG_SHARE = {"budget-medium": 0.0, "pareto-fine": 0.8, "verify-small": 0.0}

KINDS = ("mst", "path", "cut", "vc")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``bicrit <argv>``, with the fields its checks need."""

    argv: tuple
    instance: str
    command: str
    problem: str
    algorithm: str
    eps: Fraction
    budget: Fraction | None = None
    verify: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    instances: dict
    ops: tuple
    min_ops: int


def _weights(rng, count) -> tuple:
    """Half-integers from 1/2 to 9, with 1/2 present in both objectives.

    Pinning the smallest weight fixes the lower bounds LB1, LB2 the grids
    start from, so grid lengths, and with them operation costs, vary
    little from seed to seed.
    """
    w1 = [Fraction(rng.randint(1, 18), 2) for _ in range(count)]
    w2 = [Fraction(rng.randint(1, 18), 2) for _ in range(count)]
    w1[rng.randrange(count)] = w2[rng.randrange(count)] = Fraction(1, 2)
    return tuple(w1), tuple(w2)


def _graph(rng, kind, n, m) -> Instance:
    """Connected multigraph: a random tree plus m-(n-1) random extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < m:
        edges.append(tuple(rng.sample(range(n), 2)))
    rng.shuffle(edges)
    ends = (0, n - 1) if kind != "mst" else (None, None)
    return Instance(kind, n, tuple(edges), *_weights(rng, m), *ends)


def _vc_graph(rng, n, m) -> Instance:
    """Simple graph with m distinct random edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(sorted(rng.sample(pairs, m)))
    return Instance("vc", n, edges, *_weights(rng, n))


def make_instance(rng, kind, n) -> Instance:
    if kind == "vc":
        return _vc_graph(rng, n, 2 * n)
    extra = {"mst": n // 2, "path": n, "cut": n}[kind]
    return _graph(rng, kind, n, n - 1 + extra)


def achievable_budget(rng, inst: Instance) -> Fraction:
    """f1 of a solution found by the reference solvers, so a certificate exists.

    For mst, path and cut the solution minimises f1 + gamma*f2 at a random
    gamma between 1/16 and 16; for vc it is a random minimal cover.
    """
    if inst.kind == "vc":
        token = random_minimal_cover(rng, inst)
    else:
        gamma = Fraction(2) ** rng.randint(-4, 4) * Fraction(rng.randint(8, 15), 8)
        token, _ = weighted_optimum(inst, gamma)
    return image(inst, token)[0]


def _text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _budget_op(path, name, inst, algorithm, eps, budget, verify=False) -> Op:
    argv = [
        "solve-budget", "--problem", inst.kind, "--algorithm", algorithm,
        "--budget", _text(budget), "--epsilon", _text(eps), "--input", path,
    ]
    if verify:
        argv.append("--verify")
    return Op(tuple(argv), name, "solve-budget", inst.kind, algorithm, eps, budget, verify)


def _pareto_op(path, name, inst, eps, parametric=False, verify=False) -> Op:
    argv = ["pareto", "--problem", inst.kind, "--epsilon", _text(eps), "--input", path]
    if parametric:
        argv.append("--parametric")
    if verify:
        argv.append("--verify")
    algorithm = "pareto-parametric" if parametric else "pareto"
    return Op(tuple(argv), name, "pareto", inst.kind, algorithm, eps, None, verify)


def _algorithms(kind, epsilons):
    """Every (algorithm, eps) the CLI admits for a kind; fixed pins eps to 1."""
    out = [("sweep", e) for e in epsilons] + [("fixed", Fraction(1))]
    if kind != "vc":
        out += [("binary", e) for e in epsilons]
    if kind in ("mst", "path"):
        out += [("parametric", e) for e in epsilons]
    return out


# Every operation gets a graph of its own, so that a round averages over
# many graphs and a change of seed moves the figures little.
# Budget-medium node counts keep the median operation near 10 ms: the
# cut and path plugins scan dense n-by-n structures, so they get fewer
# nodes than mst.
_MEDIUM_SIZES = {
    "mst": (25, 40, 60, 80),
    "path": (20, 28, 36, 44),
    "cut": (10, 13, 16, 19),
    "vc": (20, 26, 32, 38),
}
_MEDIUM_EPS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
# Pareto-fine operations fall in three tiers, about 35%, 35% and 30% of a
# round, so that the median falls inside the middle tier and the 90th
# percentile inside the top one rather than in a gap between tiers, where
# a change of seed would move them far.  Within a tier, epsilon and node
# count per kind give the four kinds about the same cost.  Epsilons run
# from 1/4 to 1/50, mostly at the fine end, where grids reach hundreds of
# weights.  (kind, 1/eps, nodes, parametric) per operation:
_FINE_OPS = (
    # cheap: a few milliseconds
    ("mst", 4, 7, False), ("mst", 8, 7, False), ("path", 4, 6, False),
    ("cut", 4, 6, False), ("vc", 4, 6, False),
    ("mst", 4, 7, True), ("mst", 50, 7, True),
    # middle: about 110-120 ms
    ("mst", 35, 7, False), ("mst", 35, 7, False), ("path", 21, 6, False),
    ("path", 21, 6, False), ("cut", 16, 6, False), ("vc", 25, 6, False), ("vc", 25, 6, False),
    # fine end: about 450-500 ms
    ("path", 44, 6, False), ("path", 44, 6, False), ("cut", 40, 6, False),
    ("cut", 40, 6, False), ("vc", 50, 7, False), ("vc", 50, 7, False),
)
# Verify-small: at most 10 nodes, as in the acceptance suite.
_SMALL_SIZES = {"mst": (7, 8, 8), "path": (8, 9, 10), "cut": (8, 9, 10), "vc": (8, 9, 10)}


def _budget_medium(rng, add, reduced):
    ops = []
    for kind in KINDS:
        sizes = _MEDIUM_SIZES[kind][:1] if reduced else _MEDIUM_SIZES[kind]
        for n in sizes:
            for algorithm, eps in _algorithms(kind, _MEDIUM_EPS):
                path, name, inst = add(make_instance(rng, kind, n))
                ops.append(_budget_op(path, name, inst, algorithm, eps, achievable_budget(rng, inst)))
    return ops


def _pareto_fine(rng, add, reduced):
    ops = []
    for kind, denominator, n, parametric in _FINE_OPS[::4] if reduced else _FINE_OPS * 4:
        path, name, inst = add(make_instance(rng, kind, n))
        ops.append(_pareto_op(path, name, inst, Fraction(1, denominator), parametric))
    return ops


def _verify_small(rng, add, reduced):
    ops = []
    epsilons = (Fraction(1), Fraction(1, 4))
    for kind in KINDS:
        sizes = _SMALL_SIZES[kind][:1] if reduced else _SMALL_SIZES[kind]
        for n in sizes:
            for algorithm, eps in _algorithms(kind, epsilons):
                path, name, inst = add(make_instance(rng, kind, n))
                budget = achievable_budget(rng, inst)
                ops.append(_budget_op(path, name, inst, algorithm, eps, budget, verify=True))
            for eps in epsilons:
                path, name, inst = add(make_instance(rng, kind, n))
                ops.append(_pareto_op(path, name, inst, eps, verify=True))
            if kind == "mst":
                path, name, inst = add(make_instance(rng, kind, n))
                ops.append(_pareto_op(path, name, inst, epsilons[1], parametric=True, verify=True))
    return ops


_BUILDERS = {
    "budget-medium": _budget_medium,
    "pareto-fine": _pareto_fine,
    "verify-small": _verify_small,
}


def build(name: str, seed: int, workdir: Path, reduced: bool = False) -> Workload:
    """Generate a workload's instances from ``seed`` and write their files.

    ``reduced`` keeps one instance per kind (and one epsilon per
    pareto-fine instance) and drops the 100-operation minimum; the
    benchmark's own tests use it.
    """
    rng = random.Random(f"{name}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    instances = {}

    def add(inst):
        key = f"{inst.kind}{len(instances)}"
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(inst.to_dict(), sort_keys=True))
        instances[key] = inst
        return str(path), key, inst

    ops = _BUILDERS[name](rng, add, reduced)
    return Workload(name, instances, tuple(ops), 1 if reduced else 100)
