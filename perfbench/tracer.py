"""Spans around the calls into each bicrit layer, recorded from outside.

``Tracer.install`` replaces module attributes and adapter methods with
wrappers that record a span per call: name, start, end, parent span and
operation id.  Spans stay in memory and are written out once, at the end
of the run.  A layer's self time is its span minus the part its direct
child spans cover.  ``uninstall`` puts the originals back.

The oracle functions are wrapped in their defining modules, because the
adapters and ``mst_parametric_all`` look them up there; the CLI's entry
points are wrapped in ``bicrit.cli``, which imported them by name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = -1
        self.counts = Counter()
        self.images = {}  # op id -> set of oracle images
        self.weight_bits_max = 0
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------

    def _wrap(self, owner, attr, name, after=None, adapt=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if adapt is not None:
                args = adapt(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _oracle_done(self, kind):
        def after(args, record):
            self.counts[f"problems.{kind}.calls"] += 1
            self.images.setdefault(self.op, set()).add(record.image)
            gamma = record.produced_at
            bits = gamma.numerator.bit_length() + gamma.denominator.bit_length()
            self.weight_bits_max = max(self.weight_bits_max, bits)

        return after

    def _count_compare(self, args):
        adapter, instance, compare = args

        def counted(p, q):
            self.counts["exact_search.comparisons"] += 1
            return compare(p, q)

        return adapter, instance, counted

    def _filter_done(self, args, kept):
        self.counts["pareto.records_in"] += len(args[0])
        self.counts["pareto.points_out"] += len(kept)

    def _enumerate_done(self, args, records):
        self.counts["oracle.solutions"] += len(records)

    def install(self):
        from bicrit import cli, exact_search, oracle, pareto, sweep
        from bicrit.problems import (
            MinCutAdapter,
            MstAdapter,
            ShortestPathAdapter,
            VertexCoverAdapter,
            min_cut,
            mst,
            shortest_path,
            vertex_cover,
        )

        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "ingest", "cli.ingest")
        for module, attr, kind in (
            (mst, "mst_oracle", "mst"),
            (shortest_path, "sp_oracle", "path"),
            (min_cut, "cut_oracle", "cut"),
            (vertex_cover, "vc_oracle", "vc"),
        ):
            self._wrap(module, attr, f"problems.{kind}", after=self._oracle_done(kind))
        for adapter in (MstAdapter, ShortestPathAdapter, MinCutAdapter, VertexCoverAdapter):
            self._wrap(adapter, "bounds", "problems.bounds")
        self._wrap(MstAdapter, "solve_all_weights", "problems.all_weights")
        for adapter in (MstAdapter, ShortestPathAdapter):
            self._wrap(
                adapter, "run_parametric", "exact_search.symbolic", adapt=self._count_compare
            )
        for module in (sweep, exact_search):
            self._wrap(module, "index_range", "core.range")
        for module in (pareto, cli):
            self._wrap(module, "pareto_index_range", "core.range")
        for module in (sweep, exact_search, pareto):
            self._wrap(module, "pow_one_plus_eps", "core.weights")
        for attr in (
            "solve_budget_sweep",
            "solve_budget_fixed",
            "solve_budget_binary",
            "solve_budget_parametric",
        ):
            self._wrap(cli, attr, "sweep.entry")
        for attr in ("approximate_pareto", "pareto_from_parametric"):
            self._wrap(cli, attr, "pareto.entry")
        self._wrap(pareto, "filter_dominated", "pareto.filter", after=self._filter_done)
        for module in (oracle, cli):
            self._wrap(module, "enumerate_all", "oracle.enumerate", after=self._enumerate_done)
        for attr in ("exact_opt_budget", "verify_budget", "verify_pareto_coverage"):
            self._wrap(cli, attr, "oracle.check")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------

    def self_seconds(self, scales):
        """Normalised self time per span name; ``scales[op]`` is the op's factor."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = Counter()
        for span, seconds in zip(self.spans, own):
            totals[span[0]] += seconds * scales[span[4]]
        return totals

    def write(self, path):
        """Write every span as one JSON list per line: name, start, end, parent, op."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# Span name -> per-layer metric holding the span's summed self time.
SPAN_METRICS = {
    "cli.ingest": "cli.ingest_ms",
    "cli.main": "cli.report_ms",
    "problems.mst": "problems.mst.ms",
    "problems.path": "problems.path.ms",
    "problems.cut": "problems.cut.ms",
    "problems.vc": "problems.vc.ms",
    "problems.bounds": "problems.bounds_ms",
    "problems.all_weights": "problems.all_weights_ms",
    "core.range": "core.range_ms",
    "core.weights": "core.weights_ms",
    "exact_search.symbolic": "exact_search.symbolic_ms",
    "sweep.entry": "sweep.self_ms",
    "pareto.filter": "pareto.filter_ms",
    "pareto.entry": "pareto.self_ms",
    "oracle.enumerate": "oracle.enumerate_ms",
    "oracle.check": "oracle.check_ms",
}

COUNT_METRICS = (
    "problems.mst.calls",
    "problems.path.calls",
    "problems.cut.calls",
    "problems.vc.calls",
    "exact_search.comparisons",
    "pareto.records_in",
    "pareto.points_out",
    "oracle.solutions",
)


def layer_metrics(tracer: Tracer, scales, rounds: int) -> dict:
    """Every per-layer metric, per round of the workload."""
    out = {}
    seconds = tracer.self_seconds(scales)
    for span, metric in SPAN_METRICS.items():
        out[metric] = {"value": seconds[span] * 1000 / rounds, "unit": "ms"}
    for metric in COUNT_METRICS:
        count = tracer.counts[metric]
        value = count // rounds if count % rounds == 0 else count / rounds
        out[metric] = {"value": value, "unit": "count"}
    calls = sum(tracer.counts[f"problems.{k}.calls"] for k in ("mst", "path", "cut", "vc"))
    distinct = sum(len(images) for images in tracer.images.values())
    out["problems.distinct_ratio"] = {"value": distinct / max(calls, 1), "unit": "ratio"}
    out["core.weight_bits_max"] = {"value": tracer.weight_bits_max, "unit": "bits"}
    return out


class OracleCounter:
    """Counts calls into the four plugin oracles, with no timing."""

    def __init__(self):
        self.calls = 0
        self._undo = []

    def install(self):
        from bicrit.problems import min_cut, mst, shortest_path, vertex_cover

        for module, attr in (
            (mst, "mst_oracle"),
            (shortest_path, "sp_oracle"),
            (min_cut, "cut_oracle"),
            (vertex_cover, "vc_oracle"),
        ):
            original = getattr(module, attr)

            def counted(*args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            setattr(module, attr, counted)
            self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
