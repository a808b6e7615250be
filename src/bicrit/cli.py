"""Command-line front end.

Instance ingestion from a bit-exact JSON format, algorithm selection,
certificate and Pareto reporting, optional verification against the
brute-force oracle, and the counterexample reproductions.

Exit codes: 0 success, 2 usage, 3 no certificate / no feasible solution,
4 parse or validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from .core import format_rational, parse_rational
from .errors import (
    CapExceeded,
    ExactOracleRequired,
    NoCertificate,
    NoFeasibleSolution,
    NotParametricCapable,
    ParseError,
    ProblemMismatch,
    ValidationError,
)
from .exact_search import solve_budget_binary, solve_budget_parametric
from .marathe import example2_graph, reproduce_example1, reproduce_example2
from .oracle import exact_opt_budget, enumerate_all, verify_budget, verify_pareto_coverage
from .pareto import approximate_pareto, pareto_from_parametric
from .pareto import pareto_index_range  # noqa: F401  unused; perfbench's tracer wraps this name
from .problems import BiweightedGraph, VertexWeightedGraph, adapter_for
from .sweep import BudgetQuery, solve_budget_fixed, solve_budget_sweep

PROBLEM_KINDS = ("mst", "path", "cut", "vc")
ALGORITHMS = ("sweep", "binary", "parametric", "fixed")


def ingest(path: str):
    """Load and validate an instance file.

    The format is a JSON object with fields: kind ("mst"|"path"|"cut"|"vc"),
    relaxed (bool), nodes (int), edges (list of {"u", "v", "w1", "w2"}),
    optional source/sink for path and cut instances, and vertex_weights
    (list of {"w1", "w2"}) for vertex-cover instances.  All rationals are
    reduced "p/q" strings; vertex-cover edges carry no weights.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from None
    return instance_from_dict(data)


def _typed(value, kind, where):
    # bool is a subclass of int, but a JSON true/false is never a count or a node.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _field(data, name, kind, where=""):
    """``data[name]`` checked to be a ``kind``; errors name the path, as in edges[3].w1."""
    _typed(data, dict, where or "instance")
    path = f"{where}.{name}" if where else name
    if name not in data:
        raise ParseError(f"{path}: missing field")
    return _typed(data[name], kind, path)


def _optional_int(data, name):
    value = data.get(name)
    return None if value is None else _typed(value, int, name)


def _rational_field(data, name, where):
    text = _field(data, name, str, where)
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise ParseError(f"{where}.{name}: {exc}") from None


def _parse_pair(entry, where):
    return (_rational_field(entry, "w1", where), _rational_field(entry, "w2", where))


def instance_from_dict(data):
    kind = _field(data, "kind", str)
    if kind not in PROBLEM_KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    relaxed = _typed(data.get("relaxed", False), bool, "relaxed")
    nodes = _field(data, "nodes", int)
    edges_raw = _field(data, "edges", list)
    ends = [
        (_field(e, "u", int, f"edges[{i}]"), _field(e, "v", int, f"edges[{i}]"))
        for i, e in enumerate(edges_raw)
    ]
    try:
        if kind == "vc":
            weights_raw = _field(data, "vertex_weights", list)
            weights = [
                _parse_pair(w, f"vertex_weights[{i}]") for i, w in enumerate(weights_raw)
            ]
            return VertexWeightedGraph(nodes, tuple(ends), tuple(weights), relaxed=relaxed)
        edges = [
            (u, v, _parse_pair(e, f"edges[{i}]"))
            for i, ((u, v), e) in enumerate(zip(ends, edges_raw))
        ]
        instance = BiweightedGraph(
            nodes,
            tuple(edges),
            kind=kind,
            source=_optional_int(data, "source"),
            sink=_optional_int(data, "sink"),
            relaxed=relaxed,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if kind == "mst" and not instance.is_connected():
        raise ValidationError("spanning-tree instance is not connected")
    if kind == "cut" and not relaxed and not instance.is_connected():
        raise ValidationError(
            "strict cut instance must be connected (a zero-capacity cut needs relaxed=true)"
        )
    return instance


def serialize_instance(instance) -> dict:
    """Canonical dict form of an instance; inverse of ``instance_from_dict``."""
    if isinstance(instance, VertexWeightedGraph):
        return {
            "kind": "vc",
            "relaxed": instance.relaxed,
            "nodes": instance.node_count,
            "edges": [{"u": u, "v": v} for u, v in instance.edges],
            "vertex_weights": [
                {"w1": format_rational(w.f1), "w2": format_rational(w.f2)}
                for w in instance.vertex_weights
            ],
        }
    out = {
        "kind": instance.kind,
        "relaxed": instance.relaxed,
        "nodes": instance.node_count,
        "edges": [
            {"u": u, "v": v, "w1": format_rational(w.f1), "w2": format_rational(w.f2)}
            for u, v, w in instance.edges
        ],
    }
    if instance.source is not None:
        out["source"] = instance.source
        out["sink"] = instance.sink
    return out


def instance_digest(instance) -> str:
    canonical = json.dumps(serialize_instance(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _token_list(token):
    if isinstance(token, (frozenset, set)):
        return sorted(token)
    return list(token)


def _record_dict(record) -> dict:
    out = {
        "token": _token_list(record.token),
        "image": {
            "f1": format_rational(record.image.f1),
            "f2": format_rational(record.image.f2),
        },
    }
    if record.produced_at is not None:
        out["produced_at"] = format_rational(record.produced_at)
    return out


def _certificate_dict(cert) -> dict:
    return {
        "alpha": format_rational(cert.alpha),
        "budget_factor": format_rational(cert.budget_factor),
        "cost_factor": format_rational(cert.cost_factor),
        "budget": format_rational(cert.budget),
        "oracle_calls": cert.oracle_calls,
    }


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _budget_verification(instance, record, budget, eps, alpha, factors):
    opt = exact_opt_budget(instance, budget)
    verdict = True if opt is None else verify_budget(record, budget, eps, alpha, opt, factors)
    return {
        "verdict": verdict,
        "opt_budget": None if opt is None else format_rational(opt),
        "budget_factor": format_rational(factors[0]),
        "cost_factor": format_rational(factors[1]),
    }


def _ingest_for(args):
    """The ``--input`` instance, which must be of the ``--problem`` kind."""
    instance = ingest(args.input)
    if instance.kind != args.problem:
        raise ProblemMismatch(
            f"--problem {args.problem} does not match instance kind {instance.kind}"
        )
    return instance


def _flag_rational(parser, name, text):
    try:
        return parse_rational(text)
    except ParseError as exc:
        parser.error(f"{name}: {exc}")


def _cmd_solve_budget(args, parser) -> int:
    if args.format == "csv":
        parser.error("--format csv is only available for the pareto command")
    budget = _flag_rational(parser, "--budget", args.budget)
    eps = _flag_rational(parser, "--epsilon", args.epsilon)
    instance = _ingest_for(args)
    if args.algorithm == "fixed" and eps != 1:
        parser.error("--algorithm fixed pins epsilon to 1")
    adapter = adapter_for(instance)
    try:
        query = BudgetQuery(budget=budget, eps=eps)
    except ValueError as exc:
        parser.error(str(exc))
    started = time.perf_counter()
    report = {
        "command": args.echo,
        "instance_digest": instance_digest(instance),
        "problem": instance.kind,
        "algorithm": args.algorithm,
        "budget": format_rational(budget),
        "epsilon": format_rational(eps),
    }
    try:
        if args.algorithm == "sweep":
            record, cert = solve_budget_sweep(adapter, instance, query)
        elif args.algorithm == "fixed":
            record, cert = solve_budget_fixed(adapter, instance, budget)
        elif args.algorithm == "binary":
            record, cert = solve_budget_binary(adapter, instance, query)
        else:
            record, cert = solve_budget_parametric(adapter, instance, query)
    except NoCertificate as exc:
        report["no_certificate"] = {"records": [_record_dict(r) for r in exc.records]}
        report["wall_time_ms"] = (time.perf_counter() - started) * 1000
        _emit(report)
        return 3
    report["record"] = _record_dict(record)
    report["certificate"] = _certificate_dict(cert)
    report["oracle_calls"] = cert.oracle_calls
    if args.verify:
        factors = (cert.budget_factor, cert.cost_factor)
        report["verification"] = _budget_verification(
            instance, record, budget, eps, adapter.alpha(), factors
        )
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000
    _emit(report)
    return 0


def _cmd_pareto(args, parser) -> int:
    if args.format == "csv" and args.verify:
        parser.error("--verify needs --format json: the csv output has no verification")
    eps = _flag_rational(parser, "--epsilon", args.epsilon)
    instance = _ingest_for(args)
    adapter = adapter_for(instance)
    started = time.perf_counter()
    try:
        if args.parametric:
            curve = pareto_from_parametric(adapter, instance, eps)
        else:
            curve = approximate_pareto(adapter, instance, eps)
    except (ValueError, ExactOracleRequired) as exc:
        parser.error(str(exc))
    if args.format == "csv":
        print("f1,f2")
        for record in curve.records:
            print(f"{format_rational(record.image.f1)},{format_rational(record.image.f2)}")
        return 0
    report = {
        "command": args.echo,
        "instance_digest": instance_digest(instance),
        "problem": instance.kind,
        "algorithm": "pareto-parametric" if args.parametric else "pareto",
        "epsilon": format_rational(eps),
        "pareto": {
            "factor1": format_rational(curve.factor1),
            "factor2": format_rational(curve.factor2),
            "records": [_record_dict(r) for r in curve.records],
        },
        "oracle_calls": curve.oracle_calls,
    }
    if args.verify:
        everything = enumerate_all(instance)
        report["verification"] = {
            "verdict": verify_pareto_coverage(curve, everything, curve.factor1, curve.factor2),
            "solutions_checked": len(everything),
        }
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000
    _emit(report)
    return 0


def _trace_dict(trace) -> dict:
    budget, eps, ub2 = trace.params
    return {
        "params": {
            "budget": format_rational(budget),
            "eps": format_rational(eps),
            "ub2": format_rational(ub2),
        },
        "tested": [
            {"D": format_rational(d), "h": format_rational(h), "token": _token_list(token)}
            for d, h, token in trace.tested
        ],
        "outcome": None if trace.outcome is None else _record_dict(trace.outcome),
    }


def _cmd_repro(args, parser) -> int:
    started = time.perf_counter()
    if args.case == "marathe-ex1":
        trace = reproduce_example1()
        extra = {"ratios": [format_rational(h / d) for d, h, _ in trace.tested]}
    else:
        trace = reproduce_example2()
        extra = {
            "feasibility_witness": {
                "budget": "3",
                "opt_budget": format_rational(exact_opt_budget(example2_graph(), Fraction(3))),
            }
        }
    report = {
        "command": args.echo,
        "case": args.case,
        "trace": _trace_dict(trace),
        "oracle_calls": len(trace.tested),
        **extra,
    }
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicrit",
        description="Budget-constrained bicriteria approximation and approximate "
        "Pareto curves over exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve-budget", help="minimize f2 subject to f1 <= B")
    solve.add_argument("--problem", choices=PROBLEM_KINDS, required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="sweep")
    solve.add_argument("--budget", required=True, help="budget B as p/q")
    solve.add_argument("--epsilon", default="1", help="accuracy parameter as p/q (default 1)")
    solve.add_argument("--input", required=True, help="instance JSON path")
    solve.add_argument("--verify", action="store_true", help="check against the brute-force oracle")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.set_defaults(handler=_cmd_solve_budget)

    pareto = sub.add_parser("pareto", help="compute an approximate Pareto curve")
    pareto.add_argument("--problem", choices=PROBLEM_KINDS, required=True)
    pareto.add_argument("--epsilon", default="1", help="accuracy parameter as p/q (default 1)")
    pareto.add_argument("--input", required=True, help="instance JSON path")
    pareto.add_argument(
        "--parametric", action="store_true", help="all-weights search (exact oracles only)"
    )
    pareto.add_argument("--verify", action="store_true", help="check coverage by enumeration")
    pareto.add_argument("--format", choices=("json", "csv"), default="json")
    pareto.set_defaults(handler=_cmd_pareto)

    repro = sub.add_parser("repro", help="reproduce a documented counterexample")
    repro.add_argument("--case", choices=("marathe-ex1", "marathe-ex2"), required=True)
    repro.set_defaults(handler=_cmd_repro)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = argv
    try:
        return args.handler(args, parser)
    except (ParseError, ValidationError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ExactOracleRequired, NotParametricCapable, ProblemMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFeasibleSolution as exc:
        print(f"error: no feasible solution: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
