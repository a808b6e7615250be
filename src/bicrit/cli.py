"""Command-line front end.

Instance ingestion from a bit-exact JSON format, algorithm selection,
certificate and Pareto reporting, optional verification against the
brute-force oracle, and the counterexample reproductions.

Exit codes: 0 success, 2 usage, 3 no certificate / no feasible solution,
4 parse or validation failure.

The argument parser depends on no input, so it is built on the first call
of ``main`` and kept for the process.  Nothing else is kept between calls:
each call reads and validates its ``--input`` file again.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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

# CPython's builtin sha256, as random.py takes its sha512: hashlib would load
# OpenSSL's libcrypto, megabytes resident, to hash a few KB per report.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython before 3.12
    except ImportError:
        from hashlib import sha256

PROBLEM_KINDS = ("mst", "path", "cut", "vc")
ALGORITHMS = ("sweep", "binary", "parametric", "fixed")


def ingest(path: str):
    """Load and validate an instance file.

    The format is a JSON object with fields: kind ("mst"|"path"|"cut"|"vc"),
    relaxed (bool), nodes (int), edges (list of {"u", "v", "w1", "w2"}),
    optional source/sink for path and cut instances, and vertex_weights
    (list of {"w1", "w2"}) for vertex-cover instances.  All rationals are
    "p/q" strings of ASCII digits; vertex-cover edges carry no weights.
    The file is read as bytes, so ``json`` detects UTF-8, -16 or -32
    whatever the locale.
    """
    try:
        with open(path, "rb") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or bytes, or an int past Python's digit limit
        raise ParseError(f"{path}: malformed JSON: {exc}") from None
    return instance_from_dict(data)


def _typed(value, kind, where):
    # Exact types: json.load makes no subclasses, and a JSON true/false (a
    # bool, an int subclass) is never a count or a node.
    if type(value) is not kind:
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


def _checked_ends(entry, where):
    return (_field(entry, "u", int, where), _field(entry, "v", int, where))


def _parse_pair(entry, where):
    return (_rational_field(entry, "w1", where), _rational_field(entry, "w2", where))


# The unchecked readers: each takes an entry known to be a dict, tests
# every field's type once, and returns None at the first field that is
# missing, mistyped or not p/q.  Only then are the entries read again by
# the ``_field`` readers above, whose error names that fault.


def _ends(entry):
    u, v = entry.get("u"), entry.get("v")
    return (u, v) if type(u) is int and type(v) is int else None


def _pair(entry):
    w1, w2 = entry.get("w1"), entry.get("w2")
    if type(w1) is str and type(w2) is str:
        try:
            return parse_rational(w1), parse_rational(w2)
        except ParseError:
            pass
    return None


def _read_entries(entries, read, checked, name):
    """``read`` of every entry; if it fails on one, ``checked`` of each, which raises."""
    out = [read(e) if type(e) is dict else None for e in entries]
    if None in out:
        out = [checked(e, f"{name}[{i}]") for i, e in enumerate(entries)]
    return out


def instance_from_dict(data):
    kind = _field(data, "kind", str)
    if kind not in PROBLEM_KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    relaxed = _typed(data.get("relaxed", False), bool, "relaxed")
    nodes = _field(data, "nodes", int)
    edges_raw = _field(data, "edges", list)
    if kind != "vc" and nodes > 2 * len(edges_raw) + 2:  # before any per-node allocation
        raise ParseError(f"nodes: {nodes} is more than the edges, source and sink can name")
    ends = _read_entries(edges_raw, _ends, _checked_ends, "edges")
    try:
        if kind == "vc":
            weights_raw = _field(data, "vertex_weights", list)
            weights = _read_entries(weights_raw, _pair, _parse_pair, "vertex_weights")
            return VertexWeightedGraph(nodes, tuple(ends), tuple(weights), relaxed=relaxed)
        pairs = _read_entries(edges_raw, _pair, _parse_pair, "edges")
        edges = [(u, v, pair) for (u, v), pair in zip(ends, pairs)]
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
    return sha256(canonical.encode()).hexdigest()


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


@contextlib.contextmanager
def _long_integers():
    """Lift Python's int-to-str digit limit (3.11+) while a report is formatted.

    Grid weights (1+eps)**i reach tens of thousands of digits at eps = 1/1000,
    and every record prints the weight that produced it.  The limit guards
    against slow conversions of untrusted text, so it is lifted only after
    the instance file and the flags have been parsed, and restored after.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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
    with _long_integers():
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
            report["no_certificate"] = {
                "records": [_record_dict(r) for r in exc.records],
                "oracle_calls": len(exc.records),
                "f1_limit": format_rational(exc.f1_limit),
                "min_f1": format_rational(min(r.image.f1 for r in exc.records)),
            }
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
    with _long_integers():
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared for the process.

    It holds no state of a call: ``parse_args`` fills a new namespace each
    time.  Building it costs about as much as a small Pareto curve, and it
    is not built at import, which the benchmark's set-up time includes.
    """
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
