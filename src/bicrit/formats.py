"""The instance file format, its canonical form and digest, and the report layout.

An instance file is a JSON object (see ``cli.ingest``); every rational in
it is a "p/q" string.  ``instance_from_dict`` parses each distinct text
once into a reduced int pair and hands the pairs to the graphs'
``from_ratios``, so no ``Fraction`` or ``CostPair`` is made per weight.
The canonical form of an instance is JSON with keys sorted and no
spaces.  ``_canonical_json`` is its only writer: it derives the canonical
text of each distinct int pair with ``ratio_text`` and writes the form in
one join.  ``instance_digest`` hashes it and ``serialize_instance`` reads
it back as a dict, so an instance read from a file and one built by the
constructors from the same weights have one digest.  A report holds ints
and ``Fraction``s: only ``report_json`` and ``curve_csv`` write them as text.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from fractions import Fraction

from .core import format_rational, parse_ratio, ratio_text
from .errors import ParseError, ValidationError
from .problems import BiweightedGraph, VertexWeightedGraph
from .problems.graphs import GRAPH_KINDS

# CPython's builtin sha256, as random.py takes its sha512: hashlib would load
# OpenSSL's libcrypto, megabytes resident, to hash a few KB per report.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython before 3.12
    except ImportError:
        from hashlib import sha256

PROBLEM_KINDS = (*GRAPH_KINDS, "vc")


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
        return parse_ratio(text)
    except ParseError as exc:
        raise ParseError(f"{where}.{name}: {exc}") from None


def _checked_ends(entry, where):
    return (_field(entry, "u", int, where), _field(entry, "v", int, where))


def _checked_weights(entry, where):
    return tuple([_rational_field(entry, name, where) for name in ("w1", "w2")])


# The ends are read by one C-level pass over the whole list, which
# returns None at the first entry that is not a dict or whose u or v is
# missing or not an int; only then are the entries read again, one by
# one, by ``_checked_ends``, whose error names that fault.  The weights'
# loop is Python anyway, so it names a faulty entry where it finds it.

_ENDS = operator.itemgetter("u", "v")
_WEIGHTS = operator.itemgetter("w1", "w2")


def _read_ends(entries):
    """Each entry's (u, v), or None."""
    try:
        ends = list(map(_ENDS, entries))
    except (KeyError, TypeError):  # not a dict, or a field missing
        return None
    return ends if set(map(type, itertools.chain.from_iterable(ends))) <= {int} else None


def _ends(entries, name):
    ends = _read_ends(entries)
    if ends is None:
        ends = [_checked_ends(e, f"{name}[{i}]") for i, e in enumerate(entries)]
    return ends


def _weights(entries, name):
    """Per entry, its w1 and w2 as reduced (p, q) pairs.

    A file's weights repeat, so each distinct text is parsed once.  At the
    first faulty entry ``_checked_weights`` raises the error that names it.
    """
    seen = {}  # text -> (p, q); parse_ratio refuses any w that is not a str
    ratios = []
    for i, entry in enumerate(entries):
        try:
            w1, w2 = _WEIGHTS(entry)
            a = seen.get(w1)
            if a is None:
                a = seen[w1] = parse_ratio(w1)
            b = seen.get(w2)
            if b is None:
                b = seen[w2] = parse_ratio(w2)
        except (KeyError, TypeError, ParseError):  # not a dict, a field missing, or not p/q
            a, b = _checked_weights(entry, f"{name}[{i}]")
        ratios.append((a, b))
    return ratios


def instance_from_dict(data):
    kind = _field(data, "kind", str)
    if kind not in PROBLEM_KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    relaxed = _typed(data.get("relaxed", False), bool, "relaxed")
    nodes = _field(data, "nodes", int)
    edges_raw = _field(data, "edges", list)
    if kind != "vc" and nodes > 2 * len(edges_raw) + 2:  # before any per-node allocation
        raise ParseError(f"nodes: {nodes} is more than the edges, source and sink can name")
    ends = _ends(edges_raw, "edges")
    if kind == "vc":
        ratios = _weights(_field(data, "vertex_weights", list), "vertex_weights")
        graph_type = VertexWeightedGraph
    else:
        ratios = _weights(edges_raw, "edges")
        graph_type = BiweightedGraph
    source, sink = _optional_int(data, "source"), _optional_int(data, "sink")
    try:
        instance = graph_type.from_ratios(nodes, ends, ratios, kind, source, sink, relaxed)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    if kind == "mst" and not instance.is_connected():
        raise ValidationError("spanning-tree instance is not connected")
    if kind == "cut" and not relaxed and not instance.is_connected():
        raise ValidationError(
            "strict cut instance must be connected (a zero-capacity cut needs relaxed=true)"
        )
    if kind == "vc" and not relaxed and not instance.edges:
        raise ValidationError(
            "strict vertex-cover instance needs an edge (an empty cover needs relaxed=true)"
        )
    return instance


def _canonical_json(instance) -> str:
    """The canonical form of an instance: JSON with sorted keys and no spaces, in one join."""
    # A file's weights repeat: write each distinct pair's text once.
    text = {r: ratio_text(*r) for r in {r for pair in instance.ratios for r in pair}}
    texts = [(text[a], text[b]) for a, b in instance.ratios]
    relaxed = "true" if instance.relaxed else "false"
    head = f'"kind":"{instance.kind}","nodes":{instance.node_count},"relaxed":{relaxed}'
    if instance.kind == "vc":
        edges = ",".join([f'{{"u":{u},"v":{v}}}' for u, v in instance.edges])
        weights = ",".join([f'{{"w1":"{a}","w2":"{b}"}}' for a, b in texts])
        return f'{{"edges":[{edges}],{head},"vertex_weights":[{weights}]}}'
    edges = ",".join(
        [
            f'{{"u":{u},"v":{v},"w1":"{a}","w2":"{b}"}}'
            for (u, v), (a, b) in zip(instance.edges, texts)
        ]
    )
    if instance.source is not None:
        head += f',"sink":{instance.sink},"source":{instance.source}'
    return f'{{"edges":[{edges}],{head}}}'


def serialize_instance(instance) -> dict:
    """The canonical form as a dict; inverse of ``instance_from_dict``."""
    return json.loads(_canonical_json(instance))


def instance_digest(instance) -> str:
    """SHA-256 of the instance's canonical JSON."""
    return sha256(_canonical_json(instance).encode()).hexdigest()


def _long_integers(write):
    """``write`` with Python's int-to-str digit limit (3.11+) lifted while it runs.

    Grid weights (1+eps)**i reach tens of thousands of digits at eps = 1/1000,
    and every record prints the weight that produced it.  An image's
    denominator is the lcm of its weights' denominators, so it can be longer
    than any number in the instance file, whatever the weights.  The limit
    guards against slow conversions of untrusted text, so only the report
    writers lift it, after the instance file and the flags were parsed.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return write

    @functools.wraps(write)
    def lifted(*args):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return write(*args)
        finally:
            sys.set_int_max_str_digits(saved)

    return lifted


_encode_str = json.encoder.encode_basestring_ascii


def _fraction_json(value):
    return f'"{ratio_text(value.numerator, value.denominator)}"'


_LEAF_WRITERS = {int: int.__repr__, str: _encode_str, Fraction: _fraction_json}


@_long_integers
def report_json(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, each Fraction written as "p/q".

    For what a report holds: dicts with str keys, lists, tuples, strs,
    ints, Fractions, floats, bools and None, of exactly those types.  With
    an indent, ``json`` takes its pure-Python encoder, which builds mutually
    recursive closures on every call: slower, and a reference cycle per
    report.  Strings go through the C ``encode_basestring_ascii`` that
    ``json.dumps`` uses by default.
    """
    return _json(report, "")


@_long_integers
def curve_csv(records) -> str:
    """A curve as CSV: the header "f1,f2", then each record's image as "p/q" texts."""
    rows = [f"{format_rational(r.image.f1)},{format_rational(r.image.f2)}" for r in records]
    return "\n".join(["f1,f2", *rows])


def _json(value, pad) -> str:
    """``report_json`` of ``value``, written at indent ``pad``."""
    kind = type(value)
    leaf = _LEAF_WRITERS.get(kind)
    if leaf is not None:
        return leaf(value)
    if kind is dict or kind is list or kind is tuple:
        opening, closing = "{}" if kind is dict else "[]"
        if not value:
            return opening + closing
        inner = pad + "  "
        if kind is dict:
            items = [f"{_encode_str(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        else:
            kinds = set(map(type, value))
            leaf = _LEAF_WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
            items = map(leaf, value) if leaf else [_json(v, inner) for v in value]
        return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closing}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
