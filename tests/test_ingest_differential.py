"""Differential tests of instance ingestion against the field-by-field reader it replaced.

``reference_instance_from_dict`` below is the earlier reader: one
``_field`` call, with its dict and type checks, per field of every entry,
and ``Fraction(text)`` per rational.  The one-pass reader in ``bicrit.cli``
must give the same instance, or raise the same exception type with the
same message, on every input: the fuzzer's mutations of ``instances/``,
random instances, and ASCII ``p/q`` strings.  Stdlib ``random`` only.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from _suite import (
    random_cut_instance,
    random_mst_instance,
    random_path_instance,
    random_relaxed_instance,
    random_vc_instance,
)
from test_cli_fuzz import RATIONALS, _demos, mutate

from bicrit.cli import PROBLEM_KINDS, instance_from_dict, serialize_instance
from bicrit.core import CostPair, parse_rational
from bicrit.errors import ParseError, ValidationError
from bicrit.problems import BiweightedGraph, VertexWeightedGraph

SEED = 20261019

# The reference reader, as it stood before the one-pass reader.

_REFERENCE_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def reference_parse_rational(text):
    if not isinstance(text, str) or not _REFERENCE_RE.match(text):
        raise ParseError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise ParseError(f"too many digits in a {len(text)}-character rational") from None


def _typed(value, kind, where):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _field(data, name, kind, where=""):
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
        return reference_parse_rational(text)
    except ParseError as exc:
        raise ParseError(f"{where}.{name}: {exc}") from None


def _parse_pair(entry, where):
    return (_rational_field(entry, "w1", where), _rational_field(entry, "w2", where))


def reference_instance_from_dict(data):
    kind = _field(data, "kind", str)
    if kind not in PROBLEM_KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    relaxed = _typed(data.get("relaxed", False), bool, "relaxed")
    nodes = _field(data, "nodes", int)
    edges_raw = _field(data, "edges", list)
    if kind != "vc" and nodes > 2 * len(edges_raw) + 2:
        raise ParseError(f"nodes: {nodes} is more than the edges, source and sink can name")
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


# The comparison.


def outcome(reader, data):
    """The instance, or the (type, message) of the ParseError or ValidationError raised."""
    try:
        return reader(data)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same(data):
    expected = outcome(reference_instance_from_dict, data)
    assert outcome(instance_from_dict, data) == expected, data
    return expected


def _random_instances(rng):
    """Serialized random instances of every kind, some with non-reduced or signed weights."""
    makers = [
        lambda: random_mst_instance(rng, rng.randint(2, 7), rng.randint(0, 3)),
        lambda: random_path_instance(rng, rng.randint(2, 7)),
        lambda: random_cut_instance(rng, rng.randint(2, 7)),
        lambda: random_vc_instance(rng, rng.randint(2, 6)),
        lambda: random_relaxed_instance(rng, rng.choice(("mst", "path", "cut", "vc")), 5),
    ]
    data = serialize_instance(rng.choice(makers)())
    entries = data.get("vertex_weights") or data["edges"]
    for entry in rng.sample(entries, min(2, len(entries))):
        value, factor = Fraction(entry["w1"]), rng.randint(2, 9)
        prefix = rng.choice(["+", "", "0"])
        entry["w1"] = f"{prefix}{value.numerator * factor}/{value.denominator * factor}"
    return data


def test_fuzzed_instance_files_read_the_same():
    rng = random.Random(SEED)
    demos = _demos()
    kinds = {"accepted": 0, "parse": 0, "validation": 0}
    for _ in range(3000):
        data = demos[rng.choice(sorted(demos))]
        for _ in range(rng.randint(1, 3)):  # several faults test which one is reported
            data = mutate(rng, data)
        result = assert_same(data)
        if isinstance(result, tuple):
            kinds["parse" if result[0] is ParseError else "validation"] += 1
        else:
            kinds["accepted"] += 1
    assert min(kinds.values()) > 100, kinds


def test_random_instances_read_the_same():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        data = _random_instances(rng)
        for _ in range(rng.randint(0, 2)):
            data = mutate(rng, data)
        assert_same(data)


def test_unmutated_demos_read_the_same():
    for data in _demos().values():
        instance = assert_same(data)
        assert isinstance(instance, (BiweightedGraph, VertexWeightedGraph))


def _ascii_rational(rng):
    def digits():
        return "0" * rng.choice((0, 0, 1, 3)) + str(rng.randint(0, 10 ** rng.randint(1, 40)))

    text = rng.choice(("", "+", "-")) + digits()
    if rng.random() < 0.7:
        text += "/" + digits()
    return text


def test_ascii_p_q_matches_fraction():
    rng = random.Random(SEED + 2)
    for _ in range(5000):
        text = _ascii_rational(rng)
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ParseError, match="zero denominator"):
                parse_rational(text)
            continue
        value = parse_rational(text)
        assert type(value) is Fraction and value == expected, text
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", RATIONALS + ["+0", "-0/7", "007/010", "1/" + "7" * 4400])
def test_listed_rationals_parse_as_before(text):
    assert outcome(parse_rational, text) == outcome(reference_parse_rational, text)


def test_short_ascii_strings_parse_as_before_except_a_final_newline():
    rng = random.Random(SEED + 3)
    for _ in range(20000):
        text = "".join(rng.choice("0123456789+-/ ._e\n") for _ in range(rng.randint(0, 5)))
        if text.endswith("\n"):  # the old pattern's $ matched before a final newline
            with pytest.raises(ParseError, match="not a p/q rational"):
                parse_rational(text)
        else:
            assert outcome(parse_rational, text) == outcome(reference_parse_rational, text)


def test_cost_pair_signs_match_fraction_comparison():
    rng = random.Random(SEED + 4)
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(40)] + [0, -1, 2]
    for a in values:
        for b in values:
            if a < 0 or b < 0:
                with pytest.raises(ValueError, match="nonnegative"):
                    CostPair(a, b)
            else:
                assert CostPair(a, b) == CostPair(Fraction(a), Fraction(b))


def test_positivity_matches_fraction_comparison():
    rng = random.Random(SEED + 5)
    for _ in range(500):
        relaxed = rng.random() < 0.5
        pairs = [
            tuple(Fraction(rng.choice((0, 0, 1, 3)), rng.randint(1, 3)) for _ in range(2))
            for _ in range(3)
        ]
        if not relaxed and any(w <= 0 for pair in pairs for w in pair):
            expected = "not relaxed"
        elif not any(w1 > 0 for w1, _ in pairs) or not any(w2 > 0 for _, w2 in pairs):
            expected = "no positive vertex weight"
        else:
            expected = None
        if expected is None:
            VertexWeightedGraph(3, ((0, 1),), tuple(pairs), relaxed=relaxed)
        else:
            with pytest.raises(ValidationError, match=expected):
                VertexWeightedGraph(3, ((0, 1),), tuple(pairs), relaxed=relaxed)
