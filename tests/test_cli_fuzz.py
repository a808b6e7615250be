"""Seeded fuzzing of the CLI boundary: mutated instance files and flag strings.

Every case runs ``bicrit.cli.main`` in process on a mutation of one file in
``instances/`` and random ``solve-budget`` or ``pareto`` flags.  It must end
in a documented exit code (0, 2, 3 or 4) without an uncaught exception,
and every instance the parser accepts must survive
``instance_from_dict(serialize_instance(...))`` unchanged.  Valid epsilons
stay coarse (at least 1/4) and valid weights below about 2**200, so each
case ends in milliseconds.  Stdlib ``random`` only.  Each crash the fuzzer
has found is kept below as a named regression test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from bicrit.cli import main
from bicrit.errors import ParseError, ValidationError
from bicrit.formats import instance_from_dict, serialize_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
SEED = 20261018
CASES = 400

RATIONALS = [
    "0", "1", "2", "3", "7/2", "1/3", "2/4", "5/1", "1/1000000007", "0/5", "-1", "-3/2",
    "3/0", "1.5", "1e3", "", "x", " 1", "2**3", str(2**200), f"1/{3**120}",
    f"{2**150 + 1}/{3**90}", "9" * 4400,
]  # fmt: skip
ODD_VALUES = [None, True, False, 0, -1, 1, 2, 3.5, "1", "", [], {}, [1, 2], {"u": 0}, 10**30]
LONG = "7" * 4400  # past Python's int-from-str digit limit
BUDGETS = ["1", "2", "3", "5", "9/2", "1/2", "1/1000", "100", "0", "-1", "1/0", "abc", "2.5", LONG]
EPSILONS = ["1", "1/2", "1/3", "1/4", "0", "2", "-1/2", "5/4", "x", "1/0", f"1/{LONG}"]
KINDS = ["mst", "path", "cut", "vc", "tree"]
ALGORITHMS = ["sweep", "binary", "parametric", "fixed", "greedy"]


def _demos():
    return {p.name: json.loads(p.read_text()) for p in sorted(INSTANCE_DIR.glob("*.json"))}


def _mutate_entry(rng, entry):
    """One random change to an edge or vertex-weight object."""
    key = rng.choice(sorted(entry) + ["w1", "w2", "extra"])
    move = rng.random()
    if move < 0.5 and key in ("w1", "w2"):
        entry[key] = rng.choice(RATIONALS)
    elif move < 0.65:
        entry.pop(key, None)
    elif move < 0.8 and key in ("u", "v"):
        entry[key] = rng.choice([0, 1, 2, 3, 4, 5, -1, 99])
    else:
        entry[key] = rng.choice(ODD_VALUES)


def mutate(rng, data):
    """A copy of an instance dict with one to three random changes."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        move = rng.random()
        lists = [k for k in ("edges", "vertex_weights") if isinstance(data.get(k), list)]
        if move < 0.45 and lists:
            items = data[rng.choice(lists)]
            if items and isinstance(items[0], dict):
                entry = rng.choice(items)
                if isinstance(entry, dict):
                    _mutate_entry(rng, entry)
        elif move < 0.55 and lists:
            items = data[rng.choice(lists)]
            if items:
                if rng.random() < 0.5:
                    items.append(copy.deepcopy(rng.choice(items)))  # a parallel edge
                else:
                    items.pop(rng.randrange(len(items)))
        elif move < 0.65:
            data["relaxed"] = rng.choice([True, False, True, "true", 1, None])
        elif move < 0.75:
            data["nodes"] = rng.choice([0, 1, 2, 3, 4, 5, 13, -2, 10**6, "3", 2.0])
        elif move < 0.85:
            key = rng.choice(["source", "sink"])
            data[key] = rng.choice([0, 1, 2, 3, -1, 7, None, "0", True])
        elif move < 0.92:
            data["kind"] = rng.choice(KINDS + [None, 3])
        else:
            key = rng.choice(sorted(data))
            if rng.random() < 0.5:
                data.pop(key)
            else:
                data[key] = rng.choice(ODD_VALUES)
    return data


def random_argv(rng, path, kind):
    """Flags for ``solve-budget`` or ``pareto`` on ``path``; mostly the file's own kind."""
    problem = kind if kind in KINDS[:4] and rng.random() < 0.85 else rng.choice(KINDS)
    eps = rng.choice(EPSILONS)
    if rng.random() < 0.6:
        algorithm = rng.choice(ALGORITHMS)
        argv = ["solve-budget", "--problem", problem, "--algorithm", algorithm]
        argv += ["--budget", rng.choice(BUDGETS)]
        if algorithm != "fixed" or rng.random() < 0.3:
            argv += ["--epsilon", eps]
    else:
        argv = ["pareto", "--problem", problem, "--epsilon", eps]
        if rng.random() < 0.3:
            argv.append("--parametric")
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(["json", "csv", "xml"])]
    if rng.random() < 0.3:
        argv.append("--verify")
    return [*argv, "--input", path]


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI call; an uncaught exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def check_case(tmp_path, data, argv_for):
    """Run one mutated instance; return the parsed instance or None when rejected."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    try:
        instance = instance_from_dict(data)
    except (ParseError, ValidationError):
        instance = None
    if instance is not None:
        assert instance_from_dict(serialize_instance(instance)) == instance
    argv = argv_for(str(path), instance.kind if instance is not None else data.get("kind"))
    code, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (argv, data, code, err)
    assert "Traceback" not in err, (argv, data, err)
    if instance is None:
        assert code in (2, 4), (argv, data, code)
    return instance


def test_fuzzed_instances_and_flags(tmp_path):
    rng = random.Random(SEED)
    demos = _demos()
    accepted = 0
    for _ in range(CASES):
        data = mutate(rng, demos[rng.choice(sorted(demos))])
        instance = check_case(tmp_path, data, lambda path, kind: random_argv(rng, path, kind))
        accepted += instance is not None
    # Enough mutations stay valid for the solvers, not only the parser, to be fuzzed.
    assert CASES // 10 < accepted < CASES


# Regression tests: inputs the fuzzer above made crash, each fixed.


@pytest.mark.parametrize("flag, value", [("--budget", LONG), ("--epsilon", f"1/{LONG}")])
def test_flag_rational_past_the_digit_limit_exits_two(flag, value):
    # Fraction("7" * 4400) raised ValueError from Python's digit limit,
    # which escaped as a traceback instead of a usage error.
    argv = ["solve-budget", "--problem", "mst", "--budget", "3", "--epsilon", "1/2"]
    argv[argv.index(flag) + 1] = value
    code, err = run_cli([*argv, "--input", str(INSTANCE_DIR / "demo_mst_a.json")])
    assert code == 2 and "Traceback" not in err
    assert "too many digits" in err

