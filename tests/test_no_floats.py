"""A static check that keeps floating point out of ``src/bicrit``.

The runtime ``rational()`` coercions refuse floats where values enter the
public types; this walk refuses them in the source itself, function bodies
included, so no code path can produce one unseen.  Forbidden anywhere:
float and complex literals, calls to ``float`` or ``complex``, ``math``
names other than the exact integer ones, and imports of ``decimal``,
``statistics``, ``random`` and ``cmath``.  Clock calls are allowed only in
``cli``, where they time a report's ``wall_time_ms``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bicrit

SOURCE = Path(bicrit.__file__).parent
EXACT_MATH = {"gcd", "lcm", "floor", "ceil", "isfinite"}
INEXACT_MODULES = {"decimal", "statistics", "random", "cmath"}


def _hits(tree, clock_allowed=False):
    """(line, what) for every forbidden construct in the parsed module ``tree``."""
    math_names, time_names, clocks = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "math":
                    math_names.add(bound)
                elif alias.name == "time":
                    time_names.add(bound)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            clocks.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield line, f"{type(node.value).__name__} literal {node.value!r}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("float", "complex"):
                yield line, f"call to {func.id}"
            is_clock = (isinstance(func, ast.Name) and func.id in clocks) or (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in time_names
            )
            if is_clock and not clock_allowed:
                yield line, "clock call"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in math_names and node.attr not in EXACT_MATH:
                yield line, f"math.{node.attr}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    yield line, f"import of {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in INEXACT_MODULES:
                yield line, f"import of {module}"
            if module == "math":
                for alias in node.names:
                    if alias.name not in EXACT_MATH:
                        yield line, f"math.{alias.name}"


def test_no_module_of_the_package_uses_floating_point():
    modules = sorted(SOURCE.rglob("*.py"))
    assert {"cli.py", "core.py", "oracle.py", "graphs.py"} <= {m.name for m in modules}
    hits = [
        (str(module.relative_to(SOURCE)), line, what)
        for module in modules
        for line, what in _hits(ast.parse(module.read_text()), module.name == "cli.py")
    ]
    assert hits == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "def f(y):\n    return float(y)",
        "def f(y):\n    return complex(y, 0)",
        "from math import log",
        "import math\n\ndef f(y):\n    return math.sqrt(y)",
        "import math as m\nm.exp(1)",
        "import random",
        "from decimal import Decimal",
        "import statistics",
        "from cmath import phase",
        "import time\n\ndef f():\n    return time.perf_counter()",
        "from time import monotonic as now\nnow()",
    ],
)
def test_each_rule_catches_its_construct(source):
    assert list(_hits(ast.parse(source)))

