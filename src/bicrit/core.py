"""Exact arithmetic, shared domain types, and the problem-adapter contract.

All objective values, weights, and accuracy parameters are exact rationals
(`fractions.Fraction`).  There is no floating point anywhere in the
algorithmic path: guarantee factors such as (1 + 2/eps) and the
counterexample reproductions require exact comparisons.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .errors import ExactOracleRequired, ParseError

Rational = Fraction

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational(value) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats are rejected: silently converting one would smuggle binary
    rounding into the exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {type(value).__name__}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or plain "p") string of ASCII digits, strictly.

    Decimal and scientific notations are rejected so that instance files
    stay bit-exact under any JSON reader, and so are spaces, underscores,
    a trailing newline and non-ASCII digits, all of which ``int`` and
    ``Fraction`` would accept: the pattern, not ``int``, is the gate.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ParseError(f"not a p/q rational: {text!r}")
    numerator, denominator = match.groups()
    try:
        if denominator is None:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:  # a number past Python's int-from-str digit limit
        raise ParseError(f"too many digits in a {len(text)}-character rational") from None


def format_rational(value: Fraction) -> str:
    """Serialize a rational as reduced "p/q", or "p" when the denominator is 1."""
    value = rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def check_epsilon(eps) -> Fraction:
    """Validate the accuracy parameter regime 0 < eps <= 1."""
    eps = rational(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must satisfy 0 < eps <= 1, got {eps}")
    return eps


def check_weight(gamma) -> Fraction:
    """Validate a weighted-sum weight gamma > 0."""
    gamma = rational(gamma)
    if gamma <= 0:
        raise ValueError(f"weight must be positive, got {gamma}")
    return gamma


def pow_one_plus_eps(eps, i: int) -> Fraction:
    """Exact (1 + eps)**i for a signed integer exponent."""
    return (1 + rational(eps)) ** i


def floor_log(base: Fraction, value) -> int:
    """Largest integer i with base**i <= value, by exact comparison.

    Galloping search with exact integer comparisons, no logarithms, so the
    floor semantics are exact: square the base while the square stays
    within the target, then multiply the squares back in from the largest
    down, keeping each that stays within it.  That is O(log |i|)
    multiplications instead of |i|.  Powers of a reduced p/q are kept as
    integer pairs (p**n, q**n), which are reduced already, and compared by
    cross-multiplication, so no gcd of the long powers is ever taken.
    Requires base > 1 and value > 0.
    """
    base = rational(base)
    value = rational(value)
    if base <= 1 or value <= 0:
        raise ValueError("floor_log requires base > 1 and value > 0")
    # For value < 1 find the largest j with base**j <= 1/value instead;
    # the answer is -j when base**j hits 1/value exactly, else -(j+1).
    target = value if value >= 1 else 1 / value
    a, b = target.numerator, target.denominator
    squares = []  # base**(2**k) as (num, den), each <= target
    num, den = base.numerator, base.denominator
    while num * b <= a * den:
        squares.append((num, den))
        num, den = num * num, den * den
    i, num, den = 0, 1, 1
    for k in reversed(range(len(squares))):
        sq_num, sq_den = squares[k]
        if num * sq_num * b <= a * den * sq_den:
            num, den = num * sq_num, den * sq_den
            i += 1 << k
    if value >= 1:
        return i
    return -i if num * b == a * den else -(i + 1)


def ceil_log(base: Fraction, value) -> int:
    """Smallest integer i with base**i >= value, by exact comparison."""
    return -floor_log(base, 1 / rational(value))


@dataclass(frozen=True)
class CostPair:
    """The image (f1(x), f2(x)) of a solution, in exact cost units."""

    f1: Fraction
    f2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "f1", rational(self.f1))
        object.__setattr__(self, "f2", rational(self.f2))
        # Signs on the int numerators: a Fraction comparison pays an ABC check.
        if self.f1.numerator < 0 or self.f2.numerator < 0:
            raise ValueError(f"cost components must be nonnegative, got {self}")

    def weighted(self, gamma) -> Fraction:
        """The weighted-sum value f1 + gamma * f2."""
        return self.f1 + rational(gamma) * self.f2

    def __add__(self, other: "CostPair") -> "CostPair":
        return CostPair(self.f1 + other.f1, self.f2 + other.f2)


def dominates(a: CostPair, b: CostPair) -> bool:
    """True iff image a dominates image b: a <= b componentwise and a != b."""
    return a.f1 <= b.f1 and a.f2 <= b.f2 and a != b


@dataclass(frozen=True)
class Bounds:
    """Per-dimension bounds lb_i <= f_i(x) <= ub_i over feasible solutions.

    Under the relaxed (nonnegative-cost) regime the bounds cover only the
    strictly positive objective values, which is what the weight grids
    need.
    """

    lb1: Fraction
    ub1: Fraction
    lb2: Fraction
    ub2: Fraction

    def __post_init__(self):
        for name in ("lb1", "ub1", "lb2", "ub2"):
            object.__setattr__(self, name, rational(getattr(self, name)))
        if not (0 < self.lb1 <= self.ub1 and 0 < self.lb2 <= self.ub2):
            raise ValueError(f"bounds must satisfy 0 < lb_i <= ub_i, got {self}")


@dataclass(frozen=True)
class SolutionRecord:
    """A problem-specific solution token with its exact image.

    ``produced_at`` is the weighted-sum weight gamma that produced the
    record; it is None for brute-force enumeration records.
    """

    token: Any
    image: CostPair
    produced_at: Optional[Fraction] = None


@dataclass(frozen=True)
class GuaranteeCertificate:
    """The factors a budget-constrained run promises, plus its call count.

    ``budget_factor`` bounds f1 relative to the budget B and
    ``cost_factor`` bounds f2 relative to the unknown optimum OPT(B).
    """

    alpha: Fraction
    budget_factor: Fraction
    cost_factor: Fraction
    budget: Fraction
    oracle_calls: int

    def __post_init__(self):
        for name in ("alpha", "budget_factor", "cost_factor", "budget"):
            object.__setattr__(self, name, rational(getattr(self, name)))
        if self.alpha < 1 or self.budget_factor < 1 or self.cost_factor < 1:
            raise ValueError("certificate factors must be >= 1")
        if self.oracle_calls < 1:
            raise ValueError("a successful run makes at least one oracle call")


class ProblemAdapter(ABC):
    """Contract every problem plugin implements and every algorithm consumes.

    Adapters are stateless and reentrant: concurrent ``solve_weighted_sum``
    calls on the same instance must not interfere.
    """

    @abstractmethod
    def alpha(self) -> Fraction:
        """Approximation factor of the weighted-sum oracle (>= 1, constant)."""

    @abstractmethod
    def evaluate(self, instance, token) -> CostPair:
        """Exact image of a feasible token; raises InfeasibleToken otherwise."""

    @abstractmethod
    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        """Solution whose value f1 + gamma*f2 is within alpha() of the minimum."""

    @abstractmethod
    def bounds(self, instance) -> Bounds:
        """Valid Bounds for the instance (positive values only when relaxed)."""

    def solve_all_weights(self, instance, lo, hi) -> list:
        """Records that hold an optimal solution for every weight in [lo, hi].

        Dichotomic search (Aneja and Nair, Management Science 25(1), 1979):
        solve at ``lo`` and ``hi``, then, for each pair of neighbouring
        records with distinct images, solve at the weight where their
        weighted-sum lines cross.  A record strictly below that crossing
        splits the pair in two.  Otherwise both records are optimal at the
        crossing, and since the lower envelope of the lines is concave,
        each stays optimal on its side of it.  Every split finds a new
        image and every pair ends with one call, so the search makes at
        most 2k oracle calls for the k distinct images it returns; every
        record solved is returned, one per call.  The stopping rule needs
        an exact oracle, so ExactOracleRequired is raised otherwise.
        """
        if self.alpha() != 1:
            raise ExactOracleRequired("the all-weights search needs an exact oracle")
        left = self.solve_weighted_sum(instance, lo)
        right = self.solve_weighted_sum(instance, hi)
        records = [left, right]
        pending = [(left, right)]
        while pending:
            a, b = pending.pop()
            if a.image == b.image:
                continue
            # Exact answers at weights lo <= hi give a.f1 < b.f1 and a.f2 > b.f2.
            crossing = (b.image.f1 - a.image.f1) / (a.image.f2 - b.image.f2)
            middle = self.solve_weighted_sum(instance, crossing)
            records.append(middle)
            if middle.image.weighted(crossing) < a.image.weighted(crossing):
                pending += [(a, middle), (middle, b)]
        return records


class ParametricAdapter(ProblemAdapter):
    """Adapter whose weighted-sum oracle can run symbolically over linear weights.

    The plugin re-expresses its algorithm over ``LinearValue`` quantities
    with every value comparison routed through an injected three-way
    comparator; the returned solution must depend on gamma only through
    those comparison outcomes.  An exact oracle's run drives
    ``parametric_search``; an approximate one's, the symbolic grid walk of
    ``sweep.solve_grid``.
    """

    @abstractmethod
    def run_parametric(self, instance, compare):
        """Run the weighted-sum algorithm with ``compare``; return the token."""
