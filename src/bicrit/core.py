"""Exact arithmetic, shared domain types, and the problem-adapter contract.

Every number is exact.  There is no floating point anywhere in the
algorithmic path: guarantee factors such as (1 + 2/eps) and the
counterexample reproductions require exact comparisons.  An instance
file's weights are read as reduced int pairs (``parse_ratio``) and stay
ints in the oracles (``problems.graphs.ScaledWeights``).  Images, weights
gamma, bounds, factors and accuracy parameters are exact rationals
(`fractions.Fraction`); a report holds them as such until ``formats``
writes each as its reduced "p/q" text (``ratio_text``).
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from operator import attrgetter
from typing import Any, Optional

from .errors import ExactOracleRequired, ParseError

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational(value) -> Fraction:
    """Coerce an int, a "p/q" string (``parse_rational``), or a Fraction to an exact Fraction.

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
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_ratio(text: str) -> tuple:
    """Parse a "p/q" (or plain "p") string of ASCII digits into reduced ints (p, q), q > 0.

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
        p = int(numerator)
        if denominator is None:
            return p, 1
        q = int(denominator)
    except ValueError:  # a number past Python's int-from-str digit limit
        raise ParseError(f"too many digits in a {len(text)}-character rational") from None
    if q == 0:
        raise ParseError(f"zero denominator: {text!r}")
    g = gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """``parse_ratio`` as a Fraction, for the flags and the library."""
    return Fraction(*parse_ratio(text))


def ratio_text(p: int, q: int) -> str:
    """The canonical text of the reduced ratio p/q: "p/q", or "p" when q is 1."""
    return str(p) if q == 1 else f"{p}/{q}"


def format_rational(value: Fraction) -> str:
    """Serialize a rational as reduced "p/q", or "p" when the denominator is 1."""
    value = rational(value)
    return ratio_text(value.numerator, value.denominator)


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


ratio_of = attrgetter("numerator", "denominator")  # a Fraction as its int pair (n, d)


class Grid:
    """The weights (1+eps)**i, i any integer, of one query's accuracy parameter eps.

    A query builds one and hands it to every grid helper, so eps is
    checked once, here.  The base 1 + p/q is held as the reduced int pair
    (q + p, q), and its squares base**(2**k) are built on the first search
    that needs them and kept: every index search of the query multiplies
    the same table (the powers of one base, Knuth, TAOCP vol. 2, 4.6.3).
    Powers of a reduced base are reduced already, so no gcd of the long
    powers is ever taken.
    """

    __slots__ = ("eps", "_base", "_squares")

    def __init__(self, eps):
        self.eps = check_epsilon(eps)
        p, q = ratio_of(self.eps)
        self._base = Fraction(q + p, q)
        self._squares = [(q + p, q)]  # base**(2**k) as (num, den), k = 0, 1, ...

    def weight(self, i: int) -> Fraction:
        """(1+eps)**i; a Fraction's int power raises the reduced pair with no gcd."""
        return self._base**i

    def index(self, ratio: tuple) -> tuple[int, bool]:
        """The largest i with (1+eps)**i <= n/d, ``ratio`` = (n, d) positive, and whether equal.

        The grid's ceiling, the smallest i with (1+eps)**i >= n/d, is then
        ``i + (not exact)``.  For n/d < 1 it finds the largest j with
        base**j <= d/n instead: the answer is -j when the two are equal,
        else -(j+1).
        """
        n, d = ratio
        if n >= d:
            return self._climb((1, 1), ratio, None)
        j, exact = self._climb((1, 1), (d, n), None)
        return -j - (not exact), exact

    def index_between(self, ratio: tuple, i: int, start: tuple, j: int) -> tuple[int, bool]:
        """``index`` of n/d, ``ratio`` = (n, d) positive ints, known to lie in a bracket [i, j].

        Requires (1+eps)**i <= n/d <= (1+eps)**j; ``start`` is (1+eps)**i as
        an int pair, and n/d need not be reduced.  It climbs from index i,
        so no square beyond (1+eps)**(j-i) is built.
        """
        t, exact = self._climb(start, ratio, j - i)
        return i + t, exact

    def _climb(self, start: tuple, target: tuple, most) -> tuple[int, bool]:
        """The largest t >= 0 with start * base**t <= target, and whether the two are equal.

        Both are int pairs (n, d), d > 0, with start <= target; ``most``,
        unless None, is a bound on t that no square beyond it is built for.
        Galloping search: try the squares while start times the square
        stays within the target, then multiply the squares back in from the
        largest down, keeping each that stays within it: O(log t) steps.
        With start = num/den and target = a/b, start * P/Q <= target is
        num*b*P <= a*den*Q, so the climb carries the two products num*b and
        a*den and pays two long multiplications per step; the last
        comparison decides equality.
        """
        (num, den), (a, b) = start, target
        low, high = num * b, a * den
        squares = self._squares
        k, kept = 0, None
        while most is None or 1 << k <= most:
            if k == len(squares):
                p, q = squares[-1]
                squares.append((p * p, q * q))
            p, q = squares[k]
            low_p, high_q = low * p, high * q
            if low_p > high_q:
                break
            kept = low_p, high_q
            k += 1
        if kept is None:
            return 0, low == high
        (low, high), t = kept, 1 << (k - 1)
        for k in reversed(range(k - 1)):
            p, q = squares[k]
            low_p, high_q = low * p, high * q
            if low_p <= high_q:
                low, high = low_p, high_q
                t += 1 << k
        return t, low == high


def as_grid(eps) -> Grid:
    """``eps``'s ``Grid``: a Grid is passed on as it is, so its query's squares stay shared."""
    return eps if isinstance(eps, Grid) else Grid(eps)


def pow_one_plus_eps(eps, i: int) -> Fraction:
    """Exact (1 + eps)**i for a signed integer exponent; requires 0 < eps <= 1."""
    return Grid(eps).weight(i)


def grid_index(eps, value) -> tuple[int, bool]:
    """``Grid.index`` of value > 0: the largest i with (1+eps)**i <= value, and whether equal."""
    return Grid(eps).index(ratio_of(check_weight(value)))


def grid_index_between(eps, ratio: tuple, i: int, start: tuple, j: int) -> tuple[int, bool]:
    """``Grid.index_between``: ``grid_index`` of n/d, ``ratio`` = (n, d), in a bracket [i, j]."""
    return Grid(eps).index_between(ratio, i, start, j)


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


def sign_at(constant: int, slope: int, ratio: tuple) -> int:
    """The sign (-1, 0, 1) of constant + slope*gamma at gamma = n/d, ``ratio`` = (n, d), d > 0.

    It is the sign of the int constant*d + slope*n; n/d need not be reduced.
    """
    n, d = ratio
    value = constant * d + slope * n
    return (value > 0) - (value < 0)


def crossing(a: CostPair, b: CostPair) -> tuple:
    """The weight (b.f1 - a.f1)/(a.f2 - b.f2) where the lines of a and b cross, as an int pair.

    Built from the images' numerators and denominators and left
    unreduced; the pair is positive when a.f1 < b.f1 and a.f2 > b.f2.
    """
    (a1, a1d), (a2, a2d) = ratio_of(a.f1), ratio_of(a.f2)
    (b1, b1d), (b2, b2d) = ratio_of(b.f1), ratio_of(b.f2)
    return (b1 * a1d - a1 * b1d) * a2d * b2d, (a2 * b2d - b2 * a2d) * a1d * b1d


def envelope_walk(solve, split, ends, meets=None, steps=None) -> tuple:
    """Narrow brackets of weights between solved points of the lower envelope: (probes, ends).

    ``ends`` is a list of solved points, whatever ``solve`` returns, in
    increasing weight order; ``split(a, b)`` names the point to solve
    between two neighbouring ones, or None when nothing is left there.
    Without ``meets`` every bracket is split, leftmost first, and the
    returned ``ends`` are every solved point in weight order.  With
    ``meets``, ``ends`` is one bracket (meets, misses): a probe that meets
    replaces its left end, one that misses its right end, and the final
    bracket is returned.  ``steps``, unless None, caps the probes, the
    points solved, which are returned in call order.

    Why a bracket narrows.  Let an exact oracle's records A and B be
    optimal at weights w_a < w_b.  Adding f1(A) + w_a*f2(A) <= f1(B) +
    w_a*f2(B) to f1(B) + w_b*f2(B) <= f1(A) + w_b*f2(A) gives
    (w_b - w_a)(f2(B) - f2(A)) <= 0: along the weights f2 never rises and
    f1 never falls, so records within an f1 limit come first.  The
    envelope g(gamma) = min_x f1(x) + gamma*f2(x) is concave.  If A = B,
    A's line meets g at both ends, and g lies on or above that chord
    between them while never exceeding A's line, so A is optimal
    throughout; any other optimal image's line stays >= g and touches it
    inside, so it is A's line.  Otherwise A.f1 < B.f1 and A.f2 > B.f2,
    and their lines cross at a weight c in [w_a, w_b] (``crossing``, the
    dichotomic step of Aneja and Nair, Management Science 25(1), 1979).
    Below c the oracle never returns B, and above c never A: any other
    answer inside the bracket is a new envelope image.
    """
    left, right = ends[0], ends[:0:-1]  # the points right of ``left``, nearest last
    done, probes = [], []
    while right and len(probes) != steps:
        point = split(left, right[-1])
        if point is None:  # this bracket is done; with ``meets`` it was the only one
            done.append(left)
            left = right.pop()
        else:
            probes.append(solve(point))
            if meets is None:
                right.append(probes[-1])
            elif meets(probes[-1]):
                left = probes[-1]
            else:
                right[-1] = probes[-1]
    return probes, [*done, left, *reversed(right)]


def crossing_split(a: SolutionRecord, b: SolutionRecord) -> Optional[Fraction]:
    """The weight where two exact records' lines cross, or None when no call is left there.

    ``a`` and ``b`` are optimal at their weights w_a <= w_b (``produced_at``).
    None when their images are equal, or when the crossing c is w_a or w_b:
    if c = w_a, b's line meets a's at a's optimum there, so both are
    optimal at c (and so for c = w_b), and nothing lies strictly below
    both lines.  So a probe p solved at c that lies on the lines of a and
    b rather than below them ends the walk too: the lines of a and p, and
    of p and b, cross at p's own weight, or their images are equal.
    """
    if a.image == b.image:
        return None
    gamma = Fraction(*crossing(a.image, b.image))
    return None if gamma in (a.produced_at, b.produced_at) else gamma


class ProblemAdapter(ABC):
    """Contract every problem plugin implements and every algorithm consumes.

    Adapters are stateless and reentrant: concurrent ``solve_weighted_sum``
    calls on the same instance must not interfere.
    """

    @abstractmethod
    def alpha(self) -> Fraction:
        """Approximation factor of the weighted-sum oracle (>= 1, constant)."""

    @abstractmethod
    def solve_weighted_sum(self, instance, gamma) -> SolutionRecord:
        """Solution whose value f1 + gamma*f2 is within alpha() of the minimum."""

    @abstractmethod
    def bounds(self, instance) -> Bounds:
        """Valid Bounds for the instance (positive values only when relaxed)."""

    def solve_all_weights(self, instance, lo, hi) -> list:
        """Records that hold an optimal solution for every weight in [lo, hi], in call order.

        Dichotomic search (Aneja and Nair, 1979): solve at ``lo`` and ``hi``,
        then split every bracket by ``envelope_walk`` at ``crossing_split``.
        A probe strictly below its bracket's lines is a new envelope image;
        one on them ends both halves.  So the search makes at most 2k
        oracle calls for the k distinct images it returns, one record per
        call.  That stop rule needs an exact oracle, so ExactOracleRequired
        is raised otherwise.
        """
        if self.alpha() != 1:
            raise ExactOracleRequired("the all-weights search needs an exact oracle")
        ends = [self.solve_weighted_sum(instance, lo), self.solve_weighted_sum(instance, hi)]
        probes, _ = envelope_walk(partial(self.solve_weighted_sum, instance), crossing_split, ends)
        return ends + probes


class ParametricAdapter(ProblemAdapter):
    """Adapter whose weighted-sum oracle can run symbolically over linear weights.

    The plugin re-expresses its algorithm over quantities linear in gamma,
    each an int constant plus an int slope times gamma, and routes every
    comparison of two of them through an injected comparator:
    ``compare(c, s)`` returns the sign (-1, 0 or 1) of the one linear form
    c + s*gamma, the difference of the two quantities, given as two ints.
    The returned solution must depend on gamma only through those
    outcomes.  How a plugin holds its quantities is its own affair: local
    ratio keeps int lists of constants and slopes, Kruskal compares
    differences of ``scaled.first`` and ``scaled.second``, and Dijkstra
    adds up ints that each pack a constant and a slope.  An exact oracle's
    run drives Megiddo's simulation, the safeguard that
    ``parametric_search`` falls back on when its ``envelope_walk`` runs out
    of steps before ``crossing_split`` ends it; an approximate one's, the
    symbolic grid walk of ``sweep.solve_grid``, which has no bracket to
    narrow.  Both comparators read signs from ``sign_at``, and both
    searches take the run's record as the oracle's answer at every weight
    where the comparator's answers hold, so neither checks a run's token:
    ``--verify`` checks the printed tokens with the ground truth's own
    ``oracle.token_image``.
    """

    @abstractmethod
    def run_parametric(self, instance, compare) -> SolutionRecord:
        """Run the weighted-sum algorithm with ``compare``.

        Returns ``SolutionRecord(token, image)`` with ``produced_at`` None,
        the image computed as the concrete oracle computes it.
        """
