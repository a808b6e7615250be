from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _suite import dominates
from bicrit.core import (
    Bounds,
    CostPair,
    GuaranteeCertificate,
    check_epsilon,
    check_weight,
    format_rational,
    grid_index,
    parse_rational,
    pow_one_plus_eps,
    ratio_of,
    rational,
    sign_at,
)
from bicrit.errors import ParseError
from bicrit.sweep import BudgetQuery


def rand_fraction(rng, lo=-20, hi=20):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _linear_floor_log(base, value):
    """Reference for ``grid_index``'s index: one exact multiplication per step."""
    i, power = 0, Fraction(1)
    if power <= value:
        while power * base <= value:
            power *= base
            i += 1
    else:
        while power > value:
            power /= base
            i -= 1
    return i


class TestRationals:
    def test_parse_and_format_round_trip(self):
        for text in ("3", "-4", "3/5", "-7/2", "0"):
            assert format_rational(parse_rational(text)) == text

    def test_format_reduces(self):
        assert format_rational(Fraction(4, 8)) == "1/2"
        assert format_rational(Fraction(8, 4)) == "2"

    @pytest.mark.parametrize("bad", [
        "1.5", "1e3", "", "3/0", "a/b", "1/2/3", " 1",
        # int() and Fraction() take these; the format does not
        "\uff13/\uff14", "\u0663", "1\n", "1/2\n", "1_000", "1/1_0", "-\u0663",
    ])
    def test_parse_rejects_inexact_forms(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 3 ", "1_000", "\u0663"])
    def test_library_refuses_what_the_instance_file_refuses(self, text):
        # Fraction(text) takes each of these; the file format and the flags do not.
        with pytest.raises(ParseError):
            parse_rational(text)
        for make in (
            rational,
            lambda t: CostPair(t, 1),
            lambda t: CostPair(1, t),
            lambda t: BudgetQuery(budget=t, eps=1),
            lambda t: BudgetQuery(budget=1, eps=t),
        ):
            with pytest.raises(ParseError):
                make(text)

    def test_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            rational(0.5)

    def test_exact_arithmetic_identities(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_fraction(rng), rand_fraction(rng)
            assert (a + b) - b == a
            if a != 0:
                assert a * (1 / a) == 1


class TestPow:
    def test_examples(self):
        assert pow_one_plus_eps(Fraction(1), 3) == 8
        assert pow_one_plus_eps(Fraction(1), -1) == Fraction(1, 2)
        assert pow_one_plus_eps(Fraction(1, 2), 2) == Fraction(9, 4)

    def test_negative_powers_are_exact_reciprocals(self):
        rng = random.Random(3)
        for _ in range(50):
            eps = Fraction(rng.randint(1, 4), rng.randint(4, 8))
            i = rng.randint(-10, 10)
            assert pow_one_plus_eps(eps, i) * pow_one_plus_eps(eps, -i) == 1


class TestLogs:
    def test_grid_index_brackets_the_value(self):
        rng = random.Random(11)
        for _ in range(300):
            eps = Fraction(rng.randint(1, 4), rng.randint(4, 8))
            base = 1 + eps
            x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            i, exact = grid_index(eps, x)
            assert base**i <= x < base ** (i + 1)
            assert exact == (base**i == x)
            ceiling = i + (not exact)
            assert base**ceiling >= x > base ** (ceiling - 1)

    def test_grid_index_matches_linear_search(self):
        rng = random.Random(29)
        for eps in [Fraction(1), Fraction(1, 1000)] + [
            Fraction(1, rng.randint(1, 100)) for _ in range(200)
        ]:
            base = 1 + eps
            k = rng.randint(-150, 150)
            values = [
                base**k,
                base**k * Fraction(10**6 - 1, 10**6),
                base**k * Fraction(10**6 + 1, 10**6),
                base ** (k - 1),
                base ** (k + 1),
                Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)),
                Fraction(1, rng.randint(2, 10**4)),
            ]
            for value in values:
                i = _linear_floor_log(base, value)
                assert grid_index(eps, value) == (i, base**i == value)
            assert grid_index(eps, base**k) == (k, True)
        assert grid_index(Fraction(1, 2), 1) == (0, True)

    def test_rejects_bad_arguments(self):
        for eps, value in ((0, 2), (Fraction(3, 2), 2), (1, 0), (1, Fraction(-1, 2))):
            with pytest.raises(ValueError):
                grid_index(eps, value)


class TestSignAt:
    """``sign_at(c, s, (n, d))`` is the sign of c + s*gamma at gamma = n/d."""

    def test_zero_at_one_end(self):
        # 1 - 2*gamma over [1/4, 1/2]
        assert (sign_at(1, -2, (1, 4)), sign_at(1, -2, (1, 2))) == (1, 0)

    def test_zero_at_both_ends(self):
        # Only the zero line, the difference of equal values, is 0 at two weights.
        c, s = 1 - 1, 2 - 2
        assert [sign_at(c, s, end) for end in ((1, 4), (3, 1))] == [0, 0]

    def test_opposite_signs_at_the_ends(self):
        # 2 + 3*gamma against 3 + gamma: the difference -1 + 2*gamma crosses 0 inside [1/4, 1].
        c, s = 2 - 3, 3 - 1
        assert [sign_at(c, s, end) for end in ((1, 4), (1, 1))] == [-1, 1]
        crit = Fraction(-c, s)  # the critical weight, exact on ints
        assert crit == Fraction(1, 2) and type(crit) is Fraction
        assert sign_at(c, s, ratio_of(crit)) == 0

    def test_parallel_lines_keep_their_sign(self):
        # 1 + 2*gamma against 5 + 2*gamma: equal slopes, so the difference is the constant -4.
        c, s = 1 - 5, 2 - 2
        assert {sign_at(c, s, end) for end in ((1, 1000), (1, 1), (1000, 1))} == {-1}

    def test_negative_slope(self):
        # 3 - 2*gamma is 0 at 3/2, an unreduced pair included
        ends = ((1, 1), (3, 2), (6, 4), (2, 1))
        assert [sign_at(3, -2, end) for end in ends] == [1, 0, 0, -1]

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(17)
        for _ in range(2000):
            c, s = rng.randint(-30, 30), rng.randint(-30, 30)
            n, d = rng.randint(0, 60), rng.randint(1, 60)
            value = c + s * Fraction(n, d)
            assert sign_at(c, s, (n, d)) == (value > 0) - (value < 0)

    def test_ends_of_more_than_20000_digits(self):
        n, d = 3**45000, 2**70000
        assert n > 10**20000 and d > 10**20000
        # -n + d*gamma is 0 at exactly n/d; a change of 1 anywhere shows.
        assert sign_at(-n, d, (n, d)) == 0
        assert (sign_at(1 - n, d, (n, d)), sign_at(-1 - n, d, (n, d))) == (1, -1)
        assert (sign_at(-n, d, (n + 1, d)), sign_at(-n, d, (n, d + 1))) == (1, -1)
        # A grid weight of the vertex-cover walk at eps 1/1000, against Fraction arithmetic.
        weight = pow_one_plus_eps(Fraction(1, 1000), 7200)
        end = ratio_of(weight)
        assert end[0] > 10**20000 and end[1] > 10**20000
        for c, s in ((-end[0], end[1]), (-(end[0] // end[1]), 1), (5, -1), (-(3**13000), 2**40000)):
            value = c + s * weight
            assert sign_at(c, s, end) == (value > 0) - (value < 0)


class TestDominates:
    def test_examples(self):
        assert dominates(CostPair(2, 4), CostPair(4, 4))
        assert not dominates(CostPair(3, 3), CostPair(3, 3))
        assert not dominates(CostPair(4, 2), CostPair(2, 4))

    def test_irreflexive_and_transitive(self):
        rng = random.Random(5)
        images = [CostPair(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(40)]
        for a in images:
            assert not dominates(a, a)
        for a in images[:15]:
            for b in images[:15]:
                for c in images[:15]:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)

    def test_nondominated_subset_matches_pairwise_brute_force(self):
        rng = random.Random(9)
        for _ in range(30):
            images = [CostPair(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(12)]
            via_op = [a for a in images if not any(dominates(b, a) for b in images)]
            brute = [
                a
                for a in images
                if not any(b.f1 <= a.f1 and b.f2 <= a.f2 and b != a for b in images)
            ]
            assert via_op == brute


class TestDomainTypes:
    def test_cost_pair_rejects_negative(self):
        with pytest.raises(ValueError):
            CostPair(-1, 2)

    def test_cost_pair_weighted(self):
        assert CostPair(2, 4).weighted(Fraction(3, 2)) == 8

    def test_bounds_invariant(self):
        with pytest.raises(ValueError):
            Bounds(0, 1, 1, 1)
        with pytest.raises(ValueError):
            Bounds(2, 1, 1, 1)
        b = Bounds(1, 2, "1/2", "5/2")
        assert b.ub2 == Fraction(5, 2)

    def test_certificate_invariants(self):
        with pytest.raises(ValueError):
            GuaranteeCertificate(1, Fraction(1, 2), 3, 1, 1)
        with pytest.raises(ValueError):
            GuaranteeCertificate(1, 3, 3, 1, 0)

    def test_epsilon_and_weight_checks(self):
        assert check_epsilon(Fraction(1)) == 1
        for bad in (Fraction(0), Fraction(3, 2), Fraction(-1)):
            with pytest.raises(ValueError):
                check_epsilon(bad)
        assert check_weight(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(ValueError):
            check_weight(Fraction(0))
