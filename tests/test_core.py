from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bicrit.core import (
    Bounds,
    CostPair,
    GuaranteeCertificate,
    ceil_log,
    check_epsilon,
    check_weight,
    dominates,
    floor_log,
    format_rational,
    parse_rational,
    pow_one_plus_eps,
    rational,
)
from bicrit.errors import ParseError


def rand_fraction(rng, lo=-20, hi=20):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _linear_floor_log(base, value):
    """Reference for floor_log: one exact multiplication per step."""
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
    def test_floor_ceil_log_exact(self):
        rng = random.Random(11)
        for _ in range(300):
            base = 1 + Fraction(rng.randint(1, 4), rng.randint(1, 4))
            x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            lo = floor_log(base, x)
            assert base**lo <= x < base ** (lo + 1)
            hi = ceil_log(base, x)
            assert base**hi >= x > base ** (hi - 1)

    def test_floor_log_matches_linear_search(self):
        rng = random.Random(29)
        for _ in range(200):
            base = 1 + Fraction(1, rng.randint(1, 100))
            k = rng.randint(-150, 150)
            values = [
                base**k,
                base**k * Fraction(10**6 - 1, 10**6),
                base**k * Fraction(10**6 + 1, 10**6),
                Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)),
            ]
            for value in values:
                assert floor_log(base, value) == _linear_floor_log(base, value)
            assert floor_log(base, base**k) == k
            assert ceil_log(base, base**k) == k
        assert floor_log(Fraction(3, 2), 1) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            floor_log(Fraction(1), 2)
        with pytest.raises(ValueError):
            floor_log(Fraction(2), 0)


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
