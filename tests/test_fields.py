import random
from fractions import Fraction

import pytest

from pcurvkit import GF, QQ
from pcurvkit.fields import ReductionError, is_prime, primes_in


def test_is_prime_small_table():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    got = {n for n in range(50) if is_prime(n)}
    assert got == expected


def test_is_prime_rejects_edge_cases():
    for n in (-7, -1, 0, 1):
        assert not is_prime(n)


def test_primes_in_is_inclusive():
    assert primes_in(2, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_in(14, 16) == []
    assert primes_in(47, 47) == [47]


def test_qq_coerces_ints_and_strings():
    assert QQ(3) == Fraction(3)
    assert QQ("2/7") == Fraction(2, 7)
    assert QQ(1, 4) == Fraction(1, 4)
    assert QQ.characteristic() == 0


def test_gf_basic_arithmetic():
    F = GF(7)
    a = F(3)
    b = F(5)
    assert a + b == F(1)
    assert a - b == F(5)
    assert a * b == F(1)
    assert a / b == F(2)  # 3 * 5^{-1} = 3 * 3 = 9 = 2
    assert -a == F(4)
    assert a ** 6 == F.one
    assert bool(F(0)) is False


def test_gf_division_by_zero():
    F = GF(5)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_gf_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(6)


def test_gf_reduces_rationals_and_flags_bad_denominators():
    F = GF(5)
    assert F(Fraction(1, 2)) == F(3)  # 2^{-1} mod 5
    with pytest.raises(ReductionError):
        F(Fraction(1, 5))


def test_gf_field_axioms_sampled():
    """Random spot check of associativity, distributivity, inverses."""
    rng = random.Random(20260815)
    for p in (3, 11, 101):
        F = GF(p)
        for _ in range(40):
            a = F(rng.randrange(p))
            b = F(rng.randrange(p))
            c = F(rng.randrange(p))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * (F.one / a) == F.one


def test_gf_fermat_little_theorem():
    rng = random.Random(7)
    for p in (7, 13, 31):
        F = GF(p)
        for _ in range(10):
            a = F(rng.randrange(1, p))
            assert a ** (p - 1) == F.one


def test_gf_mixed_int_arithmetic():
    F = GF(11)
    assert F(4) + 9 == F(2)
    assert 2 - F(5) == F(8)
    assert 3 / F(4) == F(9)  # 4 * 9 = 36 = 3 mod 11


def test_field_equality_and_hash():
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)
    assert hash(GF(7)) == hash(GF(7))
    assert QQ == QQ


def test_gf_negative_powers():
    F = GF(7)
    assert F(3) ** -1 == F(5)
    assert F(3) ** -2 == F(5) * F(5)
    assert F(0) ** 0 == F(1)
    assert F(0) ** 3 == F(0)
    with pytest.raises(ZeroDivisionError):
        F(0) ** -1


def _rings():
    from pcurvkit import FunctionField, NumberField, Polynomial
    from pcurvkit.poly import PolynomialRing

    return [QQ, GF(7), NumberField(Polynomial(QQ, [1, 0, 1]), "i"),
            FunctionField(QQ, "x"), FunctionField(FunctionField(GF(5), "q"), "x"),
            PolynomialRing(GF(5))]


@pytest.mark.parametrize("R", _rings(), ids=repr)
def test_zero_and_one_are_values_built_with_the_ring(R):
    assert R.zero is R.zero
    assert R.one is R.one
    assert R(0) == R.zero
    assert R(1) == R.one
    assert not R.zero
