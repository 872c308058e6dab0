import random
from fractions import Fraction

import pytest

from pcurvkit import GF, QQ, FunctionField
from pcurvkit.fields import ReductionError
from pcurvkit.poly import poly_gcd
from pcurvkit.ratfunc import (
    RationalFunction,
    clear_coefficients,
    common_denominator,
    lowest_terms,
    reduce_rational_mod_p,
)


def rand_elt(K, rng, size=3):
    num = K.polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, size))])
    den = K.polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, size))])
    if den.is_zero():
        den = K.polynomial([1])
    return K.from_poly(num) / K.from_poly(den)


def test_normalization_cancels_common_factors():
    K = FunctionField(QQ, "x")
    x = K.gen()
    f = (x ** 2 - K.one) / (x - K.one)
    assert f == x + K.one
    assert f.den.is_one()


def test_denominator_stays_monic():
    K = FunctionField(QQ, "x")
    x = K.gen()
    f = K.one / (K(2) * x - K(2))
    assert f.den.leading() == 1
    assert f.den.degree() == 1
    assert f.num.coeff(0) == Fraction(1, 2)


def test_field_axioms_random():
    K = FunctionField(QQ, "x")
    rng = random.Random(2024)
    for _ in range(15):
        a = rand_elt(K, rng)
        b = rand_elt(K, rng)
        c = rand_elt(K, rng)
        assert (a + b) * c == a * c + b * c
        assert a - a == K.zero
        if not b.is_zero():
            assert (a / b) * b == a


def test_derivative_quotient_rule():
    K = FunctionField(QQ, "x")
    rng = random.Random(77)
    for _ in range(12):
        f = rand_elt(K, rng)
        g = rand_elt(K, rng)
        if g.is_zero():
            continue
        q = f / g
        assert q.derivative() == (f.derivative() * g - f * g.derivative()) / (g * g)


def test_derivative_frozen():
    K = FunctionField(QQ, "x")
    x = K.gen()
    f = K.one / x
    assert f.derivative() == -K.one / (x * x)


def test_tower_field_arithmetic():
    """Rational functions in x over GF(5)(q)."""
    base = FunctionField(GF(5), "q")
    K = FunctionField(base, "x")
    q = K(base.gen())
    x = K.gen()
    f = (q * x + K.one) * (q * x - K.one)
    assert f == q * q * x * x - K.one
    g = K.one / q
    assert g * q == K.one


def test_call_lifts_constants():
    base = FunctionField(QQ, "q")
    K = FunctionField(base, "x")
    assert K(3) + K(4) == K(7)
    lifted = K(base.gen())
    assert not lifted.is_zero()
    assert lifted.den.is_one()
    assert lifted.num.degree() == 0  # constant as a polynomial in x


def test_to_str_shapes():
    K = FunctionField(QQ, "x")
    x = K.gen()
    assert (x + K.one).to_str() == "x + 1"
    s = (K.one / x).to_str()
    assert "/" in s and "(" in s


def test_reduce_mod_p_happy_path():
    K0 = FunctionField(QQ, "x")
    x = K0.gen()
    f = (K0(3) * x + K0(Fraction(1, 2))) / (x - K0(1))
    Kp = FunctionField(GF(7), "x")
    g = reduce_rational_mod_p(f, Kp)
    xp = Kp.gen()
    assert g == (Kp(3) * xp + Kp(4)) / (xp - Kp(1))


def test_reduce_mod_p_bad_denominator():
    K0 = FunctionField(QQ, "x")
    f = K0(Fraction(1, 5))
    with pytest.raises(ReductionError):
        reduce_rational_mod_p(f, FunctionField(GF(5), "x"))


def test_is_zero_and_bool():
    K = FunctionField(QQ, "x")
    assert K.zero.is_zero()
    assert not K.one.is_zero()
    assert bool(K.gen())


@pytest.mark.parametrize("base", [QQ, GF(7)])
def test_common_denominator_is_the_monic_lcm(base):
    K = FunctionField(base, "x")
    x = K.gen()
    fs = [K(3), K.one / (K(2) * x * (x - K.one)), x / (x - K.one) ** 2,
          K.one / x ** 2, x ** 3]
    assert common_denominator(fs) == K.polynomial([0, 0, 1, -2, 1])  # x^2 (x-1)^2
    assert common_denominator([K(5), x]).is_one()
    rng = random.Random(71)
    for _ in range(10):
        fs = [rand_elt(K, rng) for _ in range(4)]
        h = common_denominator(fs)
        assert h.leading() == base.one
        assert all(f.den.divides(h) for f in fs)
        # least: dropping any linear factor of h loses some denominator
        for c in range(-4, 5):
            r = K.polynomial([-c, 1])
            if r.divides(h):
                assert not all(f.den.divides(h // r) for f in fs)


def normalized_through_gcd(K, num, den):
    """(num, den) divided by poly_gcd whatever the denominator, then with
    the denominator made monic."""
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    lead_inv = K.base.one / den.leading()
    return num * lead_inv, den * lead_inv


@pytest.mark.parametrize("which", ["QQ", "GF(7)", "GF(5)(q)"])
def test_constant_denominator_matches_the_gcd_path(which):
    """A constant denominator skips poly_gcd; the result is the same pair
    as the gcd path gives, leading-coefficient normalisation included."""
    rng = random.Random(313)
    if which == "GF(5)(q)":
        base = FunctionField(GF(5), "q")
        K = FunctionField(base, "x")
        q = base.gen()

        def scalar():
            return base(rng.randint(-3, 3)) + base(rng.randint(1, 3)) * q ** rng.randint(0, 2) \
                / (q + base(rng.randint(0, 4)))
    else:
        K = FunctionField(QQ if which == "QQ" else GF(7), "x")

        def scalar():
            return K.base(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for _ in range(20):
        num = K.polynomial([scalar() for _ in range(rng.randint(0, 4))])
        c = scalar()
        if not c:
            continue
        den = K.polynomial([c])
        f = RationalFunction(K, num, den)
        if num.is_zero():
            assert f.num.is_zero() and f.den.is_one()
            continue
        assert (f.num, f.den) == normalized_through_gcd(K, num, den)
        assert f.den.is_one()
        # the same value reached through a nonconstant gcd
        r = K.polynomial([scalar(), K.base.one])
        assert RationalFunction(K, num * r, den * r) == f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tower_lowest_terms_match_euclid(p):
    """Over GF(p)(q)(x) a denominator of positive x-degree is reduced by the
    primitive pseudo-remainder sequence over k[q][x]; the pair equals the
    one Euclid over k(q)[x] gives.  Inputs share planted factors in x,
    carry q-denominators, and some denominators are constant in x."""
    rng = random.Random(4000 + p)
    base = FunctionField(GF(p), "q")
    K = FunctionField(base, "x")

    def scalar():
        c = base.from_poly(base.polynomial([rng.randrange(p) for _ in range(rng.randint(1, 3))]))
        if rng.random() < 0.5:
            c = c / base.from_poly(base.polynomial([rng.randrange(p) for _ in range(2)] + [1]))
        return c

    def poly(degree):
        lead = scalar()
        while not lead:
            lead = scalar()
        return K.polynomial([scalar() for _ in range(degree)] + [lead])

    shapes = set()
    for _ in range(40):
        g = poly(rng.randint(0, 2))
        num, den = poly(rng.randint(0, 3)) * g, poly(rng.randint(0, 2)) * g
        f = RationalFunction(K, num, den)
        assert (f.num, f.den) == normalized_through_gcd(K, num, den)
        assert lowest_terms(K, *clear_coefficients(base, [num, den])[1]) == f
        shapes.add((den.degree() > 0, g.degree() > 0))
    assert shapes == {(False, False), (True, False), (True, True)}
