"""Polynomial arithmetic, gcds, Sturm counting, and irreducibility checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from pcurvkit import GF, QQ, FunctionField, NumberField, Polynomial, poly_gcd
from pcurvkit.fields import GFElement, ReductionError
import pcurvkit.poly as poly
from pcurvkit.poly import (
    IrreducibilityUndecided,
    PolynomialRing,
    _distinct_degree,
    _factor_mod_p,
    _is_irreducible_mod_p,
    cauchy_bound,
    count_real_roots_closed,
    is_irreducible_q,
    isolate_real_roots,
    poly_xgcd,
    refine_real_root,
    squarefree_part,
)


def P(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def test_degree_and_coeff_access():
    f = P(1, 0, 3)  # 1 + 3x^2
    assert f.degree() == 2
    assert f.coeff(0) == 1
    assert f.coeff(1) == 0
    assert f.coeff(2) == 3
    assert f.coeff(17) == 0
    assert Polynomial.zero(QQ).degree() == -1


def _coefficient_samples():
    K = NumberField(P(1, 0, 1), "i")
    R = FunctionField(GF(3), "t")
    return [(QQ, 0, 2), (QQ, Fraction(0), Fraction(1, 2)), (GF(5), GF(5)(0), GF(5)(3)),
            (R, R.zero, R.gen() / (R.gen() + R.one)), (K, K.zero, K.gen)]


@pytest.mark.parametrize("field, zero, nonzero", _coefficient_samples())
def test_zero_coefficients_are_falsy_and_trimmed(field, zero, nonzero):
    assert not zero and zero == 0
    assert nonzero and nonzero != 0
    f = Polynomial(field, [nonzero, zero, nonzero, zero, zero])
    assert f.degree() == 2
    assert Polynomial(field, [zero, zero]).is_zero()
    assert Polynomial(field, [zero, nonzero]).order_at_zero() == 1
    assert (f * f).degree() == 4


def test_polynomial_coefficients_are_trimmed():
    """Over k[q] the coefficients are Polynomials: a zero one must be
    falsy, so a zero top coefficient is dropped and the degree is right."""
    R = PolynomialRing(GF(5), "q")
    q, zero = R.gen(), R.zero
    assert not zero and q
    f = Polynomial(R, [q, R.one, zero, zero])
    assert f.coeffs == (q, R.one)
    assert f.degree() == 1
    assert f == Polynomial(R, [q, R.one])
    assert Polynomial(R, [zero, zero]).is_zero()
    assert not (f - f)
    assert (f * Polynomial(R, [q * q, zero, zero])).degree() == 1


def test_plain_scalars_are_coerced():
    f = Polynomial(GF(5), [True, 7, Fraction(1, 2), False])
    assert f.coeffs == (1, 2, 3)
    assert all(type(c) is int for c in f.coeffs)
    g = Polynomial(QQ, [Fraction(1, 3), True, "2/5"])
    assert (g.coeffs, g.den) == ((5, 15, 6), 15)
    assert all(type(c) is int for c in g.coeffs)
    assert [g.coeff(i) for i in range(3)] == [Fraction(1, 3), Fraction(1), Fraction(2, 5)]
    assert all(type(g.coeff(i)) is Fraction for i in range(3))


def test_arithmetic_ring_identities():
    rng = random.Random(31415)
    for _ in range(25):
        f = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        h = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == Polynomial.zero(QQ)


def test_divmod_checks_out():
    rng = random.Random(99)
    for _ in range(30):
        f = P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        g = P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_pow_and_call():
    x = Polynomial.x(QQ)
    f = (x + 1) ** 3
    assert f == P(1, 3, 3, 1)
    assert f(Fraction(2)) == 27
    assert f(Fraction(-1)) == 0


def test_derivative_product_rule():
    rng = random.Random(5)
    for _ in range(20):
        f = P(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        g = P(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_gcd_frozen_and_properties():
    # (x-1)^2 (x+2) and (x-1)(x+3) share exactly (x-1)
    x = Polynomial.x(QQ)
    a = (x - 1) ** 2 * (x + 2)
    b = (x - 1) * (x + 3)
    assert poly_gcd(a, b) == (x - 1)

    rng = random.Random(404)
    for _ in range(15):
        f = P(*[rng.randint(-3, 3) for _ in range(4)])
        g = P(*[rng.randint(-3, 3) for _ in range(4)])
        d = poly_gcd(f, g)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
            continue
        assert d.divides(f) and d.divides(g)
        assert d.leading() == 1  # monic normalization


def test_xgcd_bezout():
    rng = random.Random(808)
    for _ in range(20):
        f = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if f.is_zero() and g.is_zero():
            continue
        d, s, t = poly_xgcd(f, g)
        assert s * f + t * g == d
        assert d == poly_gcd(f, g)


def test_gcd_over_gf():
    F = GF(5)
    x = Polynomial.x(F)
    a = (x ** 2 + 1) * (x + 2)
    b = (x ** 2 + 1) * (x + 3)
    assert poly_gcd(a, b) == x ** 2 + 1


def test_squarefree_part():
    x = Polynomial.x(QQ)
    f = (x - 2) ** 3 * (x + 1)
    sf = squarefree_part(f)
    assert sf.monic() == ((x - 2) * (x + 1)).monic()


def test_sturm_count_frozen():
    x = Polynomial.x(QQ)
    f = x ** 3 - x  # roots -1, 0, 1
    assert count_real_roots_closed(f, Fraction(-2), Fraction(2)) == 3
    assert count_real_roots_closed(f, Fraction(-1), Fraction(1)) == 3  # closed ends
    assert count_real_roots_closed(f, Fraction(1, 2), Fraction(2)) == 1
    g = x ** 2 + 1
    assert count_real_roots_closed(g, Fraction(-10), Fraction(10)) == 0


def count_by_squarefree_part(f, a, b):
    """Distinct roots in [a, b]: squarefree part, endpoint roots divided
    out, then a Sturm count; the route count_real_roots_closed took before
    it read gcd(f, f') off its own chain."""
    g = squarefree_part(f)
    extra = 0
    for endpoint in (a, b):
        if g.degree() >= 1 and g(endpoint) == 0:
            g = (g // P(-endpoint, 1)).monic()
            extra += 1
    if g.degree() < 1:
        return extra
    chain = poly.sturm_chain(g)
    return poly._variations_at(chain, a) - poly._variations_at(chain, b) + extra


@pytest.mark.parametrize("f, a, b, count", [
    ((P(-2, 1) ** 2) * P(2, 1) * P(-2, 0, 1), -2, 2, 4),       # (x-2)^2 (x+2)(x^2-2)
    ((P(-2, 1) ** 2) * P(2, 1) * P(-2, 0, 1), -1, 2, 2),
    ((P(-2, 1) ** 3) * (P(2, 1) ** 2), -2, 2, 2),               # roots only at the ends
    ((P(-2, 1) ** 3) * (P(2, 1) ** 2), 3, 5, 0),
    (P(-1, 0, 1) ** 2 * P(-2, 0, 1), -2, 2, 4),                 # (x^2-1)^2 (x^2-2)
    (P(1, 0, -10, 0, 1), -2, 2, 2),                            # irreducible, roots +-3.15, +-0.32
    (P(1, 0, -10, 0, 1), -4, 4, 4),
    (-P(1, 0, -10, 0, 1) * P(0, 1) ** 4, -4, 0, 3),             # negative leading coefficient
    (P(-2, 1), 2, 2, 1),
    (P(5), -1, 1, 0),
])
def test_sturm_count_table(f, a, b, count):
    a, b = Fraction(a), Fraction(b)
    assert count_real_roots_closed(f, a, b) == count
    assert count_by_squarefree_part(f, a, b) == count


def test_sturm_count_matches_squarefree_route():
    """Random products with repeated factors and roots at the ends."""
    rng = random.Random(4242)
    for _ in range(60):
        f = P(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(1, 4)):
            f = f * P(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 3))] + [1]) ** rng.randint(1, 3)
        a = Fraction(rng.randint(-4, 0))
        b = a + Fraction(rng.randint(0, 6), rng.choice([1, 2]))
        assert count_real_roots_closed(f, a, b) == count_by_squarefree_part(f, a, b), (f, a, b)


def test_sturm_count_takes_no_gcd_for_a_squarefree_input(monkeypatch):
    calls = []
    real = poly.poly_gcd
    monkeypatch.setattr(poly, "poly_gcd", lambda f, g: calls.append(f) or real(f, g))
    assert count_real_roots_closed(P(1, 0, -10, 0, 1), Fraction(-2), Fraction(2)) == 2
    assert count_real_roots_closed(P(-2, 0, 1), Fraction(-2), Fraction(2)) == 2
    assert calls == []
    assert count_real_roots_closed(P(-2, 1) ** 2, Fraction(-2), Fraction(2)) == 1


def test_isolate_real_roots_golden_ratio():
    x = Polynomial.x(QQ)
    f = x ** 2 - x - 1
    ivs = isolate_real_roots(f)
    assert len(ivs) == 2
    # phi = (1+sqrt5)/2 ~ 1.618 lies in the second interval
    lo, hi = ivs[1]
    assert lo <= Fraction(1618, 1000) <= hi or (lo <= Fraction(162, 100) and hi >= Fraction(161, 100))
    lo, hi = refine_real_root(f, lo, hi, Fraction(1, 10 ** 6))
    assert hi - lo <= Fraction(1, 10 ** 6)
    phi_approx = (lo + hi) / 2
    assert abs(phi_approx - Fraction(1618033988, 10 ** 9)) < Fraction(1, 10 ** 5)


def test_isolate_counts_match_sturm():
    rng = random.Random(1234)
    for _ in range(15):
        f = P(*[rng.randint(-6, 6) for _ in range(rng.randint(2, 6))])
        if f.is_zero():
            continue
        f = squarefree_part(f)
        ivs = isolate_real_roots(f)
        bound = cauchy_bound(f)
        assert len(ivs) == count_real_roots_closed(f, -bound, bound)
        for lo, hi in ivs:
            assert count_real_roots_closed(f, lo, hi) == 1


def test_irreducibility_known_cases():
    x = Polynomial.x(QQ)
    assert is_irreducible_q(x ** 2 + 1)
    assert is_irreducible_q(x ** 2 - x - 1)
    assert not is_irreducible_q(x ** 2 - 1)
    assert not is_irreducible_q(x ** 2 - 4 * x + 4)
    # cyclotomic-adjacent quartic that is reducible mod every prime but
    # irreducible over the rationals; exercises the factor-combination path
    f = x ** 4 - 2 * x ** 3 + x ** 2 + 5
    assert is_irreducible_q(f)


def test_irreducibility_scans_one_prime_through_degree_8(monkeypatch):
    """Through degree 8 one distinct-degree factorization at one prime is
    both the modular certificate and the first step of Zassenhaus, even on
    a quartic that no prime certifies; the certificate loop over several
    primes is left to higher degrees."""
    calls = []
    real = poly._distinct_degree

    def spy(fp):
        calls.append(fp.field.characteristic())
        return real(fp)

    monkeypatch.setattr(poly, "_distinct_degree", spy)
    x = Polynomial.x(QQ)
    assert is_irreducible_q(x ** 4 - 2 * x ** 3 + x ** 2 + 5)
    assert len(calls) == 1


def test_irreducibility_abstains_past_degree_bound():
    """Above degree 8 the test answers only when a modular certificate
    exists; a degree-10 product has none, so it must abstain rather than
    guess either way."""
    x = Polynomial.x(QQ)
    f = (x ** 2 + 1) * (x ** 8 - x - 1)
    with pytest.raises(IrreducibilityUndecided):
        is_irreducible_q(f)


def test_modular_pow_matches_power_then_remainder():
    rng = random.Random(2718)
    for F in (GF(3), GF(7), QQ):
        for _ in range(20):
            f = Polynomial(F, [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
            m = Polynomial(F, [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
            for e in (0, 1, 2, rng.randint(3, 13)):
                assert pow(f, e, m) == (f ** e) % m, (F, f, e, m)
    x = Polynomial.x(GF(5))
    assert pow(x, 0, x + 1) == Polynomial.one(GF(5))
    with pytest.raises(ValueError):
        pow(x, -1, x + 1)


# -- the mod-p machinery against brute force --------------------------------


def monic_polys(F, d):
    for tail in itertools.product(range(F.p), repeat=d):
        yield Polynomial(F, list(tail) + [1])


def irreducible_by_trial_division(f):
    return not any(g.divides(f)
                   for k in range(1, f.degree() // 2 + 1)
                   for g in monic_polys(f.field, k))


def seeded_monic(rng, F, d):
    return Polynomial(F, [rng.randrange(F.p) for _ in range(d)] + [1])


def test_ben_or_matches_trial_division_over_gf3():
    F = GF(3)
    for d in (2, 3, 4):
        for f in monic_polys(F, d):
            assert _is_irreducible_mod_p(f) == irreducible_by_trial_division(f), f


def test_ben_or_matches_trial_division_seeded():
    rng = random.Random(4242)
    for F in (GF(5), GF(7)):
        for d in (5, 6):
            found = set()
            for _ in range(12):
                f = seeded_monic(rng, F, d)
                expected = irreducible_by_trial_division(f)
                assert _is_irreducible_mod_p(f) == expected, (F, f)
                found.add(expected)
            assert found == {True, False}


def test_factor_mod_p_returns_irreducible_factors():
    rng = random.Random(777)
    cases = []
    for F in (GF(3), GF(5), GF(7)):
        for d in (2, 3, 4, 5, 6):
            cases.append(seeded_monic(rng, F, d))
        # two and three distinct irreducibles of one degree, so the
        # equal-degree split has work to do
        for k, count in ((1, 3), (2, 2), (2, 3), (3, 2)):
            irreducibles = [g for g in monic_polys(F, k) if _is_irreducible_mod_p(g)]
            cases.append(math.prod(rng.sample(irreducibles, count),
                                  start=Polynomial.one(F)))
    rng = random.Random(99)
    split = 0
    for f in cases:
        if poly_gcd(f, f.derivative()).degree() > 0:
            continue
        factors = _factor_mod_p(_distinct_degree(f), rng)
        product = Polynomial.one(f.field)
        for g in factors:
            assert g.leading() == 1
            assert g.degree() >= 1 and irreducible_by_trial_division(g), (f, g)
            product = product * g
        assert product == f
        assert len(set(factors)) == len(factors)
        split += len(factors) > 1
    assert split >= 12


def eisenstein_at_2(rng, d):
    middle = [2 * rng.randint(-3, 3) for _ in range(d - 1)]
    return P(2 * rng.choice([1, -1, 3, -3]), *middle, rng.choice([1, 3, 5]))


def test_irreducible_eisenstein_family():
    rng = random.Random(1618)
    for d in range(4, 9):
        for _ in range(3):
            f = eisenstein_at_2(rng, d)
            assert is_irreducible_q(f), f


def test_reducible_products_family():
    rng = random.Random(1414)
    for _ in range(30):
        da = rng.randint(1, 4)
        db = rng.randint(1, 8 - da)
        a = P(*[rng.randint(-5, 5) for _ in range(da)], rng.choice([1, 2, -3]))
        b = P(*[rng.randint(-5, 5) for _ in range(db)], rng.choice([1, 1, 2]))
        assert not is_irreducible_q(a * b), (a, b)


@pytest.mark.parametrize("c", range(-3, 4))
def test_reducible_mod_every_prime_goes_through_zassenhaus(monkeypatch, c):
    """No prime certifies these, so the answer comes from Hensel lifting
    and recombination."""
    calls = []
    real = poly._zassenhaus_irreducible

    def spy(zf):
        calls.append(zf)
        return real(zf)

    monkeypatch.setattr(poly, "_zassenhaus_irreducible", spy)
    y = Polynomial.x(QQ) + c
    for f, expected in ((y ** 4 + 1, True),
                        (y ** 4 - 10 * y ** 2 + 1, True),
                        (y ** 8 + 1, True),
                        ((y ** 2 - 2) * (y ** 2 - 3), False)):
        calls.clear()
        assert is_irreducible_q(f) == expected, f
        assert len(calls) == 1, f


def test_to_str_round_readability():
    x = Polynomial.x(QQ)
    assert (x ** 2 - 1).to_str("t") == "t^2 + -1"
    assert (2 * x).to_str() == "2*x"
    assert Polynomial.zero(QQ).to_str() == "0"


def test_polynomial_over_the_coefficient_field_is_a_scalar():
    """Over k[q][x], a polynomial in q over k is a constant coefficient, so
    (q + x)(1 + q) scales by 1 + q instead of multiplying in one variable."""
    F = GF(5)
    R = PolynomialRing(F, "q")
    q = Polynomial.x(F)
    c = Polynomial.one(F) + q
    f = Polynomial(R, [q, R.one])                       # q + x
    g = f * c
    assert g.degree() == 1
    assert g == Polynomial(R, [q * c, c])
    assert f + c == Polynomial(R, [q + c, R.one])
    assert f - c == Polynomial(R, [q - c, R.one])
    # both operands are Polynomials, so the reflected order has to find
    # k[q][x] by itself
    assert c * f == g
    assert c + f == f + c
    assert c - f == Polynomial(R, [c - q, -R.one])


def test_polynomials_over_different_prime_fields_do_not_mix():
    f = Polynomial(GF(5), [1, 2])
    g = Polynomial(GF(7), [3, 1])
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b, divmod):
        with pytest.raises(TypeError):
            op(f, g)
        with pytest.raises(TypeError):
            op(g, f)
    # an equal field object that is not the same one still counts as the same
    assert f * Polynomial(GF(5), [0, 1]) == Polynomial(GF(5), [0, 1, 2])


# -- GF(p)[x] on stored ints against a boxed oracle ---------------------------
#
# Over a prime field Polynomial stores ints in [0, p).  The oracle below is
# schoolbook arithmetic on lists of GF(p) elements (GFElement), the way the
# coefficients were stored before; each operation must give the same
# coefficients, and whatever the class hands out as a scalar must be a
# GFElement.

GF_PRIMES = (2, 3, 5, 31, 199)


def o_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def o_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [F.zero] * (n - len(a)), b + [F.zero] * (n - len(b))
    return o_trim(x + y for x, y in zip(a, b))


def o_sub(F, a, b):
    return o_add(F, a, [-c for c in b])


def o_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return o_trim(out)


def o_divmod(F, a, b):
    rem, db = list(a), len(b) - 1
    quot = [F.zero] * max(len(a) - db, 0)
    inv = F.one / b[-1]
    for k in range(len(quot) - 1, -1, -1):
        t = quot[k] = rem[k + db] * inv
        for j, c in enumerate(b):
            rem[k + j] = rem[k + j] - t * c
    return o_trim(quot), o_trim(rem)


def o_monic(F, a):
    inv = F.one / a[-1]
    return [c * inv for c in a]


def o_derivative(a):
    return o_trim([c * i for i, c in enumerate(a)][1:])


def o_pow_mod(F, a, e, m):
    result, base = o_divmod(F, [F.one], m)[1], o_divmod(F, a, m)[1]
    while e:
        if e & 1:
            result = o_divmod(F, o_mul(F, result, base), m)[1]
        e >>= 1
        base = o_divmod(F, o_mul(F, base, base), m)[1]
    return result


def o_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def o_gcd(F, a, b):
    while b:
        a, b = b, o_divmod(F, a, b)[1]
    return o_monic(F, a) if a else a


def o_to_str(a, var="x"):
    parts = []
    for i in range(len(a) - 1, -1, -1):
        cs = str(a[i])
        if a[i]:
            term = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            parts.append(cs if not term else term if cs == "1" else f"{cs}*{term}")
    return " + ".join(parts) or "0"


def residues_of(a):
    return tuple(c.v for c in a)


def as_input(rng, F, c):
    """The residue c as one of the inputs Polynomial accepts: an int (maybe
    negative), a GFElement, a Fraction with a denominator prime to p, or a
    bool."""
    p = F.p
    kinds = [lambda: c, lambda: c - p * rng.randint(1, 3), lambda: F(c),
             lambda: Fraction(c + p * rng.randint(1, 5), p + 1)]
    if c in (0, 1):
        kinds.append(lambda: bool(c))
    return rng.choice(kinds)()


def random_residues(rng, p, degree):
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def build(rng, F, residues):
    """(Polynomial from mixed inputs, boxed oracle list)."""
    f = Polynomial(F, [as_input(rng, F, c) for c in residues])
    return f, o_trim(F(c) for c in residues)


def assert_stored(f, oracle):
    assert all(type(c) is int and 0 <= c < f.field.p for c in f.coeffs), f.coeffs
    assert f.coeffs == residues_of(oracle)


@pytest.mark.parametrize("p", GF_PRIMES)
def test_gf_polynomial_matches_boxed_oracle(p):
    F = GF(p)
    rng = random.Random(14000 + p)
    degrees = [0, 1, 2, 70] + [rng.randint(0, 70) for _ in range(8)]
    for da in degrees:
        db = rng.choice([0, 1, 2, rng.randint(0, 70)])
        f, A = build(rng, F, random_residues(rng, p, da))
        g, B = build(rng, F, random_residues(rng, p, db))
        assert_stored(f, A)
        assert_stored(g, B)
        assert_stored(f + g, o_add(F, A, B))
        assert_stored(f - g, o_sub(F, A, B))
        assert_stored(g - f, o_sub(F, B, A))
        assert_stored(-f, [-c for c in A])
        assert_stored(f - f, [])
        assert_stored(f * g, o_mul(F, A, B))
        Q, R = o_divmod(F, A, B)
        quot, rem = divmod(f, g)
        assert_stored(quot, Q)
        assert_stored(rem, R)
        assert_stored(f // g, Q)
        assert_stored(f % g, R)
        assert_stored(f.monic(), o_monic(F, A))
        assert_stored(f.derivative(), o_derivative(A))
        gcd = poly_gcd(f, g)
        assert_stored(gcd, o_gcd(F, A, B))
        d, s, t = poly_xgcd(f, g)
        assert d == gcd and s * f + t * g == d
        # scalars: GFElement, int and the reflected forms
        c = rng.randrange(p)
        assert_stored(f * F(c), o_mul(F, A, [F(c)] if c else []))
        assert_stored(F(c) * f, o_mul(F, A, [F(c)] if c else []))
        assert_stored(f + c, o_add(F, A, [F(c)] if c else []))
        assert_stored(c - f, o_sub(F, [F(c)] if c else [], A))
        # evaluation, coefficients and the leading coefficient are field elements
        x0 = rng.randrange(p)
        for point in (x0, F(x0)):
            value = f(point)
            assert type(value) is GFElement and value == o_eval(F, A, F(x0))
        for i in range(-2, len(A) + 3):
            ci = f.coeff(i)
            assert type(ci) is GFElement
            assert ci == (A[i] if 0 <= i < len(A) else F.zero)
        assert type(f.leading()) is GFElement and f.leading() == A[-1]
        assert f.to_str() == o_to_str(A) and f.to_str("t") == o_to_str(A, "t")
        # the same residues from other inputs: equal, with equal hashes
        again, _ = build(rng, F, [c.v for c in A])
        assert again == f and hash(again) == hash(f)
        assert Polynomial(F, [c.v for c in A]) == f
        assert (f == g) == (A == B)


@pytest.mark.parametrize("p", GF_PRIMES)
def test_gf_modular_power_matches_boxed_oracle(p):
    F = GF(p)
    rng = random.Random(14100 + p)
    for _ in range(4):
        f, A = build(rng, F, random_residues(rng, p, rng.randint(0, 70)))
        m, M = build(rng, F, random_residues(rng, p, rng.randint(1, 12)))
        for e in (0, 1, 2, p, rng.randint(3, 3 * p)):
            assert_stored(pow(f, e, m), o_pow_mod(F, A, e, M))
    f, A = build(rng, F, random_residues(rng, p, 5))
    assert_stored(f ** 3, o_mul(F, o_mul(F, A, A), A))


def test_gf_coefficient_past_the_degree_is_the_field_zero():
    F = GF(7)
    for f in (Polynomial.zero(F), Polynomial(F, [3]), Polynomial(F, [0, 0, 5])):
        for i in (-1, f.degree() + 1, 50):
            zero = f.coeff(i)
            assert type(zero) is GFElement and zero == F.zero and not zero
    with pytest.raises(ValueError):
        Polynomial.zero(F).leading()


def test_gf_inputs_of_every_kind_store_the_same_ints():
    F = GF(5)
    kinds = [
        [1, 2, 3],
        [F(1), F(2), F(3)],
        [-4, -8, 13],
        [Fraction(1, 6), Fraction(2, 11), Fraction(9, 3)],
        [True, F(7), Fraction(-2)],
    ]
    polys = [Polynomial(F, cs) for cs in kinds]
    assert all(f.coeffs == (1, 2, 3) for f in polys)
    assert all(type(c) is int for f in polys for c in f.coeffs)
    assert len({hash(f) for f in polys}) == 1
    assert all(f == polys[0] for f in polys)
    assert Polynomial(F, [False, 0, F(5), Fraction(10, 3)]).is_zero()
    with pytest.raises(ValueError):
        Polynomial(F, [GF(7)(1)])
    with pytest.raises(ReductionError):
        Polynomial(F, [Fraction(1, 5)])


def test_product_over_a_function_field_starts_from_the_first_product(monkeypatch):
    """Over GF(5)(q)[x] each output coefficient of a product is its first
    product plus the others: (3 - 1) + (4 - 1) additions short of the 12
    products, none of them with zero."""
    from pcurvkit.ratfunc import RationalFunction

    K = FunctionField(GF(5), "q")
    q = K.gen()
    f = Polynomial(K, [q + 1, 2 * q, 1 / q])
    g = Polynomial(K, [q, q * q + 3, 4 / (q + 2), K.one])
    expected = [K.zero] * 6
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            expected[i + j] = expected[i + j] + a * b
    calls = []
    real = RationalFunction.__add__

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(RationalFunction, "__add__", spy)
    assert f * g == Polynomial(K, expected)
    assert len(calls) == 6
    # positions that no product reaches hold the field's zero
    x = Polynomial.x(K)
    sparse = (x ** 3 + Polynomial.one(K)) * (x + Polynomial.one(K))
    assert sparse.coeffs == (K.one, K.one, K.zero, K.one, K.one)


# QQ[x] stores integer numerators over one positive denominator in lowest
# terms; the Fraction lists below, run through the same schoolbook oracles
# as GF(p), are how the coefficients were stored before.


def random_fractions(rng, degree):
    """degree + 1 Fractions with a nonzero top, of either sign, over small
    denominators that share factors, so sums and products cancel some."""
    dens = (1, 2, 3, 4, 6, 9, 12)
    cs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(degree)]
    return cs + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(dens))]


def as_qq_input(rng, c):
    """The Fraction c as one of the inputs Polynomial accepts over QQ."""
    kinds = [lambda: c, lambda: str(c)]
    if c.denominator == 1:
        kinds.append(lambda: int(c))
    if c in (0, 1):
        kinds.append(lambda: bool(c))
    return rng.choice(kinds)()


def assert_qq_stored(f, oracle):
    """f stores ints over den > 0 in lowest terms, and means oracle."""
    assert f.field == QQ
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int for c in f.coeffs), f.coeffs
    assert math.gcd(f.den, *f.coeffs) == 1, (f.coeffs, f.den)
    assert [Fraction(c, f.den) for c in f.coeffs] == list(oracle)


@pytest.mark.parametrize("seed", range(4))
def test_qq_polynomial_matches_fraction_oracle(seed):
    F = QQ
    rng = random.Random(29000 + seed)
    degrees = [0, 1, 2, 12] + [rng.randint(0, 12) for _ in range(8)]
    for da in degrees:
        A = random_fractions(rng, da)
        B = random_fractions(rng, rng.choice([0, 1, 2, rng.randint(0, 12)]))
        f = Polynomial(F, [as_qq_input(rng, c) for c in A])
        g = Polynomial(F, [as_qq_input(rng, c) for c in B])
        assert_qq_stored(f, A)
        assert_qq_stored(g, B)
        assert_qq_stored(f + g, o_add(F, A, B))
        assert_qq_stored(f - g, o_sub(F, A, B))
        assert_qq_stored(g - f, o_sub(F, B, A))
        assert_qq_stored(-f, [-c for c in A])
        assert_qq_stored(f - f, [])
        assert_qq_stored(f * g, o_mul(F, A, B))
        Q, R = o_divmod(F, A, B)
        quot, rem = divmod(f, g)
        assert_qq_stored(quot, Q)
        assert_qq_stored(rem, R)
        assert_qq_stored(f // g, Q)
        assert_qq_stored(f % g, R)
        assert_qq_stored(f.monic(), o_monic(F, A))
        assert_qq_stored(f.derivative(), o_derivative(A))
        assert_qq_stored(poly_gcd(f, g), o_gcd(F, A, B))
        # scalars: Fraction, int, a degree-0 polynomial and the reflected forms
        c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
        cs = [c] if c else []
        for scalar in (c, Polynomial(F, [c])) + ((int(c),) if c.denominator == 1 else ()):
            assert_qq_stored(f * scalar, o_mul(F, A, cs))
            assert_qq_stored(scalar * f, o_mul(F, A, cs))
            assert_qq_stored(f + scalar, o_add(F, A, cs))
            assert_qq_stored(scalar - f, o_sub(F, cs, A))
        # evaluation, coefficients and the leading coefficient are Fractions
        for point in (Fraction(rng.randint(-7, 7), rng.randint(1, 5)), rng.randint(-4, 4)):
            value = f(point)
            assert type(value) is Fraction and value == o_eval(F, A, Fraction(point))
        for i in range(-2, len(A) + 3):
            ci = f.coeff(i)
            assert type(ci) is Fraction and ci == (A[i] if 0 <= i < len(A) else 0)
        assert type(f.leading()) is Fraction and f.leading() == A[-1]
        assert f.to_str() == o_to_str(A) and f.to_str("t") == o_to_str(A, "t")
        # the same coefficients from other inputs: equal, with equal hashes
        again = Polynomial(F, [as_qq_input(rng, c) for c in A])
        assert again == f and hash(again) == hash(f)
        scaled = Polynomial(F, [c * A[-1].denominator for c in A]) * Fraction(1, A[-1].denominator)
        assert scaled == f and hash(scaled) == hash(f)
        assert (f == g) == (A == B)


def test_qq_results_are_cut_to_lowest_terms():
    """Sums, differences, scalings, derivatives and quotients whose
    numerators share a factor with den come back in lowest terms; the zero
    polynomial is () over 1 however it is reached; a negative leading
    coefficient keeps den positive."""
    half = Polynomial(QQ, [Fraction(1, 2), Fraction(1, 2)])
    assert (half + half).coeffs == (1, 1) and (half + half).den == 1
    f = Polynomial(QQ, [Fraction(1, 6), Fraction(5, 6)])
    g = Polynomial(QQ, [Fraction(1, 6), Fraction(1, 6)])
    assert ((f - g).coeffs, (f - g).den) == ((0, 2), 3)
    assert ((f * 3).coeffs, (f * 3).den) == ((1, 5), 2)
    assert ((f * Polynomial(QQ, [6])).coeffs, (f * Polynomial(QQ, [6])).den) == ((1, 5), 1)
    cube = Polynomial(QQ, [0, 0, 0, Fraction(1, 3)])
    assert (cube.derivative().coeffs, cube.derivative().den) == ((0, 0, 1), 1)
    quot, rem = divmod(Polynomial(QQ, [Fraction(3, 4), Fraction(3, 2)]), Polynomial(QQ, [1, 2]))
    assert (quot.coeffs, quot.den, rem.coeffs) == ((3,), 4, ())
    zeros = [Polynomial.zero(QQ), Polynomial(QQ, [Fraction(0, 5), 0]), f - f,
             f * 0, half * Polynomial.zero(QQ), cube.derivative().derivative().derivative() - 2]
    for z in zeros:
        assert (z.coeffs, z.den) == ((), 1) and z == zeros[0] and hash(z) == hash(zeros[0])
        assert z(Fraction(3, 7)) == 0 and z.to_str() == "0"
    neg = Polynomial(QQ, [1, Fraction(-2, 3)])
    assert (neg.coeffs, neg.den) == ((3, -2), 3)
    assert (neg.monic().coeffs, neg.monic().den) == ((-3, 2), 2)
    assert ((-neg).coeffs, (-neg).den) == ((-3, 2), 3)
    assert neg.to_str() == "-2/3*x + 1" and neg.leading() == Fraction(-2, 3)
    assert neg(Fraction(3, 2)) == 0 and neg(3) == -1


def test_qq_products_and_sums_build_no_fraction(monkeypatch):
    """+, - and * on QQ[x] polynomials, by each other and by an int or a
    degree-0 polynomial, run on the stored ints alone."""
    f = Polynomial(QQ, [Fraction(1, 6), Fraction(-5, 4), 2, Fraction(7, 9)])
    g = Polynomial(QQ, [Fraction(2, 3), 1, Fraction(-1, 2)])
    c = Polynomial(QQ, [Fraction(-3, 8)])
    built = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    results = [f * g, g * f, f + g, f - g, f * c, c * f, f * 4, 4 * f, f + c, f + 4, 4 - f, -f]
    monkeypatch.undo()
    assert built == []
    assert results[0] == results[1] and results[4] == results[5] and results[6] == results[7]
