"""Number field arithmetic, minimal polynomials, unit-root detection,
certified embeddings, and compositum construction.

The fixtures lean on the two quadratic workhorses, the Gaussian field and
the golden-ratio field, because every expected value can be checked by hand
against the usual surd identities.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul

import pytest

from pcurvkit import (
    QQ,
    NumberField,
    certified_root_enclosures,
    Polynomial,
    compositum,
    is_irreducible_q,
    is_root_of_unity,
    minimal_polynomial,
    poly_xgcd,
)
from pcurvkit import numberfield
from pcurvkit.linalg import _solve_integer
from pcurvkit.numberfield import (
    CompositumError,
    NumberFieldElement,
    euler_phi_upto,
    root_of_unity_candidates,
)


def P(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def gaussian():
    return NumberField(P(1, 0, 1), "i")  # X^2 + 1


def golden():
    return NumberField(P(-1, -1, 1), "w")  # X^2 - X - 1, root (1+sqrt5)/2


def test_construction_rejects_reducible():
    with pytest.raises(ValueError):
        NumberField(P(-1, 0, 1))  # X^2 - 1


def test_gaussian_arithmetic():
    K = gaussian()
    i = K.gen
    assert i * i == K(-1)
    assert (K.one + i) * (K.one - i) == K(2)
    assert (K.one / (K.one + i)) * (K.one + i) == K.one


def test_element_inverse_random():
    K = golden()
    rng = random.Random(55)
    for _ in range(25):
        e = K.element([Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))])
        if not e:
            continue
        assert e * e.inverse() == K.one


def test_power_matches_repeated_multiplication():
    K = golden()
    w = K.gen
    acc = K.one
    for n in range(1, 8):
        acc = acc * w
        assert w ** n == acc
    # Fibonacci shadow: w^n = F(n) w + F(n-1)
    assert w ** 7 == K(13) * w + K(8)


def test_minimal_polynomial_frozen():
    K = golden()
    w = K.gen
    assert minimal_polynomial(w) == P(-1, -1, 1)
    assert minimal_polynomial(K(3)) == P(-3, 1)
    # w + 1/w = sqrt5 has min poly X^2 - 5
    assert minimal_polynomial(w + K.one / w) == P(-5, 0, 1)


def test_minimal_polynomial_divides_field_relation():
    K = gaussian()
    rng = random.Random(21)
    for _ in range(10):
        e = K.element([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))])
        m = minimal_polynomial(e)
        # m(e) = 0 inside the field
        acc = K.zero
        for k in range(m.degree() + 1):
            acc = acc + K(m.coeff(k)) * e ** k
        assert acc == K.zero


def test_root_of_unity_quartet():
    i = gaussian().gen
    assert is_root_of_unity(i) == 4
    assert is_root_of_unity(-i) == 4
    zeta6 = NumberField(P(1, -1, 1), "z").gen  # X^2 - X + 1
    assert is_root_of_unity(zeta6) == 6
    assert is_root_of_unity(golden().gen) is None
    salem = NumberField(P(1, -3, 1), "s").gen  # X^2 - 3X + 1
    assert is_root_of_unity(salem) is None
    with pytest.raises(ValueError):
        is_root_of_unity(gaussian().zero)


def test_root_of_unity_candidate_bound():
    # phi(n) <= 2 exactly for n in {1,2,3,4,6}
    assert root_of_unity_candidates(2)[:5] == [1, 2, 3, 4, 6]
    phi = euler_phi_upto(12)
    assert phi[12] == 4 and phi[7] == 6


@pytest.mark.parametrize("coeffs, signature", [
    ((1, 0, 1), (0, 1)),                 # x^2 + 1
    ((-1, -1, 1), (2, 0)),               # x^2 - x - 1
    ((-2, 0, 0, 1), (1, 1)),             # x^3 - 2
    ((1, -3, 0, 1), (3, 0)),             # x^3 - 3x + 1
    ((1, 0, 0, 0, 1), (0, 2)),           # x^4 + 1
    ((-2, 0, 0, 0, 1), (2, 1)),          # x^4 - 2
    ((5, 0, 1, -2, 1), (0, 2)),          # x^4 - 2x^3 + x^2 + 5
    ((-1, -1, 0, 0, 0, 1), (1, 2)),      # x^5 - x - 1
])
def test_signature_table(coeffs, signature):
    """The certified enclosures of the roots count the real embeddings and
    the pairs of complex ones."""
    K = NumberField(P(*coeffs))
    reals, boxes = certified_root_enclosures(K.min_poly)
    assert (len(reals), len(boxes)) == signature


def test_automorphisms_quadratic():
    K = gaussian()
    auts = K.automorphisms()
    assert len(auts) == 2
    conj = auts[1]
    i = K.gen
    assert conj(i) == -i
    assert conj(K(5) + K(2) * i) == K(5) - K(2) * i


def test_compositum_golden_gaussian():
    F1 = golden()
    F2 = gaussian()
    K, f1, f2 = compositum(F1, F2)
    assert K.degree == 4
    w = f1(F1.gen)
    i = f2(F2.gen)
    assert w * w == w + K.one
    assert i * i == -K.one
    assert minimal_polynomial(w) == P(-1, -1, 1)
    assert minimal_polynomial(i) == P(1, 0, 1)
    assert w * i == i * w


def test_compositum_shortcuts():
    F = gaussian()
    K, f1, f2 = compositum(F, F)
    assert K.degree == 2
    assert f1(F.gen) == f2(F.gen)

    Q1 = NumberField(P(0, 1), "t")  # degree 1
    K2, g1, g2 = compositum(Q1, F)
    assert K2.degree == 2
    assert g1(Q1.one) == K2.one


def test_compositum_rejects_overlap():
    # Q(sqrt2) appears inside Q(2^{1/4}); the tensor product is not a field
    F1 = NumberField(P(-2, 0, 1), "r")
    F2 = NumberField(P(-2, 0, 0, 0, 1), "s")
    with pytest.raises(CompositumError):
        compositum(F1, F2, k_range=2)


# Minimal polynomials of the compositum's field and the images of the two
# generators, as coordinates in its power basis.  Coefficients ascend.
FIELDS = {
    "golden": (-1, -1, 1),
    "i": (1, 0, 1),
    "i+1": (2, 2, 1),  # root -1 + i: Q(i) again, under another polynomial
    "sqrt2": (-2, 0, 1),
    "sqrt3": (-3, 0, 1),
    "sqrt5": (-5, 0, 1),
    "sqrt8": (-8, 0, 1),
    "cbrt2": (-2, 0, 0, 1),
    "cbrt3": (-3, 0, 0, 1),
    "2^(1/4)": (-2, 0, 0, 0, 1),
    "zeta3": (1, 1, 1),
    "zeta5": (1, 1, 1, 1, 1),
    "1/2": (Fraction(-1, 2), 1),
}

COMPOSITA = [
    ("golden", "i", "5 0 1 -2 1",
     "2/9 4/9 1/3 -2/9", "-2/9 5/9 -1/3 2/9"),
    ("sqrt2", "sqrt3", "1 0 -10 0 1",
     "0 -9/2 0 1/2", "0 11/2 0 -1/2"),
    ("i", "cbrt2", "5 12 3 -4 3 0 1",
     "-91/22 -39/11 39/11 -20/11 9/22 -6/11",
     "91/22 50/11 -39/11 20/11 -9/22 6/11"),
    ("sqrt2", "zeta3", "7 -2 -1 2 1",
     "5/11 9/11 -3/11 -2/11", "-5/11 2/11 3/11 2/11"),
    ("zeta3", "i", "1 4 5 2 1",
     "-4 -8 -3 -2", "4 9 3 2"),
    ("cbrt2", "sqrt5", "-121 -60 75 -4 -15 0 1",
     "2275/4054 -1714/2027 195/2027 500/2027 -9/4054 -30/2027",
     "-2275/4054 3741/2027 -195/2027 -500/2027 9/4054 30/2027"),
    ("i", "zeta5", "1 -4 -2 10 16 10 7 2 1",
     "-1651/541 1575/541 8515/541 11280/541 6895/541 4496/541 1305/541 600/541",
     "1651/541 -1034/541 -8515/541 -11280/541 -6895/541 -4496/541 -1305/541 -600/541"),
    ("1/2", "i", "1 0 1", "1/2 0", "0 1"),
    ("i", "1/2", "1 0 1", "0 1", "1/2 0"),
    ("i", "i", "1 0 1", "0 1", "0 1"),
]


def field(name):
    return NumberField(P(*FIELDS[name]), name)


def coords(text):
    return [Fraction(c) for c in text.split()]


def compositum_rows():
    for a, b, m, g1, g2 in COMPOSITA:
        F1, F2 = field(a), field(b)
        yield pytest.param(F1, F2, coords(m), coords(g1), coords(g2), id=f"{a}*{b}")


@pytest.mark.parametrize("F1, F2, m, g1, g2", list(compositum_rows()))
def test_compositum_frozen(F1, F2, m, g1, g2):
    K, f1, f2 = compositum(F1, F2)
    assert K.min_poly == Polynomial(QQ, m)
    assert list(f1(F1.gen).coords) == g1
    assert list(f2(F2.gen).coords) == g2


@pytest.mark.parametrize("F1, F2, m, g1, g2", list(compositum_rows()))
def test_compositum_embeddings_are_ring_homomorphisms(F1, F2, m, g1, g2):
    K, f1, f2 = compositum(F1, F2)
    rng = random.Random(f"{F1!r} {F2!r}")
    for F, f in ((F1, f1), (F2, f2)):
        assert f(F.one) == K.one
        assert minimal_polynomial(f(F.gen)) == F.min_poly
        for _ in range(4):
            a, b = (F.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(F.degree)]) for _ in range(2))
            assert f(a + b) == f(a) + f(b)
            assert f(a * b) == f(a) * f(b)
    assert f1(F1.gen) * f2(F2.gen) == f2(F2.gen) * f1(F1.gen)


def not_disjoint(k, degree):
    return (f"theta1 + k*theta2 at k = {k} has a reducible minimal polynomial of "
            f"degree {degree}: the tensor product is not a field, so the fields are "
            f"not linearly disjoint")


@pytest.mark.parametrize("a, b, degree, message", [
    # m reducible at the first k of full degree: stop there
    pytest.param("sqrt5", "golden", 4, not_disjoint(1, 4), id="sqrt5-golden-4"),
    pytest.param("sqrt2", "sqrt8", 4, not_disjoint(1, 4), id="sqrt2-sqrt8-4"),
    # mu of degree 3 at k = 1 and k = -1, full degree and reducible at k = 2
    pytest.param("i", "i+1", 4, not_disjoint(2, 4), id="i-i+1-4"),
    pytest.param("sqrt2", "2^(1/4)", 8, not_disjoint(1, 8), id="sqrt2-2^(1/4)-8"),
    # degree 9: irreducibility undecided at every k
    pytest.param("cbrt2", "cbrt3", 9,
                 "irreducibility of the degree-9 minimal polynomials of theta1 + k*theta2, "
                 "|k| <= 2, is undecided, so whether the fields are linearly disjoint is "
                 "undecided", id="cbrt2-cbrt3-9"),
])
def test_compositum_error_frozen(a, b, degree, message):
    with pytest.raises(CompositumError) as exc:
        compositum(field(a), field(b), k_range=2)
    assert str(exc.value) == message


def test_compositum_error_when_no_k_reaches_full_degree():
    with pytest.raises(CompositumError) as exc:
        compositum(field("i"), field("i+1"), k_range=1)
    assert str(exc.value) == (
        "no primitive element theta1 + k*theta2 with |k| <= 1 reaches degree 4; "
        "are the fields linearly disjoint?")


def test_compositum_stops_at_first_reducible_full_degree(monkeypatch):
    """One reducible m of full degree proves the tensor product is not a
    field, so no further k is tried."""
    calls = []

    def spy(f):
        calls.append(f)
        return is_irreducible_q(f)

    F1, F2 = field("sqrt2"), field("2^(1/4)")
    monkeypatch.setattr(numberfield, "is_irreducible_q", spy)
    with pytest.raises(CompositumError, match="at k = 1 "):
        compositum(F1, F2)
    assert len(calls) == 1


def test_rational_value_round_trip():
    K = gaussian()
    e = K(Fraction(7, 3))
    assert e.is_rational()
    assert e.rational_value() == Fraction(7, 3)
    assert not (K.gen + K.one).is_rational()


# -- the cleared representation against the Fraction reference ----------------------


def fraction_mul(a, b):
    """Product coordinates by the Fraction loop the cleared representation
    replaced: theta^k for k = 0..2d-2 as Fraction rows, one term at a time."""
    f, d = a.field.min_poly, a.field.degree
    table = [[Fraction(int(t == k)) for t in range(d)] for k in range(d)]
    top = [-f.coeff(i) for i in range(d)]
    for _ in range(d - 1):
        prev = table[-1]
        table.append([s + prev[d - 1] * t for s, t in zip([Fraction(0)] + prev[:d - 1], top)])
    out = [Fraction(0)] * d
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            for t in range(d):
                out[t] += x * y * table[i + j][t]
    return tuple(out)


CLEARED_FIELDS = {
    "i": (1, 0, 1),
    "quartic": (5, 0, 1, -2, 1),  # the certification field x^4 - 2x^3 + x^2 + 5
    "x^3-x/2+1/3": (Fraction(1, 3), Fraction(-1, 2), 0, 1),
    "degree 1": (Fraction(-3, 2), 1),
}


def assert_canonical(e):
    assert e.den > 0 and gcd(e.den, *e.num) == 1
    assert all(isinstance(n, int) for n in e.num)


def random_element(K, rng):
    return K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(K.degree)])


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_cleared_arithmetic_matches_fraction_reference(name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    if name == "x^3-x/2+1/3":
        assert K._int_den > 1
    rng = random.Random(f"cleared {name}")
    for _ in range(60):
        a, b = random_element(K, rng), random_element(K, rng)
        square = K.element(fraction_mul(a, a))
        results = [
            (a * b, fraction_mul(a, b)),
            (a + b, tuple(x + y for x, y in zip(a.coords, b.coords))),
            (a - b, tuple(x - y for x, y in zip(a.coords, b.coords))),
            (-a, tuple(-x for x in a.coords)),
            (a ** 3, fraction_mul(a, square)),
        ]
        if a:
            inv = a.inverse()
            results.append((inv, inv.coords))
            assert fraction_mul(a, inv) == K.one.coords
        for e, want in results:
            assert_canonical(e)
            assert e.coords == want


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_equal_elements_by_different_paths_compare_and_hash_equal(name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"paths {name}")
    for _ in range(30):
        a, b, c = (random_element(K, rng) for _ in range(3))
        pairs = [
            ((a + b) * c, a * c + b * c),
            (a * b, b * a),
            ((a - b) + b, a),
            (K.element((a * b).coords), a * b),
            (a * K(Fraction(2, 3)), (a + a) / K(3)),
        ]
        if b:
            pairs.append(((a * b) / b, a))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x.num, x.den) == (y.num, y.den)
    zero = a - a
    assert zero == K.zero and (zero.num, zero.den) == ((0,) * K.degree, 1)
    assert not zero and K(Fraction(-4, 6)) == Fraction(-2, 3)


# -- dot, inverse and subtraction against their references ------------------------


def sparse_element(K, rng):
    """Zero coordinates, and now and then zero, over mixed denominators."""
    if rng.random() < 0.15:
        return K.zero
    return K.element([0 if rng.random() < 0.3 else
                      Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 12)))
                      for _ in range(K.degree)])


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_dot_matches_sum_of_products(name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"dot {name}")
    for _ in range(80):
        n = rng.randint(1, 5)
        xs = [sparse_element(K, rng) for _ in range(n)]
        ys = [sparse_element(K, rng) for _ in range(n)]
        got = K.dot(xs, ys)
        assert_canonical(got)
        assert got == reduce(add, map(mul, xs, ys))
        want = [sum(c) for c in zip(*(fraction_mul(x, y) for x, y in zip(xs, ys)))]
        assert list(got.coords) == want
    assert K.dot([K.zero], [K.one]) == K.zero and K.dot([K.zero], [K.one]).den == 1



@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_right_product_map_matches_row_times_matrix(name):
    """R times the cleared coordinates of a row m over K is E times those of
    the row m * S, for square S of sizes 1 to 3 with zero entries and mixed
    denominators."""
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"right product {name}")
    for _ in range(30):
        n = rng.randint(1, 3)
        S = [[sparse_element(K, rng) for _ in range(n)] for _ in range(n)]
        m = [sparse_element(K, rng) for _ in range(n)]
        R, E = K.right_product_map(S)
        assert len(R) == n * K.degree and {len(r) for r in R} == {n * K.degree}
        den = lcm(*(e.den for e in m))
        coords = [c * (den // e.den) for e in m for c in e.num]
        want = [K.dot(m, col) for col in zip(*S)]
        assert [sum(map(mul, r, coords)) for r in R] == [
            E * den * c for e in want for c in e.coords]

def xgcd_inverse(e):
    """Coordinates of 1/e by the extended Euclidean algorithm on Fraction
    polynomials: the route NumberFieldElement.inverse took before it solved
    a linear system."""
    f = e.field.min_poly
    g, s, _ = poly_xgcd(Polynomial(QQ, list(e.coords)), f)
    inv = (s * Polynomial.constant(QQ, 1 / g.coeff(0))) % f
    return tuple(inv.coeff(k) for k in range(e.field.degree))


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_inverse_matches_xgcd_oracle(name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"inverse {name}")
    for _ in range(60):
        e = sparse_element(K, rng)
        if not e:
            with pytest.raises(ZeroDivisionError):
                e.inverse()
            continue
        inv = e.inverse()
        assert_canonical(inv)
        assert inv.coords == xgcd_inverse(e)
        assert e * inv == K.one


def element_route_inverse(e):
    """1/e from the system NumberFieldElement.inverse solves, read back
    through NumberField.element, one Fraction per coordinate: the route the
    inverse took before it kept the solution's numerators over one lcm."""
    K = e.field
    d, D = K.degree, K._int_den
    cols = [list(e.num)]
    for _ in range(d - 1):
        prev = cols[-1]
        cols.append([D * s + prev[-1] * t for s, t in zip([0] + prev[:-1], K._int_table[0])])
    rows = [list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))]
    w = _solve_integer(rows, d)
    return K.element([e.den * D ** j * wj for j, (wj,) in enumerate(w)])


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_inverse_equals_the_element_route(name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"inverse route {name}")
    for _ in range(199):
        e = random_element(K, rng)
        if not e:
            continue
        inv = e.inverse()
        want = element_route_inverse(e)
        assert_canonical(inv)
        assert (inv.num, inv.den) == (want.num, want.den)


def test_inverse_of_a_zero_divisor_raises():
    R = NumberField(P(-1, 0, 1), "t", check=False)  # X^2 - 1 = (X - 1)(X + 1)
    with pytest.raises(ZeroDivisionError, match="shares a factor"):
        (R.gen - R.one).inverse()
    assert (R.gen + R(2)).inverse() == R.element([Fraction(2, 3), Fraction(-1, 3)])


def built_by(monkeypatch, op):
    """op() and the number of NumberFieldElements it built."""
    built = []
    real = NumberFieldElement.__init__

    def spy(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(NumberFieldElement, "__init__", spy)
    try:
        return op(), len(built)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", list(CLEARED_FIELDS))
def test_subtraction_builds_one_element(monkeypatch, name):
    K = NumberField(P(*CLEARED_FIELDS[name]), "w")
    rng = random.Random(f"sub {name}")
    for _ in range(30):
        a, b = sparse_element(K, rng), sparse_element(K, rng)
        got, count = built_by(monkeypatch, lambda: a - b)
        assert count == 1
        assert_canonical(got)
        assert got.coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    for c in (3, Fraction(-5, 6)):
        got, count = built_by(monkeypatch, lambda: c - a)
        assert count == 2  # K(c), then c - a
        assert_canonical(got)
        assert got.coords == (c - a.coords[0],) + tuple(-x for x in a.coords[1:])
