"""Connections on the affine line and their p-curvatures.

The independent oracle for the p-curvature is the full word expansion of
the p-th power of the connection operator: nabla = D + A acting on column
vectors, expanded into all 2^p compositions of the two summands.  Summing
every word applied to a standard basis vector rebuilds nabla^p column by
column, with no reference to the recursion the library uses internally.

The second oracle is the plain recursion A_{k+1} = D(A_k) + A*A_k on
reduced rational functions, one normalisation per entry and step, which
the library's denominator-cleared kernel replaces.  The twist multiplier
v = D^{p-1}(u) has the same kind of oracle: p - 1 applications of D, which
the library's closed form replaces.

The point value psi_p(x0) from a truncated series solution shares no code
with the kernel, so kernel and point check each other at the point.  The
library runs that series on packed rows, one int per matrix row; its
oracle is value_at_reference, the same recurrence on lists of ints.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import random
import sys
from fractions import Fraction

import pytest

from pcurvkit import connection
from pcurvkit import (
    GF,
    QQ,
    CompanionConnection,
    ConnectionMatrix,
    Derivation,
    FunctionField,
    IrreducibilityUndecided,
    Matrix,
    Polynomial,
    frobenius_twist_multiplier,
    gauge_transform,
    nabla_power_matrix,
    p_curvature,
    p_curvature_at,
    poly_gcd,
    scan_primes,
)
from pcurvkit.connection import PCurvatureReport
from pcurvkit.deformation import BlockExtension, block_power_pair
from pcurvkit.fields import ReductionError, primes_in
from pcurvkit.poly import PolynomialRing
from pcurvkit.ratfunc import RationalFunction, common_denominator


def qq_line():
    return FunctionField(QQ, "x")


def rand_ratfunc(K, rng, deg=2, denom=False):
    num = K.polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, deg + 1))])
    f = K.from_poly(num)
    if denom:
        den = K.polynomial([rng.randint(-2, 2) for _ in range(2)])
        if not den.is_zero():
            f = f / K.from_poly(den)
    return f


def rand_connection(K, D, rng, n=2):
    rows = [[rand_ratfunc(K, rng) for _ in range(n)] for _ in range(n)]
    return ConnectionMatrix(Matrix(K, rows), D)


def iterate(D, f, k):
    """D applied k times to f."""
    for _ in range(k):
        f = D(f)
    return f


# -- derivations -------------------------------------------------------------


def test_derivation_leibniz():
    K = qq_line()
    D = Derivation.d_dx(K)
    rng = random.Random(3)
    for _ in range(10):
        f = rand_ratfunc(K, rng, denom=True)
        g = rand_ratfunc(K, rng, denom=True)
        assert D(f * g) == D(f) * g + f * D(g)


def test_x_d_dx_on_monomials():
    K = qq_line()
    D = Derivation.x_d_dx(K)
    x = K.gen()
    assert D(x ** 4) == K(4) * x ** 4
    assert D(K.one / x) == -K.one / x
    assert iterate(D, x, 3) == x


def test_derivation_iterate_matches_composition():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    f = x ** 5
    assert iterate(D, f, 2) == K(20) * x ** 3
    assert iterate(D, f, 0) == f


# -- Frobenius twist ----------------------------------------------------------


def test_twist_multiplier_for_d_dx():
    """u = 1 gives D^{p-1}(1) = 0 for every p > 1."""
    K = qq_line()
    D = Derivation.d_dx(K)
    for p in (2, 3, 5, 7):
        v = frobenius_twist_multiplier(D, p)
        assert v.is_zero()


def test_twist_multiplier_for_x_d_dx():
    # u = x is fixed by D = x d/dx, so D^{p-1}(x) = x
    K = qq_line()
    D = Derivation.x_d_dx(K)
    for p in (2, 3, 5):
        v = frobenius_twist_multiplier(D, p)
        Kp = FunctionField(GF(p), "x")
        assert v == Kp.gen()


def test_twist_multiplier_frozen_quadratic():
    # u = x^2, D = x^2 d/dx: D(x^2) = 2x^3, D^2(x^2) = 6x^4, D^{p-1} adds
    # a degree each step with factorial-like coefficients
    K = qq_line()
    x = K.gen()
    D = Derivation(x * x)
    v = frobenius_twist_multiplier(D, 3)
    K3 = FunctionField(GF(3), "x")
    x3 = K3.gen()
    assert v == K3(6) * x3 ** 4  # reduces to 0 mod 3
    assert v.is_zero()


def rand_multiplier(K, rng, deg_a=3, deg_b=2):
    """A random nonzero a/b over K with deg a <= deg_a and deg b <= deg_b;
    coefficients come from rand_scalar, so over a tower they carry
    q-denominators."""
    a = K.polynomial([rand_scalar(K.base, rng) for _ in range(rng.randint(1, deg_a + 1))])
    while a.is_zero():
        a = K.polynomial([rand_unit(K.base, rng)])
    b = K.polynomial([rand_scalar(K.base, rng) for _ in range(rng.randint(0, deg_b))]
                     + [rand_unit(K.base, rng)])
    return K.from_poly(a) / K.from_poly(b)


def test_closed_form_twist_matches_iteration_over_prime_fields():
    rng = random.Random(1013)
    for p in (2, 3, 5, 7, 11, 13):
        K = FunctionField(GF(p), "x")
        for _ in range(6):
            D = Derivation(rand_multiplier(K, rng))
            assert frobenius_twist_multiplier(D, p) == iterate(D, D.u, p - 1), (p, D)


def test_closed_form_twist_matches_iteration_over_tower():
    rng = random.Random(1014)
    for p in (2, 3, 5, 7):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        for _ in range(4):
            # degrees kept small: every coefficient operation over the
            # tower, the oracle's above all, is a gcd over GF(p)[q]
            D = Derivation(rand_multiplier(K, rng, 1, 1))
            assert frobenius_twist_multiplier(D, p) == iterate(D, D.u, p - 1), (p, D)


def test_multiplier_vanishing_mod_p_is_a_reduction_error():
    """u = 5x vanishes mod 5, and u = 5x + 1 drops its numerator degree:
    the derivation, the twist and the connection all report 5 as a bad
    prime."""
    K = qq_line()
    x = K.gen()
    for u, what in ((K(5) * x, "vanishes"), (K(5) * x + K.one, "drops its numerator degree")):
        D = Derivation(u)
        A = ConnectionMatrix(Matrix(K, [[K.one]]), D)
        for reduce in (lambda: D.reduce_mod(FunctionField(GF(5), "x")),
                       lambda: frobenius_twist_multiplier(D, 5),
                       lambda: A.reduce_mod(5)):
            with pytest.raises(ReductionError, match=f"derivation multiplier {what} mod 5"):
                reduce()
        assert not p_curvature(A, 5).good_prime
        assert p_curvature(A, 7).good_prime


def test_closed_form_twist_reduces_characteristic_zero_input():
    K = qq_line()
    x = K.gen()
    D = Derivation((x * x + K(3)) / (x + K(Fraction(1, 2))))
    for p in (3, 5, 7):
        Dp = D.reduce_mod(FunctionField(GF(p), "x"))
        assert frobenius_twist_multiplier(D, p) == iterate(Dp, Dp.u, p - 1)


# -- p-curvature: frozen examples ---------------------------------------------


def test_rank_one_fermat_style_vanishes():
    """x d/dx with scalar matrix (a): psi_p = a^p - a = 0 over GF(p)."""
    K = qq_line()
    D = Derivation.x_d_dx(K)
    for a in (-2, 0, 1, 5):
        A = ConnectionMatrix(Matrix(K, [[a]]), D)
        for p in (2, 3, 5, 7, 11):
            rep = p_curvature(A, p)
            assert rep.good_prime
            assert rep.vanishes, (a, p)


def test_rank_one_exponential_never_vanishes():
    # (d/dx, A = (1)): nabla^p (1) = 1, twist term 0, psi_p = (1) != 0
    K = qq_line()
    D = Derivation.d_dx(K)
    A = ConnectionMatrix(Matrix(K, [[1]]), D)
    for p in (2, 3, 5, 7):
        rep = p_curvature(A, p)
        assert rep.good_prime and not rep.vanishes
        assert rep.psi.entry(0, 0) == FunctionField(GF(p), "x").one


def test_bad_prime_from_entry_denominator():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[K.one / (x - K(Fraction(1, 2)))]]), D)
    rep = p_curvature(A, 2)  # 1/2 has no meaning mod 2
    assert not rep.good_prime
    assert rep.psi is None


def test_bad_prime_from_multiplier_degree_drop():
    K = qq_line()
    x = K.gen()
    D = Derivation(K(2) * x)  # leading coefficient dies mod 2
    A = ConnectionMatrix(Matrix(K, [[1]]), D)
    assert not p_curvature(A, 2).good_prime
    assert p_curvature(A, 3).good_prime


def test_char_p_input_computed_directly():
    Kp = FunctionField(GF(5), "x")
    D = Derivation.d_dx(Kp)
    A = ConnectionMatrix(Matrix(Kp, [[1]]), D)
    rep = p_curvature(A, 5)
    assert rep.good_prime and not rep.vanishes


def test_p_curvature_rejects_wrong_characteristic():
    Kp = FunctionField(GF(5), "x")
    D = Derivation.d_dx(Kp)
    A = ConnectionMatrix(Matrix(Kp, [[1]]), D)
    with pytest.raises(ValueError):
        p_curvature(A, 7)


# -- p-curvature: word-expansion oracle ----------------------------------------


def apply_word(word, A, D, vec):
    """Apply a composition of nabla summands to a column vector.

    word is a string over {'A', 'D'} read right to left: the rightmost
    letter acts first.  'A' multiplies by the connection matrix, 'D'
    differentiates entries.
    """
    out = vec
    for letter in reversed(word):
        if letter == "A":
            out = A * out
        else:
            out = out.map_entries(D)
    return out


def nabla_power_by_words(A: ConnectionMatrix, p: int) -> Matrix:
    K = A.field
    n = A.rank
    words = ["".join(w) for w in __import__("itertools").product("DA", repeat=p)]
    cols = []
    for j in range(n):
        e = Matrix(K, [[K.one if i == j else K.zero] for i in range(n)])
        acc = Matrix.zeros(K, n, 1)
        for w in words:
            acc = acc + apply_word(w, A.matrix, A.derivation, e)
        cols.append(acc)
    return Matrix(K, [[cols[j].entry(i, 0) for j in range(n)] for i in range(n)])


def test_word_expansion_matches_recursion():
    rng = random.Random(20260401)
    for p in (2, 3):
        Kp = FunctionField(GF(p), "x")
        D = Derivation.d_dx(Kp)
        for _ in range(4):
            rows = [[Kp.polynomial([rng.randrange(p) for _ in range(3)]) for _ in range(2)]
                    for _ in range(2)]
            A = ConnectionMatrix(
                Matrix(Kp, [[Kp.from_poly(e) for e in r] for r in rows]), D)
            assert nabla_power_matrix(A, p) == nabla_power_by_words(A, p)


def nabla_power_by_recursion(A: ConnectionMatrix, k: int) -> Matrix:
    """A_k by A_1 = A, A_{k+1} = D(A_k) + A*A_k on reduced entries."""
    D = A.derivation
    acc = A.matrix
    for _ in range(k - 1):
        acc = D(acc) + A.matrix * acc
    return acc


def rand_scalar(base, rng):
    """A small element of the coefficient field; over a tower k(q) it is
    a + b*q or a + b/q, the latter a q-adic pole as in `pcurv analyze`."""
    c = base(rng.randint(-3, 3))
    if isinstance(base, FunctionField):
        q = base.gen()
        c = c + base(rng.randint(-1, 1)) * rng.choice([q, base.one / q])
    return c


def rand_unit(base, rng):
    c = rand_scalar(base, rng)
    while not c:
        c = rand_scalar(base, rng)
    return c


def rand_entry(K, rng):
    """Small random entry.  Over a flat field: degree <= 2 over 1, s*x + c
    or x^2 + c (s, c != 0).  Over a tower k(q)(x), where every coefficient
    operation is itself a gcd over k[q]: degree <= 1 over 1 or x + c."""
    x = K.gen()
    if isinstance(K.base, FunctionField):
        num = K.from_poly(K.polynomial([rand_scalar(K.base, rng) for _ in range(2)]))
        return num / rng.choice([K.one, x + K(rng.randint(1, 2))])
    num = K.from_poly(K.polynomial([rand_scalar(K.base, rng) for _ in range(3)]))
    den = rng.choice([
        K.one,
        K(rand_unit(K.base, rng)) * x + K(rand_unit(K.base, rng)),
        x * x + K(rand_unit(K.base, rng)),
    ])
    return num / den


def rand_matrix(K, rng):
    """A random 2x2 connection matrix; over a tower companion-shaped
    [[0, 1], [f, g]], which keeps the q-degrees of psi small."""
    if isinstance(K.base, FunctionField):
        return Matrix(K, [[K.zero, K.one], [rand_entry(K, rng), rand_entry(K, rng)]])
    return Matrix(K, [[rand_entry(K, rng) for _ in range(2)] for _ in range(2)])


def multipliers(K):
    """d/dx, x*d/dx and the rational multipliers 1/(x+c), (x^2+x+1)/(x+c)."""
    x = K.gen()
    c = K(2)
    return [
        Derivation.d_dx(K),
        Derivation.x_d_dx(K),
        Derivation(K.one / (x + c)),
        Derivation((x * x + x + K.one) / (x + c)),
    ]


def kernel_cases():
    """(field, powers) for GF(p)(x), QQ(x) and GF(p)(q)(x)."""
    for p in (3, 5, 7):
        yield FunctionField(GF(p), "x"), (1, 2, 3, p)
    yield FunctionField(QQ, "x"), (1, 2, 3, 4)
    yield FunctionField(FunctionField(GF(3), "q"), "x"), (1, 2, 3)


def test_kernel_matches_recursion_oracle():
    rng = random.Random(20261017)
    for K, powers in kernel_cases():
        for D in multipliers(K):
            for _ in range(2):
                A = ConnectionMatrix(rand_matrix(K, rng), D)
                for k in powers:
                    assert nabla_power_matrix(A, k) == nabla_power_by_recursion(A, k), \
                        (K, D, k)


def test_kernel_on_polynomial_and_constant_entries():
    # h = 1 (no denominators at all) and a rank-1 constant matrix
    K = FunctionField(GF(5), "x")
    x = K.gen()
    for D in multipliers(K):
        A = ConnectionMatrix(Matrix(K, [[x, K.one], [x * x, K.zero]]), D)
        B = ConnectionMatrix(Matrix(K, [[3]]), D)
        for k in (1, 2, 5):
            assert nabla_power_matrix(A, k) == nabla_power_by_recursion(A, k)
            assert nabla_power_matrix(B, k) == nabla_power_by_recursion(B, k)


def p_curvature_by_recursion(A: ConnectionMatrix, p: int) -> Matrix:
    """psi = A_p - (v/u)*A from the plain recursion and the iterated twist."""
    D = A.derivation
    twist = iterate(D, D.u, p - 1) / D.u
    return nabla_power_by_recursion(A, p) - A.matrix.scale(twist)


def test_p_curvature_matches_oracle_for_rational_multiplier_over_tower():
    """Multipliers over GF(p)(q)(x) with q-denominators in the entries and
    in the multiplier: a rational u, x/q (not a polynomial over GF(p)[q])
    and q*x, whose twists v/u are nonzero, so the oracle's A_p - (v/u)*A
    checks the p-linearity psi_p(u*d/dx) = N_p/h^p that p_curvature uses,
    with one q-constant cleared from h, H = hu and M = hA."""
    rng = random.Random(2719)
    for p in (2, 3):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        q, x = K(K.base.gen()), K.gen()
        for u in (K.one / (x + K(2)), (x + q) / (x + K.one / q), x / q, q * x):
            A = ConnectionMatrix(rand_matrix(K, rng), Derivation(u))
            assert p_curvature(A, p).psi == p_curvature_by_recursion(A, p), (p, u)


def test_p_curvature_matches_oracle_over_prime_fields():
    rng = random.Random(3141)
    for p in (2, 3, 5):
        K = FunctionField(GF(p), "x")
        for D in multipliers(K) + [Derivation(rand_multiplier(K, rng))]:
            A = ConnectionMatrix(rand_matrix(K, rng), D)
            assert p_curvature(A, p).psi == p_curvature_by_recursion(A, p), (p, D)


def test_p_curvature_is_p_linear_and_numerator_within_bound():
    """psi_p(u*d/dx) = u^p psi_p(d/dx) (Katz 1970, section 5), and with h
    the lcm of the denominators of u and of every entry, H = hu and M = hA,
    every entry of psi_p(d/dx) H^p is a polynomial of degree at most
    B = deg M + (p-1) max(deg H - 1, deg M), the bound from which point
    values prove psi_p = 0."""
    rng = random.Random(1970)
    for p in (3, 5, 7, 11):
        K = FunctionField(GF(p), "x")
        for D in multipliers(K):
            for _ in range(2):
                A = ConnectionMatrix(rand_matrix(K, rng), D)
                u = D.u
                ddx = ConnectionMatrix(A.matrix.scale(K.one / u), Derivation.d_dx(K))
                psi_dx = p_curvature(ddx, p).psi
                assert p_curvature(A, p).psi == psi_dx.scale(u ** p), (p, D)
                h = K.from_poly(common_denominator([u] + [e for row in A.matrix.rows for e in row]))
                H, M = h * u, A.matrix.scale(h)
                deg_M = max(e.num.degree() for row in M.rows for e in row)
                bound = deg_M + (p - 1) * max(H.num.degree() - 1, deg_M)
                for row in psi_dx.rows:
                    for e in row:
                        N = e * H ** p
                        assert N.den.is_one() and N.num.degree() <= bound, (p, D, N)


# -- p-curvature: rank-1 Jacobson formula ---------------------------------------


def jacobson_rank_one(a, p):
    """a^p + (d/dx)^{p-1}(a): psi_p of d/dx + a in rank 1 (Jacobson)."""
    return a ** p + iterate(lambda f: f.derivative(), a, p - 1)


def test_rank_one_jacobson_formula_over_prime_fields():
    rng = random.Random(1729)
    for p in (2, 3, 5, 7, 11, 13):
        K = FunctionField(GF(p), "x")
        D = Derivation.d_dx(K)
        for _ in range(4):
            a = rand_entry(K, rng)
            psi = p_curvature(ConnectionMatrix(Matrix(K, [[a]]), D), p).psi
            assert psi.entry(0, 0) == jacobson_rank_one(a, p), (p, a)


def test_rank_one_jacobson_formula_over_tower():
    rng = random.Random(1730)
    for p in (2, 3, 5, 7):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        D = Derivation.d_dx(K)
        for _ in range(3):
            a = rand_entry(K, rng)
            psi = p_curvature(ConnectionMatrix(Matrix(K, [[a]]), D), p).psi
            assert psi.entry(0, 0) == jacobson_rank_one(a, p), (p, a)


@pytest.fixture(scope="module")
def psi_instances():
    """(A, psi_p(A)) over GF(p)(x) for p = 5, 7, 11 and over GF(3)(q)(x),
    one random connection per multiplier."""
    rng = random.Random(5150)
    fields = [FunctionField(GF(p), "x") for p in (5, 7, 11)]
    fields.append(FunctionField(FunctionField(GF(3), "q"), "x"))
    out = []
    for K in fields:
        for D in multipliers(K):
            A = ConnectionMatrix(rand_matrix(K, rng), D)
            out.append((A, p_curvature(A, K.characteristic()).psi))
    return out


def test_p_curvature_is_horizontal(psi_instances):
    """nabla commutes with psi_p: D(psi) + A psi - psi A = 0."""
    for A, psi in psi_instances:
        D, M = A.derivation, A.matrix
        assert (D(psi) + M * psi - psi * M).is_zero(), A


def test_p_curvature_trace_and_det_are_p_th_powers(psi_instances):
    """trace(psi) and det(psi) lie in F(x^p), so their d/dx vanishes."""
    for A, psi in psi_instances:
        assert psi.trace().derivative().is_zero(), A
        assert psi.det().derivative().is_zero(), A


def _hypergeometric(K, t=0):
    # the rank-2 Gauss connection with (a, b, c) = (1/2, -1/2, 1/2), with
    # x moved to x + t
    x = K.gen() + K(t)
    den = x * (x - K.one)
    return ConnectionMatrix(Matrix(K, [
        [K.zero, K.one],
        [K(Fraction(1, 4)) / den, (K(Fraction(1, 2)) - x) / den],
    ]), Derivation.d_dx(K))


def test_nabla_power_gcd_count_does_not_grow_with_p(monkeypatch):
    """The kernel normalises once at the end, in nabla_power_matrix and in
    p_curvature alike, so the number of gcds either makes does not depend
    on the power; a per-step reduction would make it grow linearly in p."""
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pcurvkit" and getattr(mod, "poly_gcd", None) is poly_gcd:
            monkeypatch.setattr(mod, "poly_gcd", counting_gcd)
    K = qq_line()
    A = _hypergeometric(K)
    B = ConnectionMatrix(A.matrix, Derivation(K.one / (K.gen() + K(2))))
    for run, C in ((nabla_power_matrix, A), (p_curvature, A), (p_curvature, B)):
        counts = []
        for p in (23, 47):
            Cbar = C.reduce_mod(p)
            calls.clear()
            run(Cbar, p)
            counts.append(len(calls))
        assert counts[0] == counts[1], (run.__name__, C.derivation, counts)


def test_nabla_power_with_d_dx_scales_no_entry(monkeypatch):
    """With u = 1 the recursion has no lift to multiply by: Matrix.scale
    is never called, over QQ(x) or over a tower."""
    calls = []
    real = Matrix.scale

    def spy(self, c):
        calls.append(c)
        return real(self, c)

    monkeypatch.setattr(Matrix, "scale", spy)
    K = FunctionField(FunctionField(GF(5), "q"), "x")
    q, x = K(K.base.gen()), K.gen()
    B = ConnectionMatrix(Matrix(K, [[K.zero, K.one], [q / (x + K.one / q), x]]),
                         Derivation.d_dx(K))
    for A in (_hypergeometric(qq_line()), B):
        want = nabla_power_by_recursion(A, 5)
        calls.clear()
        assert nabla_power_matrix(A, 5) == want
        assert calls == []


def test_nabla_power_first_steps():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[x, K.one], [K.zero, x]]), D)
    assert nabla_power_matrix(A, 1) == A.matrix
    # nabla^2 = D(A) + A^2
    expected = A.matrix.map_entries(D) + A.matrix * A.matrix
    assert nabla_power_matrix(A, 2) == expected


# -- gauge covariance -----------------------------------------------------------


def test_gauge_transform_definition():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[x, K.one], [K.one, K.zero]]), D)
    G = Matrix(K, [[K.one, x], [K.zero, K.one]])
    B = gauge_transform(A, G)
    Ginv = G.inverse()
    assert B.matrix == Ginv * A.matrix * G + Ginv * G.map_entries(D)


def test_gauge_covariance_of_p_curvature():
    """psi_p(G . A) = Gbar^{-1} psi_p(A) Gbar for unimodular G."""
    rng = random.Random(88)
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    for _ in range(6):
        A = rand_connection(K, D, rng)
        # shear gauges have det 1, hence reduce invertibly mod every p
        G = Matrix(K, [[K.one, x ** rng.randint(0, 2)], [K.zero, K.one]])
        B = gauge_transform(A, G)
        for p in (3, 5):
            ra = p_curvature(A, p)
            rb = p_curvature(B, p)
            if not (ra.good_prime and rb.good_prime):
                continue
            Kp = FunctionField(GF(p), "x")
            from pcurvkit.ratfunc import reduce_rational_mod_p
            Gp = G.map_entries(lambda e: reduce_rational_mod_p(e, Kp), new_ring=Kp)
            assert rb.psi == Gp.inverse() * ra.psi * Gp


# -- scanning -------------------------------------------------------------------


def test_scan_primes_order_and_content():
    K = qq_line()
    D = Derivation.x_d_dx(K)
    A = ConnectionMatrix(Matrix(K, [[3]]), D)
    reports = scan_primes(A, 2, 13)
    assert [r.prime for r in reports] == [2, 3, 5, 7, 11, 13]
    for r in reports:
        assert r.good_prime and r.vanishes


def test_scan_primes_parallel_agrees():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[x, K.one], [K.zero, -x]]), D)
    seq = scan_primes(A, 2, 11, jobs=1)
    par = scan_primes(A, 2, 11, jobs=2)
    assert [(r.prime, r.good_prime, r.vanishes) for r in seq] == \
           [(r.prime, r.good_prime, r.vanishes) for r in par]


def test_scan_primes_falls_back_when_no_pool_starts(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no worker processes on this host")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    K = qq_line()
    A = ConnectionMatrix(Matrix(K, [[3]]), Derivation.x_d_dx(K))
    reports = scan_primes(A, 2, 13, jobs=2)
    assert [r.prime for r in reports] == [2, 3, 5, 7, 11, 13]
    assert all(r.vanishes for r in reports)


def test_scan_primes_bounds_the_pool(monkeypatch):
    """The pool asks for at most one worker per prime and per CPU, since it
    may fork every worker at its first task; no process starts here."""
    asked = []

    class NoPool:
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            raise OSError("no worker processes in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    K = qq_line()
    A = ConnectionMatrix(Matrix(K, [[3]]), Derivation.x_d_dx(K))
    reports = scan_primes(A, 2, 13, jobs=10 ** 6)
    assert [r.prime for r in reports] == [2, 3, 5, 7, 11, 13]
    assert asked == [min(6, os.cpu_count() or 1)]


def test_scan_primes_worker_error_propagates(monkeypatch):
    """An exception raised in a worker is not retried in sequence: it comes
    back with its own type.  IrreducibilityUndecided stands for any such
    error; it is neither an OSError nor a BrokenProcessPool, the two the
    fallback catches."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched kernel reaches the workers only by fork")
    parent = os.getpid()
    real = connection._kernel_report

    def fails_in_worker(field, form, p):
        if os.getpid() != parent:
            raise IrreducibilityUndecided(f"raised in a worker at p = {p}")
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", fails_in_worker)
    K = qq_line()
    x = K.gen()
    # every x0 of GF(2) and GF(3) is a pole, so the kernel decides p = 2 and 3
    A = ConnectionMatrix(Matrix(K, [[K.one / (x ** 3 - x)]]), Derivation.d_dx(K))
    with pytest.raises(IrreducibilityUndecided, match="raised in a worker") as raised:
        scan_primes(A, 2, 13, jobs=2)
    assert type(raised.value) is IrreducibilityUndecided


# -- companion connections -----------------------------------------------------


def test_companion_shape():
    K = qq_line()
    D = Derivation.d_dx(K)
    rng = random.Random(11)
    column = [rand_ratfunc(K, rng, denom=True) for _ in range(3)]
    comp = CompanionConnection(column, D)
    assert comp.rank == 3
    M = comp.matrix().matrix
    for i in range(3):
        for j in range(2):
            want = K.one if i == j + 1 else K.zero
            assert M.entry(i, j) == want
        assert M.entry(i, 2) == column[i]


# -- psi_p at one point -----------------------------------------------------------


def value_at(f, point):
    """f in GF(p)(x) or GF(p)(q)(x) at (x0,) or (q0, x0).

    Over a tower x is set first, in GF(p)(q): psi has entries in the ring
    where the point's denominators are units, so f(q, x0) has no pole at
    q0 even when a coefficient of f in lowest terms has one.
    """
    *q0, x0 = point
    base = f.field.base
    g = f(base(x0))
    return g(base.base(q0[0])) if q0 else g


def psi_at(psi: Matrix, point) -> Matrix:
    p = psi.ring.characteristic()
    return Matrix(GF(p), [[value_at(e, point) for e in row] for row in psi.rows])


def ordinary_points(A):
    """x0 in GF(p) where no entry of A over GF(p)(x) has a pole and u = a/b
    has neither a zero nor a pole."""
    F = A.field.base
    fs = [e.den for row in A.matrix.rows for e in row] + [A.derivation.u.num,
                                                          A.derivation.u.den]
    return [x0 for x0 in range(F.p) if all(f(F(x0)) for f in fs)]


def tower_point(A, p):
    """The point p_curvature_at should pick over GF(p)(q)(x), or None: the
    smallest (q0, x0) in lexicographic order where no q-denominator of a
    coefficient of an entry or of u vanishes at q0, u at q0 is nonzero,
    and no entry denominator and neither side of u vanishes at (q0, x0).
    A q0 whose line has no such x0 is passed over for the next one."""
    F = A.field.base.base
    u = A.derivation.u
    fs = [e for row in A.matrix.rows for e in row] + [u]
    coeffs = [c for f in fs for g in (f.num, f.den) for c in g.coeffs]

    def at(g, q0):
        return Polynomial(F, [c.num(F(q0)) / c.den(F(q0)) for c in g.coeffs])

    for q0 in range(F.p):
        if all(c.den(F(q0)) for c in coeffs) and at(u.num, q0):
            polys = [at(f.den, q0) for f in fs] + [at(u.num, q0)]
            x0 = next((x for x in range(F.p) if all(g(F(x)) for g in polys)), None)
            if x0 is not None:
                return q0, x0
    return None


def point_matches_kernel(A, p):
    """True when p_curvature_at(A, p) found a point and its value is the
    kernel's psi there; False when it found none."""
    found = p_curvature_at(A, p)
    if found is None:
        return False
    point, value = found
    assert value.ring == GF(p) and value.shape() == A.matrix.shape()
    assert value == psi_at(p_curvature(A, p).psi, point), (p, point, A)
    return True


def test_point_value_matches_kernel_over_prime_fields():
    """Ranks 1-3, p from 3 to 31, u = 1, x and a rational multiplier.  The
    point is the smallest ordinary one, and there is none when no point is
    returned."""
    rng = random.Random(20261018)
    checked = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        K = FunctionField(GF(p), "x")
        x = K.gen()
        derivations = [Derivation.d_dx(K), Derivation.x_d_dx(K),
                       Derivation((x + K.one) / (x * x + K(3)))]
        n = 3 if p <= 7 else 2 if p <= 13 else 1   # the kernel's cost sets the rank
        for D in derivations:
            rows = [[rand_entry(K, rng) for _ in range(n)] for _ in range(n)]
            A = ConnectionMatrix(Matrix(K, rows), D)
            found = p_curvature_at(A, p)
            ordinary = ordinary_points(A)
            assert (found is None) == (not ordinary), (p, A)
            if found is not None:
                assert found[0] == (ordinary[0],)
                checked += point_matches_kernel(A, p)
    assert checked >= 25


def test_point_value_matches_kernel_over_tower():
    """Companions over GF(p)(q)(x) with q-poles in the entries, q-denominators
    in the multiplier and a multiplier whose leading coefficient is q.  The
    point is the one tower_point picks."""
    rng = random.Random(2720)
    checked = 0
    for p in (3, 5, 7):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        q, x = K(K.base.gen()), K.gen()
        multipliers = [K.one, x, q * x + K.one, (x + q) / (x + K.one / q)]
        # the kernel takes seconds on a rational multiplier over a tower at p >= 5
        for u in multipliers[:4 if p == 3 else 3 if p == 5 else 2]:
            A = ConnectionMatrix(rand_matrix(K, rng), Derivation(u))
            found = p_curvature_at(A, p)
            assert (found and found[0]) == tower_point(A, p), (p, u)
            checked += point_matches_kernel(A, p)
    assert checked >= 7


def test_point_value_matches_kernel_at_larger_primes():
    """Rank 2 over GF(p)(x) at p = 61 and 97, beyond the primes above, with
    u = 1, x and a rational multiplier."""
    rng = random.Random(6197)
    for p in (61, 97):
        K = FunctionField(GF(p), "x")
        x = K.gen()
        for D in (Derivation.d_dx(K), Derivation.x_d_dx(K),
                  Derivation((x + K.one) / (x * x + K(3)))):
            rows = [[rand_entry(K, rng) for _ in range(2)] for _ in range(2)]
            assert point_matches_kernel(ConnectionMatrix(Matrix(K, rows), D), p), (p, D)


def test_point_value_matches_kernel_over_tower_at_p_5_and_7():
    """The tower cases the test above leaves out: the rational multiplier
    (x + q)/(x + 1/q) at p = 5, and u = 1, x and q*x + 1 at p = 7."""
    rng = random.Random(5707)
    for p, count in ((5, None), (7, 3)):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        q, x = K(K.base.gen()), K.gen()
        multipliers = [K.one, x, q * x + K.one, (x + q) / (x + K.one / q)]
        for u in multipliers[3:] if count is None else multipliers[:count]:
            A = ConnectionMatrix(rand_matrix(K, rng), Derivation(u))
            assert point_matches_kernel(A, p), (p, u)


def test_point_value_of_a_rank_three_companion_over_tower():
    K = FunctionField(FunctionField(GF(5), "q"), "x")
    q, x = K(K.base.gen()), K.gen()
    rows = [[K.zero, K.zero, K(3) / (q * x)],
            [K.one, K.zero, (q + K.one) * x],
            [K.zero, K.one, K.one / (q * q)]]
    A = ConnectionMatrix(Matrix(K, rows), Derivation.x_d_dx(K))
    assert point_matches_kernel(A, 5)
    # q0 = 0 is a q-pole; x0 = 0 is a pole and a zero of u
    assert p_curvature_at(A, 5)[0] == (1, 1)


def test_point_value_matches_block_assembly():
    """psi_p of [[A, B], [0, A]] at a point equals the block matrix that
    test_deformation.block_p_curvature_check assembles from
    block_power_pair, which runs the plain recursion and not the kernel."""
    rng = random.Random(707)
    K = qq_line()
    for p in (5, 7, 11):
        for D in (Derivation.d_dx(K), Derivation.x_d_dx(K)):
            A = rand_connection(K, D, rng)
            Bm = Matrix(K, [[rand_ratfunc(K, rng) for _ in range(2)] for _ in range(2)])
            ext = BlockExtension(A, Bm)
            found = p_curvature_at(ext.M, p)
            if found is None:
                continue
            point, value = found
            Kp = FunctionField(GF(p), "x")
            Abar = A.reduce_mod(p)
            Bbar = Bm.map_entries(lambda e: e.map_coefficients(Kp.base, Kp), Kp)
            Pp, Qp = block_power_pair(BlockExtension(Abar, Bbar), p)
            twist = frobenius_twist_multiplier(Abar.derivation, p) / Abar.derivation.u
            psi_A, corner = Pp - Abar.matrix.scale(twist), Qp - Bbar.scale(twist)
            z = Kp.zero
            assembled = Matrix(Kp, [list(psi_A.rows[i]) + list(corner.rows[i]) for i in range(2)]
                               + [[z, z] + list(psi_A.rows[i]) for i in range(2)])
            assert value == psi_at(assembled, point), (p, D)


def test_point_value_reduces_characteristic_zero_input():
    A = _hypergeometric(qq_line())
    assert p_curvature_at(A, 2) is None                      # 1/4 is bad at 2
    for p, vanishes in ((11, True), (13, False)):
        point, value = p_curvature_at(A, p)
        assert point == (2,)                                 # 0 and 1 are poles
        assert value == psi_at(p_curvature(A, p).psi, point)
        assert value.is_zero() == vanishes


def test_point_value_needs_an_ordinary_point():
    K = FunctionField(GF(3), "x")
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[K.one / (x * (x - K.one) * (x + K.one))]]),
                         Derivation.d_dx(K))
    assert p_curvature_at(A, 3) is None                      # every x0 is a pole
    B = ConnectionMatrix(Matrix(K, [[K.one / x]]), Derivation(x * x - K.one))
    assert p_curvature_at(B, 3) is None                      # 0 a pole, +-1 zeros of u
    with pytest.raises(ValueError, match="characteristic 3, wanted 5"):
        p_curvature_at(A, 5)
    L = FunctionField(FunctionField(FunctionField(GF(3), "r"), "q"), "x")
    C = ConnectionMatrix(Matrix(L, [[L.gen()]]), Derivation.d_dx(L))
    with pytest.raises(ValueError, match=r"no point evaluation over GF\(3\)\(r\)\(q\)\(x\)"):
        p_curvature_at(C, 3)


def test_point_value_skips_a_q_where_u_vanishes():
    K = FunctionField(FunctionField(GF(5), "q"), "x")
    q, x = K(K.base.gen()), K.gen()
    A = ConnectionMatrix(Matrix(K, [[K.zero, K.one], [x, K.one / x]]), Derivation(q * x))
    assert p_curvature_at(A, 5)[0] == tower_point(A, 5) == (1, 1)
    assert point_matches_kernel(A, 5)


def test_point_value_walks_past_a_q_line_of_poles(monkeypatch):
    """Every x0 of the q0 = 0 line of x/(x^3 - x + q) is a pole, and
    x^3 - x + 1 has no root in GF(3): the point is (1, 0), its value is
    the kernel's psi there, and the scan decides 3 without the kernel."""
    K = FunctionField(FunctionField(GF(3), "q"), "x")
    q, x = K(K.base.gen()), K.gen()
    A = ConnectionMatrix(Matrix(K, [[x / (x ** 3 - x + q)]]), Derivation.d_dx(K))
    point, value = p_curvature_at(A, 3)
    assert point == tower_point(A, 3) == (1, 0)
    assert value == Matrix(GF(3), [[2]]) == psi_at(p_curvature(A, 3).psi, point)
    kernel_primes = []
    real = connection._kernel_report

    def spy(field, form, p):
        kernel_primes.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    report, = scan_primes(A, 3, 3)
    assert kernel_primes == []
    assert report.good_prime and not report.vanishes


def rand_qpole_entry(K, rng):
    """a + b*x over 1, x + c or x^2 + c with c = 1/q, q + 1/q or an integer:
    the q-pole sits inside a coefficient of the x-denominator."""
    x = K.gen()
    q = K.base.gen()
    num = K.from_poly(K.polynomial([rand_scalar(K.base, rng) for _ in range(2)]))
    c = K(rng.choice([K.base.one / q, q + K.base.one / q, K.base(rng.randint(0, 2))]))
    return num / rng.choice([K.one, x + c, x * x + c])


@pytest.fixture
def kernel_primes(monkeypatch):
    """The prime of every connection._kernel_report call."""
    primes = []
    real = connection._kernel_report

    def spy(field, form, p):
        primes.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    return primes


def scan_prime_matches_the_kernel(A, p, kernel_primes):
    """Run _scan_prime on A over GF(p)(q)(x) against the kernel: psi_p is
    N_p/h^p, with N_p from the recursion p_curvature runs before it
    reduces, so psi_p = 0 exactly when N_p = 0, and each value with q kept
    symbolic must be N_p(x0)/h(x0)^p.  The kernel runs only where GF(p)
    has fewer ordinary x0 than the zero count.  Returns how the prime was
    decided."""
    kernel_primes.clear()
    got = connection._scan_prime(A, p)
    form = connection._cleared_form(A)
    h, H, M = form
    N = connection._nabla_kernel(M, H, None, 1, p)
    assert got.good_prime and got.vanishes == N.is_zero(), (p, A)
    zeros, values, specialised = connection._point_values(A, p, form)
    base = A.field.base
    symbolic = []
    for (x0,), value in values:
        den = h(x0) ** p
        want = Matrix(base, [[RationalFunction(base, f(x0), den) for f in row] for row in N.rows])
        assert value.ring == base and value == want, (p, A, x0)
        symbolic.append(value.is_zero())
    if len(symbolic) >= zeros:
        assert kernel_primes == [], (p, A)
    if got.vanishes:
        assert got.psi == Matrix.zeros(A.field, A.rank), (p, A)
    witness = next(specialised, None)
    if witness is not None and not witness[1].is_zero():
        return "witness"
    if False in symbolic[:zeros]:
        return "symbolic nonzero"
    return "symbolic zeros" if len(symbolic) >= zeros else "kernel"


def test_tower_point_values_and_scan_match_the_kernel(kernel_primes):
    """Differential test at p = 3 with q-poles inside the x-denominators and
    five multipliers: every point value, specialised or with q kept
    symbolic, is the kernel's psi at that point, every _scan_prime verdict
    is the kernel's, and the kernel runs only where GF(3) has too few
    ordinary points."""
    rng = random.Random(1803)
    K = FunctionField(FunctionField(GF(3), "q"), "x")
    q, x = K(K.base.gen()), K.gen()
    multipliers = [K.one, x, q * x + K.one, (x + q) / (x + K.one / q), K.one / (x + q)]
    checked = nonzero = 0
    for u in multipliers:
        for _ in range(6):
            rows = [[K.zero, K.one], [rand_qpole_entry(K, rng), rand_qpole_entry(K, rng)]]
            A = ConnectionMatrix(Matrix(K, rows), Derivation(u))
            want = p_curvature(A, 3)
            got = connection._scan_prime(A, 3)
            assert (got.good_prime, got.vanishes) == (want.good_prime, want.vanishes), (u, A)
            scan_prime_matches_the_kernel(A, 3, kernel_primes)
            found = p_curvature_at(A, 3)
            if found is not None:
                point, value = found
                assert value == psi_at(want.psi, point), (u, A, point)
                checked += 1
                nonzero += not value.is_zero()
    assert checked >= 25 and nonzero >= 15, (checked, nonzero)


def rand_gauge_of_zero(K, D, rng):
    """G^-1 D(G), the gauge of the zero connection by G = U L over
    GF(p)(q)(x): U = [[1, f], [0, 1]] with f from rand_qpole_entry, so
    q-poles sit in the x-denominators, and L lower triangular with unit
    diagonal entries a, d and b = b0 + b1*x below.  G^-1 = L^-1 U^-1 in
    closed form."""
    f = rand_qpole_entry(K, rng)
    a, d = K(rand_unit(K.base, rng)), K(rand_unit(K.base, rng))
    b = K.from_poly(K.polynomial([rand_scalar(K.base, rng) for _ in range(2)]))
    U, L = Matrix(K, [[K.one, f], [K.zero, K.one]]), Matrix(K, [[a, K.zero], [b, d]])
    inverse = (Matrix(K, [[K.one / a, K.zero], [-b / (a * d), K.one / d]])
               * Matrix(K, [[K.one, -f], [K.zero, K.one]]))
    return inverse * D(U * L)


def test_tower_scan_of_gauges_decides_without_the_kernel(kernel_primes):
    """Seeded differential at p = 3, 5 and 7 with the multipliers 1, x and
    x + q.  A pure gauge G^-1 D(G) of the zero connection has psi_p = 0; a
    perturbed one adds s in the lower left corner, with s a unit of GF(p)(q)
    or s = q - q0 for the q0 of the gauge's first specialised point, where
    the perturbed connection is the gauge again: its value there is zero,
    and values with q kept symbolic decide.  Every verdict is the kernel's,
    and the kernel runs only where GF(p) has too few ordinary points; each
    way to decide occurs.  The kernel's N_p stands in for p_curvature, whose
    reduction of N_p/h^p takes seconds on some of these connections."""
    rng = random.Random(2035)
    outcomes = dict.fromkeys(("witness", "symbolic nonzero", "symbolic zeros", "kernel"), 0)
    for p in (3, 5, 7):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        q, x = K(K.base.gen()), K.gen()
        for u in (K.one, x, x + q):
            D = Derivation(u)
            for kind in ("gauge", "unit", "q - q0"):
                for _ in range(4):
                    A = ConnectionMatrix(rand_gauge_of_zero(K, D, rng), D)
                    if kind != "gauge":
                        found = p_curvature_at(A, p)
                        s = (K(rand_unit(K.base, rng)) if kind == "unit" or found is None
                             else q - K(found[0][0]))
                        A = ConnectionMatrix(
                            A.matrix + Matrix(K, [[K.zero, K.zero], [s, K.zero]]), D)
                    outcomes[scan_prime_matches_the_kernel(A, p, kernel_primes)] += 1
    assert all(outcomes.values()), outcomes


def test_report_without_psi_cannot_vanish():
    with pytest.raises(ValueError, match="only a computed psi"):
        PCurvatureReport(5, True, None, True)
    with pytest.raises(ValueError, match="only a computed psi"):
        PCurvatureReport(5, False, None, True)
    assert not PCurvatureReport(5, True, None, False).vanishes


def test_reports_survive_pickling():
    """--jobs N sends every report back from a worker by pickle; the copy
    is a PCurvatureReport again, vanishing with its psi or bad without."""
    K = qq_line()
    A = ConnectionMatrix(Matrix(K, [[3]]), Derivation.x_d_dx(K))
    vanishing = connection._scan_prime(A, 5)
    bad = connection._scan_prime(
        ConnectionMatrix(Matrix(K, [[K(Fraction(1, 5))]]), Derivation.d_dx(K)), 5)
    assert vanishing.vanishes and vanishing.psi is not None
    assert not bad.good_prime and bad.psi is None
    for report in (vanishing, bad):
        back = pickle.loads(pickle.dumps(report))
        assert type(back) is PCurvatureReport
        assert back == report


def test_scan_of_the_hypergeometric_connection_runs_no_kernel(monkeypatch):
    """Point values decide every prime of 2..37: the verdicts are the
    kernel's, and a vanishing report carries the kernel's psi."""
    A = _hypergeometric(qq_line())
    full = [p_curvature(A, p) for p in primes_in(2, 37)]
    kernel_primes = []
    real = connection._kernel_report

    def spy(field, form, p):
        kernel_primes.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    reports = scan_primes(A, 2, 37)
    assert kernel_primes == []
    assert [(r.prime, r.good_prime, r.vanishes) for r in reports] == \
           [(r.prime, r.good_prime, r.vanishes) for r in full]
    assert [r.prime for r in reports if r.vanishes] == [11, 19, 29, 31]
    for r, f in zip(reports, full):
        if r.vanishes:
            assert r.psi == f.psi and r.psi.ring == f.psi.ring, r.prime
        else:
            assert r.psi is None, r.prime


def test_hypergeometric_psi_vanishes_exactly_at_p_congruent_to_plus_minus_one_mod_5():
    """The horizontal sections solve x(1-x)y'' + (x - 1/2)y' + y/4 = 0,
    Gauss's equation with exponents -1 +- sqrt(5)/2 at infinity.  psi_p = 0
    forces them into F_p (Katz 1970), so 5 must be a square mod p; that
    psi_p vanishes at every such p other than 5 is observed, not proved.
    A translate of x is an automorphism of GF(p)(x) commuting with d/dx,
    so it changes no verdict."""
    K = qq_line()
    for t in (0, 7):
        reports = scan_primes(_hypergeometric(K, t), 2, 300)
        assert [r.prime for r in reports] == primes_in(2, 300)
        assert [r.prime for r in reports if not r.good_prime] == [2]   # 1/4 and 1/2
        for r in reports[1:]:
            assert r.vanishes == (r.prime % 5 in (1, 4)), (t, r.prime)


def residues(A):
    """R = ((x - c) A/u)(c) for each c in GF(p) where A/u over GF(p)(x)
    has at most a simple pole."""
    K = A.field
    F = K.base
    C = A.matrix.scale(K.one / A.derivation.u)
    for c in range(F.p):
        xC = C.scale(K.gen() - K(c))
        if all(e.den(F(c)) for row in xC.rows for e in row):
            yield Matrix(F, [[e(F(c)) for e in row] for row in xC.rows])


def rand_scan_case(rng):
    """(A over QQ(x), p): rank 1-3, u = 1, x or a/b, p in {3, 5, 7, 11, 13};
    a third of the connections are gauges of the zero connection, whose
    psi_p vanishes at every prime where the gauge reduces invertibly."""
    K = qq_line()
    x = K.gen()
    p = rng.choice((3, 5, 7, 11, 13))
    n = rng.randint(1, 3 if p <= 7 else 2)   # the kernel's cost sets the rank
    a_over_b = (x + K(rng.randint(-3, 3))) / (x * x + K(Fraction(rng.randint(1, 4), 3)))
    u = rng.choice([K.one, x, a_over_b])
    D = Derivation(u)
    if rng.random() < 1 / 3:
        while True:
            G = Matrix(K, [[K.from_poly(K.polynomial([rng.randint(-2, 2) for _ in range(2)]))
                            for _ in range(n)] for _ in range(n)])
            if G.det():
                # gauge_transform of the zero connection by G
                return ConnectionMatrix(G.solve(D(G)), D), p
    rows = [[rand_entry(K, rng) for _ in range(n)] for _ in range(n)]
    return ConnectionMatrix(Matrix(K, rows), D), p


def test_scan_prime_matches_the_kernel_and_the_residues(monkeypatch):
    """Differential test of the point decision against p_curvature.  Each
    way to decide occurs: a nonzero first value, enough zero values, a
    zero value followed by a nonzero one, and the kernel when GF(p) has
    too few ordinary points.  Every vanishing verdict also passes the
    residue check R^p = R of psi_p((x - c) d/dx) on the fibre at c."""
    rng = random.Random(20261018)
    real = connection._kernel_report
    kernel_calls = []

    def spy(field, form, p):
        kernel_calls.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    outcomes = dict.fromkeys(("nonzero first", "zeros", "zero then nonzero", "kernel"), 0)
    vanishing = residues_checked = 0
    for _ in range(300):
        A, p = rand_scan_case(rng)
        want = p_curvature(A, p)
        kernel_calls.clear()
        got = connection._scan_prime(A, p)
        assert (got.prime, got.good_prime, got.vanishes) == \
               (want.prime, want.good_prime, want.vanishes), (A, p)
        if not want.good_prime:
            continue
        Abar = A.reduce_mod(p)
        zeros, values, _ = connection._point_values(Abar, p, connection._cleared_form(Abar))
        seen = [value.is_zero() for _, value in values]
        first_nonzero = seen.index(False) if False in seen else None
        if first_nonzero is None and len(seen) < max(zeros, 1):
            outcome = "kernel"
        elif first_nonzero is None or first_nonzero >= zeros:
            outcome = "zeros"
        else:
            outcome = "zero then nonzero" if first_nonzero else "nonzero first"
        outcomes[outcome] += 1
        assert kernel_calls == ([p] if outcome == "kernel" else []), (A, p, outcome)
        if got.vanishes or outcome == "kernel":
            assert got.psi == want.psi, (A, p)
        else:
            assert got.psi is None, (A, p)
        if got.vanishes:
            vanishing += 1
            for R in residues(Abar):
                assert R ** p == R, (A, p, R)
                residues_checked += not R.is_zero()
    assert all(outcomes.values()), outcomes
    assert vanishing >= 60 and residues_checked >= 30, (vanishing, residues_checked)


def test_scan_parallel_agrees_on_point_decided_primes():
    A = _hypergeometric(qq_line())
    seq = scan_primes(A, 2, 37, jobs=1)
    par = scan_primes(A, 2, 37, jobs=2)
    assert [(r.prime, r.good_prime, r.vanishes, r.psi) for r in seq] == \
           [(r.prime, r.good_prime, r.vanishes, r.psi) for r in par]


def test_clear_denominators_takes_one_h_for_every_matrix():
    """_clear_denominators gives u and every matrix one h, the lcm of all
    their denominators, with h*u and each entry of h*M the polynomial
    cleared(e, h); _cleared_form is that clearing followed by the tower
    scaling of clear_coefficients, as it was written before the split."""
    from pcurvkit.ratfunc import clear_coefficients, cleared
    rng = random.Random(2828)
    Kq = FunctionField(GF(5), "q")
    for K in (FunctionField(QQ, "x"), FunctionField(GF(7), "x"), FunctionField(Kq, "x")):
        x = K.gen()
        for u in (K.one, x, K.one / (x + K(3)), (x * x + K.one) / (x + K.one)):
            A, B = rand_matrix(K, rng), rand_matrix(K, rng)
            h, hu, hA, hB = connection._clear_denominators(u, A, B)
            assert h == common_denominator([u] + [e for M in (A, B) for row in M.rows
                                                  for e in row])
            assert hu == cleared(u, h) and K.from_poly(hu) == K.from_poly(h) * u
            for M, N in ((A, hA), (B, hB)):
                assert N.ring.field == K.base
                for row, cleared_row in zip(M.rows, N.rows):
                    for e, f in zip(row, cleared_row):
                        assert f == cleared(e, h)
                        assert K.from_poly(f) == K.from_poly(h) * e
            entries = [e for row in A.rows for e in row]
            h0 = common_denominator([u] + entries)
            _, (h0, H0, *hA0) = clear_coefficients(
                K.base, [h0, cleared(u, h0)] + [cleared(e, h0) for e in entries])
            form = connection._cleared_form(ConnectionMatrix(A, Derivation(u)))
            assert form == (h0, H0, [hA0[:2], hA0[2:]])


# -- the packed point recurrence ---------------------------------------------------


def value_at_reference(h, H, hA, n, x0):
    """psi_p at x0 from the cleared form over GF(p)[x], by the point
    recurrence on lists of ints, one list per matrix row: the body
    connection._value_at had before it packed each row into one int, kept
    here as the oracle of the packed recurrence."""
    p = h.field.p
    P = connection._shift(H, x0)
    Q = [connection._shift(f, x0) for f in hA]
    Qk = [[[f[k] if k < len(f) else 0 for f in Q[i * n:(i + 1) * n]] for i in range(n)]
          for k in range(max(map(len, Q)))]
    Y = [[[int(i == j) for j in range(n)] for i in range(n)]]

    def unmatched(k):
        """The t^k coefficient of P Y' + Q Y without its P_0 (k+1) Y_{k+1}."""
        S = [[0] * n for _ in range(n)]
        for i in range(1, min(k, len(P) - 1) + 1):
            c, Yj = P[i] * (k + 1 - i), Y[k + 1 - i]
            for r in range(n):
                S[r] = [s + c * y for s, y in zip(S[r], Yj[r])]
        for i in range(min(k, len(Qk) - 1) + 1):
            Qi, Yj = Qk[i], Y[k - i]
            for r in range(n):
                for l, c in enumerate(Qi[r]):
                    if c:
                        S[r] = [s + c * y for s, y in zip(S[r], Yj[l])]
        return S

    for k in range(p - 1):
        c = -pow(P[0] * (k + 1), -1, p)
        Y.append([[s * c % p for s in row] for row in unmatched(k)])
    c = -pow(h(x0).v, -1, p)
    return Matrix(GF(p), [[e * c % p for e in row] for row in unmatched(p - 1)])


@pytest.fixture
def checked_value_at(monkeypatch):
    """Every connection._value_at call compared with value_at_reference;
    the list collects the prime of each call."""
    primes = []
    real = connection._value_at

    def both(h, H, hA, n, x0):
        got = real(h, H, hA, n, x0)
        assert got == value_at_reference(h, H, hA, n, x0), (h, H, hA, x0)
        assert got.ring == GF(h.field.p) and got.shape() == (n, n)
        primes.append(h.field.p)
        return got

    monkeypatch.setattr(connection, "_value_at", both)
    return primes


def first_point_values(A, p, count):
    """The first count point values over GF(p) of A over GF(p)(x) or
    GF(p)(q)(x), at q-specialisations over a tower."""
    _, values, specialised = connection._point_values(A, p, connection._cleared_form(A))
    return [value for _, value in zip(range(count), specialised or values)]


PACKED_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 211, 307, 397)


def test_packed_point_values_match_the_list_recurrence(checked_value_at):
    """Seeded differential over GF(p)(x): ranks 1, 2 and 3, with d/dx and
    with a random rational multiplier, entries with and without
    denominators, the first three ordinary points of each connection."""
    rng = random.Random(20261021)
    for p in PACKED_PRIMES:
        K = FunctionField(GF(p), "x")
        for n in (1, 2, 3):
            for D in (Derivation.d_dx(K), Derivation(rand_multiplier(K, rng))):
                rows = [[rand_ratfunc(K, rng, deg=3, denom=rng.random() < 0.5)
                         for _ in range(n)] for _ in range(n)]
                first_point_values(ConnectionMatrix(Matrix(K, rows), D), p, 3)
    assert set(PACKED_PRIMES) <= set(checked_value_at) and len(checked_value_at) >= 150


def test_packed_point_values_match_at_tower_specialisations(checked_value_at):
    """The same differential at the q-specialisations of GF(p)(q)(x):
    companion-shaped matrices with q-poles, rank 1 and 3 entries from
    rand_ratfunc, u = 1 and a random rational multiplier with q in its
    coefficients."""
    rng = random.Random(1021)
    calls = 0
    for p in (2, 3, 5, 7, 11):
        K = FunctionField(FunctionField(GF(p), "q"), "x")
        for D in (Derivation.d_dx(K), Derivation(rand_multiplier(K, rng))):
            for M in (rand_matrix(K, rng),
                      Matrix(K, [[rand_ratfunc(K, rng, denom=True)]]),
                      Matrix(K, [[rand_ratfunc(K, rng) for _ in range(3)] for _ in range(3)])):
                first_point_values(ConnectionMatrix(M, D), p, 2 * p)
        calls += p in checked_value_at
    assert calls == 5 and len(checked_value_at) >= 100


def test_packed_point_values_of_random_cleared_forms():
    """_value_at on random h, H and entries over GF(p)[x] of degree up to
    6, dense and sparse, at a random x0 with H(x0) h(x0) != 0: the
    recurrence needs no relation between them."""
    rng = random.Random(34)
    for p in PACKED_PRIMES:
        F = GF(p)
        for _ in range(4):
            n = rng.randint(1, 3)

            def poly():
                deg = rng.randint(0, 6)
                return Polynomial(F, [rng.randrange(p) if rng.random() < 0.7 else 0
                                      for _ in range(deg + 1)])

            h, H = poly(), poly()
            hA = [poly() for _ in range(n * n)]
            ordinary = [x0 for x0 in range(p) if H(F(x0)) and h(F(x0))]
            if not ordinary:
                continue
            x0 = rng.choice(ordinary)
            assert connection._value_at(h, H, hA, n, x0) == \
                value_at_reference(h, H, hA, n, x0), (p, h, H, hA, x0)


def test_packed_slots_at_their_largest_sums():
    """Every shifted coefficient p - 1.  With H and M constant, x0 = 0 and
    rank n, each row of unmatched(k) has T = n terms, Y_1 = (p-1) J and each
    slot of unmatched(1) is n (p-1)^2 = T (p-1)^2, the largest sum the
    slot width allows for; at n = 3 and p = 2^m - 1 >= 31 a slot one bit
    narrower would carry.  The other cases give H, or H and M, degree 3
    with every coefficient p - 1, so the P_i terms count towards T."""
    for p in (2, 3, 7, 31, 127, 8191):
        F = GF(p)
        for n in (1, 2, 3):
            w = 2 * p.bit_length() + n.bit_length()
            if n == 3 and p >= 31:
                assert n * (p - 1) ** 2 >= 2 ** (w - 1)
            for deg_H, deg_M in ((0, 0), (3, 0), (3, 3)):
                H = Polynomial(F, [p - 1] * (deg_H + 1))
                hA = [Polynomial(F, [p - 1] * (deg_M + 1))] * (n * n)
                got = connection._value_at(H, H, hA, n, 0)
                assert got == value_at_reference(H, H, hA, n, 0), (p, n, deg_H, deg_M)


def tower_value_reference(h, H, hA, n, x0):
    """psi_p at x0 from a cleared form over GF(p)[q][x], by the point
    recurrence on lists of elements of GF(p)(q), with a division by P_0 at
    every step: the oracle of the fraction-free packed recurrence, sharing
    neither its shift nor its packing."""
    F = h.field.field
    p = F.p
    Kq = FunctionField(F, h.field.var)

    def shifted(f):
        cs = [Kq.from_poly(c) for c in f.coeffs]
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] = cs[j] + cs[j + 1] * x0
        return cs

    P, Q = shifted(H), [shifted(f) for f in hA]
    Y = [[[Kq.one if i == j else Kq.zero for j in range(n)] for i in range(n)]]

    def unmatched(k):
        S = [[Kq.zero] * n for _ in range(n)]
        for i in range(1, min(k, len(P) - 1) + 1):
            for r in range(n):
                S[r] = [s + P[i] * (k + 1 - i) * y for s, y in zip(S[r], Y[k + 1 - i][r])]
        for r in range(n):
            for l in range(n):
                f = Q[r * n + l]
                for i in range(min(k, len(f) - 1) + 1):
                    S[r] = [s + f[i] * y for s, y in zip(S[r], Y[k - i][l])]
        return S

    for k in range(p - 1):
        c = -Kq.one / (P[0] * (k + 1))
        Y.append([[s * c for s in row] for row in unmatched(k)])
    c = -P[0] ** (p - 1) / shifted(h)[0] ** p
    return Matrix(Kq, [[e * c for e in row] for row in unmatched(p - 1)])


def test_packed_q_slots_at_their_widest():
    """Over GF(p)[q][x] with every q-coefficient p - 1 and q-degree c.  With
    h = H = 1 and M constant, psi_p = M^p, and for rank 1 that is a^p of
    q-degree p c, which fills the last of an entry's S = p c + 1 slots.
    With H = h and the entries of M of x-degree 3, every coefficient of
    every multiplier's factors p - 1, the values equal tower_value_reference.
    Over GF(p)[q] no data reaches the slot bound T S (p-1)^2 itself: Z_k is
    computed, not chosen, and a multiplier and an entry of Z_k overlap in
    fewer than S coefficients."""
    for p in (2, 3, 5, 7):
        F = GF(p)
        ring = PolynomialRing(F, "q")
        Kq = FunctionField(F, "q")
        for c in (1, 2, 3):
            a = Polynomial(F, [p - 1] * (c + 1))
            one = Polynomial(ring, [Polynomial.one(F)])
            for n in (1, 2, 3):
                hA = [Polynomial(ring, [a])] * (n * n)
                got = connection._value_at(one, one, hA, n, 0)
                M = Matrix(Kq, [[Kq.from_poly(a)] * n] * n)
                assert got == M ** p, (p, c, n)
                if n == 1:
                    assert got.entry(0, 0).num.degree() == p * c
                H = Polynomial(ring, [a] * 4)
                hA = [Polynomial(ring, [a] * 4)] * (n * n)
                for x0 in range(p):
                    if H(x0):
                        got = connection._value_at(H, H, hA, n, x0)
                        assert got == tower_value_reference(H, H, hA, n, x0), (p, c, n, x0)


def test_packed_tower_values_of_random_cleared_forms():
    """_value_at over GF(p)[q][x] on random h, H and entries of x-degree up
    to 3 and q-degree up to 2, dense and sparse, at every x0 with
    H(x0) h(x0) != 0 in GF(p)[q]: the values equal tower_value_reference."""
    rng = random.Random(3535)
    checked = 0
    for p in (2, 3, 5, 7):
        F = GF(p)
        ring = PolynomialRing(F, "q")

        def poly():
            return Polynomial(ring, [Polynomial(F, [rng.randrange(p) if rng.random() < 0.7
                                                    else 0 for _ in range(rng.randint(1, 3))])
                                     for _ in range(rng.randint(1, 4))])

        for _ in range(4):
            n = rng.randint(1, 2)
            h, H = poly(), poly()
            hA = [poly() for _ in range(n * n)]
            for x0 in range(p):
                if H(x0) * h(x0):
                    assert connection._value_at(h, H, hA, n, x0) == \
                        tower_value_reference(h, H, hA, n, x0), (p, h, H, hA, x0)
                    checked += 1
    assert checked >= 20, checked


def test_scan_of_the_scan_connection_to_400(checked_value_at, monkeypatch):
    """The scan connection over 2..400: every point value equals the list
    recurrence's, no prime needs the kernel, and psi_p vanishes exactly at
    the good primes p = +-1 mod 5."""
    kernel = []
    monkeypatch.setattr(connection, "_kernel_report",
                        lambda field, form, p: kernel.append(p))
    reports = scan_primes(_hypergeometric(qq_line()), 2, 400)
    assert kernel == []
    assert [r.prime for r in reports] == primes_in(2, 400)
    assert [r.prime for r in reports if not r.good_prime] == [2]
    for r in reports[1:]:
        assert r.vanishes == (r.prime % 5 in (1, 4)), r.prime
    assert set(checked_value_at) == set(primes_in(3, 400))


def test_scan_fallback_clears_each_prime_once(monkeypatch):
    """A prime clears its connection once, whether point values or the
    kernel decide it: over GF(p)(x) and over a tower with no ordinary point
    the kernel decides, and over a tower zero values with q kept symbolic
    prove psi_5 = 0 after a zero specialised value.  The point values and
    the kernel share the one (h, H, M)."""
    clearings = []
    real = connection._cleared_form

    def counting(A):
        clearings.append(A.field)
        return real(A)

    K = qq_line()
    x = K.gen()
    T = FunctionField(FunctionField(GF(5), "q"), "x")
    T3 = FunctionField(FunctionField(GF(3), "q"), "x")
    y = T3.gen()
    cases = [(ConnectionMatrix(Matrix(K, [[K.one / (x ** 3 - x)]]), Derivation.d_dx(K)), 3),
             (ConnectionMatrix(Matrix(T, [[T(3)]]), Derivation.x_d_dx(T)), 5),
             (ConnectionMatrix(Matrix(T3, [[T3.one / (y ** 3 - y)]]), Derivation.d_dx(T3)), 3)]
    for A, p in cases:
        want = p_curvature(A, p)
        monkeypatch.setattr(connection, "_cleared_form", counting)
        clearings.clear()
        got = connection._scan_prime(A, p)
        monkeypatch.setattr(connection, "_cleared_form", real)
        assert len(clearings) == 1, (A, p)
        assert got == want and got.psi is not None, (A, p)
