"""Acceptance suite: thirteen exact criteria with pinned runtime budgets.

Each test prints one "[criterion NN] name: PASS/FAIL (T s)" line; the
conftest terminal hook replays all lines after the run.  Budgets are part
of the criterion: exceeding one fails the test even if the math checked out.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import assert_record, record_acceptance

from pcurvkit import (
    GF,
    QQ,
    CompanionConnection,
    ConnectionMatrix,
    Derivation,
    FunctionField,
    Matrix,
    NumberField,
    Polynomial,
    Representation,
    SurfacePresentation,
    Word,
    certify_finiteness,
    compositum,
    conjugate_representation,
    element_order,
    fricke_polynomial,
    gauge_transform,
    is_root_of_unity,
    nabla_power_matrix,
    newton_polygon,
    nonarch_check,
    p_curvature,
    predict_nonvanishing,
    reduce_word,
    scan_primes,
    simple_loop_products,
    solve_deformation,
    standard_tower,
    step_conjugate,
    verify_prediction,
)
from pcurvkit.deformation import BlockExtension, block_power_pair
from pcurvkit.fields import primes_in
from pcurvkit.surface import Finite, FiniteOrder, Obstructed, TracePolynomial
from pcurvkit.valuation import ValuationProfile


def _criterion(num, name, fn, budget=None):
    t0 = time.perf_counter()
    failure = None
    try:
        fn()
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    over = budget is not None and elapsed > budget
    status = "PASS" if failure is None and not over else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s)"
    print(line)
    record_acceptance(line)
    if failure is not None:
        raise failure
    if over:
        raise AssertionError(
            f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)")


# -- shared fixtures -----------------------------------------------------------


def _qq_line():
    return FunctionField(QQ, "x")


def _poly_entry(K, rng, deg):
    return K.from_poly(K.polynomial([rng.randint(-3, 3) for _ in range(deg + 1)]))


def _gaussian():
    return NumberField(Polynomial(QQ, [Fraction(1), Fraction(0), Fraction(1)]), "i")


def _golden():
    return NumberField(Polynomial(QQ, [Fraction(-1), Fraction(-1), Fraction(1)]), "w")


def _unimodular(K, rng, shears=3):
    """det-1 matrix over a number field, a product of elementary shears
    with small Gaussian-integer style entries."""
    M = Matrix.identity(K, 2)
    for _ in range(rng.randint(1, shears)):
        r = K(rng.randint(-2, 2)) + K.gen * K(rng.randint(-1, 1))
        if rng.random() < 0.5:
            M = M * Matrix(K, [[K.one, r], [K.zero, K.one]])
        else:
            M = M * Matrix(K, [[K.one, K.zero], [r, K.one]])
    return M


_COMPANIONS = None


def _companion_instances():
    """20 rank-2 companions over GF(p)(q)(x), x d/dx, forced q-pole."""
    global _COMPANIONS
    if _COMPANIONS is not None:
        return _COMPANIONS
    rng = random.Random(900913)
    primes = [3, 5, 7, 11, 13]
    out = []
    for k in range(20):
        p = primes[k % len(primes)]
        base, tower, D = standard_tower(p)
        q = tower(base.gen())

        def q_poly(c0_nonzero):
            lo = 1 if c0_nonzero else 0
            coeffs = [rng.randrange(lo, p)] + [rng.randrange(p) for _ in range(2)]
            return tower(base.from_poly(base.polynomial(coeffs)))

        pole = q_poly(True) / q ** rng.randint(1, 2)
        other = q_poly(False)
        col = [pole, other] if rng.random() < 0.5 else [other, pole]
        out.append((CompanionConnection(col, D), p))
    _COMPANIONS = out
    return out


# -- criteria -------------------------------------------------------------------


def test_criterion_01_fermat_vanishing():
    def body():
        K = _qq_line()
        D = Derivation.x_d_dx(K)
        for a in range(-3, 8):
            A = ConnectionMatrix(Matrix(K, [[a]]), D)
            for rep in scan_primes(A, 2, 50):
                assert rep.good_prime, (a, rep.prime)
                assert rep.vanishes, (a, rep.prime)

    _criterion(1, "rank-1 Fermat family vanishes at all p <= 50", body, budget=5.0)


def test_criterion_02_transcendence_witness():
    def body():
        K = _qq_line()
        D = Derivation.d_dx(K)
        A = ConnectionMatrix(Matrix(K, [[1]]), D)
        for rep in scan_primes(A, 2, 50):
            assert rep.good_prime and not rep.vanishes, rep.prime

    _criterion(2, "exponential connection never vanishes for p <= 50", body,
               budget=5.0)


def test_criterion_03_word_expansion_oracle():
    def body():
        for p in (2, 3, 5):
            Kp = FunctionField(GF(p), "x")
            D = Derivation.d_dx(Kp)
            rng = random.Random(1000 + p)
            words = ["".join(w) for w in itertools.product("DA", repeat=p)]
            for _ in range(20):
                num = lambda: Kp.polynomial([rng.randrange(p) for _ in range(3)])
                den = lambda: Kp.polynomial(
                    [rng.randrange(1, p)] + [rng.randrange(p)])
                rows = [[Kp.from_poly(num()) / Kp.from_poly(den())
                         for _ in range(2)] for _ in range(2)]
                A = ConnectionMatrix(Matrix(Kp, rows), D)
                expanded = []
                for j in range(2):
                    e = Matrix(Kp, [[Kp.one if i == j else Kp.zero]
                                    for i in range(2)])
                    acc = Matrix.zeros(Kp, 2, 1)
                    for w in words:
                        vec = e
                        for letter in reversed(w):
                            if letter == "A":
                                vec = A.matrix * vec
                            else:
                                vec = vec.map_entries(D)
                        acc = acc + vec
                    expanded.append(acc)
                oracle = Matrix(Kp, [[expanded[j].entry(i, 0) for j in range(2)]
                                     for i in range(2)])
                assert oracle == nabla_power_matrix(A, p), p

    _criterion(3, "2^p word expansion equals the power recursion", body,
               budget=60.0)


def test_criterion_04_pole_prediction_soundness():
    def body():
        confirmed = 0
        for c, p in _companion_instances():
            profile = ValuationProfile.of(c)
            assert profile.min_valuation < 0
            pred = predict_nonvanishing(c, p)
            assert pred.predicted, (p, profile.valuations)
            assert verify_prediction(c, p), (p, profile.valuations)
            confirmed += 1
        assert confirmed == 20

    _criterion(4, "negative q-valuation predicts nonzero psi_p, 20/20", body,
               budget=300.0)


def test_criterion_05_newton_polygon_dominance():
    def body():
        for c, _p in _companion_instances():
            poly = newton_polygon(c)
            s = poly.min_slope
            assert s is not None
            profile = ValuationProfile.of(c)
            r = c.rank
            equality_hit = False
            for m, v in enumerate(profile.valuations):
                if v == float("inf"):
                    continue
                bound = s * (r - m)
                assert v >= bound, (m, v, bound)
                if v == bound:
                    equality_hit = True
            assert equality_hit

    _criterion(5, "nu(f_m) >= s*(r-m) with equality somewhere", body)


def test_criterion_06_gauge_covariance():
    def body():
        from pcurvkit.ratfunc import reduce_rational_mod_p

        K = _qq_line()
        D = Derivation.d_dx(K)
        rng = random.Random(606060)
        for _ in range(50):
            A = ConnectionMatrix(
                Matrix(K, [[_poly_entry(K, rng, 1) for _ in range(2)]
                           for _ in range(2)]), D)
            G = Matrix.identity(K, 2)
            for _ in range(rng.randint(1, 3)):
                r = _poly_entry(K, rng, 1)
                if rng.random() < 0.5:
                    G = G * Matrix(K, [[K.one, r], [K.zero, K.one]])
                else:
                    G = G * Matrix(K, [[K.one, K.zero], [r, K.one]])
            B = gauge_transform(A, G)
            for p in (3, 5, 7):
                ra = p_curvature(A, p)
                rb = p_curvature(B, p)
                assert ra.good_prime and rb.good_prime, p
                Kp = FunctionField(GF(p), "x")
                Gp = G.map_entries(
                    lambda e: reduce_rational_mod_p(e, Kp), new_ring=Kp)
                assert rb.psi == Gp.inverse() * ra.psi * Gp, p

    _criterion(6, "psi_p transforms by conjugation under 50 gauges", body)


def test_criterion_07_block_structure():
    def body():
        K = _qq_line()
        D = Derivation.d_dx(K)
        rng = random.Random(707070)
        for _ in range(30):
            A = ConnectionMatrix(
                Matrix(K, [[_poly_entry(K, rng, 1) for _ in range(2)]
                           for _ in range(2)]), D)
            Bm = Matrix(K, [[_poly_entry(K, rng, 1) for _ in range(2)]
                            for _ in range(2)])
            ext = BlockExtension(A, Bm)
            for j in range(1, 8):
                P, Q = block_power_pair(ext, j)
                full = nabla_power_matrix(ext.M, j)
                for i in range(2):
                    for k in range(2):
                        assert full.entry(i, k) == P.entry(i, k)
                        assert full.entry(i, k + 2) == Q.entry(i, k)
                        assert full.entry(i + 2, k) == K.zero
                        assert full.entry(i + 2, k + 2) == P.entry(i, k)

    _criterion(7, "block nabla powers split as [[P,Q],[0,P]] through j=7", body)


def test_criterion_08_deformation_round_trip():
    def body():
        K = _qq_line()
        D = Derivation.d_dx(K)
        rng = random.Random(808080)
        for _ in range(30):
            A = ConnectionMatrix(
                Matrix(K, [[_poly_entry(K, rng, 1) for _ in range(2)]
                           for _ in range(2)]), D)
            Y0 = Matrix(K, [[_poly_entry(K, rng, 2) for _ in range(2)]
                            for _ in range(2)])
            B = -(A.matrix * Y0 - Y0 * A.matrix + D(Y0))
            sol = solve_deformation(A, B, ansatz_degree=6)
            assert sol is not None
            Y = sol.Y
            assert (B + A.matrix * Y - Y * A.matrix + D(Y)).is_zero()
        # the classical obstruction: no rational antiderivative of 1/x
        x = K.gen()
        A0 = ConnectionMatrix(Matrix(K, [[0]]), D)
        assert solve_deformation(A0, Matrix(K, [[K.one / x]]), 8) is None

    _criterion(8, "30 solvable deformations recovered; 1/x obstructed", body)


def test_criterion_09_step_conjugation():
    def body():
        rng = random.Random(909090)
        for _ in range(20):
            n = 2
            F = QQ
            sigma = [Matrix(F, [[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(n)]) for _ in range(2)]
            M = Matrix(F, [[rng.randint(-3, 3) for _ in range(n)]
                           for _ in range(n)])
            m = rng.choice([1, 2, 3])
            tau = [[s] + [Matrix.zeros(F, n)] * (m - 1) + [M * s - s * M]
                   for s in sigma]
            got = step_conjugate(sigma, tau, m)
            assert got is not None
            for s, stack in zip(sigma, tau):
                assert got * s - s * got == stack[m]
        # center obstruction: nothing conjugates the identity into I + q*E12
        F = QQ
        I = Matrix.identity(F, 2)
        tau = [[I, Matrix(F, [[0, 1], [0, 0]])]]
        assert step_conjugate([I], tau, 1) is None

    _criterion(9, "20 step conjugations verified; central instance absent", body)


def test_criterion_10_fricke_engine():
    def body():
        K = _gaussian()
        rng = random.Random(101010)
        pairs = [(_unimodular(K, rng), _unimodular(K, rng)) for _ in range(20)]
        trace_cache = [(A.trace(), B.trace(), (A * B).trace()) for A, B in pairs]
        for _ in range(100):
            w = Word([(rng.choice("ab"), rng.choice([1, -1]))
                      for _ in range(rng.randint(1, 10))])
            pw = fricke_polynomial(w)
            letters = reduce_word(w).letters
            for (A, B), (tx, ty, tz) in zip(pairs, trace_cache):
                direct = Matrix.identity(K, 2)
                for g, e in letters:
                    M = A if g == "a" else B
                    direct = direct * (M if e == 1 else M.inverse())
                assert pw.evaluate(tx, ty, tz, K.one) == direct.trace(), w.to_str()
        X = TracePolynomial.var("X")
        Y = TracePolynomial.var("Y")
        Z = TracePolynomial.var("Z")
        expected = X * X + Y * Y + Z * Z - X * Y * Z - TracePolynomial.const(2)
        assert fricke_polynomial(Word.parse("a*b*a^-1*b^-1")) == expected

    _criterion(10, "100 word traces match; commutator polynomial frozen", body)


def test_criterion_11_certification():
    def body():
        K = _gaussian()
        i = K.gen
        pres = SurfacePresentation(1, 1)

        t0 = time.perf_counter()
        quat = Representation(K, pres, {
            "a1": Matrix(K, [[i, K.zero], [K.zero, -i]]),
            "b1": Matrix(K, [[K.zero, K.one], [-K.one, K.zero]]),
        })
        cert = certify_finiteness(quat, max_elements=10 ** 4)
        assert_record(cert.verdict, Finite(8))
        assert time.perf_counter() - t0 < 30.0

        t0 = time.perf_counter()
        L, f1, f2 = compositum(_golden(), K)
        w = f1(_golden().gen)
        ii = f2(i)
        half = L(Fraction(1, 2))
        winv = w - L.one
        s = Matrix(L, [[(w + winv * ii) * half, half],
                       [-half, (w - winv * ii) * half]])
        t = Matrix(L, [[(L.one + ii) * half, half + half * ii],
                       [-half + half * ii, (L.one - ii) * half]])
        ico = Representation(L, pres, {"a1": s, "b1": t})
        cert = certify_finiteness(ico, max_elements=10 ** 4)
        assert_record(cert.verdict, Finite(120))
        assert time.perf_counter() - t0 < 30.0

        t0 = time.perf_counter()
        Q = NumberField(Polynomial(QQ, [Fraction(0), Fraction(1)]), "t")
        para = Representation(Q, pres, {
            "a1": Matrix(Q, [[Q.one, Q.one], [Q.zero, Q.one]]),
            "b1": Matrix.identity(Q, 2),
        })
        cert = certify_finiteness(para, max_elements=10 ** 4)
        assert isinstance(cert.verdict, Obstructed)
        assert cert.verdict.reason == "parabolic noncentral"
        assert time.perf_counter() - t0 < 30.0

    _criterion(11, "Finite(8), Finite(120), parabolic obstruction", body,
               budget=90.0)


def test_criterion_12_kronecker_suite():
    def body():
        cases = [
            ([1, -1, 1], 6),    # X^2 - X + 1
            ([1, 0, 1], 4),     # X^2 + 1
            ([1, -3, 1], None),  # X^2 - 3X + 1
            ([-1, -1, 1], None),  # X^2 - X - 1
        ]
        for coeffs, expected in cases:
            K = NumberField(
                Polynomial(QQ, [Fraction(c) for c in coeffs]), "z")
            assert is_root_of_unity(K.gen) == expected, coeffs

    _criterion(12, "root-of-unity quartet decided by divisibility", body)


def test_criterion_13_galois_stability():
    def body():
        K = _gaussian()
        conj = K.automorphisms()[1]
        pres = SurfacePresentation(1, 1)
        rng = random.Random(131313)
        loops = simple_loop_products(pres)
        half = K(Fraction(1, 2))
        for idx in range(5):
            if idx < 3:
                gens = {"a1": _unimodular(K, rng), "b1": _unimodular(K, rng)}
            else:
                # non-integral trace on purpose: diag(t, 1/t), t = (1+i)/2
                t = half + half * K.gen
                gens = {"a1": Matrix(K, [[t, K.zero],
                                         [K.zero, K.one / t]]),
                        "b1": _unimodular(K, rng)}
            rho = Representation(K, pres, gens)
            rho_bar = conjugate_representation(rho, conj)
            na = nonarch_check(rho, loops)
            na_bar = nonarch_check(rho_bar, loops)
            assert na.passed == na_bar.passed
            assert na.witness == na_bar.witness
            for w in loops:
                o1 = element_order(rho.evaluate(w))
                o2 = element_order(rho_bar.evaluate(w))
                assert o1 == o2, w.to_str()

    _criterion(13, "conjugated coordinates agree on all verdicts", body)
