"""Words, surface presentations, trace polynomials, exact element orders,
trace obstructions, and the finiteness certifier."""

import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import assert_record
from pcurvkit import intervals, numberfield, surface
from pcurvkit import (
    QQ,
    ConnectionMatrix,
    Derivation,
    FunctionField,
    Matrix,
    NumberField,
    Polynomial,
    Representation,
    SurfacePresentation,
    Word,
    arch_check,
    certify_finiteness,
    compositum,
    conjugate_representation,
    element_order,
    fricke_polynomial,
    nonarch_check,
    reduce_word,
    scan_primes,
    simple_loop_products,
)
from pcurvkit.fields import primes_in
from pcurvkit.surface import (
    Finite,
    FinitenessCertificate,
    FiniteOrder,
    Inconclusive,
    InfiniteOrder,
    Obstructed,
    TracePolynomial,
    _check_klein,
)


def P(*coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs])


def gaussian():
    return NumberField(P(1, 0, 1), "i")


def rational_field():
    return NumberField(P(0, 1), "t")


def golden():
    return NumberField(P(-1, -1, 1), "w")


# -- words -------------------------------------------------------------------


def test_word_parse_and_str():
    w = Word.parse("a*b^-1*a^2")
    assert w.letters == (("a", 1), ("b", -1), ("a", 1), ("a", 1))
    assert w.to_str() == "a*b^-1*a*a"
    assert Word.parse("1") == Word()


def test_word_multiplication_and_inverse():
    u = Word.parse("a*b")
    v = Word.parse("b^-1")
    assert (u * v) == Word.parse("a*b*b^-1")
    assert reduce_word(u * v) == Word.parse("a")
    assert u.inverse() == Word.parse("b^-1*a^-1")
    assert reduce_word(u * u.inverse()) == Word()


def test_reduce_word_cancels_interior():
    w = Word.parse("a*b*b^-1*a^-1*a*b")
    assert reduce_word(w) == Word.parse("a*b")


def test_word_names():
    assert Word.parse("a*c3^-1*b").names() == {"a", "b", "c3"}


# -- presentations -------------------------------------------------------------


def test_presentation_generator_names():
    pres = SurfacePresentation(2, 1)
    assert pres.generator_names() == ["a1", "b1", "a2", "b2", "c1"]
    assert pres.free_generator_names() == ["a1", "b1", "a2", "b2"]


def test_presentation_rejects_sphere():
    with pytest.raises(ValueError):
        SurfacePresentation(0, 0)


def test_relation_word_shapes():
    pres = SurfacePresentation(1, 1)
    rel = pres.relation_word()
    assert rel.letters == (("a1", 1), ("b1", -1), ("a1", -1), ("b1", 1), ("c1", 1))
    # c1 = inverse of the commutator prefix
    assert pres.last_puncture_word() == Word(
        (("b1", -1), ("a1", 1), ("b1", 1), ("a1", -1)))


def test_closed_surface_free_rank():
    pres = SurfacePresentation(2, 0)
    assert pres.free_generator_names() == pres.generator_names() == ["a1", "b1", "a2", "b2"]
    with pytest.raises(ValueError):
        pres.last_puncture_word()


def test_simple_loop_products_counts():
    # 3 singletons + 3 pairs + 1 triple, one per rotation class
    assert len(simple_loop_products(SurfacePresentation(0, 3))) == 7
    assert len(simple_loop_products(SurfacePresentation(1, 1))) == 7
    names = {w.to_str() for w in simple_loop_products(SurfacePresentation(0, 3))}
    assert "c1" in names and "c1*c2*c3" in names
    assert not ({"c1*c2", "c2*c1"} <= names)  # rotations identified


# -- representations --------------------------------------------------------------


def quaternion_rep(projective_target="SL2"):
    K = gaussian()
    i = K.gen
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[i, K.zero], [K.zero, -i]])
    b = Matrix(K, [[K.zero, K.one], [-K.one, K.zero]])
    return Representation(K, pres, {"a1": a, "b1": b}, target=projective_target)


def test_representation_derives_last_puncture_generator():
    rho = quaternion_rep()
    c1 = rho.gens["c1"]
    pres = rho.presentation
    assert c1 == rho.evaluate(pres.last_puncture_word())
    # the full relation evaluates to the identity by construction
    assert rho.evaluate(pres.relation_word()) == Matrix.identity(rho.field, 2)


def test_representation_rejects_wrong_determinant():
    K = gaussian()
    pres = SurfacePresentation(1, 1)
    bad = Matrix(K, [[K(2), K.zero], [K.zero, K.one]])
    with pytest.raises(ValueError, match="determinant"):
        Representation(K, pres, {"a1": bad, "b1": Matrix.identity(K, 2)})
    # det -1 with trace 0: the certification BFS relies on this rejection
    swap = Matrix(K, [[K.zero, K.one], [K.one, K.zero]])
    with pytest.raises(ValueError, match="generator b1 has determinant"):
        Representation(K, pres, {"a1": Matrix.identity(K, 2), "b1": swap})


def test_representation_enforces_closed_relation():
    K = gaussian()
    pres = SurfacePresentation(1, 0)
    i = K.gen
    a = Matrix(K, [[i, K.zero], [K.zero, -i]])
    b = Matrix(K, [[K.zero, K.one], [-K.one, K.zero]])  # anticommutes with a
    with pytest.raises(ValueError, match="relation"):
        Representation(K, pres, {"a1": a, "b1": b})


def test_evaluate_on_words():
    rho = quaternion_rep()
    K = rho.field
    a = rho.gens["a1"]
    b = rho.gens["b1"]
    w = Word.parse("a1*b1^-1*a1")
    assert rho.evaluate(w) == a * b.inverse() * a
    assert rho.evaluate(Word()) == Matrix.identity(K, 2)


def trace_identity_check(rho, x, y):
    """tr(XY) + tr(XY^{-1}) = tr(X) tr(Y), exactly."""
    X = rho.evaluate(x)
    Y = rho.evaluate(y)
    one = rho.field.one
    if X.det() != one or Y.det() != one:
        raise ValueError("trace identity requires determinant 1")
    lhs = (X * Y).trace() + (X * Y.inverse()).trace()
    return lhs == X.trace() * Y.trace()


def test_trace_identity_random_words():
    rho = quaternion_rep()
    rng = random.Random(606)
    gens = ["a1", "b1"]
    for _ in range(15):
        x = Word([(rng.choice(gens), rng.choice([1, -1]))
                  for _ in range(rng.randint(1, 4))])
        y = Word([(rng.choice(gens), rng.choice([1, -1]))
                  for _ in range(rng.randint(1, 4))])
        assert trace_identity_check(rho, x, y)


# -- Fricke trace polynomials -------------------------------------------------------


def XYZ():
    return (TracePolynomial.var("X"), TracePolynomial.var("Y"),
            TracePolynomial.var("Z"))


def test_fricke_base_words():
    X, Y, Z = XYZ()
    assert fricke_polynomial(Word.parse("1")) == TracePolynomial.const(2)
    assert fricke_polynomial(Word.parse("a")) == X
    assert fricke_polynomial(Word.parse("b")) == Y
    assert fricke_polynomial(Word.parse("a*b")) == Z
    assert fricke_polynomial(Word.parse("b*a")) == Z  # rotation class


def test_fricke_inverse_and_squares():
    X, Y, Z = XYZ()
    assert fricke_polynomial(Word.parse("a^-1")) == X
    assert fricke_polynomial(Word.parse("a*a")) == X * X - TracePolynomial.const(2)
    assert fricke_polynomial(Word.parse("a*b^-1")) == X * Y - Z


def test_fricke_commutator_frozen():
    X, Y, Z = XYZ()
    expected = (X * X + Y * Y + Z * Z - X * Y * Z
                - TracePolynomial.const(2))
    got = fricke_polynomial(Word.parse("a*b*a^-1*b^-1"))
    assert got == expected


def test_fricke_rejects_foreign_letters():
    with pytest.raises(ValueError, match="letters a, b"):
        fricke_polynomial(Word.parse("a*c1"))


def unimodular(K, rng):
    """Random SL2 matrix over K as a short product of elementary shears."""
    M = Matrix.identity(K, 2)
    for _ in range(rng.randint(1, 3)):
        r = K(rng.randint(-2, 2)) + K.gen * K(rng.randint(-1, 1))
        if rng.random() < 0.5:
            E = Matrix(K, [[K.one, r], [K.zero, K.one]])
        else:
            E = Matrix(K, [[K.one, K.zero], [r, K.one]])
        M = M * E
    return M


def test_fricke_matches_direct_traces():
    """The whole point: P_w(tr A, tr B, tr AB) equals tr(w(A, B))."""
    K = gaussian()
    rng = random.Random(271828)
    pairs = []
    for _ in range(4):
        pairs.append((unimodular(K, rng), unimodular(K, rng)))
    for _ in range(40):
        w = Word([(rng.choice("ab"), rng.choice([1, -1]))
                  for _ in range(rng.randint(1, 8))])
        pw = fricke_polynomial(w)
        for A, B in pairs:
            direct = Matrix.identity(K, 2)
            for g, e in reduce_word(w).letters:
                M = A if g == "a" else B
                direct = direct * (M if e == 1 else M.inverse())
            want = direct.trace()
            got = pw.evaluate(A.trace(), B.trace(), (A * B).trace(), K.one)
            assert got == want, w.to_str()


# -- element orders ------------------------------------------------------------------


def test_element_order_frozen_table():
    K = gaussian()
    I = Matrix.identity(K, 2)
    cases = [
        (I, 1),
        (-I, 2),
        (Matrix(K, [[K.zero, -K.one], [K.one, K.zero]]), 4),     # trace 0
        (Matrix(K, [[K.one, K.one], [-K.one, K.zero]]), 6),      # trace 1
        (Matrix(K, [[K.zero, K.one], [-K.one, -K.one]]), 3),     # trace -1
    ]
    for M, n in cases:
        res = element_order(M)
        assert_record(res, FiniteOrder(n))
        assert M ** n == I


def test_element_order_parabolic_and_hyperbolic():
    K = rational_field()
    shear = Matrix(K, [[K.one, K.one], [K.zero, K.one]])
    assert_record(element_order(shear), InfiniteOrder("parabolic noncentral"))
    hyp = Matrix(K, [[K(2), K.one], [K.one, K.one]])  # trace 3
    res = element_order(hyp)
    assert isinstance(res, InfiniteOrder)
    assert "root of unity" in res.reason


def test_element_order_requires_det_one():
    K = rational_field()
    with pytest.raises(ValueError):
        element_order(Matrix(K, [[K(2), K.zero], [K.zero, K.one]]))
    # det -1 and trace 0: without the check this would read as order 4
    K = gaussian()
    with pytest.raises(ValueError, match="determinant 1"):
        element_order(Matrix(K, [[K.zero, K.gen], [-K.gen, K.zero]]))


def test_element_order_golden_rotations():
    """Traces phi, phi - 1, -phi pick out orders 10, 5, 5."""
    K = NumberField(P(-1, -1, 1), "w")
    w = K.gen
    for t, n in ((w, 10), (w - K.one, 5), (-w, 5)):
        M = Matrix(K, [[K.zero, -K.one], [K.one, t]])  # companion, det 1
        assert_record(element_order(M), FiniteOrder(n))
        assert M ** n == Matrix.identity(K, 2)
        for k in range(1, n):
            assert M ** k != Matrix.identity(K, 2)


# -- obstruction checks ----------------------------------------------------------------


def golden_trace_rep(t):
    """Over Q(phi): a1 the companion matrix of trace t and determinant 1,
    b1 the identity."""
    K = t.field
    a = Matrix(K, [[K.zero, -K.one], [K.one, t]])
    return Representation(K, SurfacePresentation(1, 1), {"a1": a, "b1": Matrix.identity(K, 2)})


def test_nonarch_check_flags_rational_pole():
    """A trace with 2 in its denominator fails: 5/2, and the irrational
    phi/2, a root of X^2 - X/2 - 1/4."""
    K = rational_field()
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[K(Fraction(1, 2)), K.zero], [K.zero, K(2)]])
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)})
    cases = [(rho, P(Fraction(-5, 2), 1)),
             (golden_trace_rep(golden().gen / 2), P(Fraction(-1, 4), Fraction(-1, 2), 1))]
    for rho, witness_min_poly in cases:
        rep = nonarch_check(rho, simple_loop_products(pres))
        assert not rep.passed
        assert rep.witness == Word.parse("a1")
        assert rep.witness_trace_min_poly == witness_min_poly


def test_nonarch_check_passes_integers():
    """Rational integer traces, and the irrational integral trace phi."""
    for rho in (quaternion_rep(), golden_trace_rep(golden().gen)):
        rep = nonarch_check(rho, simple_loop_products(rho.presentation))
        assert rep.passed and rep.witness is None


def test_nonarch_check_reads_the_one_denominator(monkeypatch):
    """QQ[x] stores integer numerators over one den: x^2 + 1/2 is (1, 0, 2)
    over 2.  Every stored value is an int, with denominator 1, so the check
    must read den; x^2 - 2, (-2, 0, 1) over 1, passes."""
    rho = quaternion_rep()
    words = simple_loop_products(rho.presentation)
    half = P(Fraction(1, 2), 0, 1)
    assert (half.coeffs, half.den) == ((1, 0, 2), 2)
    assert all(type(c) is int for c in half.coeffs)
    monkeypatch.setattr(Representation, "_trace_min_poly", lambda self, w: half)
    rep = nonarch_check(rho, words)
    assert not rep.passed and rep.witness_trace_min_poly == half
    monkeypatch.setattr(Representation, "_trace_min_poly", lambda self, w: P(-2, 0, 1))
    assert nonarch_check(rho, words).passed


def test_arch_check_flags_large_trace():
    K = rational_field()
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[K(3), -K.one], [K.one, K.zero]])  # trace 3
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)})
    rep = arch_check(rho, [Word.parse("a1")])
    assert not rep.passed
    assert rep.witness == Word.parse("a1")


def test_arch_check_passes_bounded_traces():
    rho = quaternion_rep()
    rep = arch_check(rho, simple_loop_products(rho.presentation))
    assert rep.passed and rep.witness is None


def test_arch_check_salem_like_witness():
    # trace sqrt of golden field unit: one embedding inside [-2,2], one outside
    K = NumberField(P(-1, -1, 1), "w")
    w = K.gen
    pres = SurfacePresentation(1, 1)
    t = w + K.one  # embeddings: phi + 1 ~ 2.618 and 2 - phi ~ 0.382
    a = Matrix(K, [[t, -K.one], [K.one, K.zero]])
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)})
    rep = arch_check(rho, [Word.parse("a1")])
    assert not rep.passed
    assert rep.witness == Word.parse("a1")


# -- finiteness certification ------------------------------------------------------------


def test_certify_quaternion_group():
    cert = certify_finiteness(quaternion_rep())
    assert_record(cert.verdict, Finite(8))
    assert cert.element_count == 8
    assert cert.max_order_seen == 4
    assert cert.nonarch_passed and cert.arch_passed


def test_certificate_survives_pickling():
    cert = certify_finiteness(quaternion_rep())
    back = pickle.loads(pickle.dumps(cert))
    assert type(back) is type(cert) and type(back.verdict) is Finite
    assert back == cert


def test_certify_projective_quaternion():
    cert = certify_finiteness(quaternion_rep(), projective=True)
    assert_record(cert.verdict, Finite(4))  # V4 image in PSL2


def test_certify_parabolic_obstruction():
    K = rational_field()
    pres = SurfacePresentation(1, 1)
    shear = Matrix(K, [[K.one, K.one], [K.zero, K.one]])
    rho = Representation(K, pres, {"a1": shear, "b1": Matrix.identity(K, 2)})
    cert = certify_finiteness(rho)
    assert isinstance(cert.verdict, Obstructed)
    assert cert.verdict.reason == "parabolic noncentral"
    assert cert.verdict.witness == "a1"


def test_certify_nonarch_obstruction_short_circuits():
    K = rational_field()
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[K(Fraction(1, 2)), K.zero], [K.zero, K(2)]])
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)})
    cert = certify_finiteness(rho)
    assert isinstance(cert.verdict, Obstructed)
    assert "algebraic integer" in cert.verdict.reason
    assert cert.element_count == 0  # no closure was attempted
    assert cert.nonarch_passed is False


def test_certify_arch_obstruction():
    K = rational_field()
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[K(3), -K.one], [K.one, K.zero]])
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)})
    cert = certify_finiteness(rho)
    assert isinstance(cert.verdict, Obstructed)
    assert "outside [-2, 2]" in cert.verdict.reason
    assert cert.nonarch_passed is True and cert.arch_passed is False


def test_certify_element_cap_is_inconclusive():
    cert = certify_finiteness(quaternion_rep(), max_elements=3)
    assert isinstance(cert.verdict, Inconclusive)
    assert "cap" in cert.verdict.reason


def test_certify_order_cap_is_inconclusive():
    cert = certify_finiteness(quaternion_rep(), max_order=2)
    assert isinstance(cert.verdict, Inconclusive)


def test_certify_gl2_unit_determinants():
    K = gaussian()
    i = K.gen
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[i, K.zero], [K.zero, K.one]])  # det i, order 4
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)},
                         target="GL2")
    cert = certify_finiteness(rho)
    assert_record(cert.verdict, Finite(4))
    assert cert.det_orders["a1"] == 4
    assert cert.det_orders["b1"] == 1


def test_certify_gl2_nonunit_determinant_obstructed():
    K = gaussian()
    pres = SurfacePresentation(1, 1)
    a = Matrix(K, [[K(2), K.zero], [K.zero, K.one]])
    rho = Representation(K, pres, {"a1": a, "b1": Matrix.identity(K, 2)},
                         target="GL2")
    cert = certify_finiteness(rho)
    assert isinstance(cert.verdict, Obstructed)
    assert "root of unity" in cert.verdict.reason
    assert cert.det_orders["a1"] is None


def test_certify_closed_torus():
    K = gaussian()
    pres = SurfacePresentation(1, 0)
    S = Matrix(K, [[K.zero, -K.one], [K.one, K.zero]])
    rho = Representation(K, pres, {"a1": S, "b1": Matrix.identity(K, 2)})
    cert = certify_finiteness(rho)
    assert_record(cert.verdict, Finite(4))


def test_conjugate_representation_preserves_verdicts():
    rho = quaternion_rep()
    conj = rho.field.automorphisms()[1]
    rho2 = conjugate_representation(rho, conj)
    assert rho2.gens["a1"] == rho.gens["a1"].map_entries(conj)
    c1 = certify_finiteness(rho)
    c2 = certify_finiteness(rho2)
    assert_record(c2.verdict, c1.verdict)
    assert c1.max_order_seen == c2.max_order_seen
    words = simple_loop_products(rho.presentation)
    assert nonarch_check(rho, words).passed == nonarch_check(rho2, words).passed


def icosahedral_pair():
    """The golden-ratio quaternion pair over Q(phi, i)."""
    F1 = NumberField(P(-1, -1, 1), "w")
    F2 = gaussian()
    K, f1, f2 = compositum(F1, F2)
    w = f1(F1.gen)
    i = f2(F2.gen)
    half = K(Fraction(1, 2))
    winv = w - K.one  # 1/phi since w^2 = w + 1
    s = Matrix(K, [[(w + winv * i) * half, half], [-half, (w - winv * i) * half]])
    t = Matrix(K, [[(K.one + i) * half, half + half * i],
                   [-half + half * i, (K.one - i) * half]])
    return K, s, t


def test_icosahedral_binary_group():
    """The golden-ratio quaternion pair generates the order-120 group."""
    K, s, t = icosahedral_pair()
    assert s.det() == K.one and t.det() == K.one
    pres = SurfacePresentation(1, 1)
    rho = Representation(K, pres, {"a1": s, "b1": t})
    assert_record(element_order(s), FiniteOrder(10))
    assert_record(element_order(t), FiniteOrder(6))
    cert = certify_finiteness(rho)
    assert_record(cert.verdict, Finite(120))
    assert cert.max_order_seen == 10


# -- the order cache of the certification closure ----------------------------------


def closure_reps():
    """The representations of acceptance criteria 11 and 13, seeded conjugates
    of the icosahedral pair, and -I beside a parabolic of trace -2."""
    K = gaussian()
    pres = SurfacePresentation(1, 1)
    reps = {"quaternion": quaternion_rep()}
    L, s, t = icosahedral_pair()
    reps["icosahedral"] = Representation(L, pres, {"a1": s, "b1": t})
    Q = rational_field()
    reps["parabolic"] = Representation(Q, pres, {
        "a1": Matrix(Q, [[Q.one, Q.one], [Q.zero, Q.one]]),
        "b1": Matrix.identity(Q, 2)})
    # -I comes first and has trace -2, like the parabolic b1: a trace key
    # read before the central check would give b1 order 2
    reps["central-first"] = Representation(Q, pres, {
        "a1": -Matrix.identity(Q, 2),
        "b1": Matrix(Q, [[-Q.one, Q.one], [Q.zero, -Q.one]])})
    rng = random.Random(131313)
    half = K(Fraction(1, 2))
    for idx in range(5):
        if idx < 3:
            gens = {"a1": unimodular(K, rng), "b1": unimodular(K, rng)}
        else:
            u = half + half * K.gen  # a non-integral trace on purpose
            gens = {"a1": Matrix(K, [[u, K.zero], [K.zero, K.one / u]]),
                    "b1": unimodular(K, rng)}
        reps[f"galois{idx}"] = Representation(K, pres, gens)
    for seed in range(3):
        C = unimodular(L, random.Random(seed))
        Cinv = C.inverse()
        reps[f"icosahedral^{seed}"] = Representation(
            L, pres, {"a1": C * s * Cinv, "b1": C * t * Cinv})
    return reps


# -- reduction mod p: an oracle for Finite(n) -----------------------------------------


def reduction_prime(K, gens, n):
    """The least prime p not dividing 2n at which every generator entry and
    the minimal polynomial are p-integral and the minimal polynomial has a
    root r mod p; returns (p, r).  theta -> r is then a ring map from the
    p-integral part of Z[theta] onto F_p."""
    f = K.min_poly
    dens = [e.den for M in gens for row in M.rows for e in row]
    dens += [f.coeff(i).denominator for i in range(K.degree + 1)]
    p = 2
    while True:
        p += 1
        if any(p % q == 0 for q in range(2, p)) or (2 * n) % p == 0 \
                or any(d % p == 0 for d in dens):
            continue
        for r in range(p):
            if sum(f.coeff(i).numerator * pow(f.coeff(i).denominator, -1, p)
                   * pow(r, i, p) for i in range(K.degree + 1)) % p == 0:
                return p, r


def reduced_closure_order(gens, p, r, projective):
    """The order of the group the generators make in SL2(F_p) (or PSL2(F_p))
    after theta -> r, by a breadth-first closure on integer 2x2 matrices."""
    def reduce_entry(e):
        return sum(a * pow(r, k, p) for k, a in enumerate(e.num)) * pow(e.den, -1, p) % p

    mats = [tuple(reduce_entry(e) for row in M.rows for e in row) for M in gens]

    def mul(A, B):
        return ((A[0] * B[0] + A[1] * B[2]) % p, (A[0] * B[1] + A[1] * B[3]) % p,
                (A[2] * B[0] + A[3] * B[2]) % p, (A[2] * B[1] + A[3] * B[3]) % p)

    seen = {(1, 0, 0, 1)}
    frontier = list(seen)
    while frontier:
        frontier = [C for C in {mul(A, g) for A in frontier for g in mats} if C not in seen]
        seen.update(frontier)
    if projective and (p - 1, 0, 0, p - 1) in seen:
        return len(seen) // 2
    return len(seen)


@pytest.mark.parametrize("projective", [False, True], ids=["SL2", "PSL2"])
@pytest.mark.parametrize("name", ["quaternion", "icosahedral", "icosahedral^0",
                                  "icosahedral^1", "icosahedral^2"])
def test_finite_order_survives_reduction_mod_p(name, projective):
    """Reduction mod p is injective on a finite subgroup of order prime to p
    (its kernel is pro-p), so the closure of the reduced generators in
    SL2(F_p) has the certified order n, and n divides |SL2(F_p)| =
    p(p^2 - 1) (half that in PSL2).  The closure runs on ints mod p, with
    none of the number-field arithmetic the certifier uses."""
    rho = closure_reps()[name]
    cert = certify_finiteness(rho, projective=projective)
    assert type(cert.verdict) is Finite
    n = cert.verdict.order
    gens = [rho.gens["a1"], rho.gens["b1"]]
    p, r = reduction_prime(rho.field, gens, n)
    assert reduced_closure_order(gens, p, r, projective) == n
    assert (p * (p * p - 1) // (2 if projective else 1)) % n == 0


@pytest.mark.parametrize("n, max_order, projective", [
    (7, 7, False), (8, 4, False), (12, 6, False), (24, 6, False), (48, 8, False),
    (120, 10, False), (7, 7, True), (4, 2, True), (10, 5, True), (12, 3, True),
    (24, 4, True), (60, 5, True),
])
def test_klein_check_accepts_finite_subgroups(n, max_order, projective):
    _check_klein(n, max_order, projective)


@pytest.mark.parametrize("n, max_order, projective", [
    (4, 2, False),     # Klein four-group: SL2(C) has one involution
    (6, 3, False),     # S3
    (8, 2, False),
    (60, 5, False),    # A5 lifts to the binary icosahedral group only
    (120, 5, False),
    (8, 2, True),
    (60, 10, True),
    (24, 6, True),
])
def test_klein_check_rejects_wrong_pair(n, max_order, projective):
    with pytest.raises(AssertionError, match="no finite subgroup"):
        _check_klein(n, max_order, projective)


def test_certify_raises_on_closure_that_fits_no_finite_subgroup(monkeypatch):
    """A wrong element order is an internal bug: no Finite verdict comes out."""
    monkeypatch.setattr(surface, "_order_rule", lambda *args: FiniteOrder(3))
    with pytest.raises(AssertionError, match="order 8 with largest element order 3"):
        certify_finiteness(quaternion_rep())


_ARCH = "an embedding sends a trace outside [-2, 2]"
_NONINTEGRAL = "trace is not an algebraic integer"


@pytest.mark.parametrize("name, projective, verdict", [
    pytest.param(name, projective, verdict,
                 id=f"{name}-{'PSL2' if projective else 'SL2'}")
    for name, projective, verdict in [
        ("quaternion", False, Finite(8)),
        ("quaternion", True, Finite(4)),
        ("icosahedral", False, Finite(120)),
        ("icosahedral", True, Finite(60)),
        ("parabolic", False, Obstructed("a1", "parabolic noncentral")),
        ("galois0", False, Obstructed("a1", _ARCH)),
        ("galois1", False, Obstructed("c1", _ARCH)),
        ("galois2", False, Obstructed("a1", "parabolic noncentral")),
        ("galois3", False, Obstructed("a1", _NONINTEGRAL)),
        ("galois4", False, Obstructed("a1", _NONINTEGRAL)),
    ]
])
def test_certify_computes_no_root_enclosures(monkeypatch, name, projective, verdict):
    """Every verdict, the archimedean obstructions included, is reached
    without enclosing a single root of a defining polynomial."""
    def refuse(f):
        raise AssertionError("certify_finiteness enclosed the roots of " + str(f))

    monkeypatch.setattr(intervals, "certified_root_enclosures", refuse)
    assert not hasattr(numberfield, "certified_root_enclosures")
    cert = certify_finiteness(closure_reps()[name], projective=projective)
    assert_record(cert.verdict, verdict)


def test_trace_checks_compute_one_minimal_polynomial_per_loop(monkeypatch):
    """nonarch_check and arch_check share one minimal polynomial per loop
    word: the integrality test, the witness and the Sturm count all read it."""
    calls = []
    original = numberfield.minimal_polynomial

    def spy(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(numberfield, "minimal_polynomial", spy)
    monkeypatch.setattr(surface, "minimal_polynomial", spy)
    rho = closure_reps()["icosahedral"]
    loops = simple_loop_products(rho.presentation)
    assert nonarch_check(rho, loops).passed
    assert arch_check(rho, loops).passed
    assert len(calls) == len({reduce_word(w) for w in loops}) == len(loops)


# -- Levelt's monodromy of the Gauss equation, a GL2 target ------------------------


def cyclotomic(N):
    """Phi_N over QQ: X^N - 1 divided by Phi_k for each proper divisor k."""
    f = Polynomial(QQ, [-1] + [0] * (N - 1) + [1])
    for k in range(1, N):
        if N % k == 0:
            f = f // cyclotomic(k)
    return f


def levelt_rep(a, b, c):
    """Levelt's generators of the monodromy of 2F1(a, b; c) over Q(zeta_N),
    with N the lcm of the denominators and Phi_N the min poly: c1 is the
    companion matrix of (X - e(a))(X - e(b)) and c2 that of
    (X - e(c))(X - 1), with e(t) = exp(2 pi i t) = zeta_N^(tN), on the
    sphere with 3 punctures in GL2."""
    a, b, c = (Fraction(t) for t in (a, b, c))
    N = lcm(a.denominator, b.denominator, c.denominator)
    K = NumberField(cyclotomic(N), "z")

    def e(t):
        return K.gen ** (int(t * N) % N)

    def companion(x, y):
        return Matrix(K, [[K.zero, -(x * y)], [K.one, x + y]])

    return Representation(K, SurfacePresentation(0, 3), {
        "c1": companion(e(a), e(b)), "c2": companion(e(c), K.one)}, target="GL2")


# (a, b, c) of Schwarz's list, with the orders of the image in GL2 and PGL2
LEVELT = {
    "tetrahedral": (("1/4", "-1/12", "1/2"), 48, 12),
    "octahedral": (("5/24", "-1/24", "1/2"), 144, 24),
    "dihedral": (("1/6", "-1/6", "1/2"), 12, 6),
}


def test_levelt_tetrahedral_generators():
    rho = levelt_rep(*LEVELT["tetrahedral"][0])
    K, z = rho.field, rho.field.gen
    assert K.min_poly == cyclotomic(12) == P(1, 0, -1, 0, 1)
    assert rho.gens["c1"] == Matrix(K, [[K.zero, -z * z], [K.one, z]])  # X^2 - zX + z^2
    assert rho.gens["c2"] == Matrix(K, [[K.zero, K.one], [K.one, K.zero]])


@pytest.mark.parametrize("projective", [False, True], ids=["GL2", "PGL2"])
@pytest.mark.parametrize("name", list(LEVELT))
def test_certify_levelt_gl2_images(name, projective):
    """The finite Levelt images close in GL2 and, with every scalar over the
    field identified, in PGL2, where they are A4, S4 and S3 and pass Klein's
    check."""
    triple, order, projective_order = LEVELT[name]
    cert = certify_finiteness(levelt_rep(*triple), projective=projective)
    n = projective_order if projective else order
    assert_record(cert.verdict, Finite(n))
    assert cert.element_count == n
    if projective:
        _check_klein(n, cert.max_order_seen, True)


# (a, b, c) with infinite monodromy and the verdict on the GL2 image: (1/5,
# 2/5, 1/2) closes on an element whose eigenvalue is no root of unity, and
# with a = b the companion c1 of (X - e(a))^2 is a noncentral parabolic
LEVELT_INFINITE = {
    "(1/5, 2/5, 1/2)": (("1/5", "2/5", "1/2"),
                        Obstructed("c1*c1*c2", "eigenvalue not a root of unity")),
    "(1/3, 1/3, 1/2)": (("1/3", "1/3", "1/2"), Obstructed("c1", "parabolic noncentral")),
    "(1/4, 1/4, 1/2)": (("1/4", "1/4", "1/2"), Obstructed("c1", "parabolic noncentral")),
}


def levelt_triple(name):
    return (LEVELT.get(name) or LEVELT_INFINITE[name])[0]


# -- the order rule against the Matrix-based oracle -------------------------------


def is_scalar(M):
    (a, b), (c, d) = M.rows
    return not b and not c and a == d


def sl2_order(M):
    """The order of a determinant-1 matrix on Matrix arithmetic, from its
    trace: the route the closure took before its one rule over (t, det)."""
    K = M.ring
    if M.det() != K.one:
        raise ValueError("sl2_order requires determinant 1")
    if is_scalar(M):
        return FiniteOrder(1 if M.rows[0][0] == K.one else 2)
    t = M.trace()
    if t == K(2) or t == K(-2):
        return InfiniteOrder("parabolic noncentral")
    n = surface._eigenvalue_power_order(t, numberfield.minimal_polynomial(t).degree())
    if n is None:
        return InfiniteOrder("eigenvalue not a root of unity")
    return FiniteOrder(n)


def projective_order(M):
    """The order of the image of M in PGL2 (smallest n with M^n scalar)."""
    K = M.ring
    if is_scalar(M):
        return FiniteOrder(1)
    det = M.det()
    t = M.trace()
    s = t * t / det - K(2)
    if s == K(2):
        return InfiniteOrder("parabolic noncentral")
    if s == K(-2):
        return FiniteOrder(2)
    n = surface._eigenvalue_power_order(s, numberfield.minimal_polynomial(s).degree())
    if n is None:
        return InfiniteOrder("eigenvalue ratio not a root of unity")
    return FiniteOrder(n)


def gl2_element_order(M, det_order):
    """The order in GL2 when det(M) has order det_order: det_order times the
    SL2 order of the matrix power M^det_order."""
    res = sl2_order(M ** det_order)
    if isinstance(res, FiniteOrder):
        return FiniteOrder(det_order * res.n)
    return res


def oracle_order(M, gl2, projective):
    """The order of a closure element M by the Matrix routes above."""
    if projective:
        return projective_order(M)
    if not gl2:
        return sl2_order(M)
    det_order = numberfield.is_root_of_unity(M.det())
    if det_order is None:
        return InfiniteOrder("determinant is not a root of unity")
    return gl2_element_order(M, det_order)


def certify_recording_orders(monkeypatch, rho, projective):
    """certify_finiteness, plus every (M, order) its closure took from the
    order cache, the number of order computations (``_order_rule`` calls)
    behind them, and the number of determinant orders the closure computed."""
    drawn, computed, roots = [], [], []
    real_rule, real_orders = surface._order_rule, surface._closure_orders
    real_root = surface.is_root_of_unity

    def closure_orders(K, gl2, projective):
        order_of = real_orders(K, gl2, projective)

        def spy(a, b, c, d):
            res = order_of(a, b, c, d)
            drawn.append((Matrix(K, [[a, b], [c, d]]), res))
            return res
        return spy

    monkeypatch.setattr(surface, "_order_rule",
                        lambda *args: computed.append(args) or real_rule(*args))
    monkeypatch.setattr(surface, "is_root_of_unity", lambda e: roots.append(e) or real_root(e))
    monkeypatch.setattr(surface, "_closure_orders", closure_orders)
    cert = certify_finiteness(rho, projective=projective)
    monkeypatch.undo()
    # the generators' determinant orders are taken before the closure
    return cert, drawn, len(computed), len(roots) - len(cert.det_orders or {})


ORDER_CASES = [(name, target) for name in closure_reps() for target in ("SL2", "PSL2")] + [
    (name, target) for name in [*LEVELT, *LEVELT_INFINITE] for target in ("GL2", "PGL2")]


@pytest.mark.parametrize("name, target", ORDER_CASES,
                         ids=[f"{name}-{target}" for name, target in ORDER_CASES])
def test_cached_orders_equal_uncached(monkeypatch, name, target):
    """Every order the closure takes, with its reason, is the Matrix-based
    oracle's, and each distinct cache key is computed exactly once: one
    rule per scalar element and per noncentral (t, det) key, (t^2, det)
    projectively, and in GL2 one determinant order per distinct det."""
    gl2, projective = target.endswith("GL2"), target.startswith("P")
    rho = levelt_rep(*levelt_triple(name)) if gl2 else closure_reps()[name]
    cert, drawn, computed, roots = certify_recording_orders(monkeypatch, rho, projective)
    keys, dets = set(), set()
    for M, res in drawn:
        assert_record(res, oracle_order(M, gl2, projective))
        t, det = M.trace(), M.det()
        dets.add(det)
        keys.add(id(M) if is_scalar(M) else (t * t if projective else t, det))
    assert computed == len(keys)
    assert roots == (len(dets) if gl2 and not projective else 0)
    if isinstance(cert.verdict, Finite):
        assert cert.element_count == len(drawn) + 1
        assert cert.max_order_seen == max(res.n for _, res in drawn)
    if name == "central-first":
        assert_record(cert.verdict, Obstructed("b1", "parabolic noncentral"))
    if name.startswith("icosahedral"):
        assert_record(cert.verdict, Finite(60) if projective else Finite(120))
        assert computed < len(drawn) // 4
    if name in LEVELT:
        assert_record(cert.verdict, Finite(LEVELT[name][2 if projective else 1]))
    if name in LEVELT_INFINITE and not projective:
        assert_record(cert.verdict, LEVELT_INFINITE[name][1])


def test_order_rule_matches_matrix_powers():
    """The GL2 rule against M^n itself: for companions of (X - u)(X - v)
    with u, v roots of unity in Q(zeta_12), distinct or equal, and for
    scalars, a finite order n has M^n = I and M^m != I for 0 < m < n."""
    K = NumberField(cyclotomic(12), "z")
    z = K.gen
    order_of = surface._closure_orders(K, True, False)
    I = Matrix.identity(K, 2)
    for i in range(12):
        for j in range(12):
            u, v = z ** i, z ** j
            for M in (Matrix(K, [[K.zero, -(u * v)], [K.one, u + v]]), I.scale(u)):
                res = order_of(*M.rows[0], *M.rows[1])
                assert_record(res, oracle_order(M, True, False))
                if isinstance(res, InfiniteOrder):
                    assert i == j and not is_scalar(M)
                    continue
                power, m = M, 1
                while power != I and m < res.n:
                    power, m = power * M, m + 1
                assert power == I and m == res.n, (i, j)


# -- Grothendieck-Katz on the Gauss family -----------------------------------------


def gauss_connection(a, b, c):
    """The Gauss connection [[0, -1], [ab/(x^2 - x), (-c + (a+b+1)x)/(x^2 - x)]]
    over QQ(x) with d/dx; its horizontal sections solve 2F1(a, b; c)."""
    a, b, c = (Fraction(t) for t in (a, b, c))
    F = FunctionField(QQ, "x")
    x = F.gen()
    den = x * x - x
    return ConnectionMatrix(Matrix(F, [
        [F.zero, -F.one],
        [F(a * b) / den, (F(-c) + F(a + b + 1) * x) / den],
    ]), Derivation.d_dx(F))


@pytest.mark.parametrize("name", [*LEVELT, *LEVELT_INFINITE])
def test_gauss_p_curvature_vanishes_exactly_when_monodromy_is_finite(name):
    """Katz's theorem on the Gauss family (Invent. Math. 1972): psi_p = 0 at
    almost every p exactly when the monodromy is finite.  Two independent
    routes: pcurv scan's psi_p over GF(p)(x) for the good primes of 7..100,
    and rep certify's closure of Levelt's GL2 generators over Q(zeta_N)."""
    triple = levelt_triple(name)
    good = [r for r in scan_primes(gauss_connection(*triple), 7, 100) if r.good_prime]
    assert len(good) == len(primes_in(7, 100)) == 22
    finite = isinstance(certify_finiteness(levelt_rep(*triple)).verdict, Finite)
    assert finite == (name in LEVELT)
    assert all(r.vanishes for r in good) == finite


# -- the closure on cleared coordinates against the Matrix closure ------------------


def matrix_closure_certify(rho, max_elements=10000, max_order=10000, projective=False):
    """certify_finiteness with the closure of Matrix products: an element is
    keyed by its entries' (num, den), projectively by the smaller key of M
    and -M.  That identifies M with -M only, so in PGL2 it is right only
    when the image has no other scalars; it is not run there."""
    K, gl2 = rho.field, rho.target == "GL2"
    nonarch_passed = arch_passed = det_orders = None

    def certificate(verdict, count=0, max_seen=0):
        return FinitenessCertificate(verdict, count, max_seen,
                                     nonarch_passed, arch_passed, det_orders)

    if gl2:
        det_orders = {name: numberfield.is_root_of_unity(rho.gens[name].det())
                      for name in rho.presentation.generator_names()}
        if None in det_orders.values() and not projective:
            bad = next(name for name, v in det_orders.items() if v is None)
            return certificate(Obstructed(bad, "determinant is not a root of unity"))
    else:
        loops = simple_loop_products(rho.presentation)
        na = nonarch_check(rho, loops)
        nonarch_passed = na.passed
        if not na.passed:
            return certificate(Obstructed(na.witness.to_str(), _NONINTEGRAL))
        ar = arch_check(rho, loops)
        arch_passed = ar.passed
        if not ar.passed:
            return certificate(Obstructed(ar.witness.to_str(), _ARCH))

    def key(M):
        return tuple((e.num, e.den) for row in M.rows for e in row)

    key_of = (lambda M: min(key(M), key(-M))) if projective else key

    def order_of(M):
        return oracle_order(M, gl2, projective)

    steps = [(Word(((name, exp),)), rho.gens[name] if exp == 1 else rho.gens[name].inverse())
             for name in rho.bfs_generator_names() for exp in (1, -1)]
    ident = Matrix.identity(K, 2)
    seen = {key_of(ident): Word()}
    frontier = [(ident, Word())]
    max_seen = 1
    while frontier:
        new_frontier = []
        for M, w in frontier:
            for step_word, S in steps:
                N = M * S
                if key_of(N) in seen:
                    continue
                nw = w * step_word
                res = order_of(N)
                if isinstance(res, InfiniteOrder):
                    return certificate(Obstructed(nw.to_str(), res.reason), len(seen), max_seen)
                if res.n > max_order:
                    return certificate(Inconclusive(
                        f"element order {res.n} exceeds cap {max_order}"), len(seen), max_seen)
                max_seen = max(max_seen, res.n)
                seen[key_of(N)] = nw
                if len(seen) > max_elements:
                    return certificate(Inconclusive(
                        f"element count exceeds cap {max_elements}"), len(seen), max_seen)
                new_frontier.append((N, nw))
        frontier = new_frontier
    if not gl2 or projective:
        _check_klein(len(seen), max_seen, projective)
    return certificate(Finite(len(seen)), len(seen), max_seen)


DIFFERENTIAL_CASES = [(name, projective) for name in closure_reps()
                      for projective in (False, True)] + [
                     (f"levelt-{name}", False) for name in LEVELT]


@pytest.mark.parametrize("caps", [{}, {"max_elements": 3}, {"max_order": 2}],
                         ids=["uncapped", "max_elements=3", "max_order=2"])
@pytest.mark.parametrize("name, projective", [
    pytest.param(name, projective, id=f"{name}-{'P' if projective else ''}{target}")
    for name, projective in DIFFERENTIAL_CASES
    for target in ["GL2" if name.startswith("levelt") else "SL2"]])
def test_closure_matches_matrix_closure(name, projective, caps):
    """The whole certificate, the verdict with its witness word, the count,
    the largest order and the evidence, equals the Matrix closure's."""
    if name.startswith("levelt-"):
        rho = levelt_rep(*LEVELT[name.removeprefix("levelt-")][0])
    else:
        rho = closure_reps()[name]
    cert = certify_finiteness(rho, projective=projective, **caps)
    want = matrix_closure_certify(rho, projective=projective, **caps)
    assert_record(cert.verdict, want.verdict)
    assert cert == want


def closure_counts(monkeypatch, rho):
    """certify_finiteness on rho, with the number of Matrix products and of
    Matrix objects built after the trace checks, and of Matrix.det calls in
    the whole run.  A GL2 target has no trace checks, so there the first two
    counts cover the whole run too."""
    counts = {"products": 0, "matrices": 0, "dets": 0}
    closing = [True] if rho.target == "GL2" else []
    real_arch, real_mul, real_init = surface.arch_check, Matrix.__mul__, Matrix.__init__
    real_det = Matrix.det

    def arch_then_count(*args):
        report = real_arch(*args)
        closing.append(True)
        return report

    def mul_spy(self, other):
        counts["products"] += bool(closing)
        return real_mul(self, other)

    def init_spy(self, ring, rows):
        counts["matrices"] += bool(closing)
        real_init(self, ring, rows)

    def det_spy(self):
        counts["dets"] += 1
        return real_det(self)

    monkeypatch.setattr(surface, "arch_check", arch_then_count)
    monkeypatch.setattr(Matrix, "__mul__", mul_spy)
    monkeypatch.setattr(Matrix, "__init__", init_spy)
    monkeypatch.setattr(Matrix, "det", det_spy)
    cert = certify_finiteness(rho)
    monkeypatch.undo()
    assert closing
    return cert, counts


def test_closure_multiplies_no_matrices(monkeypatch):
    """After the trace checks, certify_finiteness runs no Matrix product and
    builds no Matrix on the icosahedral pair, and it runs no Matrix.det:
    each step of the closure is an integer map on cleared coordinates, and
    a new element's order comes from its entries."""
    cert, counts = closure_counts(monkeypatch, closure_reps()["icosahedral"])
    assert_record(cert.verdict, Finite(120))
    assert counts == {"products": 0, "matrices": 0, "dets": 0}


def test_gl2_closure_builds_no_matrices(monkeypatch):
    """The same on the octahedral Levelt image in GL2, over the whole run:
    the generators' determinants are ad - bc, and an element's order is
    taken from its trace and determinant."""
    cert, counts = closure_counts(monkeypatch, levelt_rep(*LEVELT["octahedral"][0]))
    assert_record(cert.verdict, Finite(144))
    assert counts == {"products": 0, "matrices": 0, "dets": 0}
