"""Self-extensions, the deformation equation, and layer-by-layer
normalization of truncated families."""

import random
from fractions import Fraction

import pytest

from pcurvkit import (
    GF,
    QQ,
    BlockExtension,
    ConnectionMatrix,
    Derivation,
    FunctionField,
    Matrix,
    NumberField,
    Polynomial,
    TruncatedFamily,
    block_power_pair,
    frobenius_twist_multiplier,
    gauge_family,
    nabla_power_matrix,
    normalize_family,
    p_curvature,
    solve_deformation,
    standard_tower,
    step_conjugate,
)
from pcurvkit import deformation, linalg
from pcurvkit.connection import _at_prime
from pcurvkit.ratfunc import common_denominator


def qq_line():
    return FunctionField(QQ, "x")


def poly_matrix(K, rng, n=2, deg=1):
    rows = [[K.from_poly(K.polynomial([rng.randint(-2, 2) for _ in range(deg + 1)]))
             for _ in range(n)] for _ in range(n)]
    return Matrix(K, rows)


# -- block extensions ---------------------------------------------------------


def test_block_layout_and_round_trip():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[x, K.one], [K.zero, x]]), D)
    B = Matrix(K, [[K.one, K.zero], [x, K.one]])
    ext = BlockExtension(A, B)
    r, rows = ext.rank, ext.M.matrix.rows

    def block(r0, c0):
        return Matrix(K, [row[c0:c0 + r] for row in rows[r0:r0 + r]])

    tl, tr, bl, br = block(0, 0), block(0, r), block(r, 0), block(r, r)
    assert tl == A.matrix and tr == B and br == A.matrix
    assert bl.is_zero()
    assert ext.M.rank == 4


def test_block_shape_mismatch_rejected():
    K = qq_line()
    D = Derivation.d_dx(K)
    A = ConnectionMatrix(Matrix(K, [[1]]), D)
    with pytest.raises(ValueError):
        BlockExtension(A, Matrix.identity(K, 2))


def test_block_power_pair_against_full_nabla():
    """P_j and Q_j are the diagonal and corner blocks of nabla^j on the
    block connection; check against the rank-2r computation directly."""
    rng = random.Random(515)
    K = qq_line()
    D = Derivation.d_dx(K)
    for _ in range(6):
        A = ConnectionMatrix(poly_matrix(K, rng), D)
        B = poly_matrix(K, rng)
        ext = BlockExtension(A, B)
        for j in (1, 2, 3, 5):
            P, Q = block_power_pair(ext, j)
            full = nabla_power_matrix(ext.M, j)
            r = ext.rank
            for i in range(r):
                for k in range(r):
                    assert full.entry(i, k) == P.entry(i, k)
                    assert full.entry(i, k + r) == Q.entry(i, k)
                    assert full.entry(i + r, k + r) == P.entry(i, k)
                    assert full.entry(i + r, k) == K.zero


def test_block_power_pair_diagonal_matches_plain_power():
    rng = random.Random(16)
    K = qq_line()
    D = Derivation.d_dx(K)
    A = ConnectionMatrix(poly_matrix(K, rng), D)
    ext = BlockExtension(A, poly_matrix(K, rng))
    P, _ = block_power_pair(ext, 4)
    assert P == nabla_power_matrix(A, 4)


def block_p_curvature_check(ext, p):
    """Exact structural identity: psi_p of the block connection equals
    [[psi_p(A), Q_p - twist*B], [0, psi_p(A)]].

    ext.M is reduced mod p once (a characteristic-p ext is used as it is),
    and A and B are its blocks."""
    M = _at_prime(ext.M, p)
    if M is None:
        raise ValueError(f"p = {p} is a bad prime for the block connection")
    r, rows, D = ext.rank, M.matrix.rows, M.derivation
    A = ConnectionMatrix(Matrix(M.field, [row[:r] for row in rows[:r]]), D)
    B = Matrix(M.field, [row[r:] for row in rows[:r]])
    Pp, Qp = block_power_pair(BlockExtension(A, B), p)
    twist = frobenius_twist_multiplier(D, p) / D.u
    psi_A = ConnectionMatrix(Pp - A.matrix.scale(twist), D)
    return p_curvature(M, p).psi == BlockExtension(psi_A, Qp - B.scale(twist)).M.matrix


def test_block_p_curvature_identity():
    """d/dx over QQ(x); then x*d/dx with a pole at 0, and an ext already
    over GF(p)(x), which is used as it is, without reduction."""
    rng = random.Random(90)
    K = qq_line()
    D = Derivation.d_dx(K)
    for _ in range(4):
        A = ConnectionMatrix(poly_matrix(K, rng), D)
        B = poly_matrix(K, rng)
        ext = BlockExtension(A, B)
        for p in (2, 3, 5):
            assert block_p_curvature_check(ext, p)
    x = K.gen()
    pole = Matrix(K, [[K.one / x, K.zero], [K.zero, K.one]])
    for _ in range(2):
        A = ConnectionMatrix(poly_matrix(K, rng) + pole, Derivation.x_d_dx(K))
        ext = BlockExtension(A, poly_matrix(K, rng))
        for p in (3, 5, 7):
            assert block_p_curvature_check(ext, p)
    for p in (3, 5, 7):
        Kp = FunctionField(GF(p), "x")
        ext = BlockExtension(ConnectionMatrix(poly_matrix(Kp, rng), Derivation.d_dx(Kp)),
                             poly_matrix(Kp, rng))
        assert block_p_curvature_check(ext, p)


def test_block_p_curvature_check_rejects_a_bad_prime():
    K = qq_line()
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[x, K.zero], [K.one, x]]), Derivation.d_dx(K))
    ext = BlockExtension(A, Matrix(K, [[K(Fraction(1, 3)) * x, K.zero], [K.zero, K.one]]))
    with pytest.raises(ValueError, match="p = 3 is a bad prime for the block connection"):
        block_p_curvature_check(ext, 3)
    assert block_p_curvature_check(ext, 5)


# -- the deformation equation ---------------------------------------------------


def test_solve_deformation_round_trip():
    rng = random.Random(123)
    K = qq_line()
    D = Derivation.d_dx(K)
    solved = 0
    for _ in range(10):
        A = ConnectionMatrix(poly_matrix(K, rng), D)
        Y0 = poly_matrix(K, rng)
        # manufacture a solvable instance: B = -(A Y0 - Y0 A + D(Y0))
        B = -(A.matrix * Y0 - Y0 * A.matrix + D(Y0))
        sol = solve_deformation(A, B, ansatz_degree=4)
        assert sol is not None
        solved += 1
        Y = sol.Y
        assert (B + A.matrix * Y - Y * A.matrix + D(Y)).is_zero()
    assert solved == 10


def test_solve_deformation_obstruction():
    # scalar case: B + D(Y) = 0 needs an antiderivative of -B; 1/x has none
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[0]]), D)
    assert solve_deformation(A, Matrix(K, [[K.one / x]]), 6) is None
    # while a polynomial B integrates fine
    sol = solve_deformation(A, Matrix(K, [[x]]), 6)
    assert sol is not None
    assert sol.Y.entry(0, 0) == -(x * x) / K(2)


def test_solve_deformation_respects_ansatz_cap():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A = ConnectionMatrix(Matrix(K, [[0]]), D)
    B = Matrix(K, [[x ** 5]])
    assert solve_deformation(A, B, ansatz_degree=3) is None
    assert solve_deformation(A, B, ansatz_degree=6) is not None



def test_solve_deformation_check_catches_a_wrong_solution(monkeypatch):
    """The answer is checked on the cleared equation over QQ[x]: an integer
    solve that returns twice the solution leaves the residual -hB, not
    zero."""
    rng = random.Random(321)
    K = qq_line()
    D = Derivation.d_dx(K)
    A = ConnectionMatrix(poly_matrix(K, rng), D)
    Y0 = poly_matrix(K, rng)
    B = -(A.matrix * Y0 - Y0 * A.matrix + D(Y0))
    assert not B.is_zero()
    sol = solve_deformation(A, B, ansatz_degree=4)
    assert (B + A.matrix * sol.Y - sol.Y * A.matrix + D(sol.Y)).is_zero()
    real = deformation._solve_integer
    monkeypatch.setattr(deformation, "_solve_integer",
                        lambda rows, n: [[2 * e for e in row] for row in real(rows, n)])
    with pytest.raises(AssertionError, match="residual"):
        solve_deformation(A, B, ansatz_degree=4)

def test_qq_deformation_takes_integer_rows_to_the_integer_solve(monkeypatch):
    """Over QQ the system is never a Matrix over QQ: solve_deformation makes
    no _cleared_rows call and no Matrix(QQ, ...), and builds no Fraction
    while it builds the rows, which it hands to the integer solve once."""
    rng = random.Random(2929)
    K = qq_line()
    x = K.gen()
    third = K(Fraction(1, 3))
    D = Derivation(x / K(2) + third)
    A = ConnectionMatrix(Matrix(K, [[x * third, K.one / K(4)], [K(Fraction(-2, 5)), x]]), D)
    Y0 = poly_matrix(K, rng)
    B = -(A.matrix * Y0 - Y0 * A.matrix + D(Y0))
    counts = {"cleared_rows": 0, "qq_matrix": 0, "fraction_in_system": 0, "integer_solve": 0}
    inside = []

    def counting(name, real, when=lambda *a: True):
        def spy(*args, **kwargs):
            if when(*args):
                counts[name] += 1
            return real(*args, **kwargs)
        return spy

    def system(*args):
        inside.append(True)
        try:
            return real_system(*args)
        finally:
            inside.pop()

    real_system = deformation._deformation_system
    monkeypatch.setattr(linalg, "_cleared_rows", counting("cleared_rows", linalg._cleared_rows))
    monkeypatch.setattr(Matrix, "__init__", counting(
        "qq_matrix", Matrix.__init__, lambda self, ring, rows: ring == QQ))
    monkeypatch.setattr(Fraction, "__new__", counting(
        "fraction_in_system", Fraction.__new__, lambda *a: bool(inside)))
    monkeypatch.setattr(deformation, "_deformation_system", system)
    monkeypatch.setattr(deformation, "_solve_integer",
                        counting("integer_solve", deformation._solve_integer))
    sol = solve_deformation(A, B, ansatz_degree=3)
    monkeypatch.undo()
    assert counts == {"cleared_rows": 0, "qq_matrix": 0, "fraction_in_system": 0,
                      "integer_solve": 1}
    assert sol is not None
    assert (B + A.matrix * sol.Y - sol.Y * A.matrix + D(sol.Y)).is_zero()


# -- truncated families -----------------------------------------------------------


def family_fixture(K, D, layers):
    return TruncatedFamily(D, layers)


def test_family_accessors():
    K = qq_line()
    D = Derivation.d_dx(K)
    Z = Matrix.zeros(K, 2)
    L0 = Matrix(K, [[1, 0], [0, 2]])
    L2 = Matrix(K, [[0, 1], [0, 0]])
    F = TruncatedFamily(D, [L0, Z, L2])
    assert F.order == 3 and F.rank == 2
    assert not all(L.is_zero() for L in F.layers[1:])
    assert all(L.is_zero() for L in TruncatedFamily(D, [L0, Z, Z]).layers[1:])


def test_gauge_family_identity_gauge():
    K = qq_line()
    D = Derivation.d_dx(K)
    rng = random.Random(31)
    F = TruncatedFamily(D, [poly_matrix(K, rng) for _ in range(3)])
    G = gauge_family(F, Matrix.zeros(K, 2), 1)
    assert G == F


def test_gauge_family_kills_designed_layer():
    K = qq_line()
    D = Derivation.d_dx(K)
    rng = random.Random(77)
    A0 = poly_matrix(K, rng)
    Y = poly_matrix(K, rng)
    B1 = -(A0 * Y - Y * A0 + D(Y))
    F = TruncatedFamily(D, [A0, B1, Matrix.zeros(K, 2)])
    G = gauge_family(F, Y, 1)
    assert G.layers[0] == A0
    assert G.layers[1].is_zero()


def test_normalize_family_round_trip():
    rng = random.Random(2025)
    K = qq_line()
    D = Derivation.d_dx(K)
    for _ in range(5):
        A0 = poly_matrix(K, rng)
        F0 = TruncatedFamily(D, [A0] + [Matrix.zeros(K, 2)] * 3)
        # perturb the constant family by random gauges, then undo
        F = F0
        for k in (1, 2):
            F = gauge_family(F, poly_matrix(K, rng), k)
        assert F.layers[0] == A0
        res = normalize_family(F, ansatz_degree=8)
        assert res.normalized
        assert all(L.is_zero() for L in res.family.layers[1:])
        assert res.family.layers[0] == A0


def test_normalize_family_reports_obstruction():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A0 = Matrix.zeros(K, 1)
    bad = Matrix(K, [[K.one / x]])
    F = TruncatedFamily(D, [A0, bad])
    res = normalize_family(F, ansatz_degree=6)
    assert not res.normalized
    assert res.obstructed_at == 1
    assert res.obstruction == bad
    assert res.gauges == ()


def test_normalize_family_partial_progress():
    K = qq_line()
    D = Derivation.d_dx(K)
    x = K.gen()
    A0 = Matrix.zeros(K, 1)
    F = TruncatedFamily(D, [A0, Matrix(K, [[x]]), Matrix(K, [[K.one / x]])])
    res = normalize_family(F, ansatz_degree=6)
    assert not res.normalized
    assert res.obstructed_at == 2
    assert len(res.gauges) == 1
    assert res.family.layers[1].is_zero()


# -- step conjugation of representation layers -------------------------------------


def test_step_conjugate_forward_instances():
    rng = random.Random(404)
    F = GF(7)
    solved = 0
    for _ in range(8):
        n = 2
        sigma = [Matrix(F, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
                 for _ in range(2)]
        M = Matrix(F, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        m = rng.choice([1, 2, 3])
        tau = []
        for s in sigma:
            delta = M * s - s * M
            tau.append([s] + [Matrix.zeros(F, n)] * (m - 1) + [delta])
        got = step_conjugate(sigma, tau, m)
        assert got is not None
        solved += 1
        # the returned matrix solves the same commutator equations
        for s, t in zip(sigma, tau):
            assert got * s - s * got == t[m]
    assert solved == 8


def test_step_conjugate_none_when_not_conjugate():
    F = GF(5)
    I = Matrix.identity(F, 2)
    sigma = [I]
    # a central generator commutes with everything, so only delta = 0 works
    tau = [[I, Matrix(F, [[0, 1], [0, 0]])]]
    assert step_conjugate(sigma, tau, 1) is None



def test_step_conjugate_raises_when_its_check_fails(monkeypatch):
    """Any solution of the linearized system passes the check mod q^(m+1),
    so a failed check is a solver bug: it raises, and is never reported as
    "not conjugate"."""
    F = GF(7)
    sigma = [Matrix(F, [[1, 2], [0, 3]])]
    M = Matrix(F, [[0, 1], [4, 2]])
    tau = [[sigma[0], Matrix.zeros(F, 2), M * sigma[0] - sigma[0] * M]]
    assert not tau[0][2].is_zero()
    assert step_conjugate(sigma, tau, 2) is not None
    real = Matrix.solve
    monkeypatch.setattr(Matrix, "solve", lambda self, rhs: real(self, rhs).scale(2))
    with pytest.raises(AssertionError, match="conjugation check"):
        step_conjugate(sigma, tau, 2)

def test_step_conjugate_validates_input():
    F = GF(5)
    I = Matrix.identity(F, 2)
    with pytest.raises(ValueError, match="layers"):
        step_conjugate([I], [[I]], 1)
    with pytest.raises(ValueError, match="mod q"):
        step_conjugate([I], [[I + I, Matrix.zeros(F, 2)]], 1)
    with pytest.raises(ValueError, match="count"):
        step_conjugate([I, I], [[I, Matrix.zeros(F, 2)]], 1)
    with pytest.raises(ValueError):
        step_conjugate([I], [[I, Matrix.zeros(F, 2)]], 0)
    J = Matrix.identity(F, 3)
    with pytest.raises(ValueError, match="unequal sizes"):
        step_conjugate([I, J], [[I, Matrix.zeros(F, 2)], [J, Matrix.zeros(F, 3)]], 1)


# -- coefficient-level systems against the basis-product oracles -------------------
#
# The oracles build each linear system the way the library once did: one full
# matrix product per matrix unit E_ij x^t, every image cleared over the common
# denominator of all images and B, and the answer rebuilt as a sum of scaled
# basis matrices.  The library reads its systems straight off coefficients.
# Both systems have the same row space, so their reduced echelon forms agree
# and the solution (free parameters set to zero) and kernel basis must be
# identical, not merely equivalent.


def _poly_coords(f, common_den, width):
    num = f.num * (common_den // f.den)
    return [num.coeff(i) for i in range(width)]


def deformation_system_by_basis_products(A, B, d):
    field = A.field
    D = A.derivation
    r = A.rank
    basis = []
    images = []
    for i in range(r):
        for j in range(r):
            for t in range(d + 1):
                rows = [[field.zero] * r for _ in range(r)]
                rows[i][j] = field.gen() ** t
                Yb = Matrix(field, rows)
                basis.append(Yb)
                images.append(A.matrix * Yb - Yb * A.matrix + D(Yb))
    all_entries = [e for img in images for row in img.rows for e in row]
    all_entries += [e for row in B.rows for e in row]
    common_den = common_denominator(all_entries)
    width = 1 + max((f.num.degree() + (common_den.degree() - f.den.degree())
                     for f in all_entries if not f.is_zero()), default=0)
    sys_rows = []
    rhs_rows = []
    for i in range(r):
        for j in range(r):
            img_coords = [_poly_coords(img.rows[i][j], common_den, width) for img in images]
            b_coords = _poly_coords(B.rows[i][j], common_den, width)
            for k in range(width):
                sys_rows.append([c[k] for c in img_coords])
                rhs_rows.append([-b_coords[k]])
    return Matrix(field.base, sys_rows), Matrix(field.base, rhs_rows), basis


def combine_basis(field, r, basis, vec):
    Y = Matrix.zeros(field, r)
    for b, Yb in enumerate(basis):
        c = vec.entry(b, 0)
        if c:
            Y = Y + Yb.scale(field(c))
    return Y


def solve_deformation_by_basis_products(A, B, d):
    system, rhs, basis = deformation_system_by_basis_products(A, B, d)
    sol = system.solve(rhs)
    return None if sol is None else combine_basis(A.field, A.rank, basis, sol)


def step_conjugate_by_basis_products(sigma_gens, tau_gens, m):
    """The linearized solve alone: for m >= 1 (so 2m >= m+1) a solution of
    M sigma - sigma M = tau_m always passes the full check mod q^{m+1}."""
    ring = sigma_gens[0].ring
    n = sigma_gens[0].nrows
    basis = []
    for i in range(n):
        for j in range(n):
            E = [[ring.zero] * n for _ in range(n)]
            E[i][j] = ring.one
            basis.append(Matrix(ring, E))
    sys_rows = []
    rhs_rows = []
    for sigma, tau_layers in zip(sigma_gens, tau_gens):
        images = [Eb * sigma - sigma * Eb for Eb in basis]
        for i in range(n):
            for j in range(n):
                sys_rows.append([img.rows[i][j] for img in images])
                rhs_rows.append([tau_layers[m].rows[i][j]])
    sol = Matrix(ring, sys_rows).solve(Matrix(ring, rhs_rows))
    return None if sol is None else combine_basis(ring, n, basis, sol)


def multipliers(K):
    """d/dx, x*d/dx and the rational multipliers 1/(x+2), (x^2+x+1)/(x+2)."""
    x = K.gen()
    return [
        Derivation.d_dx(K),
        Derivation.x_d_dx(K),
        Derivation(K.one / (x + K(2))),
        Derivation((x * x + x + K.one) / (x + K(2))),
    ]


def rand_entry(K, rng, poles):
    """A numerator of degree <= 1 over 1 or over one of the given poles."""
    num = K.from_poly(K.polynomial([rng.randint(-2, 2) for _ in range(2)]))
    return num / rng.choice([K.one] + poles)


def rand_poly_matrix(K, rng, r, d):
    return Matrix(K, [[K.from_poly(K.polynomial([rng.randint(-2, 2) for _ in range(d + 1)]))
                       for _ in range(r)] for _ in range(r)])


def oracle_connections():
    """(A, d): QQ(x) at rank 1-3 and d = 0..4 with every multiplier, and
    GF(5)(x) at rank 2; A has poles only at 0 and -2, or none."""
    rng = random.Random(60606)
    Q5 = FunctionField(GF(5), "x")
    for K, ranks in ((qq_line(), (1, 2, 3)), (Q5, (2,))):
        x = K.gen()
        Ds = multipliers(K)
        for r in ranks:
            for d in range(5):
                D = Ds[(d + r) % 4]
                poles = [] if d % 2 else [x, x + K(2)]
                rows = [[rand_entry(K, rng, poles) for _ in range(r)] for _ in range(r)]
                yield ConnectionMatrix(Matrix(K, rows), D), d, rng


def test_solve_deformation_matches_basis_product_oracle():
    solved = unsolved = 0
    for A, d, rng in oracle_connections():
        K = A.field
        r = A.rank
        Y0 = rand_poly_matrix(K, rng, r, d)
        solvable = -(A.matrix * Y0 - Y0 * A.matrix + A.derivation(Y0))
        # a pole at x = 1, which neither A nor the multiplier has
        extra = K.one / (K.gen() - K.one)
        with_pole = solvable + Matrix(K, [[extra * K(rng.randint(0, 1)) for _ in range(r)]
                                          for _ in range(r)])
        for B in (solvable, with_pole):
            expect = solve_deformation_by_basis_products(A, B, d)
            got = solve_deformation(A, B, d)
            if expect is None:
                assert got is None, (A.matrix, A.derivation, B, d)
                unsolved += 1
            else:
                assert got is not None and got.Y == expect, (A.matrix, A.derivation, B, d)
                solved += 1
    assert solved >= 20 and unsolved >= 5


def test_step_conjugate_matches_basis_product_oracle():
    K = NumberField(Polynomial(QQ, [1, 0, 1]), "i")   # Q(i)
    rng = random.Random(4711)

    def elt():
        return K.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)])

    def mat(n):
        return Matrix(K, [[elt() for _ in range(n)] for _ in range(n)])

    solved = unsolved = 0
    for gens in (1, 2):
        for n in (2, 3):
            for trial in range(4):
                m = rng.randint(1, 3)
                sigma = [mat(n) for _ in range(gens)]
                M = mat(n)
                tau = []
                for s in sigma:
                    delta = M * s - s * M if trial % 2 == 0 else mat(n)
                    tau.append([s] + [Matrix.zeros(K, n)] * (m - 1) + [delta])
                expect = step_conjugate_by_basis_products(sigma, tau, m)
                assert step_conjugate(sigma, tau, m) == expect
                if expect is None:
                    unsolved += 1
                else:
                    solved += 1
    assert solved >= 8 and unsolved >= 4


# -- gauge_family against RationalFunction arithmetic -------------------------
#
# gauge_family works on numerators cleared over one common denominator and
# reduces each new entry once.  The oracle below is the direct form: every
# product and sum of the gauged series is RationalFunction arithmetic, with
# a reduction per operation, and G^-1 is the alternating series
# I - q^k Y + q^2k Y^2 - ..., multiplied in by the full truncated series
# product.  Reduced rational functions are canonical, so the layers must be
# equal entry for entry.


def _layers_mul(a, b, m, ring, r):
    """Layers 0..m-1 of the product of the truncated series a and b."""
    out = [Matrix.zeros(ring, r) for _ in range(m)]
    for i, Ai in enumerate(a):
        if Ai.is_zero():
            continue
        for j, Bj in enumerate(b):
            if i + j < m and not Bj.is_zero():
                out[i + j] = out[i + j] + Ai * Bj
    return out


def gauge_family_by_ratfunc_products(F, Y, k):
    m = F.order
    ring = F.layers[0].ring
    r = F.rank
    ident = Matrix.identity(ring, r)
    zero = Matrix.zeros(ring, r)
    G = [zero] * m
    G[0] = ident
    if k < m:
        G[k] = Y
    Ginv = [zero] * m
    Ginv[0] = ident
    power = ident
    sign = 1
    for j in range(1, (m - 1) // k + 1):
        power = power * Y
        sign = -sign
        Ginv[j * k] = power.scale(ring(sign))
    D = F.derivation
    DG = [D(L) for L in G]
    AG = _layers_mul(list(F.layers), G, m, ring, r)
    new_layers = [a + b for a, b in
                  zip(_layers_mul(Ginv, AG, m, ring, r), _layers_mul(Ginv, DG, m, ring, r))]
    return TruncatedFamily(D, new_layers)


def gauge_oracle_cases():
    """(F, Y, k) over QQ(x) with u in {1, x, 1/(x+1)}, k in {1, 2, 3},
    order <= 5, layers with poles at 0 and -1 (the c/x of an obstructed
    family) or none; plus a few over GF(5)(x)."""
    rng = random.Random(90210)
    for K in (qq_line(), FunctionField(GF(5), "x")):
        x = K.gen()
        us = [K.one, x, K.one / (x + K.one)]
        cases = 9 if K.base == QQ else 3
        for c in range(cases):
            u = us[c % 3]
            k = 1 + (c // 3) % 3
            m = rng.randint(k + 1, 5)
            r = rng.choice([1, 2, 2])
            poles = [x, x + K.one] if c % 2 == 0 else []
            layers = [Matrix(K, [[rand_entry(K, rng, poles) for _ in range(r)]
                                 for _ in range(r)]) for _ in range(m)]
            if poles:
                layers[-1] = layers[-1] + Matrix.identity(K, r).scale(K(rng.randint(1, 5)) / x)
            Y = rand_poly_matrix(K, rng, r, rng.randint(0, 2))
            yield TruncatedFamily(Derivation(u), layers), Y, k


def test_gauge_family_matches_ratfunc_oracle():
    seen = set()
    for F, Y, k in gauge_oracle_cases():
        expect = gauge_family_by_ratfunc_products(F, Y, k)
        got = gauge_family(F, Y, k)
        assert got == expect, (F.layers, F.derivation, Y, k)
        assert got.layers == expect.layers
        seen.add((str(F.derivation.u), k))
        # the gauge with its layer past the truncation changes nothing
        assert gauge_family(F, Y, F.order) == F
    assert len(seen) >= 9


def test_deformation_over_a_tower():
    """solve_deformation and gauge_family over GF(5)(q)(x), with u = 1, x
    and 1/(x + q): a planted Y leaves a solvable B, the solver's answer
    has zero residual, and the gauge at layers 1 and 2 gives the layers of
    the RationalFunction oracle."""
    rng = random.Random(5555)
    base, K, _ = standard_tower(5)
    x, q = K.gen(), K(base.gen())

    def scalar():
        return base(rng.randint(0, 4)) + base(rng.randint(0, 4)) * base.gen()

    def poly_entry(d):
        return K.from_poly(K.polynomial([scalar() for _ in range(d + 1)]))

    def entry():
        return poly_entry(1) / rng.choice([K.one, x, x + q])

    for u in (K.one, x, K.one / (x + q)):
        D = Derivation(u)
        A = ConnectionMatrix(Matrix(K, [[entry() for _ in range(2)] for _ in range(2)]), D)
        Y0 = Matrix(K, [[poly_entry(1) for _ in range(2)] for _ in range(2)])
        B = -(A.matrix * Y0 - Y0 * A.matrix + D(Y0))
        assert not B.is_zero()
        sol = solve_deformation(A, B, ansatz_degree=1)
        assert sol is not None
        assert all(e.den.is_one() for row in sol.Y.rows for e in row)
        assert (B + A.matrix * sol.Y - sol.Y * A.matrix + D(sol.Y)).is_zero()
        F = TruncatedFamily(D, [A.matrix, B,
                                Matrix(K, [[entry() for _ in range(2)] for _ in range(2)])])
        for k in (1, 2):
            assert gauge_family(F, Y0, k) == gauge_family_by_ratfunc_products(F, Y0, k), (u, k)
        assert all(L.is_zero() for L in gauge_family(F, sol.Y, 1).layers[1:2])


def test_gauge_and_conjugation_check_make_few_products(monkeypatch):
    """G = I + q^k Y has two layers, so gauge_family makes at most 2(m - k)
    matrix products (N_{n-k} Y and Y Z_{n-k}) and step_conjugate's check
    two per generator (tau_0 M and M Z_0), not one per pair of layers."""
    gauges = list(gauge_oracle_cases())
    rng = random.Random(17)
    F7 = GF(7)
    conjugations = []
    for gens, m in ((1, 1), (2, 2), (3, 3)):
        sigma = [Matrix(F7, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
                 for _ in range(gens)]
        M = Matrix(F7, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
        tau = [[s] + [Matrix.zeros(F7, 2)] * (m - 1) + [M * s - s * M] for s in sigma]
        conjugations.append((sigma, tau, m))
    calls = []
    real = Matrix.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    for F, Y, k in gauges:
        calls.clear()
        gauge_family(F, Y, k)
        assert len(calls) <= 2 * max(F.order - k, 0), (F.order, k, len(calls))
    for sigma, tau, m in conjugations:
        calls.clear()
        assert step_conjugate(sigma, tau, m) is not None
        assert len(calls) == 2 * len(sigma), (len(sigma), m, len(calls))

def test_gauge_family_rejects_rational_gauge():
    K = qq_line()
    x = K.gen()
    F = TruncatedFamily(Derivation.d_dx(K), [Matrix.identity(K, 2)] * 3)
    Y = Matrix(K, [[K.one, K.one / (x + K.one)], [K.zero, x]])
    with pytest.raises(ValueError, match="polynomial"):
        gauge_family(F, Y, 1)
    with pytest.raises(ValueError, match="positive"):
        gauge_family(F, Matrix.zeros(K, 2), 0)
