"""Exact linear algebra over the scalar fields and function fields."""

import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import mul

import pytest

from pcurvkit import GF, QQ, FunctionField, Matrix, Polynomial, poly_xgcd


def rand_matrix(ring, rng, n, lo=-5, hi=5):
    return Matrix(ring, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_construction_and_entry():
    M = Matrix(QQ, [[1, 2], [3, "4/3"]])
    assert M.entry(0, 1) == 2
    assert M.entry(1, 1) == Fraction(4, 3)
    assert M.nrows == 2 and M.ncols == 2


def test_fraction_entries_are_lifted():
    # a raw Fraction must land in the ring, not sit there untyped
    K = FunctionField(QQ, "x")
    M = Matrix(K, [[Fraction(3), Fraction(1, 2)]])
    assert M.entry(0, 0) == K(3)
    assert M.entry(0, 1) == K(Fraction(1, 2))


def test_identity_and_zeros():
    I = Matrix.identity(QQ, 3)
    Z = Matrix.zeros(QQ, 3)
    assert I * I == I
    assert I + Z == I
    assert Z.is_zero()


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [3]])


def test_matrix_product_frozen():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    B = Matrix(QQ, [[0, 1], [1, 0]])
    assert A * B == Matrix(QQ, [[2, 1], [4, 3]])
    assert A * B != B * A


def test_det_frozen_values():
    assert Matrix(QQ, [[1, 2], [3, 4]]).det() == -2
    assert Matrix(QQ, [[2, 0, 0], [0, 3, 0], [0, 0, 5]]).det() == 30
    assert Matrix(GF(7), [[1, 2], [3, 4]]).det() == GF(7)(5)


def det_leibniz(M):
    """The determinant as the sum over permutations s of sign(s) times the
    product of the entries M[i][s(i)]."""
    n = M.nrows
    total = M.ring.zero
    for perm in permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = reduce(mul, (M.rows[i][perm[i]] for i in range(n)))
        total = total - term if odd else total + term
    return total


def field_entries():
    """Nonzero random entries over GF(7), QQ, Q(x), Q(i) and a quartic field."""
    from pcurvkit import NumberField

    F = GF(7)
    Qx = FunctionField(QQ, "x")
    x = Qx.gen()
    fields = {
        "GF(7)": (F, lambda rng: F(rng.randint(1, 6))),
        "QQ": (QQ, lambda rng: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                        rng.randint(1, 9))),
        "Q(x)": (Qx, lambda rng: (rng.randint(1, 3) + rng.randint(-2, 2) * x)
                 / (1 + rng.randint(0, 2) * x)),
    }
    for name, coeffs in (("Q(i)", (1, 0, 1)), ("quartic", (5, 0, 1, -2, 1))):
        K = NumberField(Polynomial(QQ, list(coeffs)), "w")
        fields[name] = (K, lambda rng, K=K: K.element(
            [rng.randint(1, 4)] + [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                                   for _ in range(K.degree - 1)]))
    return fields


_FIELDS = field_entries()


def random_rows(ring, entry, rng, nrows, ncols, sparsity=0.3):
    return [[ring.zero if rng.random() < sparsity else entry(rng) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("name", ["GF(7)", "QQ", "Q(i)", "Q(x)"])
def test_det_matches_leibniz_expansion(name):
    """Sizes 1 to 4: generic matrices, matrices with a zero in the leading
    position (so the first column needs a row swap), and singular ones with
    a zero row or a row that is the sum of two others."""
    ring, entry = _FIELDS[name]
    rng = random.Random(f"det {name}")
    for n in range(1, 5):
        for _ in range(3):
            rows = random_rows(ring, entry, rng, n, n)
            assert Matrix(ring, rows).det() == det_leibniz(Matrix(ring, rows))
            if n > 1:
                rows[0][0], rows[1][0] = ring.zero, entry(rng)
                M = Matrix(ring, rows)
                assert M.det() == det_leibniz(M)
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])] if n > 2 else [ring.zero] * n
            else:
                rows = [[ring.zero]]
            M = Matrix(ring, rows)
            assert M.det() == det_leibniz(M) == ring.zero


def test_det_multiplicative_random():
    rng = random.Random(606)
    for ring in (QQ, GF(11)):
        for _ in range(15):
            A = rand_matrix(ring, rng, 3)
            B = rand_matrix(ring, rng, 3)
            assert (A * B).det() == A.det() * B.det()


def test_inverse_round_trip():
    rng = random.Random(17)
    I = Matrix.identity(QQ, 3)
    found = 0
    while found < 10:
        A = rand_matrix(QQ, rng, 3)
        if not A.det():
            continue
        found += 1
        assert A * A.inverse() == I
        assert A.inverse() * A == I


def test_inverse_of_singular_raises():
    A = Matrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        A.inverse()


def test_rank_and_rref():
    A = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert A.rank() == 2
    R, pivots = A.rref()
    assert pivots == [0, 1]
    assert R.entry(0, 0) == 1 and R.entry(1, 1) == 1
    assert R.entry(2, 0) == 0 and R.entry(2, 1) == 0 and R.entry(2, 2) == 0


def test_solve_consistent_and_inconsistent():
    A = Matrix(QQ, [[1, 1], [1, -1]])
    b = Matrix.column(QQ, [4, 0])
    x = A.solve(b)
    assert x is not None and A * x == b
    singular = Matrix(QQ, [[1, 1], [1, 1]])
    assert singular.solve(Matrix.column(QQ, [0, 1])) is None


def test_solve_random_square_systems():
    rng = random.Random(99)
    for _ in range(12):
        A = rand_matrix(GF(13), rng, 4, 0, 12)
        b = Matrix(GF(13), [[rng.randint(0, 12)] for _ in range(4)])
        x = A.solve(b)
        if x is not None:
            assert A * x == b


def test_kernel_basis_annihilates():
    A = Matrix(QQ, [[1, 2, 3], [2, 4, 6]])
    basis = A.kernel_basis()
    assert len(basis) == 2
    for v in basis:
        assert (A * v).is_zero()


def test_kernel_rank_nullity():
    rng = random.Random(4242)
    for _ in range(10):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert A.rank() + len(A.kernel_basis()) == cols


def test_pow_matches_repeated_product():
    A = Matrix(QQ, [[1, 1], [0, 1]])
    assert A ** 5 == Matrix(QQ, [[1, 5], [0, 1]])
    assert A ** 0 == Matrix.identity(QQ, 2)


def test_trace_and_scale():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    assert A.trace() == 5
    assert A.scale(Fraction(1, 2)).entry(1, 0) == Fraction(3, 2)


def test_over_function_field():
    K = FunctionField(QQ, "x")
    x = K.gen()
    A = Matrix(K, [[x, K.one], [K.zero, x]])
    inv = A.inverse()
    assert A * inv == Matrix.identity(K, 2)
    assert inv.entry(0, 1) == -K.one / (x * x)


def test_map_entries_reduction():
    A = Matrix(QQ, [[Fraction(1, 2), 3], [0, 1]])
    F = GF(5)
    B = A.map_entries(F, new_ring=F)
    assert B.entry(0, 0) == F(3)  # 2^{-1} mod 5


# -- rref on every field against the Gauss-Jordan loop ----------------------


def rref_by_field_division(M):
    """Gauss-Jordan with exact division at every pivot, clearing each pivot
    column above and below at once: the loop Matrix.rref ran over every ring
    but QQ before it read the forward pass off, kept as the oracle for the
    division passes on every field, QQ included, and through solve_by_rref
    for the integer passes of solve."""
    rows = [list(r) for r in M.rows]
    pivots = []
    rank = 0
    for col in range(M.ncols):
        sel = None
        for i in range(rank, M.nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank]
        inv = M.ring.one / pivot[col]
        pivot[col:] = [inv * e for e in pivot[col:]]
        for i in range(M.nrows):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i][col:] = [a - f * b for a, b in zip(rows[i][col:], pivot[col:])]
        pivots.append(col)
        rank += 1
        if rank == M.nrows:
            break
    return Matrix(M.ring, rows), pivots


def rand_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_qq(rng, nrows, ncols, height=9, sparsity=0.0):
    return [[Fraction(0) if rng.random() < sparsity else rand_fraction(rng, height)
             for _ in range(ncols)] for _ in range(nrows)]


def low_rank(rng, nrows, ncols, rank, height=5):
    """nrows x ncols of rank at most `rank`: a product of random factors."""
    left = Matrix(QQ, rand_qq(rng, nrows, rank, height))
    right = Matrix(QQ, rand_qq(rng, rank, ncols, height))
    return [list(r) for r in (left * right).rows]


def qq_rref_cases():
    rng = random.Random(8128)
    cases = {"1x1": [[Fraction(-3, 7)]], "1x1 zero": [[Fraction(0)]],
             "all zero": [[Fraction(0)] * 5 for _ in range(4)]}
    for n in range(6):
        cases[f"square {n}"] = rand_qq(rng, 4, 4, sparsity=0.3)
        cases[f"wide {n}"] = rand_qq(rng, 3, 7, sparsity=0.3)
        cases[f"tall {n}"] = rand_qq(rng, 7, 3, sparsity=0.3)
        cases[f"rank-deficient {n}"] = low_rank(rng, 6, 8, rng.randint(1, 4))
        rows = rand_qq(rng, 5, 6)
        rows[3] = list(rows[1])                         # duplicated row
        rows[4] = [Fraction(0)] * 6                     # zero row
        rows[0] = [2 * e for e in rows[2]]              # a multiple of another
        cases[f"duplicated and zero rows {n}"] = rows
        rows = rand_qq(rng, 5, 7)
        for r in rows:
            r[0] = r[4] = Fraction(0)                   # zero columns
        cases[f"zero columns {n}"] = rows
        cases[f"large heights {n}"] = rand_qq(rng, 5, 6, height=10 ** 30, sparsity=0.2)
        cases[f"large heights, rank-deficient {n}"] = low_rank(
            rng, 5, 7, 3, height=10 ** 12)
    return cases


_QQ_CASES = qq_rref_cases()


def field_rref_cases():
    """The shapes of qq_rref_cases over GF(7), Q(x), Q(i) and the quartic."""
    rng = random.Random(496)
    cases = {}
    for field in ("GF(7)", "Q(x)", "Q(i)", "quartic"):
        ring, entry = _FIELDS[field]
        z = ring.zero

        def rows_of(nrows, ncols, sparsity=0.3):
            return random_rows(ring, entry, rng, nrows, ncols, sparsity)
        cases[f"{field} all zero"] = Matrix.zeros(ring, 3, 4)
        for n in range(2):
            cases[f"{field} square {n}"] = Matrix(ring, rows_of(4, 4))
            cases[f"{field} wide {n}"] = Matrix(ring, rows_of(3, 6))
            cases[f"{field} tall {n}"] = Matrix(ring, rows_of(6, 3))
            r = rng.randint(1, 3)
            cases[f"{field} rank-deficient {n}"] = (
                Matrix(ring, rows_of(5, r, 0)) * Matrix(ring, rows_of(r, 6, 0)))
            rows = rows_of(5, 5)
            rows[3] = list(rows[1])                         # duplicated row
            rows[4] = [z] * 5                               # zero row
            rows[0] = [e + e for e in rows[2]]              # a multiple of another
            cases[f"{field} duplicated and zero rows {n}"] = Matrix(ring, rows)
            rows = rows_of(4, 6)
            for row in rows:
                row[0] = row[3] = z                         # zero columns
            cases[f"{field} zero columns {n}"] = Matrix(ring, rows)
    return cases


_RREF_CASES = {name: Matrix(QQ, rows) for name, rows in _QQ_CASES.items()}
_RREF_CASES.update(field_rref_cases())


@pytest.mark.parametrize("name", sorted(_RREF_CASES))
def test_integer_rref_matches_field_oracle(name):
    """rref on every field, QQ, GF(7), Q(x) and the number fields, against
    Gauss-Jordan by division: the forward and upward division passes, which
    keep Fraction entries over QQ; rank counts the same pivots."""
    M = _RREF_CASES[name]
    R, pivots = M.rref()
    R_ref, pivots_ref = rref_by_field_division(M)
    assert pivots == pivots_ref
    assert R.rows == R_ref.rows
    if M.ring is QQ:
        assert all(type(e) is Fraction for r in R.rows for e in r)
    assert M.rank() == len(pivots)


def test_rank_runs_no_upward_pass_and_no_rref(monkeypatch):
    """rank over QQ counts the pivots of the forward pass alone: it runs no
    upward pass and no rref."""
    from pcurvkit import linalg

    matrices = [Matrix(QQ, _QQ_CASES[name]) for name in sorted(_QQ_CASES)]
    calls = []
    monkeypatch.setattr(linalg, "_integer_upward", lambda *args: calls.append(args))
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self))
    ranks = [M.rank() for M in matrices]
    monkeypatch.undo()
    assert calls == []
    assert ranks == [len(rref_by_field_division(M)[1]) for M in matrices]


def test_solve_inconsistent_qq_systems_return_none():
    rng = random.Random(2718)
    for _ in range(10):
        rows = low_rank(rng, 5, 4, 2)
        A = Matrix(QQ, rows)
        # a nonzero y with y^T A = 0 is orthogonal to the column space, and
        # y.y > 0, so A x = y has no solution
        y = Matrix(QQ, [list(c) for c in zip(*rows)]).kernel_basis()[0]
        assert A.solve(y) is None
        x0 = Matrix.column(QQ, [rand_fraction(rng, 5) for _ in range(4)])
        x = A.solve(A * x0)
        assert x is not None and A * x == A * x0


def test_kernel_basis_and_inverse_round_trip_over_qq():
    rng = random.Random(1414)
    for _ in range(8):
        A = Matrix(QQ, low_rank(rng, 4, 7, rng.randint(1, 4), height=10 ** 6))
        basis = A.kernel_basis()
        assert A.rank() + len(basis) == A.ncols
        for v in basis:
            assert (A * v).is_zero()
        B = Matrix(QQ, rand_qq(rng, 5, 5, height=10 ** 8))
        if B.det():
            I = Matrix.identity(QQ, 5)
            assert B * B.inverse() == I and B.inverse() * B == I


def test_product_and_trace_start_from_the_first_term(monkeypatch):
    """Over QQ(x), a ring without ``dot``, a 2x2 product adds two products
    per entry once, and over Q(i) a 2x2 trace adds its two diagonal entries
    once: no addition to zero."""
    from pcurvkit import NumberField
    from pcurvkit.numberfield import NumberFieldElement
    from pcurvkit.ratfunc import RationalFunction

    F = FunctionField(QQ, "x")
    x = F.gen()
    A = Matrix(F, [[1 + x, 2], [x, 3 - x]])
    B = Matrix(F, [[2, 1 / x], [1 + 2 * x, 5]])
    expected = Matrix(F, [
        [(1 + x) * 2 + 2 * (1 + 2 * x), (1 + x) / x + 2 * 5],
        [x * 2 + (3 - x) * (1 + 2 * x), x / x + (3 - x) * 5]])
    calls = []

    def spy(real):
        def add(self, other):
            calls.append(other)
            return real(self, other)
        return add

    monkeypatch.setattr(RationalFunction, "__add__", spy(RationalFunction.__add__))
    assert A * B == expected
    assert len(calls) == 4

    K = NumberField(Polynomial(QQ, [1, 0, 1]), "i")
    i = K.gen
    monkeypatch.setattr(NumberFieldElement, "__add__", spy(NumberFieldElement.__add__))
    calls.clear()
    assert Matrix(K, [[1 + i, 2], [i, 3 - i]]).trace() == 4
    assert len(calls) == 1


def test_number_field_product_builds_one_element_per_entry(monkeypatch):
    """Over Q(i) each entry of a 2x2 product is one ``NumberField.dot``: one
    NumberFieldElement built per entry, no intermediate products or sums."""
    from pcurvkit import NumberField
    from pcurvkit.numberfield import NumberFieldElement

    K = NumberField(Polynomial(QQ, [1, 0, 1]), "i")
    i = K.gen
    A = Matrix(K, [[1 + i, 2], [i, 3 - i]])
    B = Matrix(K, [[2, -i], [1 + 2 * i, 5]])
    expected = Matrix(K, [
        [(1 + i) * 2 + 2 * (1 + 2 * i), (1 + i) * -i + 2 * 5],
        [i * 2 + (3 - i) * (1 + 2 * i), i * -i + (3 - i) * 5]])
    built = []
    real = NumberFieldElement.__init__

    def spy(self, field, num, den):
        built.append(den)
        real(self, field, num, den)

    monkeypatch.setattr(NumberFieldElement, "__init__", spy)
    product = A * B
    assert len(built) == 4
    monkeypatch.undo()
    assert product == expected


# -- elimination over a number field against Fraction polynomials mod f ------------


class PolyQuotient:
    """Q[X]/(f) on Fraction-coefficient polynomials reduced mod f, without
    ``dot``: Matrix over it takes the generic path, one operation at a time.
    Inverses come from the extended Euclidean algorithm.  The reference for
    Matrix over a NumberField, whose arithmetic it shares none of."""

    def __init__(self, f):
        self.f = f
        self.zero = Residue(self, Polynomial(QQ, [0]))
        self.one = Residue(self, Polynomial(QQ, [1]))

    def __call__(self, x):
        return x if isinstance(x, Residue) else Residue(self, Polynomial(QQ, [x]))

    def characteristic(self):
        return 0

    def lift(self, e):
        return Residue(self, Polynomial(QQ, e.coords))


class Residue:
    __slots__ = ("ring", "p")

    def __init__(self, ring, p):
        self.ring, self.p = ring, p % ring.f

    def _p(self, other):
        return self.ring(other).p

    def __add__(self, other):
        return Residue(self.ring, self.p + self._p(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Residue(self.ring, self.p - self._p(other))

    def __neg__(self):
        return Residue(self.ring, -self.p)

    def __mul__(self, other):
        return Residue(self.ring, self.p * self._p(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g, s, _ = poly_xgcd(self._p(other), self.ring.f)
        return self * Residue(self.ring, s * Polynomial(QQ, [1 / g.coeff(0)]))

    def __rtruediv__(self, other):
        return self.ring(other) / self

    def __bool__(self):
        return not self.p.is_zero()

    def coords(self, d):
        return tuple(self.p.coeff(k) for k in range(d))


NF_FIELDS = {
    "i": (1, 0, 1),
    "quartic": (5, 0, 1, -2, 1),  # the certification field x^4 - 2x^3 + x^2 + 5
    "x^3-x/2+1/3": (Fraction(1, 3), Fraction(-1, 2), 0, 1),  # _int_den 6
    "degree 1": (Fraction(-3, 2), 1),
}


def nf_field(name):
    from pcurvkit import NumberField

    return NumberField(Polynomial(QQ, [Fraction(c) for c in NF_FIELDS[name]]), "w")


def nf_matrix(K, rng, nrows, ncols, sparsity=0.3):
    """Entries with zero coordinates, zero entries and mixed denominators."""
    def entry():
        if rng.random() < sparsity:
            return K.zero
        return K.element([0 if rng.random() < 0.3 else
                          Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))
                          for _ in range(K.degree)])
    return Matrix(K, [[entry() for _ in range(ncols)] for _ in range(nrows)])


def nf_cases(K, rng):
    cases = [nf_matrix(K, rng, n, n) for n in (1, 2, 2, 3, 3, 4)]
    cases += [nf_matrix(K, rng, 3, 5), nf_matrix(K, rng, 4, 2)]
    M = nf_matrix(K, rng, 4, 4, sparsity=0.1)
    rows = [list(r) for r in M.rows]
    rows[2] = [rows[0][j] * K.gen + rows[1][j] for j in range(4)]  # rank 3
    cases.append(Matrix(K, rows))
    cases.append(Matrix.zeros(K, 2, 3))
    return cases


def coords_of(M, d):
    return [[e.coords(d) if isinstance(e, Residue) else e.coords for e in r]
            for r in M.rows]


@pytest.mark.parametrize("name", list(NF_FIELDS))
def test_number_field_linear_algebra_matches_fraction_polynomials(name):
    K = nf_field(name)
    R = PolyQuotient(K.min_poly)
    d = K.degree
    rng = random.Random(f"nf linalg {name}")
    for M in nf_cases(K, rng):
        ref = M.map_entries(R.lift, R)
        red, pivots = M.rref()
        red_ref, pivots_ref = ref.rref()
        assert pivots == pivots_ref
        assert coords_of(red, d) == coords_of(red_ref, d)
        N = nf_matrix(K, rng, M.ncols, 3)
        assert coords_of(M * N, d) == coords_of(ref * N.map_entries(R.lift, R), d)
        if not M.is_square():
            continue
        det = M.det()
        assert det.coords == det_leibniz(ref).coords(d)
        if det:
            assert coords_of(M.inverse(), d) == coords_of(ref.inverse(), d)
        else:
            with pytest.raises(ValueError):
                M.inverse()



# -- solve against the rref route ----------------------------------------------


def solve_by_rref(A, rhs):
    """One solution of A X = rhs read off the reduced row echelon form of
    (A | rhs), with the free unknowns zero, or None when a pivot falls in a
    rhs column: the route Matrix.solve took before it eliminated forward
    only, kept as the oracle on top of rref_by_field_division."""
    aug = Matrix(A.ring, [list(r) + list(b) for r, b in zip(A.rows, rhs.rows)])
    red, pivots = rref_by_field_division(aug)
    if any(p >= A.ncols for p in pivots):
        return None
    z = A.ring.zero
    sol = [[z] * rhs.ncols for _ in range(A.ncols)]
    for row, col in zip(red.rows, pivots):
        sol[col] = list(row[A.ncols:])
    return Matrix(A.ring, sol)


def right_hand_sides(A, entry, rng):
    """Consistent ones with one and three columns, a zero one, random ones
    (inconsistent for most tall or rank-deficient A) and one whose second
    column is random beside a consistent first."""
    def random_matrix(nrows, ncols):
        return Matrix(A.ring, [[entry(rng) for _ in range(ncols)] for _ in range(nrows)])
    consistent = A * random_matrix(A.ncols, 3)
    rand = random_matrix(A.nrows, 2)
    mixed = Matrix(A.ring, [[c[0], r[0]] for c, r in zip(consistent.rows, rand.rows)])
    return [A * random_matrix(A.ncols, 1), consistent, Matrix.zeros(A.ring, A.nrows, 1),
            rand, mixed]


def solve_checked(A, rhs):
    """A.solve(rhs), asserted equal to the oracle entry for entry."""
    X = A.solve(rhs)
    expected = solve_by_rref(A, rhs)
    if expected is None:
        assert X is None
        return None
    assert X is not None and X.shape() == (A.ncols, rhs.ncols)
    assert X.rows == expected.rows
    assert A * X == rhs
    return X


def qq_entry(rng):
    return rand_fraction(rng, 9) if rng.random() < 0.7 else Fraction(0)


def test_qq_solve_matches_rref_route_on_every_case():
    rng = random.Random(6174)
    outcomes = []
    for name in sorted(_QQ_CASES):
        A = Matrix(QQ, _QQ_CASES[name])
        for rhs in right_hand_sides(A, qq_entry, rng):
            X = solve_checked(A, rhs)
            outcomes.append(X is not None)
            assert X is None or all(type(e) is Fraction for r in X.rows for e in r)
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("name", list(NF_FIELDS))
def test_number_field_solve_matches_rref_route(name):
    K = nf_field(name)
    rng = random.Random(f"nf solve {name}")

    def entry(r):
        return nf_matrix(K, r, 1, 1).entry(0, 0)
    outcomes = []
    cases = nf_cases(K, rng) + [nf_matrix(K, rng, 6, 3), nf_matrix(K, rng, 2, 6, sparsity=0.6)]
    for A in cases:
        for rhs in right_hand_sides(A, entry, rng):
            outcomes.append(solve_checked(A, rhs) is not None)
    assert True in outcomes and False in outcomes

    # column 1 is theta * column 0 + column 2 / 2, so unknown 2 is free between
    # the pivots 1 and 3: over QQ the pivots must come in whole blocks of d
    # columns, and the free block must be zero
    rows = [list(r) for r in nf_matrix(K, rng, 3, 4, sparsity=0.0).rows]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    for r in rows:
        r[1] = K.gen * r[0] + r[2] / 2
    A = Matrix(K, rows)
    assert rref_by_field_division(A)[1] == [0, 1, 3]
    consistent = A * nf_matrix(K, rng, 4, 2, sparsity=0.0)
    X = solve_checked(A, consistent)
    assert X is not None and not any(X.rows[2])
    # every vector of the column space has entry 3 = entry 0 + entry 1
    inconsistent = Matrix(K, [[b] for b, _ in consistent.rows])
    inconsistent = inconsistent + Matrix.column(K, [0, 0, 0, 1])
    assert solve_checked(A, inconsistent) is None


def step_conjugate_systems(K, rng, count, monkeypatch):
    """The 18 x 9 systems step_conjugate solves for rank-3 pairs over K."""
    from pcurvkit.deformation import step_conjugate

    systems = []
    real = Matrix.solve

    def capture(A, rhs):
        systems.append((A, rhs))
        return real(A, rhs)

    def entry():
        return K.element([rng.randint(-3, 3) for _ in range(K.degree)])

    monkeypatch.setattr(Matrix, "solve", capture)
    for _ in range(count):
        sigma = [Matrix(K, [[entry() for _ in range(3)] for _ in range(3)]) for _ in range(2)]
        M = Matrix(K, [[entry() for _ in range(3)] for _ in range(3)])
        assert step_conjugate(sigma, [[s, M * s - s * M] for s in sigma], 1) is not None
    monkeypatch.undo()
    return systems


@pytest.mark.parametrize("name", ["i", "quartic"])
def test_step_conjugate_shaped_solves_match_rref_route(name, monkeypatch):
    K = nf_field(name)
    rng = random.Random(f"conjugate {name}")
    systems = step_conjugate_systems(K, rng, 3, monkeypatch)
    assert {A.shape() for A, _ in systems} == {(18, 9)}
    for A, rhs in systems:
        assert solve_checked(A, rhs) is not None
        # the commutator system always has the centraliser in its kernel
        assert A.rank() < A.ncols
        # each generator's block M sigma - sigma M has trace 0, so adding 1
        # to every rhs entry makes the system inconsistent
        inconsistent = Matrix(K, [[e + 1] for e, in rhs.rows])
        assert solve_checked(A, inconsistent) is None


def test_generic_solve_matches_rref_route_over_gf_p_and_a_function_field():
    rng = random.Random(1729)
    F = GF(7)

    def gf_entry(r):
        return F(r.randint(0, 6)) if r.random() < 0.7 else F.zero
    K = FunctionField(QQ, "x")
    x = K.gen()

    def ff_entry(r):
        if r.random() < 0.3:
            return K.zero
        return (r.randint(-3, 3) + r.randint(-2, 2) * x) / (1 + r.randint(0, 2) * x)
    outcomes = []
    for ring, entry, shapes in ((F, gf_entry, [(4, 4), (6, 3), (3, 6), (5, 5)]),
                                (K, ff_entry, [(3, 3), (4, 2), (2, 4)])):
        for nrows, ncols in shapes:
            for _ in range(3):
                A = Matrix(ring, [[entry(rng) for _ in range(ncols)] for _ in range(nrows)])
                for rhs in right_hand_sides(A, entry, rng):
                    outcomes.append(solve_checked(A, rhs) is not None)
        rows = [[entry(rng) for _ in range(4)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])   # rank-deficient
        rows.append([ring.zero] * 4)                                # zero row
        A = Matrix(ring, rows)
        for rhs in right_hand_sides(A, entry, rng):
            outcomes.append(solve_checked(A, rhs) is not None)
    assert True in outcomes and False in outcomes


def test_number_field_solve_runs_one_integer_solve(monkeypatch):
    """Over Q(i) a solve calls no NumberFieldElement.inverse and no
    NumberField.dot: it runs the integer forward pass once, on the n*d
    columns of the coordinates of the unknowns, and the upward pass on the
    right-hand-side columns alone, as over QQ."""
    from pcurvkit import linalg
    from pcurvkit.numberfield import NumberField, NumberFieldElement

    K = nf_field("i")
    d = K.degree
    rng = random.Random(314)
    A = nf_matrix(K, rng, 7, 5)
    rows = [list(r) for r in A.rows]
    rows[4] = [a + K.gen * b for a, b in zip(rows[0], rows[1])]  # rank 4 or less
    A = Matrix(K, rows)
    rhs = A * nf_matrix(K, rng, 5, 2)
    expected = solve_by_rref(A, rhs)
    events, forward_cols, upward_cols = [], [], []

    def spy(name, real):
        def call(*args):
            events.append(name)
            return real(*args)
        return call

    real_forward, real_upward = linalg._integer_forward, linalg._integer_upward

    def forward(rows, ncols):
        forward_cols.append(ncols)
        return real_forward(rows, ncols)

    def upward(rows, pivots, cols=None):
        upward_cols.append(cols)
        real_upward(rows, pivots, cols)

    monkeypatch.setattr(NumberFieldElement, "inverse", spy("inverse", NumberFieldElement.inverse))
    monkeypatch.setattr(NumberField, "dot", spy("dot", NumberField.dot))
    monkeypatch.setattr(linalg, "_integer_forward", forward)
    monkeypatch.setattr(linalg, "_integer_upward", upward)
    X = A.solve(rhs)
    monkeypatch.undo()
    assert X == expected
    assert events == []
    assert forward_cols == [A.ncols * d]
    assert upward_cols == [range(A.ncols * d, A.ncols * d + rhs.ncols)]


def test_number_field_solve_builds_one_block_per_distinct_entry(monkeypatch):
    """Entries repeat in the systems deform solves: solve_system builds the
    integer block of each distinct entry of the cleared rows once.  Row 0
    is halved, so its entries have denominators, but clearing it gives the
    numerators of the other rows back, and no new block."""
    from pcurvkit.numberfield import NumberField

    K = nf_field("i")
    pool = [K.zero, K.gen, K.one + K.gen, K(2), K(3) - K.gen]
    rng = random.Random(2718)
    rows = [[rng.choice(pool) for _ in range(5)] for _ in range(7)]
    b = [row[0] for row in (Matrix(K, rows) * Matrix(K, [[rng.choice(pool)] for _ in range(5)])).rows]
    halved = Matrix(K, [[e / 2 for e in rows[0]]] + rows[1:])
    rhs = Matrix.column(K, [b[0] / 2] + b[1:])
    built = []
    real = NumberField._mul_rows

    def spy(self, a):
        built.append(a)
        return real(self, a)

    monkeypatch.setattr(NumberField, "_mul_rows", spy)
    X = halved.solve(rhs)
    monkeypatch.undo()
    assert X == solve_by_rref(halved, rhs) and X is not None
    distinct = {e.num for row in rows for e in row if e}
    assert sorted(built) == sorted(distinct)
    assert len(distinct) < sum(1 for row in rows for e in row if e)


def test_qq_solve_runs_no_rref(monkeypatch):
    """solve over QQ calls no rref, and its one upward pass runs on the
    right-hand-side columns alone."""
    from pcurvkit import linalg

    rng = random.Random(2025)
    A = Matrix(QQ, low_rank(rng, 8, 6, 4))
    rhs = A * Matrix(QQ, rand_qq(rng, 6, 2))
    expected = solve_by_rref(A, rhs)
    calls, upward_cols = [], []
    real_upward = linalg._integer_upward

    def upward(rows, pivots, cols=None):
        upward_cols.append(cols)
        real_upward(rows, pivots, cols)

    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self))
    monkeypatch.setattr(linalg, "_integer_upward", upward)
    X = A.solve(rhs)
    monkeypatch.undo()
    assert calls == []
    assert upward_cols == [range(6, 8)]
    assert X == expected


def test_number_field_det_inverts_at_most_once_per_row(monkeypatch):
    """An n x n det over the quartic calls NumberFieldElement.inverse at most
    n times: once per pivot of the forward pass."""
    from pcurvkit.numberfield import NumberFieldElement

    K = nf_field("quartic")
    rng = random.Random(4096)
    matrices = [nf_matrix(K, rng, n, n, sparsity=s) for n in range(1, 5) for s in (0.0, 0.4)]
    counts = []
    real = NumberFieldElement.inverse

    def inverse(self):
        counts[-1] += 1
        return real(self)

    monkeypatch.setattr(NumberFieldElement, "inverse", inverse)
    dets = []
    for M in matrices:
        counts.append(0)
        dets.append(M.det())
    monkeypatch.undo()
    assert all(c <= M.nrows for c, M in zip(counts, matrices))
    assert max(counts) == 4
    assert dets == [det_leibniz(M) for M in matrices]


# -- the integer passes against Gauss-Jordan over Fraction --------------------
#
# _integer_forward picks as pivot row the candidate of least |pivot|, then of
# fewest nonzeros, and updates the other rows in place.  The oracle below
# takes the first nonzero row and divides exactly, so it agrees with the
# integer passes only because the pivot columns, and with them the solution
# with free unknowns zero, do not depend on which rows are chosen.


def gauss_jordan_by_fractions(rows, n):
    """(pivot columns among the first n, solution rows or None) of the
    augmented rows: Gauss-Jordan over Fraction with the first nonzero row as
    pivot, free unknowns zero."""
    rows = [[Fraction(e) for e in r] for r in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        pivot = rows[rank] = [e * inv for e in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, pivot)]
        pivots.append(col)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return pivots, None
    sol = [[Fraction(0)] * (len(rows[0]) - n) for _ in range(n)]
    for row, p in zip(rows, pivots):
        sol[p] = row[n:]
    return pivots, sol


def integer_entry(rng, sparsity, values):
    return 0 if rng.random() < sparsity else rng.choice(values)


def integer_system_cases():
    """(name, augmented integer rows, number of unknowns), seeded."""
    rng = random.Random(1957)
    small = [v for v in range(-4, 5) if v]
    wide = [v for v in range(-40, 41) if v]
    no_unit = [s * v for v in (2, 3, 4, 6, 9) for s in (1, -1)]
    for t in range(8):
        m, n = rng.randint(3, 14), rng.randint(2, 12)
        for kind, sparsity, values in (("sparse", 0.8, small), ("dense", 0.0, wide),
                                       ("no unit pivots", 0.3, no_unit)):
            rows = [[integer_entry(rng, sparsity, values) for _ in range(n + 2)]
                    for _ in range(m)]
            yield f"{kind} {t}", rows, n
        # rank-deficient: every row a combination of r base rows, so the
        # system is consistent; one changed right-hand side usually is not
        r = rng.randint(1, min(m, n) - 1) if min(m, n) > 1 else 1
        base = [[integer_entry(rng, 0.5, small) for _ in range(n + 1)] for _ in range(r)]
        rows = [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(n + 1)]
                for coeffs in ([rng.randint(-2, 2) for _ in range(r)] for _ in range(m))]
        yield f"rank-deficient {t}", rows, n
        bad = [list(row) for row in rows]
        bad[rng.randrange(m)][n] += rng.choice((1, -1))
        yield f"inconsistent {t}", bad, n
        rows = [[integer_entry(rng, 0.4, small) for _ in range(n + 1)] for _ in range(m)]
        rows[0] = list(rows[-1])                     # a duplicate row
        rows[1] = [0] * (n + 1)                      # a zero row
        rows[2 % m] = [3 * e for e in rows[-1]]      # a multiple of another
        yield f"duplicate and zero rows {t}", rows, n


def test_integer_solve_matches_fraction_gauss_jordan():
    from pcurvkit import linalg

    outcomes = set()
    for name, rows, n in integer_system_cases():
        pivots, expected = gauss_jordan_by_fractions(rows, n)
        assert linalg._integer_forward([list(r) for r in rows], n) == pivots, name
        got = linalg._solve_integer([list(r) for r in rows], n)
        assert got == expected, name
        outcomes.add((name.rsplit(" ", 1)[0], got is None))
    kinds = {kind for kind, _ in outcomes}
    assert {("rank-deficient", False), ("inconsistent", True), ("sparse", True),
            ("dense", True), ("no unit pivots", False)} <= outcomes
    assert kinds == {"sparse", "dense", "no unit pivots", "rank-deficient",
                     "inconsistent", "duplicate and zero rows"}


def krylov_cases():
    """Orbits v, Av, ..., A^n v of n x n integer matrices A, one more vector
    than the dimension: dense ones, sparse ones, and A with a repeated block
    so that the orbit stops short of n."""
    rng = random.Random(1968)
    for t in range(12):
        n = rng.randint(1, 7)
        sparsity = (0.0, 0.75, 0.5)[t % 3]
        A = [[integer_entry(rng, sparsity, [v for v in range(-5, 6) if v]) for _ in range(n)]
             for _ in range(n)]
        if t % 3 == 2 and n > 1:
            A[-1] = list(A[0])
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        if t % 4 == 0:
            v = [Fraction(int(i == 0)) for i in range(n)]
        orbit = [v]
        for _ in range(n):
            orbit.append([sum(a * x for a, x in zip(row, orbit[-1])) for row in A])
        yield orbit


def test_first_dependency_matches_fraction_gauss_jordan():
    from pcurvkit import linalg

    lengths = set()
    for orbit in krylov_cases():
        columns = [list(r) for r in zip(*orbit)]
        pivots, _ = gauss_jordan_by_fractions([c + [0] for c in columns], len(orbit))
        k = len(pivots)
        assert pivots == list(range(k))
        _, sol = gauss_jordan_by_fractions(
            [[c[j] for j in range(k)] + [-c[k]] for c in columns], k)
        assert linalg._first_dependency(orbit) == [x for x, in sol] + [Fraction(1)]
        lengths.add(k < len(orbit) - 1)
    assert lengths == {True, False}
