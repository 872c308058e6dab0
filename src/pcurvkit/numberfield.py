"""Number fields Q[X]/(f) with exact element arithmetic.

An element is stored cleared of denominators: an integer coordinate vector
over one positive common denominator, reduced so the pair is canonical
(Cohen, GTM 138, 4.2).  Products are an integer convolution reduced by a
table of theta^d..theta^(2d-2) kept as integers over one lcm, then divided
by one gcd; ``coords`` builds the Fraction coordinates on demand.
``NumberField.dot`` does the same for a whole sum of products: the
convolutions of all pairs are added over one common denominator and
reduced once, so a matrix entry or a row update ``a - f*b`` costs one
reduction and one gcd; a single product is the dot of one pair, and sums
and differences share one body.  ``inverse`` solves the d x d integer
linear system of multiplication by the element with the integer solve
that ``Matrix.solve`` runs over QQ (``linalg._solve_integer``), and
``minimal_polynomial`` reads the first linear dependency among powers off
``linalg._first_dependency``: this module runs no elimination of its own.
``NumberField.solve_system`` is ``Matrix.solve`` over the field, by
restriction of scalars: a system in n unknowns over K is a system in n*d
unknowns over QQ, their coordinates, with each entry the integer d x d
matrix of multiplication by it (``_mul_rows``), and
``linalg._solve_integer`` solves it as it solves a system over QQ.  The
pivots over QQ come in whole blocks of d, one per pivot over K, so the
answer is the one elimination over K gives.  ``right_product_map`` builds
the same blocks for right multiplication by a matrix over K: one integer
map on the cleared coordinates of a row, which the closure of
``surface.certify_finiteness`` applies at each step.

A session works inside one fixed parent field; when two fields must be
combined (adjoining i to a real quadratic field, say) ``compositum`` runs a
bounded primitive-element search over theta1 + k*theta2, powering the
multiplication matrix of that element on the tensor product, and returns
the joint field together with embedding maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .fields import QQ, _power
from .poly import Polynomial, is_irreducible_q, IrreducibilityUndecided
from .linalg import Matrix, _first_dependency, _solve_integer


class CompositumError(ValueError):
    """No primitive element of full degree was found for the pair of fields."""


def euler_phi_upto(n: int) -> list[int]:
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


class NumberField:
    """Q[theta] with theta a root of a monic irreducible ``min_poly``."""

    def __init__(self, min_poly: Polynomial, name: str = "w", check: bool = True):
        if min_poly.field != QQ:
            raise ValueError("min_poly must have rational coefficients")
        if min_poly.degree() < 1:
            raise ValueError("min_poly must be nonconstant")
        min_poly = min_poly.monic()
        if check and not is_irreducible_q(min_poly):
            raise ValueError(f"{min_poly} is reducible over Q")
        self.min_poly = min_poly
        self.name = name
        self.degree = min_poly.degree()
        d = self.degree
        # theta^k for k = d..2d-2 as integer rows over one common denominator
        # _int_den, so products reduce by table lookup on integers.
        x = Polynomial.x(QQ)
        high = [pow(x, k, min_poly) for k in range(d, 2 * d - 1)]
        D = self._int_den = lcm(*(r.den for r in high))
        self._int_table = [[c * (D // r.den) for c in r.coeffs] + [0] * (d - len(r.coeffs))
                           for r in high]
        self.zero = NumberFieldElement(self, [0] * d, 1)
        self.one = NumberFieldElement(self, [1] + [0] * (d - 1), 1)

    @property
    def gen(self):
        if self.degree == 1:
            return self(-self.min_poly.coeff(0))
        return NumberFieldElement(self, [0, 1] + [0] * (self.degree - 2), 1)

    def characteristic(self) -> int:
        return 0

    def dot(self, xs, ys):
        """sum(x * y for x, y in zip(xs, ys)) built as one element.

        The integer convolutions of all pairs are added over one common
        denominator, the lcm of the x.den * y.den; then theta^k for k >= d
        is replaced by table rows over _int_den, and one gcd normalises.
        """
        pairs = list(zip(xs, ys))
        den = lcm(*(x.den * y.den for x, y in pairs))
        d = self.degree
        conv = [0] * (2 * d - 1)
        for x, y in pairs:
            s = den // (x.den * y.den)
            for i, a in enumerate(x.num):
                if a:
                    a *= s
                    for j, b in enumerate(y.num, i):
                        conv[j] += a * b
        return NumberFieldElement(self, self._reduced_ints(conv), den * self._int_den)

    def _reduced_ints(self, conv):
        """_int_den times the integer convolution conv of length 2d - 1,
        taken mod min_poly: theta^k for k >= d is replaced by table rows
        over _int_den."""
        d = self.degree
        D = self._int_den
        out = conv[:d] if D == 1 else [c * D for c in conv[:d]]
        for c, row in zip(conv[d:], self._int_table):
            if c:
                out = [x + c * r for x, r in zip(out, row)]
        return out

    def _mul_rows(self, a):
        """The integer matrix, as a list of rows, of v -> _int_den * a * v
        on integer coordinate vectors: column j is the convolution of a
        with theta^j, a shift, reduced by the table."""
        d = self.degree
        return list(zip(*(self._reduced_ints([0] * j + list(a) + [0] * (d - 1 - j))
                          for j in range(d))))

    def right_product_map(self, rows):
        """(R, E) for right multiplication by the square matrix S with the
        given rows, by restriction of scalars.

        A row (m_0, ..., m_{n-1}) over the field, cleared as the n*d integer
        coordinates of its entries over one denominator, goes to E times the
        coordinates of the row (m_0, ..., m_{n-1}) * S: R is that integer
        (n*d) x (n*d) matrix, as a list of rows.  With L the lcm of S's
        denominators and D = _int_den, block (k, j) of R is ``_mul_rows`` of
        L * S[j][k], the map m_j -> D * L * S[j][k] * m_j, and E = D * L.
        """
        d, n = self.degree, len(rows)
        L = lcm(*(e.den for r in rows for e in r))
        blocks = [[self._mul_rows([c * (L // e.den) for c in e.num]) for e in r]
                  for r in rows]
        R = [[c for j in range(n) for c in blocks[j][k][t]]
             for k in range(n) for t in range(d)]
        return R, self._int_den * L

    def solve_system(self, rows, n):
        """Solution rows of the linear system whose augmented rows (n
        unknowns, then the right-hand sides) are given, or None.

        The system is solved over QQ on the coordinates of the unknowns
        (restriction of scalars).  Each row, an equation, is cleared of its
        denominators; an entry a becomes the integer d x d block
        ``_mul_rows(a)`` of v -> D*a*v (D = _int_den), and a right-hand side
        b becomes D times its numerator coordinates.  The (m*d) x (n*d)
        integer system goes through the passes ``Matrix.solve`` runs over
        QQ (``linalg._solve_integer``), and the d coordinates of each
        unknown make one element.

        The answer is the one elimination over the field would give.  The
        column space is a subspace over the field, so the d columns of
        unknown j are independent over QQ of the earlier columns exactly
        when column j is independent of them over the field: the pivots
        come in whole blocks, and a free unknown is zero in every
        coordinate.
        """
        d, D = self.degree, self._int_den
        # one block per distinct scaled numerator: entries repeat in a system
        blocks_of = {(0,) * d: [(0,) * d] * d}
        irows = []
        for r in rows:
            den = lcm(*(e.den for e in r))
            nums = [e.num if e.den == den else tuple(c * (den // e.den) for c in e.num)
                    for e in r]
            for v in nums[:n]:
                if v not in blocks_of:
                    blocks_of[v] = self._mul_rows(v)
            blocks = [blocks_of[v] for v in nums[:n]]
            for t in range(d):
                irows.append([c for b in blocks for c in b[t]] + [D * v[t] for v in nums[n:]])
        sol = _solve_integer(irows, n * d)
        if sol is None:
            return None
        return [[self.element(x) for x in zip(*sol[j * d:(j + 1) * d])] for j in range(n)]

    def __call__(self, x):
        if isinstance(x, NumberFieldElement):
            if x.field == self:
                return x
            if x.is_rational():
                return self(x.rational_value())
            raise ValueError("cannot coerce element of a different number field")
        if isinstance(x, (int, Fraction, str)):
            c = Fraction(x)
            return NumberFieldElement(
                self, [c.numerator] + [0] * (self.degree - 1), c.denominator)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        den = lcm(*(c.denominator for c in coords))
        return NumberFieldElement(
            self, [c.numerator * (den // c.denominator) for c in coords], den)

    def automorphisms(self):
        """Field automorphisms as coordinate maps (complete for degree <= 2)."""
        if self.degree == 1:
            return [lambda e: e]
        if self.degree == 2:
            a1 = self.min_poly.coeff(1)
            conj_gen = self(-a1) - self.gen

            def conj(e, _g=conj_gen):
                return e.coords[0] + e.coords[1] * _g

            return [lambda e: e, conj]
        raise NotImplementedError(
            "automorphism enumeration implemented for degree <= 2 only")

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.min_poly == other.min_poly

    def __hash__(self):
        return hash(("nf", self.min_poly))

    def __repr__(self):
        return f"Q[{self.name}]/({self.min_poly.to_str(self.name)})"


class NumberFieldElement:
    """sum(num[k] * theta^k) / den, with den > 0 and gcd(den, *num) == 1, so
    equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int):
        g = gcd(den, *num)
        self.field = field
        self.num = tuple(num) if g == 1 else tuple(n // g for n in num)
        self.den = den // g

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.num[0], self.den)

    def _wrap(self, x):
        if isinstance(x, NumberFieldElement):
            if x.field is not self.field and x.field != self.field:
                raise ValueError("mixed number fields")
            return x
        if isinstance(x, (int, Fraction)):
            return self.field(x)
        return None

    def _combination(self, other, s, t):
        """s*self + t*other for integers s and t, built as one element."""
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return NumberFieldElement(
            self.field, [s * a * db + t * b * da for a, b in zip(self.num, o.num)], da * db)

    def __add__(self, other):
        return self._combination(other, 1, 1)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self._combination(other, 1, -1)

    def __rsub__(self, other):
        return self._combination(other, -1, 1)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.field.dot((self,), (o,))

    __rmul__ = __mul__

    def inverse(self):
        """den / a for a = sum(num[k] * theta^k).  Column j of an integer
        d x d system is D^j * a * theta^j, with D = _int_den, built by one
        shift and one table row per step; with right-hand side e_0 its
        solution w gives 1 / a = sum(D^j * w[j] * theta^j).  The system is
        solved as ``Matrix.solve`` solves one over QQ, on the integer rows as
        they are (``linalg._solve_integer``), and the element is built
        straight from w: integer numerators over the lcm of its
        denominators.  a * w = 1 has a solution only when a is a unit, and
        then exactly one."""
        if not self:
            raise ZeroDivisionError("number field zero division")
        K = self.field
        d, D = K.degree, K._int_den
        cols = [list(self.num)]
        for _ in range(d - 1):
            prev = cols[-1]
            c = prev[-1]
            cols.append([D * s + c * t for s, t in zip([0] + prev[:-1], K._int_table[0])])
        rows = [list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))]
        w = _solve_integer(rows, d)
        if w is None:
            raise ZeroDivisionError("element shares a factor with the modulus")
        L = lcm(*(wj.denominator for (wj,) in w))
        return NumberFieldElement(K, [self.den * D ** j * wj.numerator * (L // wj.denominator)
                                      for j, (wj,) in enumerate(w)], L)

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        return _power(self.inverse() if n < 0 else self, abs(n), self.field.one, mul)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den \
            and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        name = self.field.name
        terms = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{name}")
            else:
                terms.append(f"{c}*{name}^{k}")
        return " + ".join(terms) if terms else "0"


def minimal_polynomial(e: NumberFieldElement) -> Polynomial:
    """Monic minimal polynomial over Q, found as the first linear dependency
    among the powers 1, e, e^2, ..."""
    K = e.field
    powers = [K.one]
    for _ in range(K.degree):
        powers.append(powers[-1] * e)
    return Polynomial(QQ, _first_dependency([x.coords for x in powers]))


def root_of_unity_candidates(d: int) -> list[int]:
    """All n with euler_phi(n) <= d, ascending."""
    bound = 2 * d * d + 1
    phi = euler_phi_upto(bound)
    return [n for n in range(1, bound + 1) if phi[n] <= d]


def is_root_of_unity(e: NumberFieldElement):
    """Smallest n with e^n = 1, or None.

    Enumerates the finitely many n whose cyclotomic degree fits under
    deg(min poly of e) and tests divisibility of the min poly into X^n - 1.
    """
    if not e:
        raise ValueError("zero is not a root of unity")
    m = minimal_polynomial(e)
    d = m.degree()
    x = Polynomial.x(QQ)
    for n in root_of_unity_candidates(d):
        if pow(x, n, m).is_one():
            return n
    return None


def compositum(F1: NumberField, F2: NumberField, k_range: int = 10):
    """One field containing both, via a primitive element theta1 + k*theta2.

    Returns (K, embed1, embed2) where embed_i maps elements of F_i into K.
    Requires the composite to have full degree deg(F1)*deg(F2).  Raises
    CompositumError at the first k whose minimal polynomial has that degree
    and is reducible (the fields are not linearly disjoint), when every such
    k was undecided, or when no k in [-k_range, k_range] reaches that degree.
    """
    if F1.min_poly == F2.min_poly:
        def same1(e, _K=F1):
            return _K.element(e.coords)
        return F1, same1, same1
    if F1.degree == 1:
        return F2, (lambda e, _K=F2: _K(e.coords[0])), (lambda e, _K=F2: _K.element(e.coords))
    if F2.degree == 1:
        return F1, (lambda e, _K=F1: _K.element(e.coords)), (lambda e, _K=F1: _K(e.coords[0]))

    # theta1 and theta2 act on Q[theta1] (x) Q[theta2], basis theta1^i theta2^j
    # at index i*d2 + j, by T1 = C1 (x) I and T2 = I (x) C2, where column a
    # of the multiplication matrix C_n holds the coordinates of theta_n^(a+1).
    d1, d2 = F1.degree, F2.degree
    D = d1 * d2
    t1, t2 = ([(F.gen ** (a + 1)).coords for a in range(F.degree)] for F in (F1, F2))
    index = [(i, j) for i in range(d1) for j in range(d2)]
    T1 = Matrix(QQ, [[t1[a][i] if j == b else 0 for a, b in index] for i, j in index])
    T2 = Matrix(QQ, [[t2[b][j] if i == a else 0 for a, b in index] for i, j in index])
    # theta1 = T1 * 1 and theta2 = T2 * 1 are unit vectors of the tensor basis
    gens = Matrix(QQ, [[int(t == d2), int(t == 1)] for t in range(D)])
    undecided = False
    for k in (s * n for n in range(1, k_range + 1) for s in (1, -1)):
        mu = T1 + T2.scale(k)
        vectors = [[1] + [0] * (D - 1)]  # mu^t * 1 for t = 0..D
        for _ in range(D):
            vectors.append([sum(a * b for a, b in zip(row, vectors[-1]))
                            for row in mu.rows])
        m = Polynomial(QQ, _first_dependency(vectors))
        if m.degree() < D:
            continue
        try:
            irreducible = is_irreducible_q(m)
        except IrreducibilityUndecided:
            undecided = True
            continue
        if not irreducible:
            # Q[theta1] (x) Q[theta2] = Q[X]/(m), so every other k fails too
            raise CompositumError(
                f"theta1 + k*theta2 at k = {k} has a reducible minimal polynomial of "
                f"degree {D}: the tensor product is not a field, so the fields are "
                f"not linearly disjoint")
        K = NumberField(m, name="w", check=False)
        images = Matrix(QQ, list(zip(*vectors[:D]))).solve(gens)
        g1 = K.element([images.entry(t, 0) for t in range(D)])
        g2 = K.element([images.entry(t, 1) for t in range(D)])

        def make_embed(gen_img, _K=K):
            def embed(e):
                return _K(Polynomial(QQ, e.coords)(gen_img))
            return embed

        return K, make_embed(g1), make_embed(g2)
    if undecided:
        raise CompositumError(
            f"irreducibility of the degree-{D} minimal polynomials of theta1 + k*theta2, "
            f"|k| <= {k_range}, is undecided, so whether the fields are linearly "
            f"disjoint is undecided")
    raise CompositumError(
        f"no primitive element theta1 + k*theta2 with |k| <= {k_range} reaches "
        f"degree {D}; are the fields linearly disjoint?")
