"""Number fields Q[X]/(f) with exact element arithmetic and certified embeddings.

A session works inside one fixed parent field; when two fields must be
combined (adjoining i to a real quadratic field, say) ``compositum`` runs a
bounded primitive-element search over theta1 + k*theta2 and returns the
joint field together with embedding maps.  Embedding data is certified: real
roots come from Sturm isolation, complex roots from interval Newton, and
every absolute-value query refines until the requested tolerance is met.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ
from .poly import (
    Polynomial,
    poly_xgcd,
    is_irreducible_q,
    IrreducibilityUndecided,
    refine_real_root,
)
from .linalg import Matrix
from .intervals import (
    RatInterval,
    PrecisionExceeded,
    certified_root_enclosures,
    eval_poly_box,
    eval_poly_interval,
    refine_box,
)


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
        # theta^k for k = 0..2d-2 as coordinate vectors, so products reduce
        # by table lookup.
        table = []
        for k in range(d):
            v = [Fraction(0)] * d
            v[k] = Fraction(1)
            table.append(v)
        top = [-min_poly.coeff(i) for i in range(d)]
        for _ in range(d - 1):
            prev = table[-1]
            shifted = [Fraction(0)] + list(prev[: d - 1])
            lead = prev[d - 1]
            table.append([s + lead * t for s, t in zip(shifted, top)])
        self._pow_table = table
        self._enclosures = None

    @property
    def zero(self):
        return NumberFieldElement(self, [Fraction(0)] * self.degree)

    @property
    def one(self):
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(1)
        return NumberFieldElement(self, coords)

    @property
    def gen(self):
        if self.degree == 1:
            return self(-self.min_poly.coeff(0))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return NumberFieldElement(self, coords)

    def characteristic(self) -> int:
        return 0

    def __call__(self, x):
        if isinstance(x, NumberFieldElement):
            if x.field == self:
                return x
            if x.is_rational():
                return self(x.rational_value())
            raise ValueError("cannot coerce element of a different number field")
        if isinstance(x, (int, Fraction, str)):
            coords = [Fraction(0)] * self.degree
            coords[0] = Fraction(x)
            return NumberFieldElement(self, coords)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        return NumberFieldElement(self, coords)

    # -- embeddings -------------------------------------------------------

    def root_enclosures(self):
        """Certified enclosures of all roots of min_poly.

        Returns (real_intervals, upper_half_boxes); cached after first call.
        """
        if self._enclosures is None:
            self._enclosures = certified_root_enclosures(self.min_poly)
        return self._enclosures

    def signature(self):
        reals, boxes = self.root_enclosures()
        return len(reals), len(boxes)

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
        return hash(("nf", self.min_poly.coeffs))

    def __repr__(self):
        return f"Q[{self.name}]/({self.min_poly.to_str(self.name)})"


class NumberFieldElement:
    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.coords[0]

    def _wrap(self, x):
        if isinstance(x, NumberFieldElement):
            if x.field != self.field:
                raise ValueError("mixed number fields")
            return x
        if isinstance(x, (int, Fraction)):
            return self.field(x)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(self.field,
                                  [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(self.field,
                                  [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        table = self.field._pow_table
        out = [Fraction(0)] * d
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(o.coords):
                if not b:
                    continue
                ab = a * b
                row = table[i + j]
                for t in range(d):
                    if row[t]:
                        out[t] += ab * row[t]
        return NumberFieldElement(self.field, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("number field zero division")
        a = Polynomial(QQ, list(self.coords))
        g, s, _ = poly_xgcd(a, self.field.min_poly)
        if g.degree() != 0:
            raise ZeroDivisionError("element shares a factor with the modulus")
        inv_poly = s * Polynomial.constant(QQ, QQ.one / g.coeff(0))
        inv_poly = inv_poly % self.field.min_poly
        coords = [inv_poly.coeff(i) for i in range(self.field.degree)]
        return NumberFieldElement(self.field, coords)

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
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

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


class AlgebraicNumber:
    """A number field element bundled with its (lazily computed) min poly."""

    __slots__ = ("element", "_min_poly")

    def __init__(self, element: NumberFieldElement, min_poly: Polynomial | None = None):
        self.element = element
        self._min_poly = min_poly

    def min_poly(self) -> Polynomial:
        if self._min_poly is None:
            self._min_poly = minimal_polynomial(self.element)
        return self._min_poly

    def degree(self) -> int:
        return self.min_poly().degree()

    def is_algebraic_integer(self) -> bool:
        return is_algebraic_integer(self.element)

    def is_root_of_unity(self):
        return is_root_of_unity(self.element)


def minimal_polynomial(e: NumberFieldElement) -> Polynomial:
    """Monic minimal polynomial over Q, found as the first linear dependency
    among the powers 1, e, e^2, ..."""
    K = e.field
    d = K.degree
    powers = [K.one]
    for _ in range(d):
        powers.append(powers[-1] * e)
    for k in range(1, d + 1):
        cols = Matrix(QQ, [[powers[t].coords[i] for t in range(k)]
                           for i in range(d)])
        rhs = Matrix.column(QQ, list(powers[k].coords))
        sol = cols.solve(rhs)
        if sol is not None:
            coeffs = [-sol.entry(t, 0) for t in range(k)] + [Fraction(1)]
            return Polynomial(QQ, coeffs)
    raise RuntimeError("powers of an element failed to become dependent")


def is_algebraic_integer(e: NumberFieldElement) -> bool:
    m = minimal_polynomial(e)
    return all(Fraction(m.coeff(i)).denominator == 1 for i in range(m.degree() + 1))


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


def embedding_absolute_values(e: NumberFieldElement, tolerance,
                              max_rounds: int = 200) -> list[RatInterval]:
    """Certified |sigma(e)| for every complex embedding sigma of the parent.

    Returns one interval of width <= tolerance per embedding (conjugate
    pairs contribute two equal intervals).  Order: real embeddings by
    ascending root, then conjugate pairs.
    """
    tol = Fraction(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    K = e.field
    f = K.min_poly
    coeffs = [Fraction(c) for c in e.coords]
    bits = max(64, (8 * tol.denominator // tol.numerator).bit_length() + 2)
    out = []
    reals, boxes = K.root_enclosures()
    for iv in reals:
        lo, hi = iv.lo, iv.hi
        for _ in range(max_rounds):
            val = eval_poly_interval(coeffs, RatInterval(lo, hi)).abs()
            if val.width() <= tol:
                out.append(val)
                break
            if lo == hi:
                out.append(val)
                break
            lo, hi = refine_real_root(f, lo, hi, (hi - lo) / 4)
        else:
            raise PrecisionExceeded("real embedding refinement exhausted")
    for box in boxes:
        current = box
        for _ in range(max_rounds):
            val = eval_poly_box(coeffs, current).abs_interval(bits)
            if val.width() <= tol:
                out.append(val)
                out.append(val)
                break
            current = refine_box(f, current, current.width() / 4)
        else:
            raise PrecisionExceeded("complex embedding refinement exhausted")
    return out


def compositum(F1: NumberField, F2: NumberField, k_range: int = 10):
    """One field containing both, via a primitive element theta1 + k*theta2.

    Returns (K, embed1, embed2) where embed_i maps elements of F_i into K.
    Requires the composite to have full degree deg(F1)*deg(F2); when no k
    in [-k_range, k_range] yields that (the fields are not linearly
    disjoint), CompositumError is raised.
    """
    if F1.min_poly == F2.min_poly:
        def same1(e, _K=F1):
            return _K.element(e.coords)
        return F1, same1, same1
    if F1.degree == 1:
        c = F1.gen.rational_value()
        return F2, (lambda e, _c=c, _K=F2: _K(e.coords[0])), (lambda e, _K=F2: _K.element(e.coords))
    if F2.degree == 1:
        return F1, (lambda e, _K=F1: _K.element(e.coords)), (lambda e, _K=F1: _K(e.coords[0]))

    d1, d2 = F1.degree, F2.degree
    D = d1 * d2
    ks = []
    for k in range(1, k_range + 1):
        ks.extend((k, -k))
    for k in ks:
        mu = _TensorElt.gen1(F1, F2) + _TensorElt.gen2(F1, F2).scale(k)
        powers = [_TensorElt.one(F1, F2)]
        for _ in range(D):
            powers.append(powers[-1] * mu)
        base_cols = Matrix(QQ, [[powers[t].flat()[i] for t in range(D)]
                                for i in range(D)])
        if base_cols.rank() != D:
            continue
        rhs = Matrix.column(QQ, list(powers[D].flat()))
        sol = base_cols.solve(rhs)
        m_coeffs = [-sol.entry(t, 0) for t in range(D)] + [Fraction(1)]
        m = Polynomial(QQ, m_coeffs)
        try:
            if not is_irreducible_q(m):
                continue
        except IrreducibilityUndecided:
            continue
        K = NumberField(m, name="w", check=False)
        th1 = base_cols.solve(Matrix.column(QQ, list(_TensorElt.gen1(F1, F2).flat())))
        th2 = base_cols.solve(Matrix.column(QQ, list(_TensorElt.gen2(F1, F2).flat())))
        g1 = K.element([th1.entry(t, 0) for t in range(D)])
        g2 = K.element([th2.entry(t, 0) for t in range(D)])

        def make_embed(gen_img, _K=K):
            def embed(e):
                acc = _K.zero
                for c in reversed(e.coords):
                    acc = acc * gen_img + _K(c)
                return acc
            return embed

        return K, make_embed(g1), make_embed(g2)
    raise CompositumError(
        f"no primitive element theta1 + k*theta2 with |k| <= {k_range} reaches "
        f"degree {D}; are the fields linearly disjoint?")


class _TensorElt:
    """Element of Q[theta1] (x) Q[theta2] as a d1 x d2 coefficient grid."""

    __slots__ = ("F1", "F2", "grid")

    def __init__(self, F1, F2, grid):
        self.F1 = F1
        self.F2 = F2
        self.grid = [[Fraction(c) for c in row] for row in grid]

    @classmethod
    def zero_grid(cls, F1, F2):
        return [[Fraction(0)] * F2.degree for _ in range(F1.degree)]

    @classmethod
    def one(cls, F1, F2):
        g = cls.zero_grid(F1, F2)
        g[0][0] = Fraction(1)
        return cls(F1, F2, g)

    @classmethod
    def gen1(cls, F1, F2):
        g = cls.zero_grid(F1, F2)
        if F1.degree == 1:
            g[0][0] = -F1.min_poly.coeff(0)
        else:
            g[1][0] = Fraction(1)
        return cls(F1, F2, g)

    @classmethod
    def gen2(cls, F1, F2):
        g = cls.zero_grid(F1, F2)
        if F2.degree == 1:
            g[0][0] = -F2.min_poly.coeff(0)
        else:
            g[0][1] = Fraction(1)
        return cls(F1, F2, g)

    def scale(self, c):
        c = Fraction(c)
        return _TensorElt(self.F1, self.F2,
                          [[c * v for v in row] for row in self.grid])

    def __add__(self, other):
        return _TensorElt(self.F1, self.F2, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.grid, other.grid)
        ])

    def __mul__(self, other):
        d1, d2 = self.F1.degree, self.F2.degree
        t1, t2 = self.F1._pow_table, self.F2._pow_table
        raw = [[Fraction(0)] * (2 * d2 - 1) for _ in range(2 * d1 - 1)]
        for i, row in enumerate(self.grid):
            for j, a in enumerate(row):
                if not a:
                    continue
                for u, orow in enumerate(other.grid):
                    for v, b in enumerate(orow):
                        if b:
                            raw[i + u][j + v] += a * b
        out = _TensorElt.zero_grid(self.F1, self.F2)
        for i in range(2 * d1 - 1):
            for j in range(2 * d2 - 1):
                c = raw[i][j]
                if not c:
                    continue
                r1 = t1[i]
                r2 = t2[j]
                for a in range(d1):
                    if r1[a]:
                        ca = c * r1[a]
                        for b in range(d2):
                            if r2[b]:
                                out[a][b] += ca * r2[b]
        return _TensorElt(self.F1, self.F2, out)

    def flat(self):
        return tuple(c for row in self.grid for c in row)
