"""Dense univariate polynomials over an exact field.

Coefficients live in any field object from ``fields`` (or a NumberField);
they are stored ascending with no trailing zeros.  Over a prime field
GF(p) they are plain ints in [0, p).  Over QQ they are integer numerators
over one denominator ``den`` > 0 with gcd(den, *coeffs) = 1, as Q(theta)
stores its elements (Cohen, GTM 138, 4.2), so sums and products are
integer convolutions with one gcd.  Every method computes on those ints;
``coeff``, ``leading`` and evaluation hand back field elements, so scalar
code sees GF(p) elements and Fractions either way.  The module also carries
the irreducibility test over the rationals: rational root test, then a
bounded Zassenhaus search (a Ben-Or certificate mod p, distinct- and
equal-degree factoring mod p, Hensel lifting, subset recombination) for
degrees up to 8, and Ben-Or certificates mod several small primes above
that.  The mod-p work runs on ``Polynomial``
over ``GF(p)``; the lifts mod p^k are int lists multiplied by the same
``int_poly_mul``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .fields import _COERCED, _power, GF, QQ, GFElement, PrimeField, RationalField, is_prime


class Polynomial:
    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field, coeffs):
        self.field = field
        self.den = 1
        if type(field) is PrimeField:
            p = field.p
            cs = [c % p if type(c) is int else field(c).v for c in coeffs]
        elif type(field) is RationalField:
            cs = [c if type(c) is int else field(c) for c in coeffs]
            # the lcm of reduced denominators leaves the numerators coprime to it
            den = self.den = lcm(*[c.denominator for c in cs])
            cs = [c.numerator * (den // c.denominator) for c in cs]
        else:
            cs = [field(c) if type(c) in _COERCED else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (field(c),))

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_one(self) -> bool:
        cs = self.coeffs
        return len(cs) == 1 and self.den == 1 and cs[0] == (
            1 if type(self.field) is PrimeField else self.field.one)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self.coeffs) - 1)

    def coeff(self, i: int):
        if not 0 <= i < len(self.coeffs):
            return self.field.zero
        c, field = self.coeffs[i], self.field
        if type(field) is PrimeField:
            return field(c)
        return Fraction(c, self.den) if type(field) is RationalField else c

    def order_at_zero(self) -> int:
        """Index of the first nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    # -- arithmetic ---------------------------------------------------------

    def _wrap(self, other):
        """other as a Polynomial over self.field, or None.

        A Polynomial over another field is a scalar to coerce, not a
        polynomial in the same variable: over k[q][x] a polynomial 1 + q
        over k becomes a constant.  The identity test comes first, so
        same-field operands pay nothing for this.
        """
        if isinstance(other, Polynomial) and (
                other.field is self.field or other.field == self.field):
            return other
        try:
            # the constructor coerces a plain scalar, over QQ an int to itself
            c = other if type(other) in _COERCED else self.field(other)
            return Polynomial(self.field, (c,))
        except (TypeError, ValueError):
            return None

    def _reflected(self, other, name):
        """other.name(self) when other is a Polynomial whose field takes self
        as a scalar, so ``c * f`` with c over k and f over k[q] is computed
        over k[q] like ``f * c``.  Python never tries the reflected method
        of an operand of the same type."""
        if isinstance(other, Polynomial) and other._wrap(self) is not None:
            return getattr(other, name)(self)
        return NotImplemented

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return self._reflected(other, "__radd__")
        a, b = self.coeffs, o.coeffs
        den = self.den
        if den != o.den:  # over QQ: both numerators over the lcm
            den = lcm(self.den, o.den)
            a, b = [c * (den // self.den) for c in a], [c * (den // o.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        if type(self.field) is RationalField:
            return _qq_reduced(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b):]), den)
        if type(self.field) is PrimeField:
            p = self.field.p
            return _stored(self.field, [(x + y) % p for x, y in zip(a, b)] + list(a[len(b):]))
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _stored(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        if type(self.field) is PrimeField:
            p = self.field.p
            return _stored(self.field, [-c % p for c in self.coeffs])
        return _stored(self.field, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return self._reflected(other, "__rsub__")
        if type(self.field) is PrimeField:
            p = self.field.p
            return _stored(self.field, [(x - y) % p for x, y in _zip_pad(self.coeffs, o.coeffs)])
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        field = self.field
        if type(field) is RationalField and type(other) in (int, Fraction):
            return _qq_reduced(field, [c * other.numerator for c in self.coeffs],
                               self.den * other.denominator)
        o = self._wrap(other)
        if o is None:
            return self._reflected(other, "__rmul__")
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Polynomial.zero(field)
        if type(field) is PrimeField:
            p = field.p
            return _stored(field, [c % p for c in int_poly_mul(a, b)])
        if type(field) is RationalField:
            # int_poly_mul by a constant operand is one scaled copy
            return _qq_reduced(field, int_poly_mul(a, b), self.den * o.den)
        # each output coefficient starts from its first product, not from
        # zero, which over k(q) would cost one more normalised addition
        out = [None] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                c = out[i + j]
                out[i + j] = ai * bj if c is None else c + ai * bj
        zero = field.zero
        return _stored(field, [zero if c is None else c for c in out])

    __rmul__ = __mul__

    def __pow__(self, e: int, mod: Polynomial | None = None):
        """self**e, or with a modulus self**e % mod (``pow(f, e, m)``)."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if mod is None:
            return _power(self, e, Polynomial.one(self.field), mul)
        return _power(self % mod, e, Polynomial.one(self.field) % mod, lambda a, b: a * b % mod)

    def __divmod__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Polynomial.zero(self.field), self
        if type(self.field) is PrimeField:
            return _divmod_mod_p(self.field, rem, o.coeffs)
        if type(self.field) is RationalField:
            return _divmod_qq(self.field, self, o)
        quot = [self.field.zero] * (dq + 1)
        inv_lead = self.field.one / o.leading()
        for k in range(dq, -1, -1):
            top = rem[k + o.degree()]
            if top:
                q = top * inv_lead
                quot[k] = q
                for j, c in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - q * c
        return _stored(self.field, quot), _stored(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        cs = self.coeffs
        if type(self.field) is PrimeField:
            p = self.field.p
            if cs[-1] == 1:
                return self
            inv = pow(cs[-1], -1, p)
            return _stored(self.field, [c * inv % p for c in cs])
        if type(self.field) is RationalField:
            if cs[-1] == self.den:
                return self
            ints = _int_primitive(self)  # over their leading one
            return _stored(self.field, ints, ints[-1])
        inv = self.field.one / self.leading()
        return _stored(self.field, [c * inv for c in cs])

    def derivative(self) -> "Polynomial":
        cs = [c * i for i, c in enumerate(self.coeffs)][1:]
        if type(self.field) is PrimeField:
            p = self.field.p
            return _stored(self.field, [c % p for c in cs])
        if type(self.field) is RationalField:
            return _qq_reduced(self.field, cs, self.den)
        return _stored(self.field, cs)

    def map_coefficients(self, fn, new_field) -> "Polynomial":
        if (fn is new_field and type(new_field) is PrimeField
                and type(self.field) is RationalField and self.den % new_field.p):
            # QQ to GF(p): the numerators times the inverse of the one den
            p = new_field.p
            inv = pow(self.den, -1, p)
            return _stored(new_field, [c * inv % p for c in self.coeffs])
        return Polynomial(new_field, [fn(c) for c in self._elements()])

    def _elements(self):
        """The coefficients as field elements."""
        if type(self.field) is PrimeField:
            return [self.field(c) for c in self.coeffs]
        if type(self.field) is RationalField:
            den = self.den
            return [Fraction(c, den) for c in self.coeffs]
        return self.coeffs

    def __call__(self, x):
        field = self.field
        if type(field) is PrimeField and type(x) in (int, GFElement):
            p, v, acc = field.p, field(x).v, 0
            for c in reversed(self.coeffs):
                acc = (acc * v + c) % p
            return GFElement(p, acc)
        if type(field) is RationalField and type(x) in (int, Fraction) and self.coeffs:
            # n/d as one integer Horner pass: sum c_i n^i d^(deg - i)
            n, d, acc, dk = x.numerator, x.denominator, 0, 1
            for c in reversed(self.coeffs):
                acc = acc * n + c * dk
                dk *= d
            return Fraction(acc, self.den * (dk // d))
        acc = None
        for c in reversed(self._elements()):
            acc = c if acc is None else acc * x + c
        return field.zero if acc is None else acc

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.field == other.field and self.coeffs == other.coeffs
                    and self.den == other.den)
        o = self._wrap(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs and self.den == o.den

    def __hash__(self):
        return hash((self.field, self.coeffs, self.den))

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        cs = self.coeffs if self.den == 1 else self._elements()
        parts = []
        for i in range(self.degree(), -1, -1):
            c = cs[i]
            if not c:
                continue
            s = _coeff_str(c)
            if i == 0:
                parts.append(s)
            elif i == 1:
                parts.append(f"{var}" if s == "1" else f"{s}*{var}")
            else:
                parts.append(f"{var}^{i}" if s == "1" else f"{s}*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return self.to_str()


def _stored(field, cs: list, den: int = 1) -> Polynomial:
    """The Polynomial over field with ascending coefficients cs already in
    stored form (ints in [0, p) over GF(p), numerators over den in lowest
    terms over QQ, field elements otherwise), as arithmetic on stored
    coefficients returns them: trailing zeros are dropped and nothing is
    coerced."""
    while cs and not cs[-1]:
        cs.pop()
    f = object.__new__(Polynomial)
    f.field = field
    f.coeffs = tuple(cs)
    f.den = den
    return f


def _qq_reduced(field, cs: list, den: int) -> Polynomial:
    """The Polynomial over QQ with integer numerators cs over den > 0, cut
    to lowest terms by one gcd."""
    while cs and not cs[-1]:
        cs.pop()
    g = gcd(den, *cs)
    if g > 1:
        cs, den = [c // g for c in cs], den // g
    return _stored(field, cs, den)


def _divmod_qq(field, a: Polynomial, b: Polynomial):
    """(quotient, remainder) of a by b over QQ, deg a >= deg b >= 0, on the
    numerators A of a and B of b.  The remainder of A by B is R/D, R integer:
    R <- lc(B) R - t x^k B, D <- lc(B) D cancels its top t with the quotient
    term (t/D) x^k, and R/D is cut to lowest terms.  Then a = (Q b.den/a.den)
    b + R/(D a.den)."""
    B = b.coeffs
    m, lc = len(B) - 1, B[-1]
    R, D = list(a.coeffs), 1
    terms = [(0, 1)] * (len(R) - m)
    for k in range(len(terms) - 1, -1, -1):
        t = R.pop()
        if t:
            R = [lc * r for r in R]
            for j in range(m):
                R[k + j] -= t * B[j]
            D *= lc
            terms[k] = (t, D)
            g = gcd(D, *R)
            if g > 1:
                R, D = [r // g for r in R], D // g
    L = lcm(*[d for _, d in terms])
    quot = _qq_reduced(field, [t * b.den * (L // d) for t, d in terms], L * a.den)
    if D < 0:
        R, D = [-r for r in R], -D
    return quot, _qq_reduced(field, R, D * a.den)


def _divmod_mod_p(field: PrimeField, rem: list, b: tuple):
    """(quotient, remainder) of the int list rem by b over field = GF(p),
    for deg rem >= deg b >= 0."""
    p, db = field.p, len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * (len(rem) - db)
    for k in range(len(quot) - 1, -1, -1):
        t = rem[k + db]
        if t:
            t = quot[k] = t * inv % p
            rem[k:k + db] = [(r - t * c) % p for r, c in zip(rem[k:k + db], b)]
    return _stored(field, quot), _stored(field, rem[:db])


def _coeff_str(c) -> str:
    """c as a factor of a term: in brackets when it prints as a sum, so a
    coefficient q + 1 over k(q) gives (q + 1)*x and not q + 1*x."""
    s = str(c)
    depth = 0
    for k, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and s.startswith(" + ", k):
            return f"({s})"
    return s


class PolynomialRing:
    """Ring object so matrices can carry polynomial entries (no division)."""

    def __init__(self, field, var: str = "x"):
        self.field = field
        self.var = var
        self.zero = Polynomial.zero(field)
        self.one = Polynomial.one(field)

    def gen(self):
        return Polynomial.x(self.field)

    def __call__(self, a):
        if isinstance(a, Polynomial):
            if a.field != self.field:
                raise ValueError("foreign coefficient field")
            return a
        return Polynomial.constant(self.field, a)

    def characteristic(self):
        return self.field.characteristic()

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and other.field == self.field
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("polyring", self.field, self.var))

    def __repr__(self):
        return f"{self.field}[{self.var}]"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; exact over any field.

    Remainders are renormalized to monic every step, which keeps rational
    coefficients from snowballing on desk-scale inputs.
    """
    if a.field != b.field:
        raise ValueError("mixed coefficient fields")
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


def poly_xgcd(a: Polynomial, b: Polynomial):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Polynomial.one(field), Polynomial.zero(field)
    t0, t1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = field.one / r0.leading()
    scale = Polynomial.constant(field, inv)
    return r0.monic(), s0 * scale, t0 * scale


def primitive_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """A primitive gcd of nonzero a and b over k[q][x] by the primitive
    pseudo-remainder sequence (von zur Gathen and Gerhard, Modern Computer
    Algebra, 6.12), which divides by content gcds over k[q] and never in k(q)."""
    a, b = _primitive(a), _primitive(b)
    if a.degree() < b.degree():
        a, b = b, a
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, _primitive(r) if r else r
    return a


def _primitive(f: Polynomial) -> Polynomial:
    """f over k[q][x] divided by the monic gcd of its coefficients."""
    c = reduce(poly_gcd, f.coeffs)
    return f if c.is_one() else Polynomial(f.field, [a // c for a in f.coeffs])


def _pseudo_remainder(a: Polynomial, b: Polynomial) -> Polynomial:
    """lc(b)^(deg a - deg b + 1) a mod b over k[q][x], without division."""
    r, db, lb = list(a.coeffs), b.degree(), b.leading()
    for k in range(len(r) - 1 - db, -1, -1):
        t = r[k + db]
        r = [c * lb for c in r[:k + db]]
        for j, c in enumerate(b.coeffs[:-1]):
            r[k + j] = r[k + j] - t * c
    return Polynomial(a.field, r)


def exact_quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    """a/b over k[q][x] when b divides a there."""
    r, db, lb = list(a.coeffs), b.degree(), b.leading()
    quot = [None] * (len(r) - db)
    for k in range(len(quot) - 1, -1, -1):
        t = quot[k] = r[k + db] // lb
        for j, c in enumerate(b.coeffs):
            r[k + j] = r[k + j] - t * c
    return Polynomial(a.field, quot)


# ---------------------------------------------------------------------------
# real-root counting (Sturm chains) over QQ
# ---------------------------------------------------------------------------


def squarefree_part(f: Polynomial) -> Polynomial:
    if f.field != QQ:
        raise ValueError("squarefree_part expects rational coefficients")
    if f.degree() <= 0:
        return f.monic() if not f.is_zero() else f
    g = poly_gcd(f, f.derivative())
    return (f // g).monic()


def sturm_chain(g: Polynomial) -> list[Polynomial]:
    chain = [g, g.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(values) -> int:
    signs = [(-1 if v < 0 else 1) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x: Fraction) -> int:
    return _variations([p(x) for p in chain])


def count_real_roots_closed(f: Polynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of f in the closed interval [a, b].

    The Sturm chain of f ends in gcd(f, f') up to a constant, so f is
    divided by it only when it is not constant: a squarefree f, such as an
    irreducible minimal polynomial, costs one chain and no gcd.  A root at
    an endpoint is divided out and counted apart, and the chain is then
    rebuilt.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() < 1:
        return 0
    chain = sturm_chain(f)
    g = f
    if chain[-1].degree() > 0:
        g, chain = f // chain[-1], None
    extra = 0
    for endpoint in (a, b):
        if g.degree() >= 1 and g(endpoint) == 0:
            g, chain = g // Polynomial(QQ, [-endpoint, Fraction(1)]), None
            extra += 1
    if g.degree() < 1:
        return extra
    if chain is None:
        chain = sturm_chain(g)
    return _variations_at(chain, a) - _variations_at(chain, b) + extra


def cauchy_bound(f: Polynomial) -> Fraction:
    """Strict bound M with every root magnitude < M."""
    return Fraction(1) + Fraction(max(map(abs, f.coeffs)), abs(f.coeffs[-1]))


def rational_roots(f: Polynomial) -> list[Fraction]:
    """All rational roots of f (f over QQ), each listed once."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    zf = _int_primitive(f)
    roots = []
    if zf[0] == 0:
        roots.append(Fraction(0))
        while zf[0] == 0:
            zf = zf[1:]
    a0, ad = abs(zf[0]), abs(zf[-1])
    for p in _divisors(a0):
        for q in _divisors(ad):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and f(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def isolate_real_roots(f: Polynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one per distinct real root of f.

    Rational roots come back as degenerate [r, r] points; the rest are
    open-interval enclosures found by Sturm bisection, so every returned
    interval isolates exactly one real root.
    """
    g = squarefree_part(f)
    if g.degree() < 1:
        return []
    points = []
    for r in rational_roots(g):
        points.append((r, r))
        g = (g // Polynomial(QQ, [-r, Fraction(1)])).monic()
    out = list(points)
    if g.degree() >= 1:
        chain = sturm_chain(g)
        bound = cauchy_bound(g)
        stack = [(-bound, bound, _variations_at(chain, -bound) - _variations_at(chain, bound))]
        while stack:
            lo, hi, n = stack.pop()
            if n == 0:
                continue
            if n == 1:
                out.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            vm = _variations_at(chain, mid)
            nlo = _variations_at(chain, lo) - vm
            stack.append((lo, mid, nlo))
            stack.append((mid, hi, n - nlo))
    return sorted(out, key=lambda iv: iv[0] + iv[1])


def refine_real_root(g: Polynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval by bisection until hi - lo <= width."""
    if lo == hi:
        return lo, hi
    slo = 1 if g(lo) > 0 else -1
    while hi - lo > width:
        mid = (lo + hi) / 2
        vm = g(mid)
        if vm == 0:
            # landed exactly on the root (possible for non-dyadic inputs)
            return mid, mid
        if (1 if vm > 0 else -1) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# irreducibility over QQ
# ---------------------------------------------------------------------------


class IrreducibilityUndecided(ValueError):
    """Degree exceeds the bounded factorization fallback."""


def _int_primitive(f: Polynomial) -> list[int]:
    """The numerators of a rational polynomial over their content, lc > 0."""
    g = gcd(*f.coeffs) if f.coeffs[-1] > 0 else -gcd(*f.coeffs)
    return [c // g for c in f.coeffs]


def is_irreducible_q(f: Polynomial) -> bool:
    """Exact irreducibility over the rationals.

    Strategy: rational root test (complete through degree 3), then through
    degree 8 the bounded Zassenhaus search, whose first step is a modular
    certificate.  Above degree 8 only certificates at several small primes
    decide; without one the test raises IrreducibilityUndecided.
    """
    if f.field != QQ:
        raise ValueError("irreducibility test expects rational coefficients")
    d = f.degree()
    if d <= 0:
        raise ValueError("constants are neither reducible nor irreducible here")
    if d == 1:
        return True
    if rational_roots(f):
        return False
    if d <= 3:
        return True
    if poly_gcd(f, f.derivative()).degree() > 0:
        return False
    zf = _int_primitive(f)
    if d <= 8:
        return _zassenhaus_irreducible(zf)
    for fp in itertools.islice(_good_reductions(zf, 200), 10):
        if _is_irreducible_mod_p(fp):
            return True
    raise IrreducibilityUndecided(f"degree {d} exceeds the bounded factorization fallback")


# -- factoring over GF(p) ---------------------------------------------------


def _good_reductions(zf: list[int], below: int):
    """Monic reductions of zf mod each odd prime p < below at which the
    degree is kept and the reduction stays squarefree."""
    for p in range(3, below, 2):
        if is_prime(p) and zf[-1] % p:
            fp = Polynomial(GF(p), zf).monic()
            if poly_gcd(fp, fp.derivative()).degree() == 0:
                yield fp


def _distinct_degree(f: Polynomial):
    """Distinct-degree factorization of a monic f over GF(p).

    Yields (k, h) with h the product of the degree-k irreducible factors of
    f (f squarefree); the cofactor left once 2k exceeds its degree is
    irreducible and comes last, with k its degree.
    """
    x = Polynomial.x(f.field)
    p = f.field.characteristic()
    g, xq, k = f, x, 0
    while g.degree() >= 2 * (k + 1):
        k += 1
        xq = pow(xq, p, g)
        h = poly_gcd(xq - x, g)
        if h.degree() > 0:
            yield k, h
            g = g // h
            xq = xq % g
    if g.degree() > 0:
        yield g.degree(), g


def _is_irreducible_mod_p(f: Polynomial) -> bool:
    """Ben-Or test for a monic f of degree >= 1 over GF(p): f is irreducible
    iff gcd(x^(p^k) - x, f) = 1 for every k <= deg f / 2."""
    return next(_distinct_degree(f))[0] == f.degree()


def _factor_mod_p(steps, rng: random.Random) -> list[Polynomial]:
    """Monic irreducible factors of a monic squarefree f over GF(p), p odd,
    from the (k, h) pairs of its distinct-degree factorization."""
    return [g for k, h in steps for g in _split_equal_degree(h, k, rng)]


def _split_equal_degree(h: Polynomial, k: int, rng: random.Random):
    """Cantor-Zassenhaus splitting of a product of degree-k irreducibles."""
    if h.degree() == k:
        return [h]
    F = h.field
    p = F.characteristic()
    e = (p ** k - 1) // 2
    while True:
        a = Polynomial(F, [rng.randrange(p) for _ in range(h.degree())])
        for d in (poly_gcd(a, h), poly_gcd(pow(a, e, h) - 1, h)):
            if 0 < d.degree() < h.degree():
                return (_split_equal_degree(d, k, rng)
                        + _split_equal_degree(h // d, k, rng))


# -- Hensel lifting and recombination ---------------------------------------


def _hensel_pair(F: list[int], g: Polynomial, h: Polynomial, pk: int):
    """Lift F = g*h from mod p to mod pk = p^K.

    F is a monic integer list; g and h are monic and coprime over GF(p).
    Each step solves g*dh + h*dg = E over GF(p); the lifts stay integer
    lists, since Z/p^k is not a field.
    """
    Fp = g.field
    p = Fp.characteristic()
    _, s, t = poly_xgcd(g, h)
    G, H = list(g.coeffs), list(h.coeffs)
    modulus = p
    while modulus < pk:
        step = modulus * p
        prod = int_poly_mul(G, H)
        E = Polynomial(Fp, [(fc - pc) // modulus for fc, pc in _zip_pad(F, prod)])
        dg, dh = (t * E) % g, (s * E) % h
        G = [(a + modulus * b) % step for a, b in _zip_pad(G, dg.coeffs)]
        H = [(a + modulus * b) % step for a, b in _zip_pad(H, dh.coeffs)]
        modulus = step
    return G, H


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def int_poly_mul(a, b) -> list[int]:
    """Product of two ascending int coefficient sequences, unreduced.

    Schoolbook, one shifted multiple of the longer operand per term of the
    shorter: the p-curvature kernel multiplies long polynomials by entries
    of degree at most 2, where Kronecker substitution loses.
    """
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            out[j:j + n] = [o + bj * c for o, c in zip(out[j:j + n], a)]
    return out


def _hensel_tree(F: list[int], factors: list[Polynomial], pk: int):
    """Lift pairwise-coprime monic factors over GF(p) of monic F to mod pk."""
    if len(factors) == 1:
        return [[c % pk for c in F]]
    half = len(factors) // 2
    left, right = factors[:half], factors[half:]
    one = Polynomial.one(factors[0].field)
    G, H = _hensel_pair(F, math.prod(left, start=one),
                        math.prod(right, start=one), pk)
    return _hensel_tree(G, left, pk) + _hensel_tree(H, right, pk)


def _zassenhaus_irreducible(zf: list[int]) -> bool:
    d = len(zf) - 1
    lc = zf[-1]
    fp = next(_good_reductions(zf, 10000), None)
    if fp is None:  # disc has finitely many prime factors; unreachable
        raise IrreducibilityUndecided("no usable prime found")
    steps = _distinct_degree(fp)
    first = next(steps)
    if first[0] == d:           # the certificate of _is_irreducible_mod_p
        return True
    factors = _factor_mod_p(itertools.chain([first], steps), random.Random(0x5EED))
    p = fp.field.characteristic()
    norm2 = math.isqrt(sum(c * c for c in zf)) + 1
    bound = 2 * (2 ** d) * norm2 * abs(lc)
    pk = p
    while pk <= 2 * bound:
        pk *= p
    lc_inv = pow(lc % pk, -1, pk)
    F = [c * lc_inv % pk for c in zf]
    lifted = _hensel_tree(F, factors, pk)
    fq = Polynomial(QQ, zf)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = [lc % pk]
            for i in subset:
                g = [c % pk for c in int_poly_mul(g, lifted[i])]
            g = [c - pk if c > pk // 2 else c for c in g]
            while g and g[-1] == 0:
                g.pop()
            if len(g) <= 1:
                continue
            cont = math.gcd(*g)
            if Polynomial(QQ, [c // cont for c in g]).divides(fq):
                return False
    return True
