"""Exact coefficient fields and the small protocol the rest of the package uses.

A *field object* is a lightweight value with three capabilities:

    field(x)              coerce an int / Fraction / element into the field
    field.zero, field.one distinguished elements
    field.characteristic()

``zero`` and ``one`` are attributes built once with the field object and
shared by every caller, as in ``PolynomialRing``, ``FunctionField`` and
``NumberField``.  Sharing is safe because elements are immutable and
hashable: nothing changes an element once it is built.  Rationals are
plain ``fractions.Fraction`` (numerator/denominator already kept coprime
with a positive denominator, which is exactly the normal form needed here).
"""

from __future__ import annotations

from fractions import Fraction


# plain Python scalars that Polynomial and Matrix coerce into their field;
# matched by exact type, since an isinstance test against Fraction's
# abstract base class is slow for every other entry type
_COERCED = frozenset((int, bool, Fraction, str))


class ReductionError(ValueError):
    """Raised when a value cannot be reduced modulo the requested prime."""


# deterministic Miller-Rabin witnesses; sound for every n < 3.3 * 10^24,
# far beyond anything this package scans
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _power(x, e: int, one, mul):
    """x**e for an integer e >= 0 by square-and-multiply: the one power
    loop of the package, over any product mul with identity one.  The last
    square, which nothing would read, is skipped."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


class RationalField:
    """The rationals; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, a=0, b=None):
        if b is not None:
            return Fraction(a, b)
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, str):
            return Fraction(a)
        raise TypeError(f"cannot coerce {a!r} into QQ")

    def characteristic(self) -> int:
        return 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class GFElement:
    """An element of a prime field, stored as a reduced residue.

    This is the GF(p) scalar; a Polynomial over GF(p) stores its
    coefficients as plain ints instead and hands out GFElements only from
    coeff, leading and evaluation.
    """

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.p, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.p, self.v * pow(w, -1, self.p))

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return GFElement(self.p, w * pow(self.v, -1, self.p))

    def __pow__(self, e: int):
        if e < 0 and self.v == 0:
            raise ZeroDivisionError(f"negative power of zero in GF({self.p})")
        return GFElement(self.p, pow(self.v, e, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class PrimeField:
    """GF(p) for a prime p.  Coercion of a Fraction fails when p divides
    the denominator (the caller treats that as a bad prime)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = GFElement(p, 0)
        self.one = GFElement(p, 1)

    def __call__(self, a=0) -> GFElement:
        p = self.p
        if isinstance(a, GFElement):
            if a.p != p:
                raise ValueError("mixed moduli")
            return a
        if isinstance(a, int):
            return GFElement(p, a)
        if isinstance(a, Fraction):
            if a.denominator % p == 0:
                raise ReductionError(f"denominator of {a} vanishes mod {p}")
            return GFElement(p, a.numerator * pow(a.denominator % p, -1, p))
        raise TypeError(f"cannot coerce {a!r} into GF({p})")

    def characteristic(self) -> int:
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    return PrimeField(p)
