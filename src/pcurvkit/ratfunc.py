"""Fields of rational functions k(x) over an exact base field.

A RationalFunction keeps a coprime numerator/denominator pair with monic
denominator, so equality and the exact zero test are structural.  Function
fields nest: the base field of one FunctionField may itself be another
FunctionField, which is how entries rational in two variables (say q and
x) are represented as elements of k(q)(x).

Over such a tower, lowest terms are taken over k[q][x] by the primitive
pseudo-remainder sequence (see lowest_terms), never by Euclid over k(q)[x].
"""

from __future__ import annotations

from .fields import PrimeField, ReductionError
from .poly import Polynomial, PolynomialRing, exact_quotient, poly_gcd, primitive_gcd


class FunctionField:
    """k(var) for a base field k."""

    def __init__(self, base, var: str = "x"):
        self.base = base
        self.var = var
        one = Polynomial.one(base)
        self.zero = RationalFunction(self, Polynomial.zero(base), one, normalize=False)
        self.one = RationalFunction(self, one, one, normalize=False)

    def gen(self) -> "RationalFunction":
        return RationalFunction(self, Polynomial.x(self.base), self.one.den)

    def polynomial(self, coeffs) -> Polynomial:
        return Polynomial(self.base, coeffs)

    def from_poly(self, p: Polynomial) -> "RationalFunction":
        return RationalFunction(self, p, self.one.den)

    def __call__(self, a) -> "RationalFunction":
        if isinstance(a, RationalFunction) and a.field == self:
            return a
        if isinstance(a, Polynomial):
            if a.field == self.base:
                return self.from_poly(a)
            raise ValueError("polynomial over a foreign coefficient field")
        # a scalar, or an element of the base field tower, as a constant
        return RationalFunction(
            self, Polynomial.constant(self.base, self.base(a)), self.one.den)

    def characteristic(self) -> int:
        return self.base.characteristic()

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("ff", self.base, self.var))

    def __repr__(self):
        return f"{self.base}({self.var})"


class RationalFunction:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: FunctionField, num: Polynomial, den: Polynomial, normalize=True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if normalize:
            if num.is_zero():
                den = field.one.den
            elif den.degree() > 0 and isinstance(field.base, FunctionField):
                f = lowest_terms(field, *clear_coefficients(field.base, [num, den])[1])
                num, den = f.num, f.den
            else:
                # a gcd with a nonzero constant is 1, so only a
                # nonconstant denominator pays for one
                if den.degree() > 0:
                    g = poly_gcd(num, den)
                    if g.degree() > 0:
                        num = num // g
                        den = den // g
                lead = den.leading()
                if lead != field.base.one:
                    lead_inv = field.base.one / lead
                    num = num * lead_inv
                    den = den * lead_inv
        self.field = field
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic -----------------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, RationalFunction) and other.field == self.field:
            return other
        if isinstance(other, RationalFunction):
            return None
        try:
            return self.field(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self.field, self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.field, -self.num, self.den, normalize=False)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.field, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return (self.field.one / self) ** (-e)
        return RationalFunction(self.field, self.num ** e, self.den ** e, normalize=False)

    def derivative(self) -> "RationalFunction":
        """Formal d/dvar by the quotient rule."""
        n, d = self.num, self.den
        return RationalFunction(self.field, n.derivative() * d - n * d.derivative(), d * d)

    def map_coefficients(self, fn, new_field: FunctionField) -> "RationalFunction":
        """Apply fn to every numerator and denominator coefficient.

        Raises ReductionError (via fn) when a coefficient cannot be mapped,
        or when the denominator collapses to zero in the new field.
        """
        num = self.num.map_coefficients(fn, new_field.base)
        den = self.den.map_coefficients(fn, new_field.base)
        if den.is_zero():
            raise ReductionError(f"denominator of {self} vanishes under the map")
        return RationalFunction(new_field, num, den)

    def __call__(self, x):
        num = self.num(x)
        den = self.den(x)
        return num / den

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def to_str(self) -> str:
        var = self.field.var
        ns = self.num.to_str(var)
        if self.den.is_one():
            return ns
        ds = self.den.to_str(var)
        return f"({ns})/({ds})"

    def __repr__(self):
        return self.to_str()


def common_denominator(fs) -> Polynomial:
    """Monic lcm of the denominators of a nonempty iterable of rational
    functions.  Denominators are monic, so those of degree 0 are 1 and
    skipped, as is one equal to the lcm so far; while the lcm is 1, the
    next nonconstant denominator is the lcm."""
    fs = iter(fs)
    h = next(fs).den
    for f in fs:
        d = f.den
        if d.degree() > 0 and d != h:
            h = d if h.degree() == 0 else h // poly_gcd(h, d) * d
    return h


def cleared(f: RationalFunction, h: Polynomial) -> Polynomial:
    """h*f as a polynomial, for h a multiple of the denominator of f."""
    if f.den == h:
        return f.num
    # a monic denominator of degree 0 is 1
    return f.num * h if f.den.degree() == 0 else f.num * (h // f.den)


def clear_coefficients(base, polys):
    """(c, [c*f for f in polys]): polynomials over base moved to a ring
    without denominators.

    Over a tower base = k(q), c is the monic lcm of the q-denominators of
    every coefficient, and each c*f is returned over k[q], as a Polynomial
    whose coefficients are Polynomials over k: arithmetic on it makes no
    gcd.  Over any other base nothing is cleared, c = 1 and the polynomials
    come back as they are.  c is returned as a constant polynomial of the
    same ring, so it multiplies them directly.
    """
    if not isinstance(base, FunctionField):
        return Polynomial.one(base), list(polys)
    c = common_denominator([base.one] + [a for f in polys for a in f.coeffs])
    ring = PolynomialRing(base.base, base.var)
    polys = [Polynomial(ring, [cleared(a, c) for a in f.coeffs]) for f in polys]
    return Polynomial(ring, (c,)), polys


def lowest_terms(field: FunctionField, num: Polynomial, den: Polynomial) -> RationalFunction:
    """num/den in lowest terms, for num and den over the ring of
    clear_coefficients(field.base, ...).  Over a tower both are divided by
    their primitive gcd over k[q][x], and then every coefficient by the
    leading coefficient of den."""
    base = field.base
    if not isinstance(base, FunctionField):
        return RationalFunction(field, num, den)
    if not num:
        return field.zero
    g = primitive_gcd(num, den)
    if g.degree() > 0:
        num, den = exact_quotient(num, g), exact_quotient(den, g)
    lc = den.leading()
    num, den = (Polynomial(base, [RationalFunction(base, c, lc) for c in f.coeffs])
                for f in (num, den))
    return RationalFunction(field, num, den, normalize=False)


def reduce_rational_mod_p(f: RationalFunction, target: FunctionField) -> RationalFunction:
    """Reduce a rational function over QQ(x) modulo p into GF(p)(x).

    Raises ReductionError when p divides a coefficient denominator or the
    reduced denominator polynomial vanishes.
    """
    base = target.base
    if not isinstance(base, PrimeField):
        raise ValueError("target must be a prime-field function field")
    return f.map_coefficients(base, target)
