"""Truncated Laurent series in one variable over an exact coefficient field.

A series stores the exponent window it is known on: coefficients for
exponents [offset, offset + prec).  The ``exact`` flag records that every
coefficient beyond the stored ones is zero (true for series built from
polynomials), which is what lets a vanishing series report valuation +oo
instead of "undecided".  Precision propagates pessimistically through
arithmetic: sums are known where both operands are, products on the
correspondingly shifted window.
"""

from __future__ import annotations

import math

from .ratfunc import RationalFunction

INF = math.inf


class ValuationUndecided(ValueError):
    """All known coefficients vanish but the precision window is finite."""


class TruncatedLaurentSeries:
    __slots__ = ("field", "var", "offset", "coeffs", "prec", "exact")

    def __init__(self, field, var, offset, coeffs, prec=None, exact=False):
        coeffs = [field(c) if isinstance(c, int) else c for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise ValueError("negative precision")
        if not exact:
            coeffs = coeffs[:prec]
        end = offset + prec
        k = 0
        while k < len(coeffs) and not coeffs[k]:
            k += 1
        offset += k
        coeffs = coeffs[k:]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            offset = 0 if exact else end
        self.field = field
        self.var = var
        self.offset = offset
        self.coeffs = tuple(coeffs)
        self.prec = len(coeffs) if exact else end - offset
        self.exact = exact

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field, var, exact=True, known_to=0):
        return cls(field, var, known_to, [], prec=0, exact=exact)

    @classmethod
    def from_rational(cls, f: RationalFunction, prec: int):
        """Expand a rational function in its own variable around 0.

        Exact when the denominator is a pure monomial (the expansion
        terminates); otherwise carries ``prec`` known coefficients starting
        at the true valuation.
        """
        field = f.field.base
        var = f.field.var
        if f.is_zero():
            return cls.zero(field, var, exact=True)
        a = f.num.order_at_zero()
        b = f.den.order_at_zero()
        n0 = [f.num.coeff(i) for i in range(a, f.num.degree() + 1)]
        d0 = [f.den.coeff(i) for i in range(b, f.den.degree() + 1)]
        val = a - b
        if len(d0) == 1:
            inv = field.one / d0[0]
            return cls(field, var, val, [c * inv for c in n0], prec=len(n0), exact=True)
        inv0 = field.one / d0[0]
        out = []
        for k in range(prec):
            s = n0[k] if k < len(n0) else field.zero
            for j in range(max(0, k - len(d0) + 1), k):
                s = s - out[j] * d0[k - j]
            out.append(s * inv0)
        return cls(field, var, val, out, prec=prec, exact=False)

    # -- knowledge window ---------------------------------------------------

    def known_end(self):
        """First exponent whose coefficient is unknown (INF when exact)."""
        return INF if self.exact else self.offset + self.prec

    def coeff(self, e: int):
        if e - self.offset < len(self.coeffs) and e >= self.offset:
            return self.coeffs[e - self.offset]
        if self.exact or e < self.known_end():
            return self.field.zero
        raise ValuationUndecided(f"coefficient of {self.var}^{e} unknown")

    def is_known_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Order of vanishing: offset of the first nonzero coefficient,
        +oo for the exact zero series, ValuationUndecided otherwise."""
        if self.coeffs:
            return self.offset
        if self.exact:
            return INF
        raise ValuationUndecided(
            f"series vanishes through {self.var}^{self.offset - 1} but the "
            "window is finite"
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "TruncatedLaurentSeries"):
        if self.field != other.field or self.var != other.var:
            raise ValueError("mixed series domains")

    def __add__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        self._check(other)
        end = min(self.known_end(), other.known_end())
        exact = self.exact and other.exact
        lo = min(self.offset, other.offset, end)
        if end == INF:
            hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        else:
            hi = int(end)
        lo = int(min(lo, hi))
        out = [self.coeff(e) + other.coeff(e) for e in range(lo, hi)]
        prec = len(out) if exact else int(end) - lo
        return TruncatedLaurentSeries(self.field, self.var, lo, out, prec=prec, exact=exact)

    def __neg__(self):
        return TruncatedLaurentSeries(
            self.field, self.var, self.offset, [-c for c in self.coeffs],
            prec=self.prec, exact=self.exact,
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return self.scale(other)
        self._check(other)
        if (self.exact and self.is_known_zero()) or (other.exact and other.is_known_zero()):
            return TruncatedLaurentSeries.zero(self.field, self.var, exact=True)
        lo = self.offset + other.offset
        end = min(self.known_end() + other.offset, other.known_end() + self.offset)
        if end == INF:
            n = max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        else:
            n = max(int(end) - lo, 0)
        out = [self.field.zero] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + a * b
        exact = self.exact and other.exact
        return TruncatedLaurentSeries(self.field, self.var, lo, out, prec=n, exact=exact)

    def scale(self, c):
        """Multiply by a coefficient-field scalar."""
        c = self.field(c) if isinstance(c, int) else c
        return TruncatedLaurentSeries(
            self.field, self.var, self.offset, [a * c for a in self.coeffs],
            prec=self.prec, exact=self.exact,
        )

    def shift(self, k: int):
        """Multiply by var^k."""
        return TruncatedLaurentSeries(
            self.field, self.var, self.offset + k, list(self.coeffs),
            prec=self.prec, exact=self.exact,
        )

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        if self.field != other.field or self.var != other.var:
            return False
        return (
            self.offset == other.offset
            and self.coeffs == other.coeffs
            and self.known_end() == other.known_end()
        )

    def __hash__(self):
        return hash((self.var, self.offset, self.coeffs, self.known_end()))

    def __repr__(self):
        tail = "" if self.exact else f" + O({self.var}^{self.offset + self.prec})"
        if not self.coeffs:
            return f"0{tail}"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.offset + i
            terms.append(f"({c})" if e == 0 else f"({c})*{self.var}^{e}")
        return " + ".join(terms) + tail
