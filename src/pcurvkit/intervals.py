"""Rational interval and box arithmetic with certified root enclosures.

Everything here is exact: intervals have Fraction endpoints, and every
operation returns an interval guaranteed to contain the true result.  Square
roots are enclosed via integer ``isqrt`` on scaled numerators, so no floating
point enters any bound.  Floats appear only as *seeds* for the complex root
finder; the seeds are then certified (or rejected) by an interval Newton
containment test.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .poly import Polynomial, squarefree_part, isolate_real_roots, refine_real_root


class PrecisionExceeded(RuntimeError):
    """A certification or refinement loop hit its precision cap."""


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def sqrt_lower(x: Fraction, bits: int) -> Fraction:
    """Dyadic lower bound on sqrt(x) for x >= 0."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = (x.numerator * scale * scale) // x.denominator
    return Fraction(isqrt(n), scale)


def sqrt_upper(x: Fraction, bits: int) -> Fraction:
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = (x.numerator * scale * scale) // x.denominator
    return Fraction(isqrt(n) + 1, scale)


class RatInterval:
    """Closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x):
        return cls(Fraction(x))

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _as_interval(other).__sub__(self)

    def __mul__(self, other):
        other = _as_interval(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(cands), max(cands))

    def __rmul__(self, other):
        return self.__mul__(other)

    def square(self):
        if self.lo <= 0 <= self.hi:
            return RatInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))
        a, b = self.lo * self.lo, self.hi * self.hi
        return RatInterval(min(a, b), max(a, b))

    def recip(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval reciprocal across zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def strictly_inside(self, other: "RatInterval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    def round_out(self, bits: int) -> "RatInterval":
        return RatInterval(dyadic_floor(self.lo, bits), dyadic_ceil(self.hi, bits))

    def sqrt(self, bits: int = 64) -> "RatInterval":
        """Enclosure of sqrt over a nonnegative interval."""
        lo = max(self.lo, Fraction(0))
        if self.hi < 0:
            raise ValueError("sqrt of negative interval")
        return RatInterval(sqrt_lower(lo, bits), sqrt_upper(self.hi, bits))

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def _as_interval(x) -> RatInterval:
    if isinstance(x, RatInterval):
        return x
    return RatInterval(Fraction(x))


class BoxC:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = _as_interval(re)
        self.im = _as_interval(im)

    @classmethod
    def point(cls, re, im=0):
        return cls(RatInterval.point(re), RatInterval.point(im))

    def mid(self):
        return (self.re.mid(), self.im.mid())

    def width(self) -> Fraction:
        return max(self.re.width(), self.im.width())

    def __add__(self, other):
        other = _as_box(other)
        return BoxC(self.re + other.re, self.im + other.im)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return BoxC(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_box(other)
        return BoxC(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_box(other).__sub__(self)

    def __mul__(self, other):
        other = _as_box(other)
        return BoxC(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = _as_box(other)
        norm = other.re.square() + other.im.square()
        inv = norm.recip()
        conj = BoxC(other.re, -other.im)
        prod = self * conj
        return BoxC(prod.re * inv, prod.im * inv)

    def conjugate(self):
        return BoxC(self.re, -self.im)

    def abs_square(self) -> RatInterval:
        return self.re.square() + self.im.square()

    def abs_interval(self, bits: int = 64) -> RatInterval:
        return self.abs_square().sqrt(bits)

    def strictly_inside(self, other: "BoxC") -> bool:
        return self.re.strictly_inside(other.re) and self.im.strictly_inside(other.im)

    def intersect(self, other: "BoxC") -> "BoxC":
        return BoxC(self.re.intersect(other.re), self.im.intersect(other.im))

    def round_out(self, bits: int) -> "BoxC":
        return BoxC(self.re.round_out(bits), self.im.round_out(bits))

    def __repr__(self):
        return f"({self.re} + {self.im}*i)"


def _as_box(x) -> BoxC:
    if isinstance(x, BoxC):
        return x
    if isinstance(x, RatInterval):
        return BoxC(x, RatInterval.point(0))
    return BoxC.point(Fraction(x))


def eval_poly_interval(coeffs: list[Fraction], x: RatInterval) -> RatInterval:
    """Horner evaluation of a rational-coefficient polynomial on an interval."""
    acc = RatInterval.point(0)
    for c in reversed(coeffs):
        acc = acc * x + RatInterval.point(c)
    return acc


def eval_poly_box(coeffs: list[Fraction], z: BoxC) -> BoxC:
    """Horner evaluation of a rational-coefficient polynomial on a box."""
    acc = BoxC.point(Fraction(0))
    for c in reversed(coeffs):
        acc = acc * z + BoxC.point(c)
    return acc


def _durand_kerner(coeffs: list[float], iters: int = 400) -> list[complex]:
    """Float approximations to all roots; monic input coefficients ascending."""
    n = len(coeffs) - 1
    lead = coeffs[-1]
    cs = [c / lead for c in coeffs]

    def f(z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(iters):
        moved = 0.0
        new = []
        for i, z in enumerate(zs):
            d = 1.0 + 0j
            for j, w in enumerate(zs):
                if i != j:
                    d *= (z - w)
            step = f(z) / d if d != 0 else 0.05 + 0.05j
            new.append(z - step)
            moved = max(moved, abs(step))
        zs = new
        if moved < 1e-14:
            break
    return zs


def _frac_from_float(x: float, bits: int = 60) -> Fraction:
    return Fraction(x).limit_denominator(1 << bits)


def newton_refine_box(f: Polynomial, df: Polynomial, box: BoxC,
                      rounding_bits: int = 256) -> BoxC | None:
    """One certified interval Newton step.

    Returns a box proven to contain exactly one root of f, strictly inside
    the input, or None when the containment test fails at this width.
    """
    fc = [f.coeff(i) for i in range(f.degree() + 1)]
    dfc = [df.coeff(i) for i in range(df.degree() + 1)]
    mre, mim = box.mid()
    m = BoxC.point(mre, mim)
    deriv = eval_poly_box(dfc, box)
    norm = deriv.abs_square()
    if norm.contains_zero():
        return None
    val = eval_poly_box(fc, m)
    candidate = (m - val / deriv).round_out(rounding_bits)
    if candidate.strictly_inside(box):
        return candidate.intersect(box)
    return None


def certify_complex_root(f: Polynomial, seed: complex,
                         attempts: int = 40) -> BoxC | None:
    """Grow/shrink a box around a float seed until interval Newton certifies it."""
    df = f.derivative()
    re0 = _frac_from_float(seed.real)
    im0 = _frac_from_float(seed.imag)
    delta = Fraction(1, 1 << 12)
    for _ in range(attempts):
        box = BoxC(RatInterval(re0 - delta, re0 + delta),
                   RatInterval(im0 - delta, im0 + delta))
        out = newton_refine_box(f, df, box)
        if out is not None:
            return out
        delta = delta / 4
        if delta < Fraction(1, 1 << 200):
            break
    return None


def refine_box(f: Polynomial, box: BoxC, target_width: Fraction,
               max_steps: int = 200) -> BoxC:
    """Iterate interval Newton until the enclosure is narrower than target."""
    df = f.derivative()
    current = box
    for _ in range(max_steps):
        if current.width() <= target_width:
            return current
        nxt = newton_refine_box(f, df, current)
        if nxt is None or nxt.width() >= current.width():
            mre, mim = current.mid()
            w = current.width() / 4
            shrunk = BoxC(RatInterval(mre - w, mre + w),
                          RatInterval(mim - w, mim + w))
            nxt = newton_refine_box(f, df, shrunk)
            if nxt is None:
                raise PrecisionExceeded(
                    f"box refinement stalled at width {float(current.width()):.3g}")
        current = nxt
    if current.width() <= target_width:
        return current
    raise PrecisionExceeded("box refinement did not reach target width")


def certified_root_enclosures(f: Polynomial):
    """All roots of a rational polynomial as certified enclosures.

    Returns (real_parts, complex_parts):
      real_parts    list of RatInterval, ascending, one per real root
      complex_parts list of BoxC in the upper half plane, one per conjugate
                    pair, sorted by (re.mid, im.mid)

    Multiplicities are dropped (the squarefree part is what gets enclosed).
    Raises PrecisionExceeded when the float seeds cannot be certified, which
    in practice means pathological root clustering.
    """
    g = squarefree_part(f)
    deg = g.degree()
    if deg <= 0:
        return [], []
    reals = []
    for lo, hi in isolate_real_roots(g):
        lo, hi = refine_real_root(g, lo, hi, Fraction(1, 1 << 16))
        reals.append(RatInterval(lo, hi))
    n_pairs, rem = divmod(deg - len(reals), 2)
    if rem:
        raise PrecisionExceeded("real root count mismatch")
    if n_pairs == 0:
        return reals, []

    floats = [float(g.coeff(i)) for i in range(g.degree() + 1)]
    boxes = []
    seeds = _durand_kerner(floats)
    upper = sorted((z for z in seeds if z.imag > 1e-9),
                   key=lambda z: (z.real, z.imag))
    for z in upper:
        box = certify_complex_root(g, z)
        if box is not None and box.im.lo > 0:
            boxes.append(box)
    if len(boxes) != n_pairs:
        raise PrecisionExceeded(
            f"certified {len(boxes)} conjugate pairs, expected {n_pairs}")
    boxes.sort(key=lambda b: (b.re.mid(), b.im.mid()))
    return reals, boxes
