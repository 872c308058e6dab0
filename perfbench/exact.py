"""Exact arithmetic for building benchmark inputs and checking answers.

Deliberately independent of pcurvkit: the inputs a run feeds the program
and the checks applied to its reports must not change when the program
does.  Polynomials are lists of Fractions, lowest degree first; number
field elements are coordinate tuples in the power basis of Q[t]/(m(t)).
"""

from __future__ import annotations

from fractions import Fraction


def frac_str(c) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


# -- polynomials over Q ---------------------------------------------------


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pneg(a):
    return [-c for c in a]


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ptrim(out)


def pderiv(a):
    return ptrim([c * i for i, c in enumerate(a)][1:])


def pstr(a, var="x") -> str:
    """An expression string pcurvkit's spec parser reads back exactly."""
    terms = [f"({frac_str(c)})*{var}^{i}" if i else f"({frac_str(c)})"
             for i, c in enumerate(a) if c]
    return "+".join(terms) if terms else "0"


class PolyRing:
    """Q[x] as a ring for the matrix helpers below."""

    zero = ()
    one = (Fraction(1),)

    @staticmethod
    def add(a, b):
        return tuple(padd(a, b))

    @staticmethod
    def mul(a, b):
        return tuple(pmul(a, b))

    @staticmethod
    def neg(a):
        return tuple(pneg(a))


# -- number fields ----------------------------------------------------------


class NumberFieldQ:
    """Q[t]/(m(t)) for a monic m given by its coefficients, constant first."""

    def __init__(self, min_poly):
        self.min_poly = [Fraction(c) for c in min_poly]
        if self.min_poly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.degree = len(self.min_poly) - 1
        self.zero = (Fraction(0),) * self.degree
        self.one = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)

    def elem(self, coords):
        coords = [Fraction(c) for c in coords]
        return tuple(coords + [Fraction(0)] * (self.degree - len(coords)))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        d = self.degree
        for k in range(len(prod) - 1, d - 1, -1):
            top = prod[k]
            if top:
                for i in range(d):
                    prod[k - d + i] -= top * self.min_poly[i]
        return tuple(prod[:d])

    def strs(self, a):
        return [frac_str(c) for c in a]


# -- matrices over any of the rings above -------------------------------------


def mat_identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def mat_zero(ring, n):
    return [[ring.zero] * n for _ in range(n)]


def mat_add(ring, A, B):
    return [[ring.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(ring, A):
    return [[ring.neg(a) for a in r] for r in A]


def mat_sub(ring, A, B):
    return mat_add(ring, A, mat_neg(ring, B))


def mat_mul(ring, A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out
