"""Connections nabla(D)v = Av + D(v) on trivialized bundles over an affine line.

The derivation is u*d/dx for a nonzero rational multiplier u.  The central
computation is the p-curvature: the matrix of nabla(D)^p - nabla(D^p) over a
prime field.  psi_p is p-linear in the derivation (Katz, "Nilpotent
connections and the monodromy theorem", 1970, section 5),

    psi_p(u*d/dx) = u^p psi_p(d/dx),

so it is computed on the d/dx form of the connection.  With h the lcm of
the denominators of u and of every entry, H = h*u and M = h*A are
polynomial (_clear_denominators, which deformation.py uses too) and
nabla(d/dx) = M/H; as (d/dx)^p = 0, psi_p(d/dx) is the matrix N_p/H^p of
nabla(d/dx)^p, where N_1 = M and

    N_{k+1} = H N_k' - k H' N_k + M N_k,

and psi_p(u*d/dx) = u^p N_p/H^p = N_p/h^p.  p_curvature never forms a
reduced rational function before the end, where it reduces each entry of
N_p/h^p once (ratfunc.lowest_terms).  Over a tower k(q)(x), h, H and M
are first scaled by one q-constant, which cancels as N_p is homogeneous
of degree p in (H, M); the recursion then runs over k[q][x] and makes no
gcd at all, and the one reduction per entry takes its gcd over k[q][x] as
well.  nabla_power_matrix computes nabla(D)^k with the same kernel, on
u*d/dx itself, and frobenius_twist_multiplier gives D^p = (v/u)*D in
closed form.

A prime is good when the whole input reduces mod p without hitting a
coefficient denominator and the multiplier keeps its numerator degree
(Derivation.reduce_mod); scans report per-prime and never guess at bad
primes.

psi_p is also read off point values.  At an ordinary point x0 of GF(p),
the solution Y' = -(M/H)Y, Y(x0) = I, truncated at order p leaves one
coefficient unmatched, because p*Y_p = 0, and that coefficient is
-H(x0) psi(d/dx)(x0), and psi(u*d/dx)(x0) = u(x0)^p psi(d/dx)(x0).
_point_values takes h, H and M from the helper p_curvature uses and runs
this series as a short recurrence on the Taylor coefficients at each
ordinary point in turn, over GF(p), or over GF(p)(q) with q kept symbolic
(fraction-free, on polynomials in q).  Over a tower it also specialises
the three at each q0 in turn where h keeps its x-degree, which gives
cheap values over GF(p); p_curvature_at takes the first value over GF(p).
One nonzero value proves psi_p != 0.  psi_p is horizontal over any base
field of characteristic p, so a zero value at x0 in GF(p) makes
(x - x0)^p divide N_p, whose degree is bounded, and a few zero values
prove psi_p = 0; over a tower that needs values with q kept symbolic, as
a zero at one q0 says nothing of the others.  scan_primes, which
valuation.verify_prediction also calls, decides each prime this way and
runs the kernel only where GF(p) has too few ordinary points.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import NamedTuple

from .fields import GF, PrimeField, ReductionError, primes_in
from .linalg import Matrix
from .poly import Polynomial, PolynomialRing, int_poly_mul
from .ratfunc import (
    FunctionField,
    RationalFunction,
    clear_coefficients,
    cleared,
    common_denominator,
    lowest_terms,
    reduce_rational_mod_p,
)


class Derivation:
    """u * d/dx on a rational function field."""

    __slots__ = ("field", "u")

    def __init__(self, u: RationalFunction):
        if u.is_zero():
            raise ValueError("derivation multiplier must be nonzero")
        self.field = u.field
        self.u = u

    @classmethod
    def d_dx(cls, field: FunctionField) -> "Derivation":
        return cls(field.one)

    @classmethod
    def x_d_dx(cls, field: FunctionField) -> "Derivation":
        return cls(field.gen())

    @property
    def variable(self) -> str:
        return self.field.var

    def __call__(self, f):
        if isinstance(f, Matrix):
            return f.map_entries(self)
        f = self.field(f)
        return self.u * f.derivative()

    def reduce_mod(self, target: FunctionField) -> "Derivation":
        """Reduction into GF(p)(x); ReductionError at a bad prime.

        The multiplier must keep its numerator degree (u = 0 drops it too):
        where it drops, D mod p has another order at infinity than D, and
        the prime is reported bad rather than guessed.
        """
        u = reduce_rational_mod_p(self.u, target)
        if u.num.degree() != self.u.num.degree():
            what = "vanishes" if u.is_zero() else "drops its numerator degree"
            raise ReductionError(f"derivation multiplier {what} mod {target.base.p}")
        return Derivation(u)

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.u == other.u

    def __hash__(self):
        return hash(("derivation", self.u))

    def __repr__(self):
        return f"({self.u})*d/d{self.variable}"


class ConnectionMatrix:
    """Matrix A together with the derivation defining nabla(D)v = Av + D(v)."""

    __slots__ = ("matrix", "derivation")

    def __init__(self, matrix: Matrix, derivation: Derivation):
        if not matrix.is_square():
            raise ValueError("connection matrix must be square")
        if matrix.ring != derivation.field:
            raise ValueError("matrix entries and derivation live in different fields")
        self.matrix = matrix
        self.derivation = derivation

    @property
    def rank(self) -> int:
        return self.matrix.nrows

    @property
    def field(self) -> FunctionField:
        return self.matrix.ring

    def reduce_mod(self, p: int) -> "ConnectionMatrix":
        """Reduction to GF(p)(x); raises ReductionError at a bad prime."""
        target = FunctionField(GF(p), self.field.var)
        entries = [[reduce_rational_mod_p(e, target) for e in row]
                   for row in self.matrix.rows]
        return ConnectionMatrix(Matrix(target, entries), self.derivation.reduce_mod(target))

    def __eq__(self, other):
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        return self.matrix == other.matrix and self.derivation == other.derivation

    def __repr__(self):
        return f"Connection({self.matrix!r}, D={self.derivation!r})"


class CompanionConnection:
    """Companion-shaped connection: subdiagonal ones, prescribed last column."""

    __slots__ = ("field", "last_column", "derivation")

    def __init__(self, last_column, derivation: Derivation):
        field = derivation.field
        self.field = field
        self.last_column = tuple(field(f) for f in last_column)
        self.derivation = derivation
        if not self.last_column:
            raise ValueError("empty companion column")

    @property
    def rank(self) -> int:
        return len(self.last_column)

    def matrix(self) -> ConnectionMatrix:
        r = self.rank
        z, o = self.field.zero, self.field.one
        rows = [[z] * r for _ in range(r)]
        for i in range(1, r):
            rows[i][i - 1] = o
        for i, f in enumerate(self.last_column):
            rows[i][r - 1] = f
        return ConnectionMatrix(Matrix(self.field, rows), self.derivation)

    def __repr__(self):
        col = ", ".join(str(f) for f in self.last_column)
        return f"Companion[{col}]"


class _PCurvatureFields(NamedTuple):
    prime: int
    good_prime: bool
    psi: Matrix | None
    vanishes: bool


class PCurvatureReport(_PCurvatureFields):
    """psi_p of a connection at one prime.

    psi is None either at a bad prime (good_prime is False) or at a good
    prime where a nonzero value of psi_p at one point decided nonvanishing
    without the whole matrix (see p_curvature_at).  A vanishing report
    always carries its psi: the kernel's, or the zero matrix that point
    values proved (see _scan_prime).
    """

    __slots__ = ()

    def __new__(cls, prime: int, good_prime: bool, psi: Matrix | None,
                vanishes: bool):
        if psi is None:
            if vanishes:
                raise ValueError("only a computed psi can show vanishing")
        elif vanishes != psi.is_zero():
            raise ValueError("vanishes flag contradicts the matrix")
        return super().__new__(cls, prime, good_prime, psi, vanishes)


def frobenius_twist_multiplier(D: Derivation, p: int) -> RationalFunction:
    """v = D^{p-1}(u) over the characteristic-p field, so D^p = (v/u)*D.

    Closed form: for u = a/b, v = u*s/b^p, where s takes the coefficients
    of a^{p-1} b at the exponents kp + p - 1 and moves them to kp.  This is
    v = -u*(d/dx)^{p-1}(a^{p-1} b)/b^p, since b^p is a d/dx-constant and
    (d/dx)^{p-1} x^{kp+p-1} = (p-1)! x^{kp} = -x^{kp}.  Over a tower a and
    b are first scaled by one q-constant c (clear_coefficients), which
    scales s and b^p alike by c^p.

    Accepts a characteristic-0 derivation (reduced mod p first) or one
    already over characteristic p.
    """
    char = D.field.characteristic()
    if char == 0:
        target = FunctionField(GF(p), D.field.var)
        D = D.reduce_mod(target)
    elif char != p:
        raise ValueError(f"derivation has characteristic {char}, wanted {p}")
    _, (a, b) = clear_coefficients(D.field.base, [D.u.num, D.u.den])
    top = (a ** (p - 1) * b).coeffs[p - 1::p]
    s = [a.field.zero] * (p * len(top))
    s[::p] = top
    return lowest_terms(D.field, a * Polynomial(a.field, s), b ** (p + 1))


def _clear_denominators(u: RationalFunction, *matrices: Matrix):
    """(h, h*u, h*M for each M), h the lcm of the denominators of u and of
    every entry, all over k[x] (k(q)[x] over a tower): nabla(d/dx) = hA/hu."""
    h = common_denominator([u] + [e for M in matrices for row in M.rows for e in row])
    ring = PolynomialRing(u.field.base, u.field.var)
    return (h, cleared(u, h),
            *(M.map_entries(lambda e: cleared(e, h), ring) for M in matrices))


def _cleared_form(A: ConnectionMatrix):
    """(h, H, M) of _clear_denominators, M as a list of rows.  Over a tower
    k(q)(x) all three are scaled by one q-constant (clear_coefficients)
    and live over k[q][x]."""
    h, H, M = _clear_denominators(A.derivation.u, A.matrix)
    _, (h, H, *hA) = clear_coefficients(
        A.field.base, [h, H] + [f for row in M.rows for f in row])
    n = A.rank
    return h, H, [hA[i * n:(i + 1) * n] for i in range(n)]


def _nabla_kernel(rows: list, h: Polynomial, lift, step: int, k: int) -> Matrix:
    """N with N/h^m the matrix of nabla(D)^k, m = 1 + step*(k - 1), for the
    connection matrix B/h, B given by its rows, and D = d/dx (lift None,
    step 1), lift*d/dx (step 1) or (lift/h)*d/dx (step 2), all polynomials
    over one ring: the recursion of nabla_power_matrix, with no division
    and no gcd."""
    B = Matrix(PolynomialRing(h.field), rows)
    hB = B if step == 1 else B.scale(h)
    dh = h.derivative()
    N, m = B, 1
    for _ in range(k - 1):
        mdh = dh * m
        dN = N.map_entries(lambda f: f.derivative() * h - f * mdh)
        N = (dN if lift is None else dN.scale(lift)) + hB * N
        m += step
    return N


def _reduced(field: FunctionField, N: Matrix, den: Polynomial) -> Matrix:
    """The matrix N/den over field, each entry reduced once."""
    return N.map_entries(lambda f: lowest_terms(field, f, den), field)


def nabla_power_matrix(A: ConnectionMatrix, k: int) -> Matrix:
    """Matrix A_k of nabla(D)^k: A_1 = A, A_{k+1} = D(A_k) + A*A_k.

    The recursion runs on cleared denominators.  With D = u*d/dx and h the
    lcm of the denominators of u and of every entry, B = h*A is a
    polynomial matrix and A_k = N_k / h^m_k, where N_1 = B, m_1 = 1 and,
    for a polynomial L,

        u = L:    N_{k+1} = L (N_k' h - m_k h' N_k) + B N_k,      m_{k+1} = m_k + 1
        u = L/h:  N_{k+1} = L (N_k' h - m_k h' N_k) + h B N_k,    m_{k+1} = m_k + 2

    Over a tower k(q)(x), h, B and L are first scaled by one q-constant,
    so every step is polynomial arithmetic over k[q][x].
    Each entry of N_k / h^m_k is reduced to lowest terms once, at the end.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    h, H, B = _cleared_form(A)
    u = A.derivation.u
    c, (L,) = clear_coefficients(A.field.base, [u.num])
    if u.den.is_one() and c.is_one():
        step, lift = 1, None if L.is_one() else L
    else:
        step, lift = 2, H
    N = _nabla_kernel(B, h, lift, step, k)
    return _reduced(A.field, N, h ** (1 + step * (k - 1)))


def _at_prime(A: ConnectionMatrix, p: int) -> ConnectionMatrix | None:
    """A in characteristic p: reduced mod p when A has characteristic 0,
    None when p is bad for it."""
    char = A.field.characteristic()
    if char == p:
        return A
    if char != 0:
        raise ValueError(f"entries have characteristic {char}, wanted {p}")
    try:
        return A.reduce_mod(p)
    except ReductionError:
        return None


def p_curvature(A: ConnectionMatrix, p: int) -> PCurvatureReport:
    """psi_p(D) = nabla(D)^p - nabla(D^p), after reducing A mod p when it
    has characteristic 0 (a bad prime gives a report without psi).

    With (h, H, M) from _cleared_form, nabla(d/dx) = M/H, and the kernel
    gives psi_p(d/dx) = N_p/H^p (no lift, step 1: (d/dx)^p = 0).  psi_p is
    p-linear in D, so psi_p(u*d/dx) = u^p N_p/H^p = N_p/h^p, and each entry
    is reduced once.  Over a tower the q-constant that scales h, H and M
    cancels, as N_p is homogeneous of degree p in (H, M).
    """
    Abar = _at_prime(A, p)
    if Abar is None:
        return PCurvatureReport(p, False, None, False)
    return _kernel_report(Abar.field, _cleared_form(Abar), p)


def _kernel_report(field: FunctionField, form, p: int) -> PCurvatureReport:
    """The report of p_curvature from the cleared form (h, H, M) of a
    connection over field, of characteristic p: the kernel and the
    reduction of N_p/h^p."""
    h, H, M = form
    N = _nabla_kernel(M, H, None, 1, p)
    psi = _reduced(field, N, h ** p)
    return PCurvatureReport(p, True, psi, psi.is_zero())


# -- psi_p at one point ----------------------------------------------------


def _shift(f: Polynomial, x0: int) -> list:
    """Coefficients of f(x0 + t) for f over GF(p), by repeated synthetic
    division on the stored ints."""
    p = f.field.p
    f = list(f.coeffs)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] = (f[j] + x0 * f[j + 1]) % p
    return f


def _q_mul(a: tuple, b: tuple, p: int) -> tuple:
    """The product of two q-coefficient tuples over GF(p); over a field the
    top coefficient of a product stays, so nothing trails."""
    return tuple(c % p for c in int_poly_mul(a, b))


def _q_shift(f: Polynomial, x0: int) -> list:
    """Coefficients of f(x0 + t) for f over GF(p)[q], each a tuple of
    q-coefficients with no trailing zero.  x0 is a constant, so each
    q-slice of f is shifted on its own."""
    cs = [c.coeffs for c in f.coeffs]
    slices = [_shift(Polynomial(f.field.field, [c[j] if j < len(c) else 0 for c in cs]), x0)
              for j in range(max(map(len, cs), default=0))]
    out = []
    for i in range(len(cs)):
        t = [s[i] if i < len(s) else 0 for s in slices]
        while t and not t[-1]:
            t.pop()
        out.append(tuple(t))
    return out


def _value_at(h: Polynomial, H: Polynomial, hA: list, n: int, x0: int) -> Matrix:
    """psi_p at an ordinary point x0 of the cleared form (h, H, M), with hA
    the entries of M row by row: over GF(p)[x] a matrix over GF(p), and
    over GF(p)[q][x] a matrix over GF(p)(q), q kept symbolic.  This is the
    recurrence of _point_values, on packed rows.

    With P_i and Q_i the t^i coefficients of H(x0 + t) and M(x0 + t), the
    t^k coefficient of P Y' + Q Y without its P_0 (k+1) Y_{k+1} is
    unmatched(k) = sum over i >= 1 of P_i (k+1-i) Y_{k+1-i} plus the sum of
    Q_i Y_{k-i}; then Y_{k+1} = -unmatched(k) / (P_0 (k+1)), and
    psi_p(x0) = -P_0^(p-1) unmatched(p-1) / h(x0)^p.  Over GF(p), P_0 is a
    unit, P_0^(p-1) = 1 and h(x0)^p = h(x0), and the loop runs on Y_k
    itself.  Over GF(p)[q] P_0 is no unit, and the loop runs fraction-free
    on Z_k = P_0^k Y_k: with the multipliers P_i P_0^(i-1) and Q_i P_0^i in
    unmatched, Z_{k+1} = -unmatched(k) / (k+1), and psi_p(x0) is
    -unmatched(p-1) over the denominator h(x0)^p.

    Every scalar is a polynomial in q over GF(p): an int over GF(p)[x], a
    tuple of q-coefficients (_q_shift) over GF(p)[q][x].  With c the
    largest q-degree of a multiplier's factor P_i or Q_i (0 over GF(p)),
    Z_k has q-degree at most k c and unmatched(p-1) at most p c, so each
    entry takes S = p c + 1 slots.  Row r of each Z_k is one int, the sum
    of the q^j coefficient of Z_k[r][l] times 2^((l S + j) w), every
    coefficient in [0, p); a multiplier is packed the same way, so its
    product with a row is one int product.  Row r of unmatched(k) sums at
    most T such products: one per nonzero P_i, 1 <= i <= p, and one per
    nonzero Q_i[r][l], i < p (times row l of Z_{k-i}); a larger i only
    ever meets Z_k with k < 0.  A slot of a product sums at most
    S products of two coefficients, so a slot of the sum stays at most
    T S (p-1)^2 < 2^w with w = 2 bitlen(p) + bitlen(T S), and no carry
    crosses into the next slot; no q-degree reaches S, so no entry runs
    into the next.  Once per step each row's slots are unpacked, scaled,
    reduced mod p and packed again."""
    ring = H.field
    flat = type(ring) is PrimeField
    if flat:
        p, c, S = ring.p, 0, 1
        P, Q = _shift(H, x0), [_shift(f, x0) for f in hA]
        unit = P[0]

        def packed_table(a):        # m a for each m in GF(p)
            return [m * a % p for m in range(p)]
    else:
        F, p = ring.field, ring.field.p
        P, Q = _q_shift(H, x0), [_q_shift(f, x0) for f in hA]
        c = max(map(len, chain(P, *Q))) - 1
        S = p * c + 1
        powers = [(1,)]             # P_0^i
        for _ in range(max(len(P), max(map(len, Q)))):
            powers.append(_q_mul(powers[-1], P[0], p))
        P = [P[0]] + [_q_mul(a, powers[i], p) for i, a in enumerate(P[1:])]
        Q = [[_q_mul(a, powers[i], p) for i, a in enumerate(f)] for f in Q]
        unit = 1

        def packed(a):
            return sum(b << (j * w) for j, b in enumerate(a))

        def packed_table(a):
            return [packed([m * b % p for b in a]) for m in range(p)]
    # (offset i, source row l, Q_i[r][l]) for row r, and (i, P_i) for i >= 1
    terms = [[(i, l, a) for l in range(n) for i, a in enumerate(Q[r * n + l][:p]) if a]
             for r in range(n)]
    P_terms = [(i, a) for i, a in enumerate(P[:p + 1]) if i and a]
    w = 2 * p.bit_length() + ((len(P_terms) + max(map(len, terms))) * S).bit_length()
    mask = (1 << w) - 1
    slots = range(0, n * S * w, w)
    # the slots Z_{k+1} can fill: q^j in each entry for j <= (k+1) c
    live = [slots] * p if c == 0 else [
        [(l * S + j) * w for l in range(n) for j in range(min((k + 1) * c, S - 1) + 1)]
        for k in range(p)]
    if not flat:                    # an int of GF(p) is its own packing
        terms = [[(i, l, packed(a)) for i, l, a in row] for row in terms]
    # (i, the packed m P_i for each m in GF(p)): step k takes m = k+1-i,
    # which is negative only where Z_{k+1-i} is a zero row of the pad
    P_terms = [(i, packed_table(a)) for i, a in P_terms]
    # Z[pad + k] is Z_k; the pad zero rows stand for Z_k with k < 0
    pad = max(len(P), max(map(len, Q)))
    Z = [[0] * n] * pad + [[1 << (r * S * w) for r in range(n)]]
    hx0 = h(x0)
    # Z_{k+1} = e_k unmatched(k); the last e scales unmatched(p-1) to
    # psi_p(x0) over GF(p), and to its numerator over h(x0)^p over GF(p)[q]
    last = -pow(hx0.v, -1, p) if flat else -1
    scales = [-pow(unit * (k + 1), -1, p) for k in range(p - 1)] + [last]
    for k, (e, filled) in enumerate(zip(scales, live)):
        top = pad + k
        scaled = [(Z[top + 1 - i], d[k + 1 - i]) for i, d in P_terms]
        rows = []
        for r in range(n):
            s = 0                       # row r of unmatched(k), packed
            for Zj, d in scaled:
                s += d * Zj[r]
            for i, l, d in terms[r]:
                s += d * Z[top - i][l]
            y = 0
            for sh in filled:
                y += ((s >> sh) & mask) * e % p << sh
            rows.append(y)
        Z.append(rows)
    if flat:
        return Matrix(ring, [[(y >> sh) & mask for sh in slots] for y in Z[-1]])
    K = FunctionField(F, ring.var)
    den = hx0 ** p
    return Matrix(K, [[RationalFunction(K, Polynomial(F, [(y >> sh) & mask for sh in
                                                          slots[l * S:(l + 1) * S]]), den)
                       for l in range(n)] for y in Z[-1]])


def _point_values(A: ConnectionMatrix, p: int, form):
    """(zeros, values, specialised) for A over GF(p)(x) or GF(p)(q)(x),
    with form its (h, H, M) from _cleared_form.  values yields ((x0,),
    psi_p at x0) at the ordinary points x0 of GF(p) in order, over GF(p),
    or over GF(p)(q) with q kept symbolic, and zeros values equal to 0
    prove psi_p = 0.  specialised is None over GF(p)(x); over a tower it
    yields ((q0, x0), psi_p at (q0, x0) over GF(p)) in lexicographic
    order, the cheap witnesses of psi_p != 0.

    With H = hu and M = hA, nabla(d/dx) = M/H and x0 is ordinary when
    H(x0) h(x0) != 0, over a tower in GF(p)[q].  The caller clears once
    (_scan_prime hands the same form to the kernel).  Over a tower the
    three live over GF(p)[q][x]; for specialised, a q0 where h drops its
    x-degree (the clearing constant h.leading() vanishes) is skipped, and
    at every other q0 in turn h, H and M are specialised to GF(p)[x].
    Specialising q commutes with d/dx and with the recursion below, so the
    value at (q0, x0) is psi_p = N_p/h^p there.  A zero there proves
    nothing about psi_p, as other q0 may give other values.

    Y solves H(x0+t) Y' = -M(x0+t) Y, Y(0) = I, for t^0..t^(p-2); E, the
    t^(p-1) coefficient of HY' + MY, is the one p*Y_p = 0 cannot cancel,
    and psi_p(x0) = -u(x0)^p E / H(x0), which is -E / h(x0) over GF(p).
    _value_at runs this recurrence with each row of each Y_k packed into
    one int, its coefficients in [0, p) in slots wide enough that a step's
    sums never carry; over a tower fraction-free, on polynomials in q.

    The bound: psi_p(d/dx) = N_p/H^p, with N_p from the recursion
    N_1 = M, N_{k+1} = H N_k' - k H' N_k + M N_k that p_curvature runs, so
    deg N_p <= B = deg M + (p-1) max(deg H - 1, deg M), with deg M the
    largest x-degree of an entry of M.  psi_p is horizontal over any base
    field of characteristic p, GF(p)(q) included, so with Y as above
    psi_p = Y psi_p(x0) Y^-1 mod (x - x0)^p (Katz 1970, section 5): a zero
    value at x0 gives (x - x0)^p | N_p, and B // p + 1 of them give
    N_p = 0.  psi_p(u*d/dx) = u^p psi_p(d/dx), and u(x0) != 0, so both
    statements hold for the derivation of A.
    """
    base = A.field.base
    tower = isinstance(base, FunctionField) and isinstance(base.base, PrimeField)
    if not (tower or isinstance(base, PrimeField)):
        raise ValueError(f"no point evaluation over {A.field}")
    h, H, M = form
    hA = [f for row in M for f in row]
    deg_M = max(f.degree() for f in hA)
    bound = deg_M + (p - 1) * max(H.degree() - 1, deg_M)

    def values(line, h0, H0, *M0):
        for x0 in range(p):
            if H0(x0) * h0(x0):
                yield line + (x0,), _value_at(h0, H0, M0, A.rank, x0)

    def specialised():
        for q0 in range(p):
            if h.leading()(q0):
                yield from values((q0,), *[f.map_coefficients(lambda c: c(q0), base.base)
                                           for f in [h, H] + hA])

    return bound // p + 1, values((), h, H, *hA), specialised() if tower else None


def p_curvature_at(A: ConnectionMatrix, p: int):
    """(point, psi_p at the point as a matrix over GF(p)), or None when p
    is bad for A or A has no ordinary point over GF(p).

    A may have characteristic 0 (it is reduced mod p as in p_curvature) or
    p, over k(x) or over a tower k(q)(x).  The point and its value are the
    first ones over GF(p) of _point_values: (x0,), or (q0, x0) over a
    tower, the smallest in lexicographic order with H(x0) h(x0) != 0 for h
    and H = hu as in _cleared_form, specialised at q0 over a tower.  A
    nonzero value proves psi_p != 0.  A zero value proves psi_p = 0 only
    together with enough zero values at other points: over GF(p)(x) at
    other x0, and over a tower at x0 with q kept symbolic, as _scan_prime
    uses them.
    """
    Abar = _at_prime(A, p)
    if Abar is None:
        return None
    _, values, specialised = _point_values(Abar, p, _cleared_form(Abar))
    return next(values if specialised is None else specialised, None)


def _scan_prime(A: ConnectionMatrix, p: int) -> PCurvatureReport:
    """One row of scan_primes, decided by point values where they can.

    Over a tower the value at the first specialised point (q0, x0) comes
    first: it is cheap, and when nonzero it decides nonvanishing.  Then
    the values at x0 in GF(p), with q kept symbolic over a tower, decide
    as they do over GF(p)(x): a nonzero one nonvanishing, and as many zero
    values as _point_values asks for vanishing, with the zero matrix in the
    report.  The kernel decides only where GF(p) has too few ordinary
    points.
    """
    Abar = _at_prime(A, p)
    if Abar is None:
        return PCurvatureReport(p, False, None, False)
    form = _cleared_form(Abar)
    zeros, values, specialised = _point_values(Abar, p, form)
    if specialised is not None:
        witness = next(specialised, None)
        if witness is not None and not witness[1].is_zero():
            return PCurvatureReport(p, True, None, False)
    for count, (_, value) in enumerate(values, 1):
        if not value.is_zero():
            return PCurvatureReport(p, True, None, False)
        if count >= zeros:
            return PCurvatureReport(p, True, Matrix.zeros(Abar.field, Abar.rank), True)
    return _kernel_report(Abar.field, form, p)


def scan_primes(A: ConnectionMatrix, p_min: int, p_max: int,
                jobs: int = 1) -> list[PCurvatureReport]:
    """One report per prime of [p_min, p_max], each decided as _scan_prime
    decides it.  A nonvanishing prime decided at a point carries no psi
    (see PCurvatureReport).  jobs > 1 forks at most one worker per prime
    and per CPU, whatever jobs asks for."""
    if p_min > p_max:
        raise ValueError("empty prime range")
    primes = primes_in(p_min, p_max)
    if jobs > 1 and len(primes) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        workers = min(jobs, len(primes), os.cpu_count() or 1)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_scan_prime, [A] * len(primes), primes))
        except (OSError, BrokenProcessPool):
            # the pool could not start or lost a worker process: compute in
            # this process instead.  An exception raised by p_curvature in a
            # worker is re-raised here with its own type and propagates.
            pass
    return [_scan_prime(A, p) for p in primes]


def gauge_transform(A: ConnectionMatrix, G: Matrix) -> ConnectionMatrix:
    """Change of trivialization: A becomes G^{-1} A G + G^{-1} D(G)."""
    try:
        Ginv = G.inverse()
    except ValueError as exc:
        raise ValueError("gauge matrix is singular") from exc
    D = A.derivation
    return ConnectionMatrix(Ginv * A.matrix * G + Ginv * D(G), D)

