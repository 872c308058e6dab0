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
-psi(d/dx)(x0), and psi(u*d/dx)(x0) = u(x0)^p psi(d/dx)(x0), with
u(x0)^p = u(x0) in GF(p).  _point_values takes h, H and M from the helper
p_curvature uses (over a tower it specialises the three at each q0 in
turn where h keeps its x-degree) and runs this series as a short
recurrence on the Taylor coefficients at each ordinary point in turn;
p_curvature_at takes the first value.  One nonzero
value proves psi_p != 0.  Over GF(p)(x), psi_p is horizontal, so a zero
value at x0 makes (x - x0)^p divide N_p, whose degree is bounded, and a
few zero values prove psi_p = 0.
scan_primes, which valuation.verify_prediction also calls, decides each
prime this way and runs the kernel only where the points cannot decide:
over a tower after a zero value, and over GF(p)(x) when GF(p) has too few
ordinary points.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .fields import GF, PrimeField, ReductionError, primes_in
from .linalg import Matrix
from .poly import Polynomial, PolynomialRing
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


def _value_at(h: Polynomial, H: Polynomial, hA: list, n: int, x0: int) -> Matrix:
    """psi_p at an ordinary point x0 of the cleared form (h, H, M) over
    GF(p)[x], with hA the entries of M row by row: the recurrence of
    _point_values, on packed rows.

    With P_i and Q_i the t^i coefficients of H(x0 + t) and M(x0 + t), the
    t^k coefficient of P Y' + Q Y without its P_0 (k+1) Y_{k+1} is
    unmatched(k) = sum over i >= 1 of P_i (k+1-i) Y_{k+1-i} plus the sum of
    Q_i Y_{k-i}; then Y_{k+1} = -unmatched(k) / (P_0 (k+1)), and
    psi_p(x0) = -unmatched(p-1) / h(x0).

    Row r of each Y_k is one int, the sum of Y_k[r][l] 2^(l w) with every
    entry in [0, p), so row r of unmatched(k) sums at most T products of a
    scalar in [0, p) and a packed row: one per nonzero P_i, i >= 1, and one
    per nonzero Q_i[r][l] (row l of Y_{k-i}).  A slot stays at most
    T (p-1)^2 < 2^w with w = 2 bitlen(p) + bitlen(T), so no carry crosses
    into the next slot, and once per step each row's n slots are unpacked,
    scaled, reduced mod p and packed again."""
    p = h.field.p
    P = _shift(H, x0)
    Q = [_shift(f, x0) for f in hA]
    # (offset i, source row l, Q_i[r][l]) for row r, and (i, P_i) for i >= 1
    terms = [[(i, l, c) for l in range(n) for i, c in enumerate(Q[r * n + l]) if c]
             for r in range(n)]
    P_terms = [(i, c) for i, c in enumerate(P) if i and c]
    w = 2 * p.bit_length() + (len(P_terms) + max(map(len, terms))).bit_length()
    mask = (1 << w) - 1
    slots = range(0, n * w, w)
    # Y[pad + k] is Y_k; the pad zero rows stand for Y_k with k < 0
    pad = max(len(P), max(map(len, Q)))
    Y = [[0] * n] * pad + [[1 << (r * w) for r in range(n)]]
    # Y_{k+1} = c_k unmatched(k), and the last rows are psi_p(x0)
    scales = [-pow(P[0] * (k + 1), -1, p) for k in range(p - 1)] + [-pow(h(x0).v, -1, p)]
    for k, c in enumerate(scales):
        top = pad + k
        scaled = [(Y[top + 1 - i], d * (k + 1 - i) % p) for i, d in P_terms]
        rows = []
        for r in range(n):
            s = 0                       # row r of unmatched(k), packed
            for Yj, d in scaled:
                s += d * Yj[r]
            for i, l, d in terms[r]:
                s += d * Y[top - i][l]
            y = 0
            for sh in slots:
                y += ((s >> sh) & mask) * c % p << sh
            rows.append(y)
        Y.append(rows)
    return Matrix(GF(p), [[(y >> sh) & mask for sh in slots] for y in Y[-1]])


def _point_values(A: ConnectionMatrix, p: int, form):
    """(zeros, values) for A over GF(p)(x) or GF(p)(q)(x), with form its
    (h, H, M) from _cleared_form: values yields (point, psi_p at the point)
    at the ordinary points of A, (x0,) or (q0, x0), in lexicographic
    order, and over GF(p)(x) zeros values equal to 0 at distinct ordinary
    points prove psi_p = 0.

    With H = hu and M = hA, nabla(d/dx) = M/H and x0 is ordinary when
    H(x0) h(x0) != 0.  The caller clears once (_scan_prime hands the same
    form to the kernel).  Over a tower the three live over GF(p)[q][x]; a
    q0 where h drops its x-degree (the clearing constant h.leading()
    vanishes) is skipped, and at every other q0 in turn h, H and M are
    specialised to GF(p)[x].  Specialising q commutes with d/dx and with
    the recursion below, so the value at (q0, x0) is psi_p = N_p/h^p there.

    Y solves H(x0+t) Y' = -M(x0+t) Y, Y(0) = I, for t^0..t^(p-2); E, the
    t^(p-1) coefficient of HY' + MY, is the one p*Y_p = 0 cannot cancel,
    and psi_p(x0) = -u(x0) E / H(x0) = -E / h(x0).  _value_at runs this
    recurrence with each row of each Y_k packed into one int, its entries
    in [0, p) in slots wide enough that a step's sums never carry.

    The bound: psi_p(d/dx) = N_p/H^p, with N_p from the recursion
    N_1 = M, N_{k+1} = H N_k' - k H' N_k + M N_k that p_curvature runs, so
    deg N_p <= B = deg M + (p-1) max(deg H - 1, deg M), with deg M the
    largest degree of an entry of M.  psi_p is horizontal, so with Y as
    above psi_p = Y psi_p(x0) Y^-1 mod (x - x0)^p (Katz 1970, section 5): a
    zero value at x0 gives (x - x0)^p | N_p, and B // p + 1 of them give
    N_p = 0.  psi_p(u*d/dx) = u^p psi_p(d/dx), and u(x0) != 0, so both
    statements hold for the derivation of A.
    """
    base = A.field.base
    if not isinstance(base, PrimeField) and not (
            isinstance(base, FunctionField) and isinstance(base.base, PrimeField)):
        raise ValueError(f"no point evaluation over {A.field}")
    h, H, M = form
    hA = [f for row in M for f in row]
    deg_M = max(f.degree() for f in hA)
    bound = deg_M + (p - 1) * max(H.degree() - 1, deg_M)

    def lines():
        polys = [h, H] + hA
        if isinstance(base, PrimeField):
            yield (), polys
            return
        for q0 in range(p):
            if h.leading()(q0):
                yield (q0,), [f.map_coefficients(lambda c: c(q0), base.base) for f in polys]

    def values():
        for q, (h0, H0, *M0) in lines():
            for x0 in range(p):
                if H0(x0) * h0(x0):
                    yield q + (x0,), _value_at(h0, H0, M0, A.rank, x0)

    return bound // p + 1, values()


def p_curvature_at(A: ConnectionMatrix, p: int):
    """(point, psi_p at the point as a matrix over GF(p)), or None when p
    is bad for A or A has no ordinary point over GF(p).

    A may have characteristic 0 (it is reduced mod p as in p_curvature) or
    p, over k(x) or over a tower k(q)(x).  The point and its value are the
    first ones of _point_values: (x0,), or (q0, x0) over a tower, the
    smallest in lexicographic order with H(x0) h(x0) != 0 for h and H = hu
    as in _cleared_form, specialised at q0 over a tower.  A nonzero value
    proves psi_p != 0.  A zero value proves psi_p = 0 only together with
    enough zero values at other points over GF(p)(x), as _scan_prime uses
    them; over a tower it decides nothing.
    """
    Abar = _at_prime(A, p)
    if Abar is None:
        return None
    return next(_point_values(Abar, p, _cleared_form(Abar))[1], None)


def _scan_prime(A: ConnectionMatrix, p: int) -> PCurvatureReport:
    """One row of scan_primes, decided by point values where they can.

    A nonzero value of psi_p at one point decides nonvanishing.  Over
    GF(p)(x), as many zero values at distinct ordinary points as
    _point_values asks for decide vanishing, and the report carries the
    zero matrix.  The kernel decides the rest: a zero value over a tower,
    where a q-specialisation proves nothing, and a GF(p) with too few
    ordinary points.
    """
    Abar = _at_prime(A, p)
    if Abar is None:
        return PCurvatureReport(p, False, None, False)
    form = _cleared_form(Abar)
    zeros, values = _point_values(Abar, p, form)
    for count, (point, value) in enumerate(values, 1):
        if not value.is_zero():
            return PCurvatureReport(p, True, None, False)
        if len(point) > 1:
            break
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

