"""Connections nabla(D)v = Av + D(v) on trivialized bundles over an affine line.

The derivation is u*d/dx for a nonzero rational multiplier u.  The central
computation is the p-curvature: the matrix of nabla(D)^p - nabla(D^p) over a
prime field, obtained from the power recursion A_{k+1} = D(A_k) + A*A_k
(run on cleared denominators, see nabla_power_matrix) and the twist
multiplier v = D^{p-1}(u), which satisfies D^p = (v/u)*D on the reduced
function field.  A prime is good when the whole input reduces mod p
without hitting a coefficient denominator and the multiplier keeps its
degree; scans report per-prime and never guess at bad primes.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .fields import GF, ReductionError, primes_in
from .linalg import Matrix
from .poly import PolynomialRing
from .ratfunc import FunctionField, RationalFunction, common_denominator, reduce_rational_mod_p


class CyclicVectorNotFound(RuntimeError):
    """The fixed search order ran out of candidates; enlarge and retry."""


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

    def iterate(self, f, k: int):
        for _ in range(k):
            f = self(f)
        return f

    def reduce_mod(self, target: FunctionField) -> "Derivation":
        return Derivation(reduce_rational_mod_p(self.u, target))

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
        ubar = reduce_rational_mod_p(self.derivation.u, target)
        if ubar.is_zero():
            raise ReductionError(f"derivation multiplier vanishes mod {p}")
        return ConnectionMatrix(Matrix(target, entries), Derivation(ubar))

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


@dataclass(frozen=True)
class PCurvatureReport:
    prime: int
    good_prime: bool
    psi: Matrix | None
    vanishes: bool

    def __post_init__(self):
        if self.psi is not None and self.vanishes != self.psi.is_zero():
            raise ValueError("vanishes flag contradicts the matrix")


def frobenius_twist_multiplier(D: Derivation, p: int) -> RationalFunction:
    """v = D^{p-1}(u) over the characteristic-p field, so D^p = (v/u)*D.

    Accepts a characteristic-0 derivation (reduced mod p first) or one
    already over characteristic p.
    """
    char = D.field.characteristic()
    if char == 0:
        target = FunctionField(GF(p), D.field.var)
        D = D.reduce_mod(target)
    elif char != p:
        raise ValueError(f"derivation has characteristic {char}, wanted {p}")
    return D.iterate(D.u, p - 1)


def nabla_power_matrix(A: ConnectionMatrix, k: int) -> Matrix:
    """Matrix A_k of nabla(D)^k: A_1 = A, A_{k+1} = D(A_k) + A*A_k.

    The recursion runs on cleared denominators.  With D = (a/b)*d/dx and h
    the monic lcm of b and every entry denominator, B = h*A is a polynomial
    matrix and A_k = N_k / h^m_k, where N_1 = B, m_1 = 1 and

        b = 1:  N_{k+1} = a*(N_k' h - m_k h' N_k) + B N_k,        m_{k+1} = m_k + 1
        else:   N_{k+1} = a c (N_k' h - m_k h' N_k) + h B N_k,    m_{k+1} = m_k + 2

    with c = h/b.  Every step is polynomial arithmetic; each entry of
    N_k / h^m_k is reduced to lowest terms once, at the end.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    field = A.field
    u = A.derivation.u
    h = common_denominator([u] + [e for row in A.matrix.rows for e in row])
    ring = PolynomialRing(field.base, field.var)
    B = A.matrix.map_entries(lambda e: e.num * (h // e.den), ring)
    if u.den.is_one():
        step, lift, hB = 1, u.num, B
    else:
        step, lift, hB = 2, u.num * (h // u.den), B.scale(h)
    dh = h.derivative()
    N, m = B, 1
    for _ in range(k - 1):
        mdh = dh * m
        N = N.map_entries(lambda f: lift * (f.derivative() * h - f * mdh)) + hB * N
        m += step
    hm = h ** m
    return N.map_entries(lambda f: RationalFunction(field, f, hm), field)


def _reduce_for_prime(A: ConnectionMatrix, p: int) -> ConnectionMatrix | None:
    """Good-prime reduction, or None when p is bad for this connection."""
    try:
        Abar = A.reduce_mod(p)
    except ReductionError:
        return None
    # the multiplier must keep its numerator degree (leading coefficient
    # nonzero mod p), or the twist formula changes shape
    if Abar.derivation.u.num.degree() != A.derivation.u.num.degree():
        return None
    return Abar


def p_curvature(A: ConnectionMatrix, p: int) -> PCurvatureReport:
    char = A.field.characteristic()
    if char == 0:
        Abar = _reduce_for_prime(A, p)
        if Abar is None:
            return PCurvatureReport(p, False, None, False)
    elif char == p:
        Abar = A
    else:
        raise ValueError(f"entries have characteristic {char}, wanted {p}")
    Ap = nabla_power_matrix(Abar, p)
    v = frobenius_twist_multiplier(Abar.derivation, p)
    twist = v / Abar.derivation.u
    psi = Ap - Abar.matrix.scale(twist)
    return PCurvatureReport(p, True, psi, psi.is_zero())


def _p_curvature_star(args):
    return p_curvature(*args)


def scan_primes(A: ConnectionMatrix, p_min: int, p_max: int,
                jobs: int = 1) -> list[PCurvatureReport]:
    if p_min > p_max:
        raise ValueError("empty prime range")
    primes = primes_in(p_min, p_max)
    if jobs > 1 and len(primes) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(_p_curvature_star, [(A, p) for p in primes]))
        except (OSError, BrokenProcessPool):
            # the pool could not start or lost a worker process: compute in
            # this process instead.  An exception raised by p_curvature in a
            # worker is re-raised here with its own type and propagates.
            pass
    return [p_curvature(A, p) for p in primes]


def gauge_transform(A: ConnectionMatrix, G: Matrix) -> ConnectionMatrix:
    """Change of trivialization: A becomes G^{-1} A G + G^{-1} D(G)."""
    try:
        Ginv = G.inverse()
    except ValueError as exc:
        raise ValueError("gauge matrix is singular") from exc
    D = A.derivation
    return ConnectionMatrix(Ginv * A.matrix * G + Ginv * D(G), D)


def _cyclic_candidates(A: ConnectionMatrix, seed: int):
    """Fixed search order: standard basis, then low-degree polynomial
    combinations, then random vectors of height at most 10."""
    field = A.field
    r = A.rank
    z, o = field.zero, field.one
    x = field.gen()

    def basis_vec(i):
        col = [z] * r
        col[i] = o
        return Matrix.column(field, col)

    for i in range(r):
        yield basis_vec(i)
    yield Matrix.column(field, [x ** i for i in range(r)])
    for t in range(1, r + 1):
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                col = [z] * r
                col[i] = o
                col[j] = x ** t
                yield Matrix.column(field, col)
    rng = random.Random(seed)
    while True:
        col = []
        for _ in range(r):
            coeffs = [rng.randint(-10, 10) for _ in range(r + 1)]
            col.append(field.from_poly(field.polynomial(coeffs)))
        yield Matrix.column(field, col)


def cyclic_vector(A: ConnectionMatrix, max_attempts: int = 200,
                  seed: int = 0) -> tuple[Matrix, CompanionConnection]:
    """Search for v making v, nabla(v), ..., nabla^{r-1}(v) a basis.

    Returns the gauge G with those columns and the resulting companion
    form; gauge_transform(A, G) equals the companion matrix exactly.
    """
    D = A.derivation
    r = A.rank
    attempts = 0
    for v in _cyclic_candidates(A, seed):
        attempts += 1
        if attempts > max_attempts:
            break
        cols = [v]
        for _ in range(r - 1):
            w = cols[-1]
            cols.append(A.matrix * w + D(w))
        G = Matrix(A.field, [[cols[j].entry(i, 0) for j in range(r)]
                             for i in range(r)])
        if not G.det():
            continue
        w = cols[-1]
        nabla_top = A.matrix * w + D(w)
        f = G.solve(nabla_top)
        last_column = [f.entry(i, 0) for i in range(r)]
        return G, CompanionConnection(last_column, D)
    raise CyclicVectorNotFound(
        f"no cyclic vector within {max_attempts} attempts at rank {r}")
