"""Self-extension blocks, the deformation equation, and order-by-order
normalization of q-families of connections.

The deformation equation B + AY - YA + D(Y) = 0 is linear over the
D-constants, so it is solved exactly by expressing the unknown Y in a
finite polynomial ansatz, clearing denominators, and row-reducing.  A
solution at layer k feeds the gauge I + q^k Y, which kills that layer of a
truncated family while leaving lower layers alone.  Absence of a solution
inside the ansatz is a reported outcome, not an error: the caller may widen
the degree bound and retry.
"""

from __future__ import annotations

from typing import NamedTuple

from .connection import ConnectionMatrix, Derivation, _at_prime, \
    frobenius_twist_multiplier, p_curvature
from .linalg import Matrix
from .poly import PolynomialRing
from .ratfunc import RationalFunction, cleared, common_denominator


class BlockExtension:
    """Rank-2r connection [[A, B], [0, A]] encoding a self-extension."""

    __slots__ = ("A", "B", "M")

    def __init__(self, A: ConnectionMatrix, B: Matrix):
        if B.shape() != A.matrix.shape():
            raise ValueError("extension block must match the connection's shape")
        if B.ring != A.field:
            raise ValueError("extension block over a different field")
        self.A = A
        self.B = B
        r = A.rank
        z = A.field.zero
        rows = []
        for i in range(r):
            rows.append(list(A.matrix.rows[i]) + list(B.rows[i]))
        for i in range(r):
            rows.append([z] * r + list(A.matrix.rows[i]))
        self.M = ConnectionMatrix(Matrix(A.field, rows), A.derivation)

    @property
    def rank(self) -> int:
        return self.A.rank

    def blocks(self):
        """Round-trip accessor: (top-left, top-right, bottom-left, bottom-right)."""
        r = self.rank
        ring = self.A.field
        rows = self.M.matrix.rows

        def sub(r0, c0):
            return Matrix(ring, [[rows[r0 + i][c0 + j] for j in range(r)]
                                 for i in range(r)])

        return sub(0, 0), sub(0, r), sub(r, 0), sub(r, r)


def block_power_pair(ext: BlockExtension, j: int):
    """(P_j, Q_j) with P_1 = A, Q_1 = B and
    P_j = A P_{j-1} + D(P_{j-1}),  Q_j = A Q_{j-1} + B P_{j-1} + D(Q_{j-1})."""
    if j < 1:
        raise ValueError("power must be at least 1")
    D = ext.A.derivation
    A, B = ext.A.matrix, ext.B
    P, Q = A, B
    for _ in range(j - 1):
        P, Q = A * P + D(P), A * Q + B * P + D(Q)
    return P, Q


def block_p_curvature_check(ext: BlockExtension, p: int) -> bool:
    """Exact structural identity: psi_p of the block connection equals
    [[psi_p(A), Q_p - twist*B], [0, psi_p(A)]].

    ext.M is reduced mod p once (a characteristic-p ext is used as it is),
    and A and B are its blocks."""
    M = _at_prime(ext.M, p)
    if M is None:
        raise ValueError(f"p = {p} is a bad prime for the block connection")
    r, rows, D = ext.rank, M.matrix.rows, M.derivation
    A = ConnectionMatrix(Matrix(M.field, [row[:r] for row in rows[:r]]), D)
    B = Matrix(M.field, [row[r:] for row in rows[:r]])
    Pp, Qp = block_power_pair(BlockExtension(A, B), p)
    twist = frobenius_twist_multiplier(D, p) / D.u
    psi_A = ConnectionMatrix(Pp - A.matrix.scale(twist), D)
    return p_curvature(M, p).psi == BlockExtension(psi_A, Qp - B.scale(twist)).M.matrix


class DeformationSolution(NamedTuple):
    Y: Matrix
    residual: Matrix
    ansatz_degree: int


def _commutator_terms(P, i, j):
    """(k, l, coefficient of the unknown Y_ij in entry (k, l) of PY - YP):
    [l == j] P[k][i] - [k == i] P[j][l]."""
    r = len(P)
    return [(k, j, P[k][i]) for k in range(r)] + [(i, l, -P[j][l]) for l in range(r)]


def _deformation_system(A: ConnectionMatrix, B: Matrix, ansatz_degree: int):
    """Linear system for B + A Y - Y A + D(Y) = 0 over the coefficient field.

    With h the common denominator of u, A and B, the equation times h is
    polynomial: hB + (hA)Y - Y(hA) + (hu) Y'.  Column (i*r + j)*(d+1) + t
    is the coefficient of x^t in Y_ij; row (k*r + l)*width + s is the x^s
    coefficient of entry (k, l).  Returns (system matrix, rhs column).
    """
    field = A.field
    r = A.rank
    d = ansatz_degree
    u = A.derivation.u
    h = common_denominator([u] + [e for M in (A.matrix, B) for row in M.rows for e in row])

    P = [[cleared(e, h) for e in row] for row in A.matrix.rows]
    hu = cleared(u, h)
    hB = [cleared(e, h) for row in B.rows for e in row]
    width = 1 + max([0, d - 1 + hu.degree()] + [d + f.degree() for row in P for f in row]
                    + [f.degree() for f in hB])

    zero = field.base.zero
    sys_rows = [[zero] * (r * r * (d + 1)) for _ in range(r * r * width)]
    for i in range(r):
        for j in range(r):
            terms = _commutator_terms(P, i, j)
            for t in range(d + 1):
                col = (i * r + j) * (d + 1) + t
                # P x^t on the commutator entries, plus h D(x^t) = t (hu) x^(t-1)
                placed = [(k, l, f, t) for k, l, f in terms] + [(i, j, hu * t, t - 1)]
                for k, l, f, shift in placed:
                    for s, c in enumerate(f.coeffs):
                        sys_rows[(k * r + l) * width + shift + s][col] += c
    rhs_rows = [[-f.coeff(s)] for f in hB for s in range(width)]
    return Matrix(field.base, sys_rows), Matrix(field.base, rhs_rows)


def _ansatz_matrix(A: ConnectionMatrix, column: Matrix, ansatz_degree: int) -> Matrix:
    """Y with Y_ij = sum_t column[(i*r + j)*(d+1) + t] x^t."""
    field, r, w = A.field, A.rank, ansatz_degree + 1
    vec = [row[0] for row in column.rows]
    polys = [field.from_poly(field.polynomial(vec[b * w:(b + 1) * w])) for b in range(r * r)]
    return Matrix(field, [polys[i * r:(i + 1) * r] for i in range(r)])


def solve_deformation(A: ConnectionMatrix, B: Matrix,
                      ansatz_degree: int) -> DeformationSolution | None:
    """Solve B + AY - YA + D(Y) = 0 with Y polynomial of degree <= d.

    The row-reduced solve assigns zero to every free parameter, so the
    returned Y is deterministic.  None means no solution in this ansatz.
    """
    system, rhs = _deformation_system(A, B, ansatz_degree)
    sol = system.solve(rhs)
    if sol is None:
        return None
    Y = _ansatz_matrix(A, sol, ansatz_degree)
    D = A.derivation
    residual = B + A.matrix * Y - Y * A.matrix + D(Y)
    if not residual.is_zero():
        raise AssertionError("solver returned a nonzero residual")
    return DeformationSolution(Y, residual, ansatz_degree)


def commutant_kernel(A: ConnectionMatrix, ansatz_degree: int) -> list[Matrix]:
    """Basis of {Y in the ansatz : AY - YA + D(Y) = 0}."""
    system, _ = _deformation_system(A, Matrix.zeros(A.field, A.rank), ansatz_degree)
    return [_ansatz_matrix(A, vec, ansatz_degree) for vec in system.kernel_basis()]


class TruncatedFamily:
    """Connection family sum_k layers[k] * q^k, truncated at order m."""

    __slots__ = ("derivation", "qvar", "layers")

    def __init__(self, derivation: Derivation, layers, qvar: str = "q"):
        layers = list(layers)
        if not layers:
            raise ValueError("family needs at least the constant layer")
        shape = layers[0].shape()
        for L in layers:
            if L.shape() != shape or L.ring != derivation.field:
                raise ValueError("inconsistent family layers")
        self.derivation = derivation
        self.qvar = qvar
        self.layers = tuple(layers)

    @property
    def order(self) -> int:
        return len(self.layers)

    @property
    def rank(self) -> int:
        return self.layers[0].nrows

    def layer(self, k: int) -> Matrix:
        return self.layers[k]

    def is_constant(self) -> bool:
        return all(L.is_zero() for L in self.layers[1:])

    def constant_through(self) -> int:
        """Largest order m' such that the family is constant mod q^{m'}."""
        for k in range(1, self.order):
            if not self.layers[k].is_zero():
                return k
        return self.order

    def __eq__(self, other):
        if not isinstance(other, TruncatedFamily):
            return NotImplemented
        return self.layers == other.layers and self.derivation == other.derivation

    def __repr__(self):
        return f"Family(order={self.order}, rank={self.rank})"


def _layers_mul(a, b, m, ring, r):
    out = [Matrix.zeros(ring, r) for _ in range(m)]
    for i, Ai in enumerate(a):
        if Ai.is_zero():
            continue
        for j, Bj in enumerate(b):
            if i + j < m and not Bj.is_zero():
                out[i + j] = out[i + j] + Ai * Bj
    return out


def gauge_family(F: TruncatedFamily, Y: Matrix, k: int) -> TruncatedFamily:
    """Apply the gauge G = I + q^k Y to the family, truncating at its order.

    Y must be polynomial (every entry has denominator 1), as every Y from
    solve_deformation is; a rational Y raises ValueError.  With H the common
    denominator of all layers and N_b = H L_b over k[x], the gauge, its
    alternating-series inverse and D(G) = u G' are polynomial too, and layer
    n of G^-1 A G + G^-1 D(G) is

        (sum G^-1_a N_b G_c u.den + u.num H sum G^-1_a G'_c) / (H u.den),

    summed over a + b + c = n and a + c = n, reduced once per entry.
    """
    if k < 1:
        raise ValueError("gauge layer must be positive")
    if not all(e.den.is_one() for row in Y.rows for e in row):
        raise ValueError("gauge entries must be polynomial")
    m = F.order
    field = F.layers[0].ring
    r = F.rank
    ring = PolynomialRing(field.base, field.var)
    H = common_denominator(e for L in F.layers for row in L.rows for e in row)
    N = [Matrix(ring, [[cleared(e, H) for e in row] for row in L.rows]) for L in F.layers]
    Yp = Y.map_entries(lambda e: e.num, ring)
    ident = Matrix.identity(ring, r)
    zero = Matrix.zeros(ring, r)

    G = [zero] * m
    G[0] = ident
    dG = [zero] * m
    if k < m:
        G[k] = Yp
        dG[k] = Yp.map_entries(lambda e: e.derivative())
    # inverse of I + q^k Y is the alternating geometric series, truncated
    Ginv = [zero] * m
    Ginv[0] = ident
    power = ident
    for j in range(1, (m - 1) // k + 1):
        power = power * Yp
        Ginv[j * k] = power if j % 2 == 0 else -power

    u = F.derivation.u
    uH, den = u.num * H, H * u.den
    gauged = _layers_mul(Ginv, _layers_mul(N, G, m, ring, r), m, ring, r)
    twist = _layers_mul(Ginv, dG, m, ring, r)
    new_layers = [
        Matrix(field, [[RationalFunction(field, a * u.den + uH * b, den)
                        for a, b in zip(ra, rb)] for ra, rb in zip(S.rows, T.rows)])
        for S, T in zip(gauged, twist)]
    return TruncatedFamily(F.derivation, new_layers, F.qvar)


class NormalizationResult(NamedTuple):
    gauges: tuple
    family: TruncatedFamily
    obstructed_at: int | None
    obstruction: Matrix | None

    @property
    def normalized(self) -> bool:
        return self.obstructed_at is None


def normalize_family(F: TruncatedFamily, ansatz_degree: int) -> NormalizationResult:
    """Kill layers 1, 2, ... in turn by gauges I + q^k Y_k.

    Stops at the first layer whose deformation equation has no solution in
    the ansatz, reporting that layer and its inhomogeneity.
    """
    A0 = ConnectionMatrix(F.layers[0], F.derivation)
    current = F
    gauges = []
    for k in range(1, F.order):
        Bk = current.layers[k]
        if Bk.is_zero():
            continue
        sol = solve_deformation(A0, Bk, ansatz_degree)
        if sol is None:
            return NormalizationResult(tuple(gauges), current, k, Bk)
        current = gauge_family(current, sol.Y, k)
        gauges.append((k, sol.Y))
    return NormalizationResult(tuple(gauges), current, None, None)


def conjugation_obstacle(sigma_gens, tau_gens, m: int) -> str | None:
    """Why ``step_conjugate(sigma_gens, tau_gens, m)`` does not apply, or None."""
    if m < 1:
        return "conjugation layer must be positive"
    if len(sigma_gens) != len(tau_gens):
        return "generator count mismatch"
    if any(sigma.shape() != sigma_gens[0].shape() for sigma in sigma_gens):
        return "sigma matrices have unequal sizes"
    for sigma, tau_layers in zip(sigma_gens, tau_gens):
        if len(tau_layers) != m + 1:
            return f"tau needs exactly {m + 1} layers (q^0..q^{m})"
        if tau_layers[0] != sigma or any(not L.is_zero() for L in tau_layers[1:m]):
            return "tau does not agree with sigma mod q^m"
    return None


def step_conjugate(sigma_gens, tau_gens, m: int):
    """Solve (I + q^m M)^{-1} tau (I + q^m M) = sigma mod q^{m+1}.

    tau_gens[i] is the layer list (coefficients of q^0..q^m) of the i-th
    generator.  Requires tau = sigma mod q^m; the linearized system
    M sigma_i - sigma_i M = (tau_i - sigma_i)/q^m is solved exactly and the
    full conjugation identity is re-verified before returning.  None means
    the layers are not conjugate.
    """
    obstacle = conjugation_obstacle(sigma_gens, tau_gens, m)
    if obstacle is not None:
        raise ValueError(obstacle)
    ring = sigma_gens[0].ring
    n = sigma_gens[0].nrows

    # M sigma - sigma M = PM - MP with P = -sigma; row g*n*n + k*n + l is
    # entry (k, l) for generator g, column i*n + j the unknown M_ij
    sys_rows = [[ring.zero] * (n * n) for _ in range(len(sigma_gens) * n * n)]
    for g, sigma in enumerate(sigma_gens):
        P = [[-e for e in row] for row in sigma.rows]
        for i in range(n):
            for j in range(n):
                for k, l, c in _commutator_terms(P, i, j):
                    sys_rows[(g * n + k) * n + l][i * n + j] += c
    rhs_rows = [[e] for tau_layers in tau_gens for row in tau_layers[m].rows for e in row]
    sol = Matrix(ring, sys_rows).solve(Matrix(ring, rhs_rows))
    if sol is None:
        return None
    M = Matrix(ring, [[sol.entry(i * n + j, 0) for j in range(n)] for i in range(n)])

    # full verification mod q^{m+1}: since 2m >= m+1, the inverse gauge is
    # exactly I - q^m M at this truncation
    ident = Matrix.identity(ring, n)
    for sigma, tau_layers in zip(sigma_gens, tau_gens):
        glayers = [ident] + [Matrix.zeros(ring, n)] * (m - 1) + [M]
        ginv_layers = [ident] + [Matrix.zeros(ring, n)] * (m - 1) + [-M]
        t1 = _layers_mul(tau_layers, glayers, m + 1, ring, n)
        t2 = _layers_mul(ginv_layers, t1, m + 1, ring, n)
        expect = [sigma] + [Matrix.zeros(ring, n)] * m
        if t2 != expect:
            return None
    return M
