"""Self-extension blocks, the deformation equation, and order-by-order
normalization of q-families of connections.

The deformation equation B + AY - YA + D(Y) = 0 is linear over the
D-constants, so it is solved exactly with a polynomial ansatz for Y,
cleared as p_curvature clears a connection (_clear_denominators), and
row-reduced, over QQ as integer rows.  A solution at layer k feeds the
gauge I + q^k Y, which kills that layer of a truncated family and leaves
lower layers alone; gauge_family clears the layers alike.  No solution
inside the ansatz is an outcome, not an error: the caller may widen the
degree bound and retry.

normalize_family clears a family once and works on the numerators over
that one denominator throughout: each layer is solved from its numerator,
and the gauged numerators (_gauged_layers) carry the check of each solve,
since their layer k is the cleared equation of layer k at the solution.
solve_deformation and gauge_family are the same steps for one layer and
one gauge.  step_conjugate writes the entries of its linearized system
straight from the sigmas and solves it once.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .connection import ConnectionMatrix, Derivation, _clear_denominators
from .fields import RationalField
from .linalg import Matrix, _solve_integer
from .poly import Polynomial
from .ratfunc import RationalFunction


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


class DeformationSolution(NamedTuple):
    Y: Matrix
    ansatz_degree: int


def _commutator_terms(P, i, j):
    """(k, l, coefficient of the unknown Y_ij in entry (k, l) of PY - YP):
    [l == j] P[k][i] - [k == i] P[j][l]."""
    r = len(P)
    return [(k, j, P[k][i]) for k in range(r)] + [(i, l, -P[j][l]) for l in range(r)]


def _deformation_system(P: Matrix, hu, hB: Matrix, ansatz_degree: int):
    """Augmented rows of the linear system for hB + PY - YP + (hu) Y' = 0
    over the coefficient field.

    Column (i*r + j)*(d+1) + t is the coefficient of x^t in Y_ij, and the
    last column the right-hand side; row (k*r + l)*width + s is the x^s
    coefficient of entry (k, l).  Over QQ, hu, P and hB are first scaled by
    the lcm of their denominators, which leaves the homogeneous equation as
    it is and makes every row integer.
    """
    base = P.ring.field
    r, P = P.nrows, P.rows
    d = ansatz_degree
    hB = [f for row in hB.rows for f in row]
    zero = base.zero
    if type(base) is RationalField:
        m = lcm(hu.den, *(f.den for row in P for f in row), *(f.den for f in hB))
        hu, P, hB = hu * m, [[f * m for f in row] for row in P], [f * m for f in hB]
        zero = 0
    width = 1 + max([0, d - 1 + hu.degree()] + [d + f.degree() for row in P for f in row]
                    + [f.degree() for f in hB])

    n = r * r * (d + 1)
    rows = [[zero] * (n + 1) for _ in range(r * r * width)]
    for i in range(r):
        for j in range(r):
            terms = _commutator_terms(P, i, j)
            for t in range(d + 1):
                col = (i * r + j) * (d + 1) + t
                # P x^t on the commutator entries, plus h D(x^t) = t (hu) x^(t-1)
                placed = [(k, l, f, t) for k, l, f in terms] + [(i, j, hu * t, t - 1)]
                for k, l, f, shift in placed:
                    for s, c in enumerate(f.coeffs):
                        rows[(k * r + l) * width + shift + s][col] += c
    for b, f in enumerate(hB):
        for s, c in enumerate(f.coeffs):
            rows[b * width + s][n] = -c
    return rows


def _ansatz_matrix(ring, r: int, vec: list, ansatz_degree: int) -> Matrix:
    """Y over k[x] with Y_ij = sum_t vec[(i*r + j)*(d+1) + t] x^t."""
    w = ansatz_degree + 1
    polys = [Polynomial(ring.field, vec[b * w:(b + 1) * w]) for b in range(r * r)]
    return Matrix(ring, [polys[i * r:(i + 1) * r] for i in range(r)])


def _solve_cleared(P: Matrix, hu, hB: Matrix, ansatz_degree: int) -> Matrix | None:
    """Y over k[x] of degree <= d with hB + PY - YP + (hu) Y' = 0, or None.

    Over QQ the integer rows go straight to the integer solve of linalg,
    over any other field through Matrix.solve; free parameters are zero.
    """
    rows = _deformation_system(P, hu, hB, ansatz_degree)
    n = len(rows[0]) - 1
    base = P.ring.field
    if type(base) is RationalField:
        sol = _solve_integer(rows, n)
    else:
        sol = Matrix(base, [row[:n] for row in rows]).solve(
            Matrix(base, [row[n:] for row in rows]))
        sol = None if sol is None else sol.rows
    if sol is None:
        return None
    return _ansatz_matrix(P.ring, P.nrows, [row[0] for row in sol], ansatz_degree)


def _gauged_and_checked(N: list, hu, Y: Matrix, k: int) -> list:
    """_gauged_cleared for Y a solution at layer k.  Layer k of the result
    is N_k + N_0 Y - Y N_0 + (hu) Y', the cleared deformation equation of
    N_k, so it is zero exactly when Y solves it; a nonzero one is a solver
    bug and raises AssertionError."""
    Z = _gauged_cleared(N, hu, Y, k)
    if not Z[k].is_zero():
        raise AssertionError("solver returned a nonzero residual")
    return Z


def solve_deformation(A: ConnectionMatrix, B: Matrix,
                      ansatz_degree: int) -> DeformationSolution | None:
    """Solve B + AY - YA + D(Y) = 0 with Y polynomial of degree <= d.

    The forward-only solve assigns zero to every free parameter, so the
    returned Y is deterministic.  None means no solution in this ansatz.
    The equation is solved and checked in the cleared form
    hB + PY - YP + (hu) Y' of _clear_denominators, which is zero exactly
    when the residual is: the check is layer 1 of the family (A, B) gauged
    by I + qY.
    """
    _, hu, P, hB = _clear_denominators(A.derivation.u, A.matrix, B)
    Y = _solve_cleared(P, hu, hB, ansatz_degree)
    if Y is None:
        return None
    _gauged_and_checked([P, hB], hu, Y, 1)
    field = A.field
    return DeformationSolution(Y.map_entries(field.from_poly, field), ansatz_degree)


class TruncatedFamily:
    """Connection family sum_k layers[k] * q^k, truncated at order m."""

    __slots__ = ("derivation", "layers")

    def __init__(self, derivation: Derivation, layers):
        layers = list(layers)
        if not layers:
            raise ValueError("family needs at least the constant layer")
        shape = layers[0].shape()
        for L in layers:
            if L.shape() != shape or L.ring != derivation.field:
                raise ValueError("inconsistent family layers")
        self.derivation = derivation
        self.layers = tuple(layers)

    @property
    def order(self) -> int:
        return len(self.layers)

    @property
    def rank(self) -> int:
        return self.layers[0].nrows

    def __eq__(self, other):
        if not isinstance(other, TruncatedFamily):
            return NotImplemented
        return self.layers == other.layers and self.derivation == other.derivation

    def __repr__(self):
        return f"Family(order={self.order}, rank={self.rank})"


def _gauged_layers(L, Y, k: int, dY):
    """Layers of Z = G^-1 (L G + q^k dY), G = I + q^k Y, truncated at len(L):
    T = L G + q^k dY has T_n = L_n + L_{n-k} Y (+ dY at n = k), and G Z = T
    gives Z_n = T_n - Y Z_{n-k}, 2(m - k) matrix products in all."""
    Z = []
    for n, T in enumerate(L):
        if n >= k:
            T = T + L[n - k] * Y - Y * Z[n - k]
        if n == k:
            T = T + dY
        Z.append(T)
    return Z


def _gauged_cleared(N: list, hu, Y: Matrix, k: int) -> list:
    """_gauged_layers of the cleared layers N_n = h L_n under I + q^k Y, Y
    over k[x]: the numerators over h of the gauged family's layers."""
    return _gauged_layers(N, Y, k, Y.map_entries(lambda e: e.derivative()).scale(hu))


def _uncleared(F: TruncatedFamily, Z: list, h) -> TruncatedFamily:
    """The family with layers Z_n / h, each entry reduced once."""
    field = F.layers[0].ring
    return TruncatedFamily(F.derivation, [
        X.map_entries(lambda z: RationalFunction(field, z, h), field) for X in Z])


def gauge_family(F: TruncatedFamily, Y: Matrix, k: int) -> TruncatedFamily:
    """Apply the gauge G = I + q^k Y to the family, truncating at its order.

    Y must be polynomial (every entry has denominator 1), as every Y from
    solve_deformation is; a rational Y raises ValueError.  With h, hu and
    N_n = h L_n from _clear_denominators over all layers, h (A G + D(G))
    has the polynomial layers

        X_n = N_n + N_{n-k} Y + [n = k] (hu) Y',

    the cleared equation solve_deformation solves, and layer n of
    G^-1 A G + G^-1 D(G) is (G^-1 X)_n / h, reduced once per entry.
    """
    if k < 1:
        raise ValueError("gauge layer must be positive")
    if not all(e.den.is_one() for row in Y.rows for e in row):
        raise ValueError("gauge entries must be polynomial")
    h, hu, *N = _clear_denominators(F.derivation.u, *F.layers)
    Yp = Y.map_entries(lambda e: e.num, N[0].ring)
    return _uncleared(F, _gauged_cleared(N, hu, Yp, k), h)


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

    The family is cleared once, h and hu and N_n = h L_n by
    _clear_denominators over u and every layer.  A polynomial gauge keeps
    the denominators of every layer dividing h, so all later work stays on
    the numerators over this one h: layer k is solved from N_k with
    P = N_0 (the cleared equation of solve_deformation, times a polynomial
    factor, so with the same solutions), the gauged numerators come from
    _gauged_layers, whose layer k checks the solve, and RationalFunctions
    are built once, for the result.
    """
    if not F.layers[0].is_square():
        raise ValueError("connection matrix must be square")
    field = F.layers[0].ring
    h, hu, *N = _clear_denominators(F.derivation.u, *F.layers)
    gauges = []
    for k in range(1, F.order):
        if N[k].is_zero():
            continue
        Y = _solve_cleared(N[0], hu, N[k], ansatz_degree)
        if Y is None:
            family = _uncleared(F, N, h)
            return NormalizationResult(tuple(gauges), family, k, family.layers[k])
        N = _gauged_and_checked(N, hu, Y, k)
        gauges.append((k, Y.map_entries(field.from_poly, field)))
    return NormalizationResult(tuple(gauges), _uncleared(F, N, h), None, None)


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
    the layers are not conjugate.  Any solution of the linearized system
    passes the check, since 2m >= m+1, so a failed check is a solver bug
    and raises AssertionError rather than reporting "not conjugate".
    """
    obstacle = conjugation_obstacle(sigma_gens, tau_gens, m)
    if obstacle is not None:
        raise ValueError(obstacle)
    ring = sigma_gens[0].ring
    n = sigma_gens[0].nrows

    # row g*n*n + k*n + l is entry (k, l) of M sigma - sigma M for generator
    # g, column i*n + j the unknown M_ij, with coefficient
    # [k == i] sigma_jl - [l == j] sigma_ki: sigma_jl along row block i,
    # -sigma_ki down column j, and sigma_jj - sigma_ii where they meet
    sys_rows = [[ring.zero] * (n * n) for _ in range(len(sigma_gens) * n * n)]
    for g, sigma in enumerate(sigma_gens):
        S = sigma.rows
        neg = [[-e for e in row] for row in S]
        for i in range(n):
            for j in range(n):
                col = i * n + j
                for t in range(n):
                    sys_rows[(g * n + i) * n + t][col] = S[j][t]
                    sys_rows[(g * n + t) * n + j][col] = neg[t][i]
                sys_rows[(g * n + i) * n + j][col] = S[j][j] - S[i][i]
    rhs_rows = [[e] for tau_layers in tau_gens for row in tau_layers[m].rows for e in row]
    sol = Matrix(ring, sys_rows).solve(Matrix(ring, rhs_rows))
    if sol is None:
        return None
    M = Matrix(ring, [[sol.entry(i * n + j, 0) for j in range(n)] for i in range(n)])

    # full verification mod q^{m+1}: G^-1 tau G must be sigma alone
    for sigma, tau_layers in zip(sigma_gens, tau_gens):
        Z = _gauged_layers(tau_layers, M, m, Matrix.zeros(ring, n))
        if Z[0] != sigma or any(not L.is_zero() for L in Z[1:]):
            raise AssertionError("conjugation check failed after a successful solve")
    return M
