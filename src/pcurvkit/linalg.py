"""Dense exact matrices over a pluggable coefficient ring.

The ring object only has to provide ``zero``, ``one``, ``__call__`` for
coercion, and ``characteristic()``; entries must support field arithmetic.
That covers Fractions, prime fields, number fields, rational function
towers, and truncated series alike.  A ring may also provide
``dot(xs, ys)``, the sum of the pairwise products of two sequences of its
elements built as one element; ``NumberField`` does, reducing each sum
once.  Products then build each entry with one ``dot``, and elimination
does each row update ``a - f*b`` as ``dot((a, -f), (one, b))``.  Other
rings sum their products one addition at a time.

Elimination runs in this module alone: other modules hand it the integer
rows of a system through ``_solve_integer``, or a Krylov sequence v, Av,
A^2 v, ... through ``_first_dependency``.  There are two forward passes:

- ``_integer_forward``, fraction-free on integer rows, every row operation
  ``a*row - f*pivot`` followed by removal of the row's content (in the
  spirit of Bareiss, Math. Comp. 1968), and ``_integer_upward`` on the
  pivot column and the right-hand-side columns alone.  They serve
  ``solve`` over QQ (``_solve_integer`` on rows cleared of their
  denominators once, ``_cleared_rows``) and over a number field K
  (``NumberField.solve_system`` restricts scalars to QQ, one integer
  d x d block per entry), the integer rows of ``solve_deformation``, the
  d x d system of a Q(theta) inverse, and ``_first_dependency``, which
  gives minimal polynomials;
- ``_forward_by_division``, on every field, QQ included, which divides
  exactly once per pivot and keeps an entry of a row update that faces a
  zero of the pivot row as it is.  ``rank`` counts its pivots, ``rref``
  adds an upward pass that scales each pivot row to 1 and clears its
  column in the rows above, ``det`` is the sign of its row permutation
  times the product of its pivots, and ``solve`` off QQ and K adds back
  substitution on the right-hand-side columns.

The reduced row echelon form of a row space is unique, so each route of
``solve`` gives the result exact division would; it sets the free unknowns
to zero, as the rref of the augmented matrix would.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul, sub

from .fields import _COERCED, _power, RationalField


def _minus_multiple(ring, f, row, pivot):
    """row - f * pivot, entry by entry; an entry facing a zero of the pivot
    is kept as it is, and over a ring with ``dot`` each other entry is the
    single dot((a, -f), (one, b))."""
    dot = getattr(ring, "dot", None)
    if dot is None:
        return [a - f * b if b else a for a, b in zip(row, pivot)]
    nf, one = -f, ring.one
    return [dot((a, nf), (one, b)) if b else a for a, b in zip(row, pivot)]


def _cleared_rows(rows):
    """Integer rows for rows of Fractions: each row times the lcm of its
    denominators, divided by its content.  A row stands for a linear
    equation, so the scale is free."""
    out = []
    for r in rows:
        pairs = [e.as_integer_ratio() for e in r]
        den = lcm(*[q for _, q in pairs])
        row = [n for n, _ in pairs] if den == 1 else [n * (den // q) for n, q in pairs]
        g = gcd(*row)
        out.append([e // g for e in row] if g > 1 else row)
    return out


def _integer_forward(rows, ncols):
    """Fraction-free forward elimination on a list of integer rows, in
    place, with pivots in the first ncols columns; returns the pivot
    columns.

    Eliminating with pivot value a replaces each later row with entry f in
    the pivot column by (a*row - f*pivot) / gcd(a, f), from the pivot column
    on (both rows are zero left of it), and divides it by its content.
    Afterwards rows[i] is zero left of pivots[i], and the rows past the
    pivots are zero in the first ncols columns.
    """
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        sel = None
        for i in range(rank, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        tail = rows[rank][col:]
        a = tail[0]
        support = [(k, b) for k, b in enumerate(tail) if b]
        for i in range(rank + 1, nrows):
            row = rows[i]
            f = row[col]
            if f:
                g = gcd(a, f)
                s, t = a // g, f // g
                new = row[col:] if s == 1 else [s * e for e in row[col:]]
                for k, b in support:
                    new[k] -= t * b
                g = gcd(*new)
                rows[i] = row[:col] + ([e // g for e in new] if g > 1 else new)
        pivots.append(col)
    return pivots


def _integer_upward(rows, pivots, cols):
    """Upward pass on rows reduced by ``_integer_forward``, in place, from
    the last pivot row up, on the pivot column and the columns ``cols``.

    Pivot row i meets the later pivot rows j at its entries c_j in their
    pivot columns; it becomes L*row - sum c_j * (L // a_j) * row_j, with a_j
    the pivot value of row j and L the lcm of those a_j, divided by its
    content.  The later rows are reduced already, so this clears every later
    pivot column at once, and afterwards x[pivots[i]] = row[c] / row[pivots[i]]
    solves the system for a right-hand-side column c in cols, with the free
    unknowns zero.
    """
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        terms = []
        for j in range(i + 1, len(pivots)):
            c = row[pivots[j]]
            if c:
                terms.append((c, rows[j], rows[j][pivots[j]]))
        if not terms:
            continue
        L = lcm(*(a for _, _, a in terms))
        terms = [(c * (L // a), r) for c, r, a in terms]
        idx = (pivots[i], *cols)
        new = [L * row[k] - sum(f * r[k] for f, r in terms) for k in idx]
        g = gcd(*new)
        for k, e in zip(idx, new):
            row[k] = e // g


def _solve_integer(rows, n):
    """Solution rows of the system over QQ whose augmented integer rows (n
    unknowns, then the right-hand sides) are given, or None; the rows are
    reduced in place.  The forward pass, then the upward pass on the
    right-hand-side columns, and x[p] = row[c] / row[p] as one Fraction per
    nonzero entry; free unknowns are zero."""
    pivots = _integer_forward(rows, n)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    width = len(rows[0])
    _integer_upward(rows, pivots, range(n, width))
    zero = Fraction(0)
    sol = [[zero] * (width - n) for _ in range(n)]
    for row, p in zip(rows, pivots):
        a = row[p]
        sol[p] = [Fraction(e, a) if e else zero for e in row[n:]]
    return sol


def _first_dependency(vectors) -> list:
    """[c_0, ..., c_{k-1}, 1] for the least k with
    vectors[k] + c_{k-1} vectors[k-1] + ... + c_0 vectors[0] = 0, as
    Fractions; the vectors hold ints and Fractions.

    The vectors are the orbit v, Av, A^2 v, ... of one linear map A, one
    more than their dimension, so the first k are independent and every
    later one depends on them.  The forward pass on the cleared integer
    rows of the matrix with these columns finds k as its rank, and the
    upward pass on column k alone gives -c_0..-c_{k-1}.
    """
    rows = _cleared_rows(zip(*vectors))
    pivots = _integer_forward(rows, len(vectors))
    k = len(pivots)
    _integer_upward(rows, pivots, (k,))
    return [Fraction(-row[k], row[t]) for t, row in enumerate(rows[:k])] + [Fraction(1)]


def _forward_by_division(ring, rows, ncols):
    """Forward elimination over a field on a list of rows, in place, with
    pivots in the first ncols columns, dividing exactly once per pivot.

    Returns the pivot columns, the inverses of the pivot values and the
    sign (1 or -1) of the row permutation.  Afterwards rows[i] is zero left
    of pivots[i], and the rows past the pivots are zero in the first ncols
    columns.
    """
    nrows = len(rows)
    pivots, invs, sign = [], [], 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        sel = None
        for i in range(rank, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        if sel != rank:
            rows[rank], rows[sel] = rows[sel], rows[rank]
            sign = -sign
        pivot = rows[rank][col:]
        inv = ring.one / pivot[0]
        for i in range(rank + 1, nrows):
            if rows[i][col]:
                rows[i][col:] = _minus_multiple(ring, rows[i][col] * inv, rows[i][col:], pivot)
        pivots.append(col)
        invs.append(inv)
    return pivots, invs, sign


def _solve_by_division(ring, rows, n):
    """Solution rows of the system over a field whose augmented rows (n
    unknowns, then the right-hand sides) are given, or None: the forward
    pass, then back substitution on the right-hand-side columns."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    pivots, invs, _ = _forward_by_division(ring, rows, n)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    z = ring.zero
    sol = [[z] * (width - n) for _ in range(n)]
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        later = [(row[q], sol[q]) for q in pivots[i + 1:] if row[q]]
        sol[pivots[i]] = [
            invs[i] * reduce(sub, (c * x[k] for c, x in later), row[n + k])
            for k in range(width - n)]
    return sol


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = width
        self.rows = tuple(
            tuple(ring(e) if type(e) in _COERCED else e for e in r)
            for r in rows
        )

    @classmethod
    def identity(cls, ring, n: int):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring, nrows: int, ncols: int | None = None):
        ncols = nrows if ncols is None else ncols
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def column(cls, ring, entries):
        return cls(ring, [[e] for e in entries])

    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(not e for r in self.rows for e in r)

    # -- arithmetic --------------------------------------------------------

    def _check_shape(self, other):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} vs {other.shape()}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return Matrix(self.ring, [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return Matrix(self.ring, [
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        return Matrix(self.ring, [[-e for e in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
            cols = list(zip(*other.rows))
            ring = self.ring
            dot = getattr(ring, "dot", None)
            if dot is not None and (other.ring is ring or other.ring == ring):
                return Matrix(ring, [[dot(r, c) for c in cols] for r in self.rows])
            # no matrix is empty, so each entry starts from its first
            # product rather than from ring.zero and one more addition
            return Matrix(ring, [
                [reduce(add, map(mul, r, c)) for c in cols] for r in self.rows
            ])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring(c) if isinstance(c, (int, str)) else c
        return Matrix(self.ring, [[c * e for e in r] for r in self.rows])

    def __pow__(self, n: int):
        if not self.is_square():
            raise ValueError("power of a nonsquare matrix")
        return _power(self.inverse() if n < 0 else self, abs(n),
                      Matrix.identity(self.ring, self.nrows), mul)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a nonsquare matrix")
        return reduce(add, (r[i] for i, r in enumerate(self.rows)))

    def map_entries(self, fn, new_ring=None):
        return Matrix(new_ring or self.ring, [[fn(e) for e in r] for r in self.rows])

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        ring = self.ring
        rows = [list(r) for r in self.rows]
        pivots, invs, _ = _forward_by_division(ring, rows, self.ncols)
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            pivot = [invs[i] * e for e in rows[i][p:]]
            rows[i][p:] = pivot
            for row in rows[:i]:
                if row[p]:
                    row[p:] = _minus_multiple(ring, row[p], row[p:], pivot)
        return Matrix(ring, rows), pivots

    def rank(self) -> int:
        """The number of pivots of the forward pass alone."""
        rows = [list(r) for r in self.rows]
        return len(_forward_by_division(self.ring, rows, self.ncols)[0])

    def det(self):
        """The sign of the forward pass's row permutation times the product
        of its pivots, or zero when there are fewer than n."""
        if not self.is_square():
            raise ValueError("determinant of a nonsquare matrix")
        rows = [list(r) for r in self.rows]
        pivots, _, sign = _forward_by_division(self.ring, rows, self.ncols)
        if len(pivots) < self.nrows:
            return self.ring.zero
        det = reduce(mul, (row[i] for i, row in enumerate(rows)))
        return det if sign == 1 else -det

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a nonsquare matrix")
        inv = self.solve(Matrix.identity(self.ring, self.nrows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def solve(self, rhs: "Matrix"):
        """One solution X of self * X = rhs, or None when there is none.

        rhs may have several columns, each solved for.  Free unknowns are
        set to zero, so X is the solution the reduced row echelon form of
        (self | rhs) reads off.  Elimination runs forward only, on the rows
        below each pivot, and back substitution computes only the rhs
        columns: over QQ by the integer passes on cleared rows, over a ring
        with ``solve_system`` (a number field) by that, which runs the same
        integer passes on the coordinates of the unknowns and no
        elimination of its own, and over any other ring by exact division.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("rhs height mismatch")
        ring = self.ring
        rows = [r + b for r, b in zip(self.rows, rhs.rows)]
        if type(ring) is RationalField:
            sol = _solve_integer(_cleared_rows(rows), self.ncols)
        elif hasattr(ring, "solve_system"):
            sol = ring.solve_system(rows, self.ncols)
        else:
            sol = _solve_by_division(ring, rows, self.ncols)
        return None if sol is None else Matrix(ring, sol)

    def kernel_basis(self) -> list["Matrix"]:
        """Column vectors spanning the right kernel."""
        red, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        z, o = self.ring.zero, self.ring.one
        for fcol in free:
            vec = [z] * self.ncols
            vec[fcol] = o
            for row_idx, pcol in enumerate(pivots):
                vec[pcol] = -red.rows[row_idx][fcol]
            basis.append(Matrix.column(self.ring, vec))
        return basis

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape() == other.shape() and all(
            a == b for r1, r2 in zip(self.rows, other.rows) for a, b in zip(r1, r2)
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"[{body}]"
