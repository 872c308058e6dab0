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

Elimination is Gauss-Jordan.  Over QQ it runs fraction-free on integer
rows (each row cleared of its denominators once, every row operation
``a*row - f*pivot`` followed by removal of the row's content, in the spirit
of Bareiss, Math. Comp. 1968) and turns the pivot rows back into
``Fraction`` once at the end; the reduced row echelon form of a row space
is unique, so the result is the one exact division would give.  Every
other ring divides exactly at each pivot, and an entry of a row update
that faces a zero of the pivot row is kept as it is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul

from .fields import _COERCED, RationalField


def _minus_multiple(ring, f, row, pivot):
    """row - f * pivot, entry by entry; an entry facing a zero of the pivot
    is kept as it is, and over a ring with ``dot`` each other entry is the
    single dot((a, -f), (one, b))."""
    dot = getattr(ring, "dot", None)
    if dot is None:
        return [a - f * b if b else a for a, b in zip(row, pivot)]
    nf, one = -f, ring.one
    return [dot((a, nf), (one, b)) if b else a for a, b in zip(row, pivot)]


def _integer_gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan on a list of integer rows, in place;
    returns the pivot columns.

    Eliminating with pivot value a replaces a row by a*row - f*pivot over
    the whole row (rows above the pivot carry their own pivots left of it),
    and then divides it by its content.  Afterwards pivot row i stands for
    row / row[pivots[i]], and the rows past the pivots are zero.
    """
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pivot = rows[rank]
        a = pivot[col]
        for i in range(nrows):
            row = rows[i]
            f = row[col]
            if i == rank or not f:
                continue
            # the pivot row is zero left of col
            row = [a * e for e in row[:col]] + [
                a * e - f * b for e, b in zip(row[col:], pivot[col:])]
            g = gcd(*row)
            rows[i] = [e // g for e in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return pivots


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

    def _check_shape(self, other, same=True):
        if same and self.shape() != other.shape():
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
        if n < 0:
            return self.inverse() ** (-n)
        acc = Matrix.identity(self.ring, self.nrows)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a nonsquare matrix")
        return reduce(add, (r[i] for i, r in enumerate(self.rows)))

    def map_entries(self, fn, new_ring=None):
        return Matrix(new_ring or self.ring, [[fn(e) for e in r] for r in self.rows])

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        if type(self.ring) is RationalField:
            return self._rref_integer()
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            sel = None
            for i in range(rank, self.nrows):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            # rows at or below rank are zero left of col, so the pivot row
            # acts only from col on
            pivot = rows[rank]
            inv = self.ring.one / pivot[col]
            pivot[col:] = [inv * e for e in pivot[col:]]
            for i in range(self.nrows):
                if i != rank and rows[i][col]:
                    rows[i][col:] = _minus_multiple(
                        self.ring, rows[i][col], rows[i][col:], pivot[col:])
            pivots.append(col)
            rank += 1
            if rank == self.nrows:
                break
        return Matrix(self.ring, rows), pivots

    def _rref_integer(self):
        """rref over QQ by fraction-free Gauss-Jordan on cleared integer rows.

        Each row is scaled by the lcm of its denominators and divided by its
        content, ``_integer_gauss_jordan`` reduces them, and pivot row i is
        converted back once, as row / row[pivots[i]].
        """
        rows = []
        for r in self.rows:
            den = lcm(*(e.denominator for e in r))
            row = [e.numerator * (den // e.denominator) for e in r]
            g = gcd(*row)
            rows.append([e // g for e in row] if g > 1 else row)
        pivots = _integer_gauss_jordan(rows, self.ncols)
        zero = Fraction(0)
        out = []
        for i, row in enumerate(rows):
            if i < len(pivots):
                a = row[pivots[i]]
                out.append([Fraction(e, a) if e else zero for e in row])
            else:
                out.append([zero] * self.ncols)
        return Matrix(self.ring, out), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a nonsquare matrix")
        rows = [list(r) for r in self.rows]
        n = self.nrows
        det = self.ring.one
        for col in range(n):
            sel = None
            for i in range(col, n):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                return self.ring.zero
            if sel != col:
                rows[col], rows[sel] = rows[sel], rows[col]
                det = -det
            pivot = rows[col][col]
            det = det * pivot
            inv = self.ring.one / pivot
            for i in range(col + 1, n):
                if rows[i][col]:
                    rows[i] = _minus_multiple(
                        self.ring, rows[i][col] * inv, rows[i], rows[col])
        return det

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a nonsquare matrix")
        n = self.nrows
        ident = Matrix.identity(self.ring, n)
        aug = Matrix(self.ring, [
            list(r) + list(ir) for r, ir in zip(self.rows, ident.rows)
        ])
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(self.ring, [list(r[n:]) for r in red.rows])

    def solve(self, rhs: "Matrix"):
        """One solution of self * x = rhs (column rhs), or None."""
        if rhs.nrows != self.nrows:
            raise ValueError("rhs height mismatch")
        aug = Matrix(self.ring, [
            list(r) + list(br) for r, br in zip(self.rows, rhs.rows)
        ])
        red, pivots = aug.rref()
        rhs_cols = range(self.ncols, self.ncols + rhs.ncols)
        for p in pivots:
            if p in rhs_cols:
                return None
        z = self.ring.zero
        sol = [[z] * rhs.ncols for _ in range(self.ncols)]
        for row_idx, col in enumerate(pivots):
            for k, rc in enumerate(rhs_cols):
                sol[col][k] = red.rows[row_idx][rc]
        return Matrix(self.ring, sol)

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
