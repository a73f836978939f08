"""Exact linear algebra over the rationals.

Everything here works with fractions.Fraction entries; no floating point
anywhere.  Mat keeps entries that are already exactly Fractions and coerces
every other entry (int, "p/q" string, Fraction subclass) with Fraction().
Matrices are small (tens of rows) in typical use, so Mat is dense.  All
elimination runs through one routine, _reduce, on sparse row dicts
{column: Fraction} whose pivot is the leftmost column: rank counts its
pivots, det multiplies its pivot values, rref back-substitutes after it (and
backs nullspace, solve and inv), and SparseEliminator keeps its rows across
calls for long, mostly-zero vectors (tensor-word coordinates).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


class Mat:
    """Dense matrix with explicit shape, so zero-dimensional edges stay sane."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows):
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("row data does not match shape (%d, %d)" % (m, n))
        self.m = m
        self.n = n
        self.rows = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]

    @classmethod
    def zero(cls, m: int, n: int) -> "Mat":
        return cls(m, n, [[Fraction(0)] * n for _ in range(m)])

    @classmethod
    def eye(cls, n: int) -> "Mat":
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        return cls(n, n, rows)

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        m = len(rows)
        n = len(rows[0]) if m else 0
        return cls(m, n, rows)

    def copy(self) -> "Mat":
        return Mat(self.m, self.n, [r[:] for r in self.rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.rows[i][j] = Fraction(v)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.m, self.n, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.m, self.n, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in +")
        return Mat(self.m, self.n, [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in -")
        return Mat(self.m, self.n, [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.m, self.n, [[c * a for a in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise ValueError("shape mismatch in *: (%d,%d)x(%d,%d)" % (self.m, self.n, other.m, other.n))
        out = [[Fraction(0)] * other.n for _ in range(self.m)]
        for i in range(self.m):
            ri = self.rows[i]
            oi = out[i]
            for k in range(self.n):
                a = ri[k]
                if a:
                    rk = other.rows[k]
                    for j in range(other.n):
                        if rk[j]:
                            oi[j] += a * rk[j]
        return Mat(self.m, other.n, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return [sum((a * v for a, v in zip(r, vec) if a and v), Fraction(0)) for r in self.rows]

    def transpose(self) -> "Mat":
        return Mat(self.n, self.m, [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)])

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def rank(self) -> int:
        return len(self._echelon()[0])

    def det(self) -> Fraction:
        """Determinant: the signed product of the elimination's pivot values."""
        if self.m != self.n:
            raise ValueError("determinant of non-square matrix")
        echelon, values = self._echelon()
        if len(values) < self.n:
            return Fraction(0)
        # rows were reduced only by earlier rows, so the reduced rows have the
        # same determinant; ordering them by pivot makes them triangular
        pivots = list(echelon)
        inversions = sum(p > q for i, p in enumerate(pivots) for q in pivots[i + 1:])
        return prod(values, start=Fraction(-1 if inversions % 2 else 1))

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        echelon, _ = self._echelon()
        pivots = sorted(echelon)
        # back-substitution from the last pivot up: the rows below are already
        # reduced, so clearing one pivot column disturbs no other
        for p in reversed(pivots):
            row = echelon[p][0]
            for q in [q for q in row if q != p and q in echelon]:
                _axpy(row, -row[q], echelon[q][0])
        zero = Fraction(0)
        rows = [[echelon[p][0].get(j, zero) for j in range(self.n)] for p in pivots]
        rows += [[zero] * self.n for _ in range(self.m - len(pivots))]
        return Mat(self.m, self.n, rows), pivots

    def _echelon(self):
        """Forward elimination of the rows in order.

        Returns ({pivot: (unit row dict, None)} in the order the independent
        rows were met, [their pivot values before scaling, in that order]).
        """
        echelon = {}
        values = []
        for r in self.rows:
            v = {j: x for j, x in enumerate(r) if x}
            p = _reduce(v, echelon)
            if p is not None:
                pv = v[p]
                echelon[p] = ({j: x / pv for j, x in v.items()}, None)
                values.append(pv)
        return echelon, values

    def nullspace(self):
        """Basis of ker(self) as a list of column vectors (lists of Fraction)."""
        R, pivots = self.rref()
        free = [j for j in range(self.n) if j not in pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.n
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -R.rows[i][f]
            basis.append(v)
        return basis

    def solve(self, b):
        """One solution x of self @ x = b, or None when inconsistent."""
        X = self.solve_matrix(Mat(self.m, 1, [[x] for x in b]))
        if X is None:
            return None
        return [X.rows[i][0] for i in range(self.n)]

    def solve_matrix(self, B: "Mat"):
        """Solve self @ X = B; returns X (free coordinates zero) or None."""
        if B.m != self.m:
            raise ValueError("shape mismatch in solve")
        aug = Mat(self.m, self.n + B.n, [r + br for r, br in zip(self.rows, B.rows)])
        R, pivots = aug.rref()
        for i in range(self.m):
            if all(not R.rows[i][j] for j in range(self.n)) and any(R.rows[i][self.n + j] for j in range(B.n)):
                return None
        pivots = [p for p in pivots if p < self.n]
        X = Mat.zero(self.n, B.n)
        for i, p in enumerate(pivots):
            for j in range(B.n):
                X.rows[p][j] = R.rows[i][self.n + j]
        return X

    def inv(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of non-square matrix")
        X = self.solve_matrix(Mat.eye(self.n))
        if X is None or self * X != Mat.eye(self.n):
            raise ValueError("matrix is singular")
        return X

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("hstack row mismatch")
        return Mat(self.m, self.n + other.n, [r + s for r, s in zip(self.rows, other.rows)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.n != other.n:
            raise ValueError("vstack column mismatch")
        return Mat(self.m + other.m, self.n, [r[:] for r in self.rows] + [r[:] for r in other.rows])


def block_matrix(blocks, row_dims, col_dims) -> Mat:
    """Assemble a matrix from a grid of blocks; None means a zero block."""
    m = sum(row_dims)
    n = sum(col_dims)
    out = Mat.zero(m, n)
    i0 = 0
    for bi, rdim in enumerate(row_dims):
        j0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if (blk.m, blk.n) != (rdim, cdim):
                    raise ValueError("block (%d,%d) has shape (%d,%d), wanted (%d,%d)" % (bi, bj, blk.m, blk.n, rdim, cdim))
                for i in range(rdim):
                    for j in range(cdim):
                        out.rows[i0 + i][j0 + j] = blk.rows[i][j]
            j0 += cdim
        i0 += rdim
    return out


def _axpy(v, c, row):
    """v += c * row on row dicts, dropping entries that cancel."""
    for k, x in row.items():
        y = v.get(k, 0) + c * x
        if y:
            v[k] = y
        else:
            del v[k]


def _reduce(v, echelon, combo=None):
    """Reduce the row dict v in place against echelon; return v's pivot.

    Rows are {column: Fraction} dicts that hold no zeros, and a row's pivot
    is its leftmost column.  echelon maps pivots to (row scaled to 1 at its
    pivot, row combination).  While v's pivot is in echelon the matching
    multiple of that row is subtracted and, when combo is given, the same
    multiple of its combination is added to combo.  Returns None once v is
    zero.
    """
    while v:
        p = min(v)
        if p not in echelon:
            return p
        c = v[p]
        row, rcombo = echelon[p]
        _axpy(v, -c, row)
        if combo is not None:
            _axpy(combo, c, rcombo)
    return None


class SparseEliminator:
    """Incremental echelon form for sparse rational vectors.

    Vectors are dicts {coordinate index: Fraction}.  add() keeps the vector
    when it is independent of everything seen so far and reports which stored
    vectors are selected; express() rewrites a vector as a combination of the
    selected ones.
    """

    def __init__(self):
        # pivot column -> (normalized row dict, combo dict over selected ids)
        self.rows = {}
        self.selected = []

    def add(self, vec, tag=None):
        """Insert vec; returns its tag when independent, else None."""
        v = {k: Fraction(x) for k, x in vec.items() if x}
        combo = {}
        p = _reduce(v, self.rows, combo)
        if p is None:
            return None
        if tag is None:
            tag = len(self.selected)
        pv = v[p]
        row = {k: x / pv for k, x in v.items()}
        # vec = residual + sum(combo * selected)  =>  row = (vec - sum(...)) / pv
        rcombo = {tag: 1 / pv}
        _axpy(rcombo, -1 / pv, combo)
        self.rows[p] = (row, rcombo)
        self.selected.append(tag)
        return tag

    def express(self, vec):
        """Combination dict over selected tags with vec = sum c_i * sel_i, or None."""
        v = {k: Fraction(x) for k, x in vec.items() if x}
        combo = {}
        if _reduce(v, self.rows, combo) is not None:
            return None
        return combo

    @property
    def rank(self) -> int:
        return len(self.selected)
