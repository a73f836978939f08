"""Exact linear algebra over the rationals.

Everything here works with fractions.Fraction entries; no floating point
anywhere.  A Mat stores each row as a {column: Fraction} dict holding no
zeros, and every operation touches only those nonzeros.  Mat(m, n, rows)
coerces dense rows (int, "p/q" string, Fraction subclass) with Fraction();
from_dicts takes sparse rows; internal results skip both through _new.
The kernels work on integer rows over one common denominator D, with
Fractions only at input and output.  __mul__ and apply sum in ints.  All
elimination runs through _reduce (pivot = leftmost column), behind rank,
det, rref (nullspace, solve, inv) and SparseEliminator: v <- a*v - b*e in
ints, D tracked exactly, common content of D and v removed; echelon rows
are primitive with a positive pivot.  rref back-substitutes in integers,
removes each row's content, then divides by the pivot once per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


class Mat:
    """Sparse matrix with explicit shape, so zero-dimensional edges stay sane."""

    __slots__ = ("m", "n", "_rows")

    def __init__(self, m: int, n: int, rows):
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("row data does not match shape (%d, %d)" % (m, n))
        self.m, self.n = m, n
        self._rows = [_sparse_row(enumerate(r)) for r in rows]

    @classmethod
    def _new(cls, m: int, n: int, rows) -> "Mat":
        """Matrix over row dicts taken as they are (exact nonzero Fractions)."""
        mat = object.__new__(cls)
        mat.m, mat.n, mat._rows = m, n, rows
        return mat

    @classmethod
    def from_dicts(cls, m: int, n: int, rows) -> "Mat":
        """Matrix from m row dicts {column: value}; zero values are dropped."""
        if len(rows) != m or any(r and (min(r) < 0 or max(r) >= n) for r in rows):
            raise ValueError("row data does not match shape (%d, %d)" % (m, n))
        return cls._new(m, n, [_sparse_row(r.items()) for r in rows])

    @classmethod
    def zero(cls, m: int, n: int) -> "Mat":
        return cls._new(m, n, [{} for _ in range(m)])

    @classmethod
    def eye(cls, n: int) -> "Mat":
        return cls._new(n, n, [{i: Q_ONE} for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @property
    def rows(self):
        """Fresh dense rows (lists of Fraction)."""
        return [[r.get(j, Q_ZERO) for j in range(self.n)] for r in self._rows]

    def items(self):
        """The nonzero entries as (row, column, value), row by row."""
        return [(i, j, x) for i, r in enumerate(self._rows) for j, x in r.items()]

    def select_rows(self, idx) -> "Mat":
        """Matrix whose i-th row is row idx[i] of self, or zero where it is None."""
        return Mat._new(len(idx), self.n, [{} if i is None else dict(self._rows[i]) for i in idx])

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.n:
            raise IndexError("column %d out of range" % j)
        return self._rows[i].get(j, Q_ZERO)

    def __setitem__(self, ij, v):
        i, j = ij
        if not 0 <= j < self.n:
            raise IndexError("column %d out of range" % j)
        v = self._rows[i][j] = Fraction(v)
        if not v:
            del self._rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and (self.m, self.n, self._rows) == (other.m, other.n, other._rows)

    def __hash__(self):
        return hash((self.m, self.n, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.m, self.n, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, Q_ONE)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -Q_ONE)

    def _plus(self, other: "Mat", c: Fraction) -> "Mat":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in %s" % ("+" if c > 0 else "-"))
        rows = [dict(r) for r in self._rows]
        for r, s in zip(rows, other._rows):
            _axpy(r, c, s)
        return Mat._new(self.m, self.n, rows)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat._new(self.m, self.n, [{j: c * x for j, x in r.items()} if c else {} for r in self._rows])

    def __mul__(self, other: "Mat") -> "Mat":
        """Exact product: integer sums over the common denominators D*L."""
        if self.n != other.m:
            raise ValueError("shape mismatch in *: (%d,%d)x(%d,%d)" % (self.m, self.n, other.m, other.n))
        L = lcm(*(x.denominator for r in other._rows for x in r.values()))
        right = [{j: x.numerator * (L // x.denominator) for j, x in r.items()} for r in other._rows]
        out = []
        for r in self._rows:
            v, D = _int_row(r)
            acc = {}
            for k, a in v.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            DL = D * L
            out.append({j: Fraction(s, DL) for j, s in acc.items() if s})
        return Mat._new(self.m, other.n, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list), summed in ints like __mul__."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        w, L = _int_row(dict(enumerate(vec)))
        return [Fraction(sum(a * w[j] for j, a in v.items()), D * L) for v, D in map(_int_row, self._rows)]

    def transpose(self) -> "Mat":
        cols = [{} for _ in range(self.n)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                cols[j][i] = x
        return Mat._new(self.n, self.m, cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

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

    def is_positive_definite(self) -> bool:
        """Sylvester, for a symmetric matrix: eliminating the rows in order, the
        s-th leading minor is the product of the first s pivot values, so row s
        must pivot in column s with a positive value for every s."""
        echelon, values = self._echelon()
        return self.m == self.n and list(echelon) == list(range(self.n)) and all(v > 0 for v in values)

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        echelon, _ = self._echelon()
        pivots = sorted(echelon)
        # integer back-substitution from the last pivot up (rows below are reduced,
        # so no other pivot column is disturbed), then each row's content is dropped
        for p in reversed(pivots):
            row = echelon[p][0]
            for q in [q for q in row if q != p and q in echelon]:
                _cancel(row, echelon[q][0], q)
            echelon[p] = (_primitive(row, p), None)
        rows = [{j: Fraction(x, e[p]) for j, x in e.items()} for p, (e, _) in sorted(echelon.items())]
        return Mat._new(self.m, self.n, rows + [{} for _ in range(self.m - len(pivots))]), pivots

    def _echelon(self):
        """Forward elimination of the rows in order.

        Returns ({pivot: (primitive integer row, None)} in the order the
        independent rows were met, [their exact pivot values, in that order]).
        """
        echelon = {}
        values = []
        for r in self._rows:
            v, D = _int_row(r)
            p, D = _reduce(v, D, echelon)
            if p is not None:
                values.append(Fraction(v[p], D))
                echelon[p] = (_primitive(v, p), None)
        return echelon, values

    def nullspace(self):
        """Basis of ker(self) as a list of column vectors (lists of Fraction)."""
        R, pivots = self.rref()
        basis = {f: [Q_ZERO] * self.n for f in range(self.n) if f not in set(pivots)}
        for f, v in basis.items():
            v[f] = Q_ONE
        for p, row in zip(pivots, R._rows):
            for f, x in row.items():
                if f != p:
                    basis[f][p] = -x
        return list(basis.values())

    def solve(self, b):
        """One solution x of self @ x = b, or None when inconsistent."""
        X = self.solve_matrix(Mat(self.m, 1, [[x] for x in b]))
        if X is None:
            return None
        return [r.get(0, Q_ZERO) for r in X._rows]

    def solve_matrix(self, B: "Mat"):
        """Solve self @ X = B; returns X (free coordinates zero) or None."""
        if B.m != self.m:
            raise ValueError("shape mismatch in solve")
        n = self.n
        R, pivots = self.hstack(B).rref()
        # a pivot right of the coefficient columns is a row 0 = b != 0
        if pivots and pivots[-1] >= n:
            return None
        X = Mat.zero(n, B.n)
        for p, row in zip(pivots, R._rows):
            X._rows[p] = {j - n: x for j, x in row.items() if j >= n}
        return X

    def inv(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of non-square matrix")
        X = self.solve_matrix(Mat.eye(self.n))
        if X is None or self * X != Mat.eye(self.n):
            raise ValueError("matrix is singular")
        return X

    def hstack(self, other: "Mat") -> "Mat":
        return block_matrix([[self, other]], [self.m], [self.n, other.n])

    def vstack(self, *others: "Mat") -> "Mat":
        """self on top of each of others in turn."""
        if any(o.n != self.n for o in others):
            raise ValueError("vstack column mismatch")
        rows = [dict(r) for a in (self,) + others for r in a._rows]
        return Mat._new(len(rows), self.n, rows)


def block_matrix(blocks, row_dims, col_dims) -> Mat:
    """Assemble a matrix from a grid of blocks; None means a zero block."""
    rows = []
    for bi, rdim in enumerate(row_dims):
        band = [{} for _ in range(rdim)]
        j0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if (blk.m, blk.n) != (rdim, cdim):
                    raise ValueError("block (%d,%d) has shape (%d,%d), wanted (%d,%d)" % (bi, bj, blk.m, blk.n, rdim, cdim))
                for out, r in zip(band, blk._rows):
                    out.update({j0 + j: x for j, x in r.items()})
            j0 += cdim
        rows += band
    return Mat._new(sum(row_dims), sum(col_dims), rows)


def _sparse_row(pairs):
    """{column: Fraction} from (column, value) pairs, zeros left out."""
    row = {}
    for j, x in pairs:
        if type(x) is not Fraction:
            x = Fraction(x)
        if x:
            row[j] = x
    return row


def _axpy(v, c, row):
    """v += c * row on row dicts, dropping entries that cancel."""
    for k, x in row.items():
        y = v.get(k, 0) + c * x
        if y:
            v[k] = y
        else:
            del v[k]


def _int_row(r):
    """(v, D): the rational row dict r as integers v over one common denominator D."""
    D = lcm(*(x.denominator for x in r.values()))
    return {j: x.numerator * (D // x.denominator) for j, x in r.items()}, D


def _primitive(v, p):
    """The integer row v divided by its content, signed so that v[p] > 0."""
    c = gcd(*v.values()) * (-1 if v[p] < 0 else 1)
    return v if c == 1 else {j: x // c for j, x in v.items()}


def _cancel(v, e, p):
    """v <- a*v - b*e in place, (a, b) = (e[p], v[p]) / gcd, clearing v[p]; returns (a, b)."""
    g = gcd(e[p], v[p])
    a, b = e[p] // g, v[p] // g
    if a != 1:
        for j in v:
            v[j] *= a
    _axpy(v, -b, e)
    return a, b


def _reduce(v, D, echelon, combo=None):
    """Reduce the row v/D in place against echelon; return (pivot or None, D).

    v is a {column: int} dict holding no zeros; its pivot is its leftmost
    column.  echelon maps pivots to (primitive integer row e, combination).
    While v's pivot p is in echelon, _cancel takes v_p / (D e_p) times e off
    v/D, gcd(D, content(v)) is divided out, and combo gains the same multiple
    of e's combination."""
    while v:
        p = min(v)
        if p not in echelon:
            return p, D
        e, ecombo = echelon[p]
        a, b = _cancel(v, e, p)
        if combo is not None:
            _axpy(combo, Fraction(b, a * D), ecombo)
        D *= a
        g = gcd(D, *v.values())
        if g != 1:
            D //= g
            for j in v:
                v[j] //= g
    return None, D


class SparseEliminator:
    """Incremental echelon form for sparse rational vectors.

    Vectors are dicts {coordinate index: Fraction}.  add() keeps the vector
    when it is independent of everything seen so far and reports which stored
    vectors are selected; express() rewrites a vector as a combination of the
    selected ones.
    """

    def __init__(self):
        # pivot -> (primitive integer row dict, Fraction combo dict over selected tags)
        self.rows = {}
        self.selected = []

    def add(self, vec, tag=None):
        """Insert vec; returns its tag when independent, else None."""
        v, D = _int_row({k: x for k, x in vec.items() if x})
        combo = {}
        p, D = _reduce(v, D, self.rows, combo)
        if p is None:
            return None
        if tag is None:
            tag = len(self.selected)
        row = _primitive(v, p)
        # v / D = vec - sum(combo * selected) and row = v * s / D
        s = Fraction(D * row[p], v[p])
        rcombo = {tag: s}
        _axpy(rcombo, -s, combo)
        self.rows[p] = (row, rcombo)
        self.selected.append(tag)
        return tag

    def express(self, vec):
        """Combination dict over selected tags with vec = sum c_i * sel_i, or None."""
        v, D = _int_row({k: x for k, x in vec.items() if x})
        combo = {}
        return combo if _reduce(v, D, self.rows, combo)[0] is None else None

    @property
    def rank(self) -> int:
        return len(self.selected)
