"""Exact linear algebra over the rationals, with no floating point anywhere.

A Mat stores each row as (v, D): a {column: int} dict holding no zeros over
one positive denominator D, with gcd(D, content(v)) = 1.  That form is
canonical, so == and hash compare the stored pairs, and every operation runs
on ints over lcms of denominators.  Stored rows are never changed in place,
so matrices share them.  _int_row converts every entry but those of
from_int_rows, already ints over one D; a float is refused by exact, the one
check behind every exact entry point of the library.  Fractions are built
only on the way out (det builds one from the pivots' integers).  All
elimination runs through _reduce (pivot = leftmost column), behind rank,
pivots, det, rref (kernel, nullspace, solve, inv), positive_definite_inverse
and SparseEliminator:
v <- a*v - b*e in ints, common content of D and v removed; echelon rows are
primitive with a positive pivot, and rref returns each row e as (e, e[p]).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)
_ZERO_ROW = ({}, 1)


class Mat:
    """Sparse matrix with explicit shape, so zero-dimensional edges stay sane."""

    __slots__ = ("m", "n", "_rows")

    def __init__(self, m: int, n: int, rows):
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("row data does not match shape (%d, %d)" % (m, n))
        self.m, self.n = m, n
        self._rows = [_int_row(enumerate(r)) for r in rows]

    @classmethod
    def _new(cls, m: int, n: int, rows) -> "Mat":
        """Matrix over canonical (v, D) rows taken as they are."""
        mat = object.__new__(cls)
        mat.m, mat.n, mat._rows = m, n, rows
        return mat

    @classmethod
    def from_dicts(cls, m: int, n: int, rows) -> "Mat":
        """Matrix from m row dicts {column: value}; zero values are dropped."""
        _check_dicts(m, n, rows)
        return cls._new(m, n, [_int_row(r.items()) if r else _ZERO_ROW for r in rows])

    @classmethod
    def from_int_rows(cls, m: int, n: int, rows, D: int) -> "Mat":
        """Matrix from m row dicts {column: nonzero int}, every entry over D >= 1."""
        _check_dicts(m, n, rows)
        if D < 1:
            raise ValueError("denominator %d is not positive" % D)
        return cls._new(m, n, [_canonical(r, D) if r else _ZERO_ROW for r in rows])

    @classmethod
    def zero(cls, m: int, n: int) -> "Mat":
        return cls._new(m, n, [_ZERO_ROW] * m)

    @classmethod
    def eye(cls, n: int) -> "Mat":
        return cls._new(n, n, [({i: 1}, 1) for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @property
    def rows(self):
        """Fresh dense rows (lists of Fraction)."""
        return [[Fraction(v[j], D) if j in v else Q_ZERO for j in range(self.n)] for v, D in self._rows]

    def items(self):
        """The nonzero entries as (row, column, value), row by row."""
        return [(i, j, Fraction(x, D)) for i, (v, D) in enumerate(self._rows) for j, x in v.items()]

    def select_rows(self, idx) -> "Mat":
        """Matrix whose i-th row is row idx[i] of self, or zero where it is None."""
        return Mat._new(len(idx), self.n, [_ZERO_ROW if i is None else self._row((i,)) for i in idx])

    def _row(self, ij):
        """The stored row ij[0], each index in ij (row, then column) checked against the shape."""
        for k, size, name in zip(ij, (self.m, self.n), ("row", "column")):
            if not 0 <= k < size:
                raise IndexError("%s %d out of range" % (name, k))
        return self._rows[ij[0]]

    def __getitem__(self, ij):
        v, D = self._row(ij)
        return Fraction(v[ij[1]], D) if ij[1] in v else Q_ZERO

    def __eq__(self, other):
        return isinstance(other, Mat) and (self.m, self.n, self._rows) == (other.m, other.n, other._rows)

    def __hash__(self):
        return hash((self.m, self.n, tuple((frozenset(v.items()), D) for v, D in self._rows)))

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.m, self.n, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", c: int) -> "Mat":
        """self + c*other for c = 1 or -1, row by row over lcm(D, E)."""
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in %s" % ("+" if c > 0 else "-"))
        rows = []
        for r, (w, E) in zip(self._rows, other._rows):
            if w:
                v, D = r
                L = lcm(D, E)
                out = {j: x * (L // D) for j, x in v.items()}
                _axpy(out, c * (L // E), w)
                r = _canonical(out, L)
            rows.append(r)
        return Mat._new(self.m, self.n, rows)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        w, q = _int_row([(0, c)])  # c = w[0] / q
        return Mat._new(self.m, self.n, [_canonical({j: w[0] * x for j, x in v.items()}, q * D) if w else _ZERO_ROW
                                         for v, D in self._rows])

    def __mul__(self, other: "Mat") -> "Mat":
        """Exact product: integer sums over the common denominators D*L."""
        if self.n != other.m:
            raise ValueError("shape mismatch in *: (%d,%d)x(%d,%d)" % (self.m, self.n, other.m, other.n))
        L = lcm(*(D for _, D in other._rows))
        right = [w if E == L else {j: x * (L // E) for j, x in w.items()} for w, E in other._rows]
        out = []
        for v, D in self._rows:
            acc = {}
            for k, a in v.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_canonical({j: s for j, s in acc.items() if s}, D * L) if acc else _ZERO_ROW)
        return Mat._new(self.m, other.n, out)

    def apply(self, vec):
        """Matrix times column vector (a plain list), summed in ints like __mul__."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        w, L = _int_row(enumerate(vec))
        return [Fraction(sum(a * w[j] for j, a in v.items() if j in w), D * L) for v, D in self._rows]

    def transpose(self) -> "Mat":
        L = lcm(*(D for _, D in self._rows))
        cols = [{} for _ in range(self.n)]
        for i, (v, D) in enumerate(self._rows):
            f = L // D
            for j, x in v.items():
                cols[j][i] = x * f
        return Mat._new(self.n, self.m, [_canonical(col, L) for col in cols])

    def is_zero(self) -> bool:
        return not any(v for v, _ in self._rows)

    def rank(self) -> int:
        return len(self._echelon()[0])

    def pivots(self):
        """The pivot columns of the rref, in order, from one forward elimination."""
        return sorted(self._echelon()[0])

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
        return Fraction((-1 if inversions % 2 else 1) * prod(x for x, _ in values),
                        prod(D for _, D in values))

    def positive_definite_inverse(self):
        """The inverse of a symmetric self if it is positive definite, else None, from
        one forward elimination of [self | I].  While self is nonsingular the left
        block's pivots and pivot values are self's own; by Sylvester the s-th leading
        minor is the product of the first s, so row s must pivot in column s with a
        positive value.  Back-substitution gives X, checked by self * X = I."""
        n = self.n
        if self.m != n:
            return None
        A = self.hstack(Mat.eye(n))
        echelon, values = A._echelon()
        if list(echelon) != list(range(n)) or any(x <= 0 for x, _ in values):
            return None
        X = _solution(*A._rref(echelon), n)
        if self * X != Mat.eye(n):
            raise ArithmeticError("elimination of [G | I] gave X with G X != I")
        return X

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        return self._rref(self._echelon()[0])

    def _rref(self, echelon):
        """The rref of self from its forward elimination echelon, which it consumes."""
        pivots = sorted(echelon)
        # integer back-substitution from the last pivot up (rows below are reduced,
        # so no other pivot column is disturbed), then each row's content is dropped
        for p in reversed(pivots):
            row = echelon[p][0]
            for q in [q for q in row if q != p and q in echelon]:
                _cancel(row, echelon[q][0], q)
            echelon[p] = (_primitive(row, p), None)
        rows = [(e, e[p]) for p, (e, _) in sorted(echelon.items())]
        return Mat._new(self.m, self.n, rows + [_ZERO_ROW] * (self.m - len(pivots))), pivots

    def _echelon(self):
        """Forward elimination of the rows in order; returns ({pivot: (primitive
        integer row, None)}, [pivot value x / D as (x, D)]), both in the order met."""
        echelon = {}
        values = []
        for v, D in self._rows:
            v, D, p = _reduce(dict(v), D, echelon)
            if p is not None:
                values.append((v[p], D))
                echelon[p] = (_primitive(v, p), None)
        return echelon, values

    def kernel(self) -> "Mat":
        """Basis of ker(self) as the rows of a matrix: the row of free column f
        is 1 at f and -R[p, f] at each pivot p of the rref R, in ints."""
        R, pivots = self.rref()
        parts = dict.fromkeys(range(self.n), ())
        for p, (v, D) in zip(pivots, R._rows):
            del parts[p]
            for f, x in v.items():
                if f != p:
                    parts[f] += ((p, -x, D),)
        rows = []
        for f, ps in parts.items():
            L = lcm(*(D for _, _, D in ps))
            rows.append(_canonical({f: L, **{p: x * (L // D) for p, x, D in ps}}, L))
        return Mat._new(len(rows), self.n, rows)

    def nullspace(self):
        """Basis of ker(self) as a list of column vectors (lists of Fraction)."""
        return self.kernel().rows

    def solve(self, b):
        """One solution x of self @ x = b, or None when inconsistent."""
        X = self.solve_matrix(Mat(self.m, 1, [[x] for x in b]))
        if X is None:
            return None
        return [Fraction(v[0], D) if v else Q_ZERO for v, D in X._rows]

    def solve_matrix(self, B: "Mat"):
        """Solve self @ X = B; returns X (free coordinates zero) or None."""
        if B.m != self.m:
            raise ValueError("shape mismatch in solve")
        return _solution(*self.hstack(B).rref(), self.n)

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
        rows = [r for a in (self,) + others for r in a._rows]
        return Mat._new(len(rows), self.n, rows)


def block_matrix(blocks, row_dims, col_dims) -> Mat:
    """Assemble a matrix from a grid of blocks; None means a zero block.

    Each row goes over the lcm L of its pieces' denominators.  For a prime r
    of L, the piece whose D holds the most factors r has an entry prime to r,
    and L/D is prime to r, so the row is canonical as it stands."""
    rows = []
    for bi, rdim in enumerate(row_dims):
        band = []  # (column offset, rows) of each block in the band
        j0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if (blk.m, blk.n) != (rdim, cdim):
                    raise ValueError("block (%d,%d) has shape (%d,%d), wanted (%d,%d)" % (bi, bj, blk.m, blk.n, rdim, cdim))
                band.append((j0, blk._rows))
            j0 += cdim
        for i in range(rdim):
            pieces = [(j0, block_rows[i]) for j0, block_rows in band if block_rows[i][0]]
            L = lcm(*(D for _, (_, D) in pieces))
            rows.append(({j0 + j: x * (L // D) for j0, (v, D) in pieces for j, x in v.items()}, L))
    return Mat._new(sum(row_dims), sum(col_dims), rows)


def _solution(R, pivots, n):
    """X with M X = B (free coordinates zero), or None when inconsistent, from
    the rref R of [M | B] and its pivots, M having n columns."""
    # a pivot right of the coefficient columns is a row 0 = b != 0
    if pivots and pivots[-1] >= n:
        return None
    X = Mat.zero(n, R.n - n)
    for p, (v, D) in zip(pivots, R._rows):
        X._rows[p] = _canonical({j - n: x for j, x in v.items() if j >= n}, D)
    return X


def _check_dicts(m, n, rows):
    """Refuse row dicts that are not m rows with columns in [0, n)."""
    if len(rows) != m or any(r and (min(r) < 0 or max(r) >= n) for r in rows):
        raise ValueError("row data does not match shape (%d, %d)" % (m, n))


def exact(x, what="coefficient") -> Fraction:
    """x as a Fraction: an int, a Fraction or exact input to Fraction() such as
    "p/q".  A float is refused, since its binary value is not the decimal it
    was written as (0.1 would be 3602879701896397/36028797018963968).  The
    hot callers (Polynomial, _int_row) come here only for a value that is not
    already a Fraction, so their common case pays nothing."""
    if isinstance(x, float):
        raise TypeError("%s %r is a float; exact input takes int, Fraction or 'p/q'" % (what, x))
    return Fraction(x)


def _int_row(pairs):
    """The canonical row (v, D) of (column, value) pairs, zeros left out; the
    values are ints, Fractions or exact input to Fraction() such as "p/q"."""
    v, D = {}, 1
    for j, x in pairs:
        if type(x) is not int and type(x) is not Fraction:
            x = exact(x, "matrix entry")
        x, q = x.as_integer_ratio()
        if q == 1:
            if x:
                v[j] = x * D
            continue
        if D % q:
            f = q // gcd(D, q)
            v, D = {k: y * f for k, y in v.items()}, D * f
        v[j] = x * (D // q)
    return v, D


def _canonical(v, D):
    """(v, D) with gcd(D, content(v)) divided out of both; v holds no zeros."""
    g = gcd(D, *v.values())
    return (v, D) if g == 1 else ({j: x // g for j, x in v.items()}, D // g)


def _axpy(v, c, row):
    """v += c * row on row dicts, dropping entries that cancel."""
    for k, x in row.items():
        y = v.get(k, 0) + c * x
        if y:
            v[k] = y
        else:
            del v[k]


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
    """Reduce the row v/D against echelon, changing v; return (v, D, pivot or None).

    v is a {column: int} dict holding no zeros; its pivot is its leftmost
    column.  echelon maps pivots to (primitive integer row e, combination).
    While v's pivot p is in echelon, _cancel takes v_p / (D e_p) times e off
    v/D, gcd(D, content(v)) is divided out, and combo gains the same multiple
    of e's combination."""
    while v:
        p = min(v)
        if p not in echelon:
            return v, D, p
        e, ecombo = echelon[p]
        a, b = _cancel(v, e, p)
        if combo is not None:
            _axpy(combo, Fraction(b, a * D), ecombo)
        v, D = _canonical(v, D * a)
    return v, D, None


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
        v, D = _int_row(vec.items())
        combo = {}
        v, D, p = _reduce(v, D, self.rows, combo)
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
        v, D = _int_row(vec.items())
        combo = {}
        return combo if _reduce(v, D, self.rows, combo)[2] is None else None

    @property
    def rank(self) -> int:
        return len(self.selected)
