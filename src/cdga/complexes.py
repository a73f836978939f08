"""Cochain complexes of finite-dimensional Q-vector spaces.

A complex stores one ordered basis per degree and the differential as exact
rational matrices d_k : C_k -> C_{k+1} with d_{k+1} d_k = 0.  All the usual
surgery is provided: shifts, duals, cones, cylinders, tensor products,
Betti numbers (one rank per differential, betti_numbers), ranks of induced
maps on cohomology (InducedRanks), cohomology spaces with canonical
representatives (HomologySpace, only where classes are read),
contractibility witnesses and two-route weak-equivalence checks.
Where the construction fixes the answer it is witnessed, not computed:
the cylinder's deformation retraction (CylinderData.retraction) and the
cone's contraction (cone_contraction) are explicit degree -1 maps, and
check_homotopy certifies d h + h d = 1 - i p by one graded_commutator per degree.

Direct sums, cones, mapping cones and cylinders are lists of pieces (label
prefix, complex, degree offset), a piece adding complex_{m+offset} in degree
m, laid out by one block assembler (_assemble) from the blocks of d_m;
_assemble_map builds their chain maps (the cylinder's four, free_to_cone_iso)
and homotopies the same way.  Every (-1)^m is _sign(m).

Sign conventions (fixed once here, used everywhere):

* cone(C)_m = C_m (+) C_{m+1} with d = [[d_m, (-1)^m I], [0, d_{m+1}]].
* shifting by b moves degree m to m+b and reuses the matrices unchanged.
* the dual complex has d_k = (-1)^(k+1) transpose(d_{-k-1}), the unique
  alternating choice making <d c*, x> + (-1)^|c*| <c*, d x> = 0.
* cylinder(f)_m = F_m (+) F_{m+1} (+) F'_m with
  d(x, y, z) = (d x + (-1)^(m+1) y, d y, d' z + (-1)^m f y),
  the unique signs for which both inclusions and the projection
  (x, y, z) -> f(x) + z are chain maps.
* cone(f)_m = F_{m+1} (+) F'_m is the quotient of the cylinder by F.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .graded import GradedError, GradedSpace, graded_commutator
from .linalg import Mat, block_matrix


class ComplexError(ValueError):
    """A mathematical invariant failed (bad differential, bad map, ...)."""


class InternalCheckError(RuntimeError):
    """Two independent routes to the same fact disagreed; abort loudly."""


class Complex:
    """Bounded cochain complex over Q with a labelled basis per degree."""

    def __init__(self, space: GradedSpace, diffs, validate: bool = True):
        self.space = space
        self.d = {}
        for k, mat in diffs.items():
            k = int(k)
            if not isinstance(mat, Mat):
                mat = Mat.from_rows(mat)
            if mat.is_zero():
                continue
            self.d[k] = mat
        if validate:
            self.validate()

    # -- views ---------------------------------------------------------------

    def dim(self, k: int) -> int:
        return self.space.dim(k)

    def labels(self, k: int):
        return self.space.labels(k)

    def degrees(self):
        return self.space.degrees()

    def support(self):
        return [k for k in self.space.degrees() if self.space.dim(k) > 0]

    def diff(self, k: int) -> Mat:
        if k in self.d:
            return self.d[k]
        return Mat.zero(self.dim(k + 1), self.dim(k))

    # -- validation ------------------------------------------------------------

    def validate(self):
        report = check(self)
        if not report.ok:
            raise ComplexError("; ".join(report.violations))

    def __eq__(self, other):
        return isinstance(other, Complex) and self.space == other.space and self.d == other.d

    def __repr__(self):
        dims = {k: self.dim(k) for k in self.support()}
        return "Complex(dims=%r)" % dims


@dataclass
class CheckReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def check(c: Complex) -> CheckReport:
    """Shape and d*d = 0 audit; returns every violation found."""
    violations = []
    for k, mat in sorted(c.d.items()):
        want = (c.dim(k + 1), c.dim(k))
        if (mat.m, mat.n) != want:
            violations.append(
                "differential at degree %d has shape %dx%d, expected %dx%d"
                % (k, mat.m, mat.n, want[0], want[1])
            )
    if not violations:
        for k in c.support():
            if c.dim(k + 1) and c.dim(k + 2):
                prod = c.diff(k + 1) * c.diff(k)
                if not prod.is_zero():
                    violations.append(
                        "d o d is nonzero starting at degree %d" % k
                    )
    return CheckReport(not violations, violations)


def structurally_equal(a: Complex, b: Complex) -> bool:
    """Same dimensions and identical differential matrices (labels ignored)."""
    if [ (k, a.dim(k)) for k in a.support() ] != [ (k, b.dim(k)) for k in b.support() ]:
        return False
    for k in a.support():
        if a.diff(k) != b.diff(k):
            return False
    return True


# -- graded maps ---------------------------------------------------------------


class GradedMap:
    """Degree-r linear map between complexes, one matrix per source degree."""

    def __init__(self, source: Complex, target: Complex, degree: int, comps):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.comps = {}
        for k, mat in comps.items():
            k = int(k)
            if not isinstance(mat, Mat):
                mat = Mat.from_rows(mat)
            want = (target.dim(k + self.degree), source.dim(k))
            if (mat.m, mat.n) != want:
                raise ComplexError(
                    "component at degree %d has shape %dx%d, expected %dx%d"
                    % (k, mat.m, mat.n, want[0], want[1])
                )
            if not mat.is_zero():
                self.comps[k] = mat

    def comp(self, k: int) -> Mat:
        if k in self.comps:
            return self.comps[k]
        return Mat.zero(self.target.dim(k + self.degree), self.source.dim(k))

    def is_chain_map(self) -> bool:
        """d' o f == (-1)^deg f o d in every degree."""
        for k in set(self.source.support()) | set(self.comps):
            left = self.target.diff(k + self.degree) * self.comp(k)
            right = self.comp(k + 1) * self.source.diff(k)
            if left != (right.scale(-1) if self.degree % 2 else right):
                return False
        return True

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other."""
        comps = {k: self.comp(k + other.degree) * other.comp(k) for k in other.source.degrees()}
        return GradedMap(other.source, self.target, self.degree + other.degree, comps)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ComplexError("cannot add maps of different degrees")
        comps = {}
        for k in set(self.comps) | set(other.comps):
            comps[k] = self.comp(k) + other.comp(k)
        return GradedMap(self.source, self.target, self.degree, comps)

    def scale(self, c) -> "GradedMap":
        return GradedMap(
            self.source,
            self.target,
            self.degree,
            {k: m.scale(c) for k, m in self.comps.items()},
        )


class ChainMap(GradedMap):
    """Degree-0 map commuting with the differentials."""

    def __init__(self, source, target, comps, validate: bool = True):
        super().__init__(source, target, 0, comps)
        if validate and not self.is_chain_map():
            raise ComplexError("not a chain map: d' o f != f o d")

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        return cls(c, c, {k: Mat.eye(c.dim(k)) for k in c.support()}, validate=False)

    @cached_property
    def cone(self) -> Complex:
        """mapping_cone(self), built on first read and kept."""
        return mapping_cone(self)


# -- homology -------------------------------------------------------------------


def betti_numbers(c: Complex, window=None) -> dict:
    """{k: dim C_k - rank d_k - rank d_(k-1)} for k in the window.

    The window defaults to the span of the support; hi < lo gives {}.  One
    rank per differential d_(lo-1) .. d_hi, and d_k d_(k-1) = 0 is rechecked
    in every degree: composites are built unvalidated, and without d o d = 0
    the rank formula is not a Betti number.
    """
    if window is None:
        sup = c.support()
        window = (min(sup), max(sup)) if sup else (0, -1)
    lo, hi = window
    if hi < lo:
        return {}
    rank = {k: c.diff(k).rank() for k in range(lo - 1, hi + 1)}
    betti = {}
    for k in range(lo, hi + 1):
        if k in c.d and k - 1 in c.d and not (c.d[k] * c.d[k - 1]).is_zero():
            raise InternalCheckError("d o d is nonzero at degree %d" % k)
        betti[k] = c.dim(k) - rank[k] - rank[k - 1]
    return betti


class HomologySpace:
    """Cohomology of one degree, with canonical representatives.

    The cycle space gets its echelon kernel basis, kept as sparse rows.  The
    pivot columns of [d_(k-1) | the cycles as columns], from one forward
    elimination (Mat.pivots), then give both bases: those among the columns
    of d_(k-1) (that matrix's own pivot columns) span the boundaries, and
    those among the cycles, the first cycles in basis order completing the
    boundaries, are the class representatives (the rows of reps;
    representatives lists them densely).  Everything is exact, so the
    coordinates of any number of classes come from one solve against
    [boundaries | representatives], built on the first class_matrix call.
    Betti numbers alone come cheaper from betti_numbers.
    """

    def __init__(self, c: Complex, k: int):
        self.complex = c
        self.k = k
        d_in = c.diff(k - 1)
        cycles = c.diff(k).kernel()
        piv = d_in.hstack(cycles.transpose()).pivots()
        self._boundary_cols = [j for j in piv if j < d_in.n]
        self.boundary_rank = len(self._boundary_cols)
        self.betti = cycles.m - self.boundary_rank
        self.reps = cycles.select_rows([j - d_in.n for j in piv if j >= d_in.n])
        if self.reps.m != self.betti:
            raise InternalCheckError(
                "homology basis completion failed at degree %d" % k
            )

    @cached_property
    def _decomp(self):
        """The boundary basis, then the representatives, as columns."""
        d_in = self.complex.diff(self.k - 1)
        return d_in.transpose().select_rows(self._boundary_cols).vstack(self.reps).transpose()

    @cached_property
    def representatives(self):
        """The class representatives as column vectors (lists of Fraction)."""
        return self.reps.rows

    def is_cycle(self, vec) -> bool:
        return all(x == 0 for x in self.complex.diff(self.k).apply(vec))

    def coords(self, vec):
        """Coordinates of the class [vec] in the representative basis."""
        return [row[0] for row in self.class_matrix(Mat(len(vec), 1, [[x] for x in vec])).rows]

    def class_matrix(self, B: Mat) -> Mat:
        """Coordinates of the classes of B's columns, cocycles of degree k, as
        columns: one solve against [boundaries | representatives] for all."""
        if not B.n:
            return Mat.zero(self.betti, 0)
        if not (self.complex.diff(self.k) * B).is_zero():
            raise ComplexError("vector at degree %d is not a cocycle" % self.k)
        X = self._decomp.solve_matrix(B)
        if X is None:
            raise InternalCheckError(
                "cocycle outside cycle space at degree %d" % self.k
            )
        return X.select_rows(range(self.boundary_rank, X.m))


def induced_on_homology(f: ChainMap, k: int, hs=None, ht=None) -> Mat:
    """Matrix of H^k(f) in the canonical representative bases."""
    hs = hs or HomologySpace(f.source, k)
    ht = ht or HomologySpace(f.target, k)
    return ht.class_matrix(f.comp(k) * hs.reps.transpose())


class InducedRanks:
    """rank H^k(f) and the Betti numbers of both ends of a chain map, by ranks alone.

    With Z the kernel of the source's d_k, the pivots of [d'_(k-1) | f_k Z]
    (one forward elimination, Mat.pivots) split in two: those in the first
    block are d'_(k-1)'s own, and the rest count rank H^k(f), since f_k Z
    spans the image of the cycles and f maps boundaries into boundaries.
    So b_k(source) = dim Z - rank d_(k-1), b_k(target) = dim - rank d'_k -
    rank d'_(k-1) and rank H^k(f) need no class basis and no solve.  Each
    degree's kernel and split is computed once and kept: the source's d_k
    is eliminated only for its kernel, the target's d'_(k-1) only inside
    the stacked matrix at k.
    """

    def __init__(self, f: ChainMap):
        self.f = f
        self._cycles = {}  # k -> ker d_k of the source, as rows
        self._split = {}  # k -> (rank d'_(k-1), rank H^k(f))

    def _kernel(self, k: int) -> Mat:
        if k not in self._cycles:
            self._cycles[k] = self.f.source.diff(k).kernel()
        return self._cycles[k]

    def _pivots(self, k: int):
        if k not in self._split:
            d_in = self.f.target.diff(k - 1)
            piv = d_in.hstack(self.f.comp(k) * self._kernel(k).transpose()).pivots()
            first = bisect_left(piv, d_in.n)
            self._split[k] = first, len(piv) - first
        return self._split[k]

    def rank(self, k: int) -> int:
        """rank H^k(f)."""
        return self._pivots(k)[1]

    def source_betti(self, k: int) -> int:
        return self._kernel(k).m - self.f.source.dim(k - 1) + self._kernel(k - 1).m

    def target_betti(self, k: int) -> int:
        return self.f.target.dim(k) - self._pivots(k + 1)[0] - self._pivots(k)[0]


# -- shift / dual ---------------------------------------------------------------


def _sign(m: int) -> int:
    """(-1)^m: the one sign rule of the dual, the tensor product and every composite."""
    return -1 if m % 2 else 1


def shift(c: Complex, b: int) -> Complex:
    """Degree shift: shift(C, b)_m = C_{m-b}; matrices are reused unsigned."""
    labels = {k + b: c.labels(k) for k in c.support()}
    diffs = {k + b: mat for k, mat in c.d.items()}
    return Complex(GradedSpace(labels), diffs, validate=False)


def dual(c: Complex) -> Complex:
    """Linear dual: dual(C)_k = (C_{-k})*, d_k = (-1)^(k+1) transpose(d_{-k-1})."""
    labels = {-k: tuple(l + "*" for l in c.labels(k)) for k in c.support()}
    # c.diff(-k - 1) : C_{-k-1} -> C_{-k}; zero blocks are dropped by Complex
    diffs = {k: c.diff(-k - 1).transpose().scale(_sign(k + 1)) for k in labels}
    return Complex(GradedSpace(labels), diffs, validate=False)


# -- sums, cones, cylinders ------------------------------------------------------


def _sizes(pieces, m):
    return [c.dim(m + off) for _, c, off in pieces]


def _assemble(pieces, blocks) -> Complex:
    """The complex on pieces with d_m = block_matrix(blocks(m)); None is a zero block."""
    degrees = sorted({k - off for _, c, off in pieces for k in c.support()})
    labels, diffs = {}, {}
    for m in degrees:
        labels[m] = tuple(p + l for p, c, off in pieces for l in c.labels(m + off))
        rows, cols = _sizes(pieces, m + 1), _sizes(pieces, m)
        if sum(rows) and sum(cols):
            diffs[m] = block_matrix(blocks(m), rows, cols)
    return Complex(GradedSpace(labels), diffs, validate=False)


def _assemble_map(source, target, src_pieces, tgt_pieces, blocks, degree=0) -> GradedMap:
    """The degree-r map source -> target with f_m = block_matrix(blocks(m)), sized by
    the pieces: a checked ChainMap for r = 0, else a GradedMap (a homotopy)."""
    comps = {}
    for m in source.support():
        rows = _sizes(tgt_pieces, m + degree)
        if sum(rows):
            comps[m] = block_matrix(blocks(m), rows, _sizes(src_pieces, m))
    if degree:
        return GradedMap(source, target, degree, comps)
    return ChainMap(source, target, comps)


def _eye(c: Complex, k: int) -> Mat:
    return Mat.eye(c.dim(k))


def direct_sum(a: Complex, b: Complex) -> Complex:
    return _assemble(
        [("a.", a, 0), ("b.", b, 0)], lambda m: [[a.diff(m), None], [None, b.diff(m)]]
    )


def _cone_pieces(c: Complex):
    return [("a.", c, 0), ("b.", c, 1)]


def cone(c: Complex) -> Complex:
    """cone(C)_m = C_m (+) C_{m+1}, d = [[d_m, (-1)^m I], [0, d_{m+1}]]."""
    return _assemble(
        _cone_pieces(c),
        lambda m: [[c.diff(m), _eye(c, m + 1).scale(_sign(m))], [None, c.diff(m + 1)]],
    )


def cone_contraction(c: Complex, cc: Complex = None) -> GradedMap:
    """The contraction h_m(x, y) = (0, (-1)^(m-1) x) of cc = cone(c), checked.

    d h + h d = 1 holds block by block (docs/conventions.md), so the cone of
    a complex is acyclic with no rank taken; cc defaults to cone(c), and a
    cc on which the product check fails raises InternalCheckError.
    """
    cc = cone(c) if cc is None else cc
    pieces = _cone_pieces(c)
    h = _assemble_map(
        cc, cc, pieces, pieces,
        lambda m: [[None, None], [_eye(c, m).scale(_sign(m - 1)), None]], degree=-1,
    )
    return check_homotopy(h, what="cone contraction")


def cone_prime(c: Complex) -> Complex:
    """cone'(G)_m = G_{m-1} (+) G_m with the same triangular differential.

    Equals cone(shift(G, +1)) degree by degree.  When the input lives in
    degrees <= 0 the output is truncated at degree 0 (so the top copy of G_0
    is dropped and d_0 = 0), matching the use on negatively graded objects.
    """
    out = cone(shift(c, 1))
    sup = c.support()
    if sup and max(sup) <= 0:
        labels = {k: out.labels(k) for k in out.support() if k <= 0}
        diffs = {k: m for k, m in out.d.items() if k <= 0 and k + 1 <= 0}
        out = Complex(GradedSpace(labels), diffs, validate=False)
    return out


def strip_differential(c: Complex) -> Complex:
    return Complex(c.space, {}, validate=False)


def module_cone_prime(c: Complex) -> Complex:
    """cone' of the underlying graded space (differential forgotten)."""
    return cone_prime(strip_differential(c))


def free_to_cone_iso(c: Complex) -> ChainMap:
    """The canonical isomorphism module_cone_prime(shift(C,-1)) -> cone(C).

    Both sides have C_m (+) C_{m+1} in degree m; the map is unitriangular,
    phi_m = [[I, 0], [(-1)^(m+1) d_m, I]], and is a chain isomorphism.
    """
    sup = c.support()
    if sup and max(sup) == 1:
        # cone_prime truncates inputs supported in degrees <= 0, and
        # shift(c, -1) lands exactly on that boundary: the degree-1 part of
        # the cone would be cut away.  Every other support is fine.
        raise GradedError(
            "free-model comparison needs support <= 0 or top degree >= 2; "
            "top degree 1 collides with the cone_prime truncation"
        )
    src = module_cone_prime(shift(c, -1))
    tgt = cone(c)
    for m in tgt.support():
        if src.dim(m) != c.dim(m) + c.dim(m + 1):
            raise InternalCheckError("free model and cone disagree in degree %d" % m)
    pieces = _cone_pieces(c)
    return _assemble_map(
        src, tgt, pieces, pieces,
        lambda m: [[_eye(c, m), None], [c.diff(m).scale(_sign(m + 1)), _eye(c, m + 1)]],
    )


@dataclass
class CylinderData:
    """The cylinder of f with its inclusions and projection.

    The mapping cone of f and the collapse of the cylinder onto it are
    built, and the collapse chain-checked, only when first read.
    """

    cylinder: Complex
    include_source: ChainMap
    include_target: ChainMap
    project: ChainMap
    _f: ChainMap

    @cached_property
    def cone(self) -> Complex:
        return mapping_cone(self._f)

    @cached_property
    def retraction(self) -> GradedMap:
        """The deformation retraction h_m(x, y, z) = (0, (-1)^m x, 0) onto the target.

        p i = 1 and d h + h d = 1 - i p are checked by products (derived in
        docs/conventions.md), else InternalCheckError: i and p are inverse
        homotopy equivalences, so the projection is a weak equivalence.
        """
        F, G = self._f.source, self._f.target
        pi = self.project.compose(self.include_target)
        if any(pi.comp(k) != _eye(G, k) for k in G.support()):
            raise InternalCheckError("cylinder projection is not a left inverse of the inclusion")
        pieces = _cylinder_pieces(self._f)
        h = _assemble_map(
            self.cylinder, self.cylinder, pieces, pieces,
            lambda m: [[None] * 3, [_eye(F, m).scale(_sign(m)), None, None], [None] * 3],
            degree=-1,
        )
        return check_homotopy(h, self.include_target.compose(self.project),
                              what="cylinder retraction")

    @cached_property
    def collapse(self) -> ChainMap:
        f = self._f
        pieces = _cylinder_pieces(f)
        return _assemble_map(
            self.cylinder, self.cone, pieces, pieces[1:],  # cone(f) = cylinder / F: pieces y, z
            lambda m: [[None, _eye(f.source, m + 1), None], [None, None, _eye(f.target, m)]],
        )


def mapping_cone(f: ChainMap) -> Complex:
    """cone(f)_m = F_{m+1} (+) F'_m, d = [[d, 0], [(-1)^m f, d']]."""
    F, G = f.source, f.target
    return _assemble(
        [("s.", F, 1), ("t.", G, 0)],
        lambda m: [[F.diff(m + 1), None], [f.comp(m + 1).scale(_sign(m)), G.diff(m)]],
    )


def _cylinder_pieces(f):
    return [("x.", f.source, 0), ("y.", f.source, 1), ("z.", f.target, 0)]


def mapping_cylinder(f: ChainMap) -> CylinderData:
    """Cylinder with its inclusions and projection; the collapse onto the cone on demand."""
    F, G = f.source, f.target
    pieces = _cylinder_pieces(f)
    cyl = _assemble(
        pieces,
        lambda m: [
            [F.diff(m), _eye(F, m + 1).scale(_sign(m + 1)), None],
            [None, F.diff(m + 1), None],
            [None, f.comp(m + 1).scale(_sign(m)), G.diff(m)],
        ],
    )
    source, target = [("", F, 0)], [("", G, 0)]
    return CylinderData(
        cylinder=cyl,
        include_source=_assemble_map(
            F, cyl, source, pieces, lambda m: [[_eye(F, m)], [None], [None]]
        ),
        include_target=_assemble_map(
            G, cyl, target, pieces, lambda m: [[None], [None], [_eye(G, m)]]
        ),
        project=_assemble_map(
            cyl, G, pieces, target, lambda m: [[f.comp(m), None, _eye(G, m)]]
        ),
        _f=f,
    )


# -- tensor product ----------------------------------------------------------------


def tensor_complex(a: Complex, b: Complex) -> Complex:
    """(A (x) B)_m = sum A_p (x) B_{m-p}, d(x(x)y) = dx(x)y + (-1)^p x(x)dy."""
    sup_a, sup_b = a.support(), b.support()
    if not sup_a or not sup_b:
        return Complex(GradedSpace({}), {}, validate=False)
    degrees = sorted({p + q for p in sup_a for q in sup_b})
    basis = {}
    labels = {}
    for m in degrees:
        items = []
        for p in sup_a:
            q = m - p
            if b.dim(q) == 0:
                continue
            for i in range(a.dim(p)):
                for j in range(b.dim(q)):
                    items.append((p, i, j))
        basis[m] = items
        labels[m] = tuple(
            "(%s)(%s)" % (a.labels(p)[i], b.labels(m - p)[j]) for p, i, j in items
        )
    index = {m: {t: pos for pos, t in enumerate(ts)} for m, ts in basis.items()}
    diffs = {}
    for m in degrees:
        if m + 1 not in basis or not basis[m]:
            continue
        src, tgt = index[m], index[m + 1]
        rows = [{} for _ in tgt]
        # d(x (x) y) = dx (x) y + (-1)^p x (x) dy, one nonzero of d_a or d_b at a time
        for p in sup_a:
            q, sgn = m - p, _sign(p)
            for r, i, v in a.diff(p).items():
                for j in range(b.dim(q)):
                    rows[tgt[(p + 1, r, j)]][src[(p, i, j)]] = v
            for r, j, v in b.diff(q).items():
                for i in range(a.dim(p)):
                    rows[tgt[(p, i, r)]][src[(p, i, j)]] = sgn * v
        mat = Mat.from_dicts(len(tgt), len(src), rows)
        if not mat.is_zero():
            diffs[m] = mat
    return Complex(GradedSpace(labels), diffs, validate=False)


# -- contractibility ------------------------------------------------------------------


def contracting_homotopy(c: Complex):
    """Degree -1 map h with d h + h d = id, or None if the complex has homology.

    Built from the pivot-column splitting: in each degree the pivot columns
    W_k of d_k map isomorphically onto the image, and for an acyclic complex
    C_k = im d_{k-1} (+) span(W_k); h sends the boundary part back to its
    unique preimage supported on W_{k-1}.
    """
    sup = c.support()
    pivots = {k: c.diff(k).pivots() for k in sup}
    comps = {}
    for k in sup:
        n = c.dim(k)
        w_prev = pivots.get(k - 1, [])
        w_here = pivots.get(k, [])
        if len(w_prev) + len(w_here) != n:
            return None
        # columns: d_{k-1} on W_{k-1}, then the unit vectors of W_k
        cols = c.diff(k - 1).transpose().select_rows(w_prev)
        try:
            X = cols.vstack(Mat.eye(n).select_rows(w_here)).transpose().inv()
        except ValueError:
            return None
        # h_k puts the W_{k-1} coordinates of x back on W_{k-1}
        place = {j: row for row, j in enumerate(w_prev)}
        comps[k] = X.select_rows([place.get(j) for j in range(c.dim(k - 1))])
    return check_homotopy(GradedMap(c, c, -1, comps))


def check_homotopy(h: GradedMap, ip: GradedMap = None, what="contraction witness") -> GradedMap:
    """h, once {h, d} = 1 - ip holds in every degree of the support (ip = 0
    when None), by one graded_commutator per degree; else InternalCheckError."""
    c = h.source
    for k in c.support():
        want = _eye(c, k) if ip is None else _eye(c, k) - ip.comp(k)
        if graded_commutator(h.comp, -1, c.diff, 1, k) != want:
            raise InternalCheckError("%s failed verification at degree %d" % (what, k))
    return h


def augmented(c: Complex, epsilon) -> Complex:
    """Append Q in degree 1 via the augmentation row epsilon on degree 0."""
    sup = c.support()
    if sup and max(sup) > 0:
        raise ComplexError(
            "augmentation only applies to complexes supported in degrees <= 0"
        )
    labels = {k: c.labels(k) for k in sup}
    labels[1] = ("aug",)
    diffs = {k: m for k, m in c.d.items()}
    if c.dim(0):
        diffs[0] = Mat(1, c.dim(0), [list(map(Fraction, epsilon))])
    return Complex(GradedSpace(labels), diffs)


def is_contractible(c: Complex, augmentation=None):
    """(flag, witness): acyclicity plus an explicit dh + hd = id homotopy.

    With `augmentation`, the check runs on the augmented complex (Q glued on
    top of degree 0) and the witness lives there.
    """
    target = augmented(c, augmentation) if augmentation is not None else c
    if any(betti_numbers(target).values()):
        return False, None
    h = contracting_homotopy(target)
    if h is None:
        raise InternalCheckError(
            "acyclic complex without contraction witness"
        )
    return True, h


# -- weak equivalence ---------------------------------------------------------------


@dataclass
class WeakEquivalenceReport:
    is_equivalence: bool
    window: tuple
    iso_degrees: dict
    cone_betti: dict
    routes_agree: bool

    def __bool__(self):
        return self.is_equivalence


def is_weak_equivalence(f: ChainMap, window=None) -> WeakEquivalenceReport:
    """Quasi-isomorphism test by two independent routes.

    Route one asks H^k(f) to be an isomorphism degree by degree, by ranks
    (InducedRanks): b_k(source) = b_k(target) = rank H^k(f), with no class
    basis built; route two asks the mapping cone to be acyclic.  Without a
    window both routes run over the full (bounded) support and their
    verdicts must agree exactly, anything else raises InternalCheckError.
    With window=(a, b) the isomorphism route runs on [a, b] and the cone
    route on [a, b-1], which is the sound restriction for data only trusted
    up to degree b.
    """
    sup = sorted(set(f.source.support()) | set(f.target.support()))
    if window is None:
        if not sup:
            return WeakEquivalenceReport(True, (0, 0), {}, {}, True)
        lo, hi = min(sup) - 1, max(sup) + 1
        cone_hi = hi
    else:
        lo, hi = window
        cone_hi = hi - 1
    ranks = InducedRanks(f)
    iso = {k: ranks.source_betti(k) == ranks.target_betti(k) == ranks.rank(k)
           for k in range(lo, hi + 1)}
    cone_betti = betti_numbers(f.cone, (lo, cone_hi))
    h_ok = all(iso.values())
    c_ok = all(v == 0 for v in cone_betti.values())
    if window is None:
        if h_ok != c_ok:
            raise InternalCheckError(
                "homology route and cone route disagree on weak equivalence"
            )
        verdict = h_ok
    else:
        verdict = h_ok and c_ok
    return WeakEquivalenceReport(verdict, (lo, hi), iso, cone_betti, h_ok == c_ok)
