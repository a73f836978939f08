"""Cochain complexes of finite-dimensional Q-vector spaces.

A complex stores one ordered basis per degree and the differential as exact
rational matrices d_k : C_k -> C_{k+1} with d_{k+1} d_k = 0.  All the usual
surgery is provided: shifts, duals, cones, cylinders, tensor products,
homology with canonical representatives, contractibility witnesses and
two-route weak-equivalence checks.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .graded import GradedError, GradedSpace
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
        return (
            isinstance(other, Complex)
            and self.space == other.space
            and {k: m for k, m in self.d.items()}
            == {k: m for k, m in other.d.items()}
        )

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
        comps = {}
        for k in other.source.degrees():
            m = self.comp(k + other.degree) * other.comp(k)
            if not m.is_zero():
                comps[k] = m
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


# -- homology -------------------------------------------------------------------


class HomologySpace:
    """Cohomology of one degree, with canonical representatives.

    Representatives: the cycle space gets its echelon nullspace basis, the
    boundary image gets the pivot columns of the incoming differential, and
    the class representatives are the first cycle basis vectors (in basis
    order) completing the boundaries.  Everything is exact, so coordinates
    of a class are computed by solving against [boundaries | representatives].
    """

    def __init__(self, c: Complex, k: int):
        self.complex = c
        self.k = k
        n = c.dim(k)
        d_out = c.diff(k)
        d_in = c.diff(k - 1)
        cycles = d_out.nullspace() if n else []
        self.cycle_rank = len(cycles)
        _, piv_in = d_in.rref()
        bounds = d_in.transpose().select_rows(piv_in)  # boundary basis, as rows
        self.boundary_rank = bounds.m
        self.betti = self.cycle_rank - self.boundary_rank
        stacked = bounds.vstack(Mat(len(cycles), n, cycles))
        _, piv = stacked.transpose().rref()
        rep_idx = [j - bounds.m for j in piv if j >= bounds.m]
        self.representatives = [cycles[j] for j in rep_idx]
        if len(self.representatives) != self.betti:
            raise InternalCheckError(
                "homology basis completion failed at degree %d" % k
            )
        # columns: the boundary basis, then the representatives
        self._decomp = stacked.select_rows(piv).transpose()

    def is_cycle(self, vec) -> bool:
        return all(x == 0 for x in self.complex.diff(self.k).apply(vec))

    def coords(self, vec):
        """Coordinates of the class [vec] in the representative basis."""
        if not self.is_cycle(vec):
            raise ComplexError("vector at degree %d is not a cocycle" % self.k)
        x = self._decomp.solve(list(vec))
        if x is None:
            raise InternalCheckError(
                "cocycle outside cycle space at degree %d" % self.k
            )
        return x[self.boundary_rank:]


@dataclass
class HomologyReport:
    degrees: list
    betti: dict
    cycle_rank: dict
    boundary_rank: dict
    spaces: dict = field(repr=False, default_factory=dict)

    def euler_characteristic(self):
        return sum((-1) ** (k % 2) * b for k, b in self.betti.items())


def homology(c: Complex, window=None) -> HomologyReport:
    if window is None:
        sup = c.support()
        degrees = list(range(min(sup), max(sup) + 1)) if sup else []
    else:
        a, b = window
        degrees = list(range(a, b + 1))
    spaces = {k: HomologySpace(c, k) for k in degrees}
    return HomologyReport(
        degrees=degrees,
        betti={k: spaces[k].betti for k in degrees},
        cycle_rank={k: spaces[k].cycle_rank for k in degrees},
        boundary_rank={k: spaces[k].boundary_rank for k in degrees},
        spaces=spaces,
    )


def betti_numbers(c: Complex, window=None):
    return homology(c, window).betti


def induced_on_homology(f: ChainMap, k: int, hs=None, ht=None) -> Mat:
    """Matrix of H^k(f) in the canonical representative bases."""
    hs = hs or HomologySpace(f.source, k)
    ht = ht or HomologySpace(f.target, k)
    cols = []
    for rep in hs.representatives:
        cols.append(ht.coords(f.comp(k).apply(rep)))
    return Mat(hs.betti, ht.betti, cols).transpose()


# -- shift / dual ---------------------------------------------------------------


def shift(c: Complex, b: int) -> Complex:
    """Degree shift: shift(C, b)_m = C_{m-b}; matrices are reused unsigned."""
    labels = {k + b: c.labels(k) for k in c.support()}
    diffs = {k + b: mat for k, mat in c.d.items()}
    return Complex(GradedSpace(labels), diffs, validate=False)


def dual(c: Complex) -> Complex:
    """Linear dual: dual(C)_k = (C_{-k})*, d_k = (-1)^(k+1) transpose(d_{-k-1})."""
    labels = {}
    for k in c.support():
        labels[-k] = tuple(l + "*" for l in c.labels(k))
    diffs = {}
    for k in list(labels):
        src = c.diff(-k - 1)  # C_{-k-1} -> C_{-k}
        if src.m and src.n:
            mat = src.transpose().scale(-1 if k % 2 == 0 else 1)
            if not mat.is_zero():
                diffs[k] = mat
    return Complex(GradedSpace(labels), diffs, validate=False)


# -- sums, cones, cylinders ------------------------------------------------------


def direct_sum(a: Complex, b: Complex) -> Complex:
    labels = {}
    diffs = {}
    degrees = sorted(set(a.support()) | set(b.support()))
    for k in degrees:
        labels[k] = tuple("a." + l for l in a.labels(k)) + tuple(
            "b." + l for l in b.labels(k)
        )
    for k in degrees:
        if a.dim(k) + b.dim(k) == 0 or a.dim(k + 1) + b.dim(k + 1) == 0:
            continue
        diffs[k] = block_matrix(
            [[a.diff(k), None], [None, b.diff(k)]],
            [a.dim(k + 1), b.dim(k + 1)],
            [a.dim(k), b.dim(k)],
        )
    return Complex(GradedSpace(labels), diffs, validate=False)


def cone(c: Complex) -> Complex:
    """cone(C)_m = C_m (+) C_{m+1}, d = [[d_m, (-1)^m I], [0, d_{m+1}]]."""
    sup = c.support()
    if not sup:
        return Complex(GradedSpace({}), {}, validate=False)
    degrees = sorted({m for m in sup} | {m - 1 for m in sup})
    labels = {}
    for m in degrees:
        labels[m] = tuple("a." + l for l in c.labels(m)) + tuple(
            "b." + l for l in c.labels(m + 1)
        )
    diffs = {}
    for m in degrees:
        rows = [c.dim(m + 1), c.dim(m + 2)]
        colsizes = [c.dim(m), c.dim(m + 1)]
        if sum(rows) == 0 or sum(colsizes) == 0:
            continue
        cross = Mat.eye(c.dim(m + 1)).scale(-1 if m % 2 else 1)
        diffs[m] = block_matrix(
            [[c.diff(m), cross], [None, c.diff(m + 1)]], rows, colsizes
        )
    return Complex(GradedSpace(labels), diffs, validate=False)


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
    comps = {}
    for m in tgt.support():
        n0, n1 = c.dim(m), c.dim(m + 1)
        if src.dim(m) != n0 + n1:
            raise InternalCheckError(
                "free model and cone disagree in degree %d" % m
            )
        low = c.diff(m).scale(1 if (m + 1) % 2 == 0 else -1)
        comps[m] = block_matrix(
            [[Mat.eye(n0), None], [low, Mat.eye(n1)]], [n0, n1], [n0, n1]
        )
    return ChainMap(src, tgt, comps)


@dataclass
class CylinderData:
    cylinder: Complex
    include_source: ChainMap
    include_target: ChainMap
    project: ChainMap
    cone: Complex
    collapse: ChainMap


def mapping_cone(f: ChainMap) -> Complex:
    """cone(f)_m = F_{m+1} (+) F'_m, d = [[d, 0], [(-1)^m f, d']]."""
    F, G = f.source, f.target
    degrees = sorted(
        {m for m in G.support()} | {m - 1 for m in F.support()}
    )
    labels = {}
    diffs = {}
    for m in degrees:
        labels[m] = tuple("s." + l for l in F.labels(m + 1)) + tuple(
            "t." + l for l in G.labels(m)
        )
    for m in degrees:
        rows = [F.dim(m + 2), G.dim(m + 1)]
        cols = [F.dim(m + 1), G.dim(m)]
        if sum(rows) == 0 or sum(cols) == 0:
            continue
        cross = f.comp(m + 1).scale(-1 if m % 2 else 1)
        diffs[m] = block_matrix(
            [[F.diff(m + 1), None], [cross, G.diff(m)]], rows, cols
        )
    return Complex(GradedSpace(labels), diffs, validate=False)


def mapping_cylinder(f: ChainMap) -> CylinderData:
    """Cylinder with its inclusions, projection, and collapse onto the cone."""
    F, G = f.source, f.target
    degrees = sorted(
        {m for m in F.support()}
        | {m - 1 for m in F.support()}
        | {m for m in G.support()}
    )
    labels = {}
    diffs = {}
    for m in degrees:
        labels[m] = (
            tuple("x." + l for l in F.labels(m))
            + tuple("y." + l for l in F.labels(m + 1))
            + tuple("z." + l for l in G.labels(m))
        )
    for m in degrees:
        rows = [F.dim(m + 1), F.dim(m + 2), G.dim(m + 1)]
        cols = [F.dim(m), F.dim(m + 1), G.dim(m)]
        if sum(rows) == 0 or sum(cols) == 0:
            continue
        down = Mat.eye(F.dim(m + 1)).scale(-1 if m % 2 == 0 else 1)
        over = f.comp(m + 1).scale(-1 if m % 2 else 1)
        diffs[m] = block_matrix(
            [
                [F.diff(m), down, None],
                [None, F.diff(m + 1), None],
                [None, over, G.diff(m)],
            ],
            rows,
            cols,
        )
    cyl = Complex(GradedSpace(labels), diffs, validate=False)
    inc_s = {}
    inc_t = {}
    proj = {}
    for m in degrees:
        a, b, c_ = F.dim(m), F.dim(m + 1), G.dim(m)
        n = a + b + c_
        if n == 0:
            continue
        if a:
            inc_s[m] = block_matrix(
                [[Mat.eye(a)], [None], [None]], [a, b, c_], [a]
            )
        if c_:
            inc_t[m] = block_matrix(
                [[None], [None], [Mat.eye(c_)]], [a, b, c_], [c_]
            )
        proj[m] = block_matrix(
            [[f.comp(m), Mat.zero(c_, b) if b else None, Mat.eye(c_)]],
            [c_],
            [a, b, c_],
        )
    cone_f = mapping_cone(f)
    collapse = {}
    for m in degrees:
        a, b, c_ = F.dim(m), F.dim(m + 1), G.dim(m)
        if a + b + c_ == 0 or b + c_ == 0:
            continue
        collapse[m] = block_matrix(
            [[None, Mat.eye(b), None], [None, None, Mat.eye(c_)]],
            [b, c_],
            [a, b, c_],
        )
    return CylinderData(
        cylinder=cyl,
        include_source=ChainMap(F, cyl, inc_s),
        include_target=ChainMap(G, cyl, inc_t),
        project=ChainMap(cyl, G, proj),
        cone=cone_f,
        collapse=ChainMap(cyl, cone_f, collapse),
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
            q, sgn = m - p, (-1 if p % 2 else 1)
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
    pivots = {}
    for k in sup:
        _, piv = c.diff(k).rref()
        pivots[k] = piv
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
    gm = GradedMap(c, c, -1, comps)
    # Exact verification of the witness identity.
    for k in sup:
        ident = gm.comp(k + 1) * c.diff(k) + c.diff(k - 1) * gm.comp(k)
        if ident != Mat.eye(c.dim(k)):
            raise InternalCheckError(
                "contraction witness failed verification at degree %d" % k
            )
    return gm


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
    rep = homology(target)
    if any(v != 0 for v in rep.betti.values()):
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

    Route one computes H^k(f) degree by degree and asks for isomorphisms;
    route two asks the mapping cone to be acyclic.  Without a window both
    routes run over the full (bounded) support and their verdicts must agree
    exactly, anything else raises InternalCheckError.  With window=(a, b)
    the isomorphism route runs on [a, b] and the cone route on [a, b-1],
    which is the sound restriction for data only trusted up to degree b.
    """
    mc = mapping_cone(f)
    sup = sorted(set(f.source.support()) | set(f.target.support()))
    if window is None:
        if not sup:
            return WeakEquivalenceReport(True, (0, 0), {}, {}, True)
        lo, hi = min(sup) - 1, max(sup) + 1
        iso_range = range(lo, hi + 1)
        cone_range = range(lo, hi + 1)
    else:
        lo, hi = window
        iso_range = range(lo, hi + 1)
        cone_range = range(lo, hi)
    iso = {}
    for k in iso_range:
        hs = HomologySpace(f.source, k)
        ht = HomologySpace(f.target, k)
        if hs.betti != ht.betti:
            iso[k] = False
            continue
        mat = induced_on_homology(f, k, hs, ht)
        iso[k] = mat.rank() == hs.betti
    cone_betti = {k: HomologySpace(mc, k).betti for k in cone_range}
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
