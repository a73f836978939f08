"""Free functors on graded spaces and the normalized bar construction.

All inputs are generator lists (name, degree) with degree >= 1 so every
graded piece is finite-dimensional.  Dimensions come from the generator
counts per degree: _gc_series is the one generating series of the free
graded-commutative functor, and _gc_ranks reads it backwards.  The free
graded Lie algebra's dimensions are counted, super-Lyndon words against
PBW read backwards from the tensor algebra, with no elimination.  Its
basis, built when first read, lies inside the tensor algebra on integer
tensors: in degree k a sparse echelon keeps the independent right-normed
brackets [g, y], g a generator and y a basis element of degree k - |g|.
They span: graded Jacobi gives
[[g, u], v] = [g, [u, v]] - (-1)^(|g||u|) [u, [g, v]], u shorter than
[g, u], so by induction right-normed brackets are closed under brackets.
The bracket table is correct by construction; verify_axioms re-checks it
with graded.lie_violation.  Algebra and module presentations are checked for
indices, degrees and associativity by the same two helpers before
bar_slice reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .graded import GradedError, GradedSpace, combine, lie_violation
from .linalg import Mat, SparseEliminator, exact
from .complexes import Complex, InternalCheckError


def _counts(gens):
    """Generators per degree of the (name, degree) pairs gens."""
    return _checked(Counter(int(d) for _, d in gens))


def _checked(counts):
    """counts {degree: number of generators}; every degree must be >= 1."""
    for d, c in counts.items():
        if c and d < 1:
            raise GradedError(
                "%d generator(s) of degree %d; free functors need degree >= 1" % (c, d)
            )
    return counts


def _gc_series(counts, n: int):
    """Coefficients of t^0..t^n in prod (1 + t^d)^c (odd d) (1 - t^d)^-c (even d).

    These are the dimensions of the free graded-commutative algebra on
    counts[d] generators of each degree d (exterior odd, polynomial even).
    """
    series = [1] + [0] * n if n >= 0 else []
    for d, c in counts.items():
        _times_factor(series, d, c, n)
    return dict(enumerate(series))


def _times_factor(series, d: int, c: int, n: int):
    """Multiply series (t^0..t^n) in place by (1 + t^d)^c (odd d) or (1 - t^d)^-c (even d).

    c in-place passes, or one product with the binomial series of the factor
    when c exceeds that series' n // d + 1 terms: min(c, n // d + 1) *
    (n - d + 1) steps, as cli._budget counts.  Coefficients below t^d stay.
    """
    if c and c > n // d + 1 > 0:
        b = [comb(c, j) if d % 2 else comb(c + j - 1, j) for j in range(n // d + 1)]
        series[d:] = [sum(b[j] * series[k - d * j] for j in range(k // d + 1))
                      for k in range(d, n + 1)]
        return
    for _ in range(c):
        if d % 2:
            for k in range(n, d - 1, -1):
                series[k] += series[k - d]
        else:
            for k in range(d, n + 1):
                series[k] += series[k - d]


def _gc_ranks(series, n: int):
    """The counts {d: c} for 1 <= d <= n with _gc_series(counts, n) = series: PBW read backwards.

    The factors of degrees below k fix the coefficient of t^k but for the c_k
    that degree k's own factor adds, so c_k is the difference; a negative one
    counts no generators, and is refused with GradedError.
    """
    acc = [1] + [0] * n
    counts = {}
    for k in range(1, n + 1):
        counts[k] = series[k] - acc[k]
        if counts[k] < 0:
            raise GradedError("series coefficient %d at t^%d needs %d generators there"
                              % (series[k], k, counts[k]))
        _times_factor(acc, k, counts[k], n)
    return counts


def _super_lyndon_counts(degrees, n: int):
    """{k: number of super-Lyndon basis elements in degree k}, 1 <= k <= n.

    One depth-first walk of the prenecklaces over letters of these degrees,
    ordered by degree, with weighted length <= n: a prenecklace w of period p
    grows by w[t - p] (period p) or by a larger letter (period t + 1), and is
    a Lyndon word when its period is its length.  Each Lyndon word w gives
    the bracket P_w in degree |w|, and one of odd degree also gives
    [P_w, P_w] in degree 2|w| (docs/oracles.md).
    """
    letters = sorted(degrees)
    counts = dict.fromkeys(range(1, n + 1), 0)
    stack = [((), 0, 0)]  # (prenecklace, its period, its degree)
    while stack:
        word, p, deg = stack.pop()
        t = len(word)
        first = word[t - p] if t else 0
        for j in range(first, len(letters)):
            k = deg + letters[j]
            if k > n:
                break
            period = p if t and j == first else t + 1
            if period == t + 1:
                counts[k] += 1
                if k % 2 and 2 * k <= n:
                    counts[2 * k] += 1
            stack.append((word + (j,), period, k))
    return counts


def tensor_algebra_dims(gens, n: int):
    """dim T(V)_k for 0 <= k <= n, by the word-composition recursion."""
    counts = _counts(gens)
    dims = [1] + [0] * n
    for k in range(1, n + 1):
        dims[k] = sum(c * dims[k - d] for d, c in counts.items() if d <= k)
    return dict(enumerate(dims))


def free_gc_dims(gens, n: int):
    """dim of the free graded-commutative algebra on gens per degree <= n."""
    return _gc_series(_counts(gens), n)


def free_gc_dims_from_counts(counts, n: int):
    """free_gc_dims for counts {degree: number of generators}."""
    return _gc_series(_checked(counts), n)


# -- free graded Lie algebras ---------------------------------------------------


def _tensor_bracket(x, px, y, py):
    """[x, y] = x(x)y - (-1)^(|x||y|) y(x)x inside the tensor algebra."""
    sgn = -1 if (px % 2 and py % 2) else 1
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c, xy, yx = cx * cy, wx + wy, wy + wx
            out[xy] = out.get(xy, 0) + c
            out[yx] = out.get(yx, 0) - sgn * c
    return {w: c for w, c in out.items() if c}


@dataclass
class LieBasisElement:
    name: str
    degree: int
    vector: dict


class FreeGradedLie:
    """Free graded Lie algebra on positively graded generators, up to degree n.

    The dimensions are counted on construction: super-Lyndon words, checked
    against PBW read backwards from the tensor algebra.  The basis of
    right-normed brackets is eliminated only when first read, through basis,
    bracket or verify_axioms, and must have the counted size in every degree.
    """

    def __init__(self, gens, n: int):
        self.gens = [(str(name), int(d)) for name, d in gens]
        _counts(self.gens)
        self.nmax = int(n)
        self._dims = _super_lyndon_counts([d for _, d in self.gens], self.nmax)
        pbw = _gc_ranks(tensor_algebra_dims(self.gens, self.nmax), self.nmax)
        if pbw != self._dims:
            raise InternalCheckError("super-Lyndon counts %s differ from the PBW ranks %s"
                                     % (self._dims, pbw))
        self._brackets = {}

    @cached_property
    def basis(self):
        """The kept right-normed brackets, with _by_degree (basis indices per
        degree) and _elim (one SparseEliminator per degree) beside them."""
        basis, self._by_degree, self._elim = [], {}, {}

        def add(degree, vector):
            elim = self._elim.setdefault(degree, SparseEliminator())
            if elim.add(vector, tag=len(basis)) is not None:
                per = self._by_degree.setdefault(degree, [])
                per.append(len(basis))
                basis.append(LieBasisElement("L%d_%d" % (degree, len(per) - 1), degree, vector))

        gens = []  # (basis index, degree) of each generator within the bound
        for gi, (_, degree) in enumerate(self.gens):
            if degree <= self.nmax:
                gens.append((len(basis), degree))
                add(degree, {(gi,): 1})
        gens.sort(key=lambda gd: gd[1])  # the order decides which candidates are kept
        for k in range(2, self.nmax + 1):
            for g, dg in gens:
                for y in self._by_degree.get(k - dg, []):
                    if y != g or dg % 2:  # [g, g] = 0 for even g
                        eg, ey = basis[g], basis[y]
                        add(k, _tensor_bracket(eg.vector, dg, ey.vector, ey.degree))
        built = {k: len(self._by_degree.get(k, [])) for k in self._dims}
        if built != self._dims:
            raise InternalCheckError("the bracket basis has dimensions %s, counted %s"
                                     % (built, self._dims))
        return basis

    def dims(self):
        """{k: dim L_k} for 1 <= k <= n, as counted; no basis is built."""
        return dict(self._dims)

    def bracket(self, a: int, b: int):
        """[e_a, e_b] as coefficients over basis indices (degree-bounded)."""
        if (a, b) in self._brackets:
            return self._brackets[(a, b)]
        ea, eb = self.basis[a], self.basis[b]
        k = ea.degree + eb.degree
        if k > self.nmax:
            raise GradedError(
                "bracket lands in degree %d beyond the bound %d" % (k, self.nmax)
            )
        vec = _tensor_bracket(ea.vector, ea.degree, eb.vector, eb.degree)
        combo = self._elim.setdefault(k, SparseEliminator()).express(vec)
        if combo is None:
            raise GradedError("bracket escaped the computed basis in degree %d" % k)
        self._brackets[(a, b)] = combo
        return combo

    def verify_axioms(self):
        """Re-check graded antisymmetry and Jacobi on the basis via the table."""
        degrees = [e.degree for e in self.basis]
        return lie_violation(degrees, self.bracket, self.nmax) is None


def free_graded_lie(gens, n: int) -> FreeGradedLie:
    return FreeGradedLie(gens, n)


def enveloping_dims(lie: FreeGradedLie, n: int):
    """dim U(L)_k for k <= n <= lie.nmax: symmetric on even, exterior on odd (PBW)."""
    if n > lie.nmax:
        raise GradedError("enveloping degree %d lies beyond the bound %d" % (n, lie.nmax))
    return free_gc_dims_from_counts(lie.dims(), n)


# -- bar construction ----------------------------------------------------------------


def _table(table, left, right, out, what, unit_right):
    """table {(i, j): {k: c}} with int keys and nonzero Fractions, checked.

    left, right and out are the (name, degree) element lists that i, j and k
    index; i is never the unit (element 0 of left), nor is j when unit_right,
    since products with the unit are fixed.  Every term k of entry (i, j)
    must have degree(k) = degree(i) + degree(j).
    """
    clean = {}
    for (i, j), combo in table.items():
        i, j = int(i), int(j)
        terms = {int(k): exact(c) for k, c in combo.items()}
        inside = 0 <= i < len(left) and 0 <= j < len(right)
        if not inside or any(not 0 <= k < len(out) for k in terms):
            raise GradedError("%s %d*%d names an element outside the basis" % (what, i, j))
        if i == 0 or (unit_right and j == 0):
            raise GradedError("%s %d*%d is a product with the unit, which is fixed"
                              % (what, i, j))
        clean[(i, j)] = {k: c for k, c in terms.items() if c}
        want = left[i][1] + right[j][1]
        for k in clean[(i, j)]:
            if out[k][1] != want:
                raise GradedError(
                    "%s %d*%d has a term of degree %d, expected %d"
                    % (what, i, j, out[k][1], want)
                )
    return clean


def _nonassociative(mul, act, xs, ms):
    """First (a, b, m) with (a*b).m != a.(b.m), else None.

    mul(a, b) and act(a, m) return {index: Fraction}; a and b run over xs
    and m over ms.  An algebra passes its product as both tables.
    """
    for a in xs:
        for b in xs:
            ab = mul(a, b)
            for m in ms:
                left = combine((c, act(p, m)) for p, c in ab.items())
                right = combine((c, act(a, q)) for q, c in act(b, m).items())
                if left != right:
                    return a, b, m
    return None


class AlgebraPresentation:
    """Finite graded basis of an augmented algebra, unit first.

    Element 0 is the unit (degree 0); every other element has positive
    degree and augments to zero, so the augmentation ideal has the non-unit
    elements as basis and bar words in any fixed internal degree are finite.
    `mult[(i, j)]` gives the product of non-unit elements as a coefficient
    dict over the full basis (missing pairs multiply to zero).  The table
    is checked for indices, degrees and associativity on construction.
    """

    def __init__(self, elements, mult):
        self.elements = [(str(n), int(d)) for n, d in elements]
        if not self.elements or self.elements[0][1] != 0:
            raise GradedError("element 0 must be the unit, of degree 0")
        for name, d in self.elements[1:]:
            if d < 1:
                raise GradedError(
                    "non-unit element %r must have positive degree" % name
                )
        self.mult = _table(mult, self.elements, self.elements, self.elements, "product",
                           unit_right=True)
        nonunit = range(1, len(self.elements))
        bad = _nonassociative(self.product, self.product, nonunit, nonunit)
        if bad:
            raise GradedError(
                "multiplication table is not associative at (%d,%d,%d)" % bad
            )

    def degree(self, i):
        return self.elements[i][1]

    def product(self, i, j):
        if i == 0:
            return {j: Fraction(1)}
        if j == 0:
            return {i: Fraction(1)}
        return self.mult.get((i, j), {})

    @classmethod
    def exterior(cls, name="e", degree=1):
        """Exterior algebra on one generator (the generator squares to zero)."""
        return cls([("1", 0), (name, degree)], {(1, 1): {}})

    @classmethod
    def truncated_polynomial(cls, name="x", degree=2, cap=6):
        """Q[x] listed through x^cap; exact for bar slices of internal degree <= cap*degree."""
        elements = [("1", 0)] + [
            ("%s^%d" % (name, p) if p > 1 else name, degree * p)
            for p in range(1, cap + 1)
        ]
        mult = {(i, j): {i + j: 1} for i in range(1, cap) for j in range(1, cap + 1 - i)}
        return cls(elements, mult)


class ModulePresentation:
    """Finite graded basis of a left module over an AlgebraPresentation.

    `action[(i, j)]` gives non-unit algebra element i acting on module
    element j; the table is checked for indices, degrees and (ab)m = a(bm).
    """

    def __init__(self, algebra: AlgebraPresentation, elements, action):
        self.algebra = algebra
        self.elements = [(str(n), int(d)) for n, d in elements]
        self.action = _table(action, algebra.elements, self.elements, self.elements, "action",
                             unit_right=False)
        bad = _nonassociative(algebra.product, self.act,
                              range(1, len(algebra.elements)), range(len(self.elements)))
        if bad:
            raise GradedError(
                "module action is not associative at (a,b,m) = (%d,%d,%d)" % bad
            )

    def degree(self, j):
        return self.elements[j][1]

    def act(self, i, j):
        """Action of algebra element i (non-unit) on module element j."""
        if i == 0:
            return {j: Fraction(1)}
        return self.action.get((i, j), {})

    @classmethod
    def trivial(cls, algebra: AlgebraPresentation):
        """Q concentrated in degree 0 with the augmentation action."""
        return cls(algebra, [("q", 0)], {})

    @classmethod
    def regular(cls, algebra: AlgebraPresentation):
        """The algebra acting on itself by left multiplication."""
        n = len(algebra.elements)
        action = {(i, j): algebra.product(i, j) for i in range(1, n) for j in range(n)}
        return cls(algebra, list(algebra.elements), action)


def bar_slice(algebra: AlgebraPresentation, module: ModulePresentation,
              internal_degree: int) -> Complex:
    """One internal-degree slice of the normalized bar complex.

    Basis elements are words [a_1 | ... | a_s] m of non-unit algebra elements
    with total internal degree `internal_degree`; a word of length s sits in
    complex degree -s.  Signs follow the bar convention: each letter carries
    parity |a| + 1, an interior face merging slots i, i+1 contributes
    (-1)^(e_{i-1} + |a_i|) with e_{i-1} the sum of bar parities before slot
    i, and the action face contributes (-1)^(e_{s-1}).  The slice is a
    finite honest complex; d o d = 0 is re-checked on construction.
    """
    words = {}  # s -> list of (word tuple, module index)

    def rec(remaining, word):
        for j, (_, dm) in enumerate(module.elements):
            if dm == remaining:
                words.setdefault(len(word), []).append((word, j))
        for i in range(1, len(algebra.elements)):
            if algebra.degree(i) <= remaining:
                rec(remaining - algebra.degree(i), word + (i,))

    rec(int(internal_degree), ())
    for items in words.values():
        items.sort()
    labels = {
        -s: tuple(
            "[%s]%s" % ("|".join(algebra.elements[i][0] for i in word), module.elements[m][0])
            for word, m in items
        )
        for s, items in words.items()
    }

    def faces(word, m):
        """(coefficient, word, module index) for each term of d([word] m)."""
        bar_parity = 0
        for pos in range(len(word) - 1):
            a = word[pos]
            sgn = (-1) ** ((bar_parity + algebra.degree(a)) % 2)
            for k, c in algebra.product(a, word[pos + 1]).items():
                yield sgn * c, word[:pos] + (k,) + word[pos + 2:], m
            bar_parity += algebra.degree(a) + 1
        # action face: last letter acts on the module element
        sgn = (-1) ** (bar_parity % 2)
        for k, c in module.act(word[-1], m).items():
            yield sgn * c, word[:-1], k

    diffs = {}
    for s in sorted(words, reverse=True):
        if s == 0 or (s - 1) not in words:
            continue
        tgt_index = {item: p for p, item in enumerate(words[s - 1])}
        rows = [{} for _ in words[s - 1]]
        for col, (word, m) in enumerate(words[s]):
            for c, neww, k in faces(word, m):
                row = tgt_index.get((neww, k))
                if row is None:
                    raise GradedError("bar face left the enumerated slice")
                rows[row][col] = rows[row].get(col, 0) + c
        mat = Mat.from_dicts(len(rows), len(words[s]), rows)
        if not mat.is_zero():
            diffs[-s] = mat
    return Complex(GradedSpace(labels), diffs, validate=True)


def bar_construction(algebra: AlgebraPresentation, module: ModulePresentation,
                     max_internal: int):
    """All bar slices with internal degree 0..max_internal."""
    return {w: bar_slice(algebra, module, w) for w in range(max_internal + 1)}
