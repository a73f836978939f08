"""Free functors on graded spaces and the normalized bar construction.

All inputs are generator lists (name, degree) with degree >= 1 so every
graded piece is finite-dimensional.  The free graded Lie algebra is realized
inside the tensor algebra: brackets are computed as honest tensors and a
sparse echelon picks basis elements degree by degree, so the returned
bracket table is correct by construction and the Lie axioms can be
re-verified independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graded import GradedError, GradedSpace
from .linalg import Mat, SparseEliminator
from .complexes import Complex


def _check_positive_degrees(gens):
    out = []
    for name, degree in gens:
        degree = int(degree)
        if degree < 1:
            raise GradedError(
                "generator %r has degree %d; free functors need degree >= 1"
                % (name, degree)
            )
        out.append((str(name), degree))
    return out


def generator_counts(gens):
    counts = {}
    for _, d in gens:
        counts[d] = counts.get(d, 0) + 1
    return counts


def tensor_algebra_dims(gens, n: int):
    """dim T(V)_k for 0 <= k <= n, by the word-composition recursion."""
    gens = _check_positive_degrees(gens)
    counts = generator_counts(gens)
    dims = [0] * (n + 1)
    dims[0] = 1
    for k in range(1, n + 1):
        total = 0
        for d, c in counts.items():
            if d <= k:
                total += c * dims[k - d]
        dims[k] = total
    return {k: dims[k] for k in range(n + 1)}


def free_gc_dims(gens, n: int):
    """dim of the free graded-commutative algebra per degree <= n.

    Even generators contribute polynomial algebras, odd ones exterior
    factors; the dimensions come from multiplying the generating series.
    """
    gens = _check_positive_degrees(gens)
    series = [0] * (n + 1)
    series[0] = 1
    for _, d in gens:
        nxt = list(series)
        if d % 2:
            for k in range(n, d - 1, -1):
                nxt[k] += series[k - d]
        else:
            # polynomial factor: convolve with 1/(1 - t^d)
            nxt = list(series)
            for k in range(d, n + 1):
                nxt[k] += nxt[k - d]
        series = nxt
    return {k: series[k] for k in range(n + 1)}


def free_gc_dims_from_counts(counts, n: int):
    gens = []
    for d, c in sorted(counts.items()):
        gens.extend(("g%d_%d" % (d, i), d) for i in range(c))
    return free_gc_dims(gens, n)


# -- free graded Lie algebras ---------------------------------------------------


def _tensor_mul(x, y):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            w = wx + wy
            out[w] = out.get(w, Fraction(0)) + cx * cy
    return {w: c for w, c in out.items() if c}


def _tensor_bracket(x, px, y, py):
    """[x, y] = x(x)y - (-1)^(|x||y|) y(x)x inside the tensor algebra."""
    out = dict(_tensor_mul(x, y))
    sgn = -1 if (px % 2 and py % 2) else 1
    for w, c in _tensor_mul(y, x).items():
        out[w] = out.get(w, Fraction(0)) - sgn * c
    return {w: c for w, c in out.items() if c}


@dataclass
class LieBasisElement:
    name: str
    degree: int
    vector: dict
    origin: tuple  # ("gen", name) or ("br", i, j)


class FreeGradedLie:
    """Free graded Lie algebra on positively graded generators, up to degree n."""

    def __init__(self, gens, n: int):
        self.gens = _check_positive_degrees(gens)
        self.nmax = int(n)
        self.basis = []
        self._by_degree = {}
        self._elim = {}
        self._brackets = {}
        self._build()

    def _eliminator(self, k):
        if k not in self._elim:
            self._elim[k] = SparseEliminator()
        return self._elim[k]

    def _add_candidate(self, degree, vector, origin):
        if not vector:
            return None
        elim = self._eliminator(degree)
        tag = elim.add(vector, tag=len(self.basis))
        if tag is None:
            return None
        idx = len(self.basis)
        per = self._by_degree.setdefault(degree, [])
        name = "L%d_%d" % (degree, len(per))
        el = LieBasisElement(name, degree, vector, origin)
        self.basis.append(el)
        per.append(idx)
        return idx

    def _build(self):
        for gi, (name, degree) in enumerate(self.gens):
            if degree <= self.nmax:
                self._add_candidate(degree, {(gi,): Fraction(1)}, ("gen", name))
        for k in range(2, self.nmax + 1):
            for i in range(1, k // 2 + 1):
                j = k - i
                for a in self._by_degree.get(i, []):
                    for b in self._by_degree.get(j, []):
                        if i == j and b < a:
                            continue
                        if a == b and i % 2 == 0:
                            continue  # [x, x] = 0 for even x
                        ea, eb = self.basis[a], self.basis[b]
                        vec = _tensor_bracket(
                            ea.vector, ea.degree, eb.vector, eb.degree
                        )
                        self._add_candidate(k, vec, ("br", a, b))

    def dims(self):
        return {
            k: len(self._by_degree.get(k, []))
            for k in range(1, self.nmax + 1)
        }

    def degree_basis(self, k):
        return [self.basis[i] for i in self._by_degree.get(k, [])]

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
        if not vec:
            combo = {}
        else:
            combo = self._eliminator(k).express(vec)
            if combo is None:
                raise GradedError(
                    "bracket escaped the computed basis in degree %d" % k
                )
        combo = {i: c for i, c in combo.items() if c}
        self._brackets[(a, b)] = combo
        return combo

    def verify_axioms(self):
        """Re-check antisymmetry and Jacobi on the basis via the table."""
        idxs = list(range(len(self.basis)))

        def table_bracket(x, y):
            out = {}
            for a, ca in x.items():
                for b, cb in y.items():
                    da = self.basis[a].degree
                    db = self.basis[b].degree
                    if da + db > self.nmax:
                        return None
                    for c, cc in self.bracket(a, b).items():
                        out[c] = out.get(c, Fraction(0)) + ca * cb * cc
            return {c: v for c, v in out.items() if v}

        for a in idxs:
            for b in idxs:
                da = self.basis[a].degree
                db = self.basis[b].degree
                if da + db > self.nmax:
                    continue
                lhs = self.bracket(a, b)
                rhs = self.bracket(b, a)
                sgn = -1 if (da % 2 and db % 2) else 1
                flipped = {c: -sgn * v for c, v in rhs.items()}
                if lhs != {c: v for c, v in flipped.items() if v}:
                    return False
        for a in idxs:
            for b in idxs:
                for c in idxs:
                    da = self.basis[a].degree
                    db = self.basis[b].degree
                    dc = self.basis[c].degree
                    if da + db + dc > self.nmax:
                        continue
                    xa = {a: Fraction(1)}
                    xb = {b: Fraction(1)}
                    xc = {c: Fraction(1)}
                    inner = table_bracket(xb, xc)
                    lhs = table_bracket(xa, inner) if inner is not None else None
                    ab = table_bracket(xa, xb)
                    t1 = table_bracket(ab, xc) if ab is not None else None
                    bc_ = table_bracket(xb, table_bracket(xa, xc) or {})
                    sgn = -1 if (da % 2 and db % 2) else 1
                    if lhs is None or t1 is None or bc_ is None:
                        continue
                    rhs = dict(t1)
                    for kk, v in bc_.items():
                        rhs[kk] = rhs.get(kk, Fraction(0)) + sgn * v
                    rhs = {kk: v for kk, v in rhs.items() if v}
                    if lhs != rhs:
                        return False
        return True


def free_graded_lie(gens, n: int) -> FreeGradedLie:
    return FreeGradedLie(gens, n)


def enveloping_dims(lie: FreeGradedLie, n: int):
    """dim U(L)_k for k <= n: symmetric on even, exterior on odd (PBW)."""
    return free_gc_dims_from_counts(lie.dims(), n)


# -- bar construction ----------------------------------------------------------------


class AlgebraPresentation:
    """Finite graded basis of an augmented algebra, unit first.

    Element 0 is the unit (degree 0); every other element has positive
    degree and augments to zero, so the augmentation ideal has the non-unit
    elements as basis and bar words in any fixed internal degree are finite.
    `mult[(i, j)]` gives the product of non-unit elements as a coefficient
    dict over the full basis (missing pairs multiply to zero).
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
        self.mult = {}
        for (i, j), combo in mult.items():
            self.mult[(int(i), int(j))] = {
                int(k): Fraction(c) for k, c in combo.items() if Fraction(c)
            }
        self._validate()

    def degree(self, i):
        return self.elements[i][1]

    def product(self, i, j):
        if i == 0:
            return {j: Fraction(1)}
        if j == 0:
            return {i: Fraction(1)}
        return self.mult.get((i, j), {})

    def _validate(self):
        n = len(self.elements)
        for (i, j), combo in self.mult.items():
            want = self.degree(i) + self.degree(j)
            for k, c in combo.items():
                if self.degree(k) != want:
                    raise GradedError(
                        "product %d*%d has a term of degree %d, expected %d"
                        % (i, j, self.degree(k), want)
                    )
        for i in range(1, n):
            for j in range(1, n):
                for k in range(1, n):
                    left = {}
                    for p, c in self.product(i, j).items():
                        for q, c2 in self.product(p, k).items():
                            left[q] = left.get(q, Fraction(0)) + c * c2
                    right = {}
                    for p, c in self.product(j, k).items():
                        for q, c2 in self.product(i, p).items():
                            right[q] = right.get(q, Fraction(0)) + c * c2
                    if {k_: v for k_, v in left.items() if v} != {
                        k_: v for k_, v in right.items() if v
                    }:
                        raise GradedError(
                            "multiplication table is not associative at (%d,%d,%d)"
                            % (i, j, k)
                        )

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
        mult = {}
        for i in range(1, cap + 1):
            for j in range(1, cap + 1):
                mult[(i, j)] = {i + j: Fraction(1)} if i + j <= cap else {}
        return cls(elements, mult)


class ModulePresentation:
    """Finite graded basis of a left module over an AlgebraPresentation."""

    def __init__(self, algebra: AlgebraPresentation, elements, action):
        self.algebra = algebra
        self.elements = [(str(n), int(d)) for n, d in elements]
        self.action = {}
        for (i, j), combo in action.items():
            self.action[(int(i), int(j))] = {
                int(k): Fraction(c) for k, c in combo.items() if Fraction(c)
            }
        for (i, j), combo in self.action.items():
            want = algebra.degree(i) + self.degree(j)
            for k, c in combo.items():
                if self.degree(k) != want:
                    raise GradedError("module action violates degrees")

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
        elements = list(algebra.elements)
        action = {}
        n = len(elements)
        for i in range(1, n):
            for j in range(n):
                action[(i, j)] = dict(algebra.product(i, j))
        return cls(algebra, elements, action)


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
    w = int(internal_degree)
    nonunit = [i for i in range(1, len(algebra.elements))]
    words = {}  # s -> list of (word tuple, module index)

    def rec(remaining, acc, out):
        for j, (_, dm) in enumerate(module.elements):
            if dm == remaining:
                out.append((tuple(acc), j))
        for i in nonunit:
            d = algebra.degree(i)
            if d <= remaining:
                acc.append(i)
                rec(remaining - d, acc, out)
                acc.pop()

    # group by word length
    all_items = []
    rec(w, [], all_items)
    for word, m in all_items:
        words.setdefault(len(word), []).append((word, m))
    for s in words:
        words[s].sort()
    labels = {}
    for s, items in words.items():
        labels[-s] = tuple(
            "[%s]%s"
            % (
                "|".join(algebra.elements[i][0] for i in word),
                module.elements[m][0],
            )
            for word, m in items
        )
    index = {
        s: {item: p for p, item in enumerate(items)}
        for s, items in words.items()
    }
    diffs = {}
    for s in sorted(words, reverse=True):
        if s == 0 or (s - 1) not in words:
            continue
        src = words[s]
        tgt_index = index[s - 1]
        rows = [{} for _ in words[s - 1]]
        for col, (word, m) in enumerate(src):
            bar_parity = 0
            for pos in range(s - 1):
                a, b = word[pos], word[pos + 1]
                sgn = (-1) ** ((bar_parity + algebra.degree(a)) % 2)
                for k, c in algebra.product(a, b).items():
                    if k == 0:
                        raise GradedError(
                            "product of augmentation-ideal elements hit the unit"
                        )
                    neww = word[:pos] + (k,) + word[pos + 2:]
                    row = tgt_index.get((neww, m))
                    if row is None:
                        raise GradedError(
                            "bar face left the enumerated slice"
                        )
                    rows[row][col] = rows[row].get(col, 0) + sgn * c
                bar_parity += algebra.degree(word[pos]) + 1
            # action face: last letter acts on the module element
            sgn = (-1) ** (bar_parity % 2)
            for k, c in module.act(word[-1], m).items():
                neww = word[:-1]
                row = tgt_index.get((neww, k))
                if row is None:
                    raise GradedError("bar action face left the slice")
                rows[row][col] = rows[row].get(col, 0) + sgn * c
        mat = Mat.from_dicts(len(rows), len(src), rows)
        if not mat.is_zero():
            diffs[-s] = mat
    return Complex(GradedSpace(labels), diffs, validate=True)


def bar_construction(algebra: AlgebraPresentation, module: ModulePresentation,
                     max_internal: int):
    """All bar slices with internal degree 0..max_internal."""
    return {w: bar_slice(algebra, module, w) for w in range(max_internal + 1)}
