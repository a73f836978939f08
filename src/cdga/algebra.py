"""Free graded-commutative differential algebras over Q.

A FreeCDGA is a free graded-commutative algebra on finitely many generators
of degree >= 1 together with a degree +1 derivation d whose square vanishes;
d is given on generators and extended by the graded Leibniz rule.  Bases per
degree are monomials, each degree's built once from the degrees below it
(poly.basis_keys on the algebra's cache), so every operator has an exact
matrix and the whole algebra restricts to a cochain complex through any
window.  Derivation and CDGAMorphism are the two kinds of generator map:
one base checks their images, holds them as int numerators over one
denominator and caches one matrix per degree, and each adds only its own
apply_key, which reads a key as its first generator g times the rest: a
derivation merges each term of D(g) into the rest once, and a morphism
multiplies f(g) into the kept image of the rest.  So apply_key, key_matrix
and the graded commutator on a generator (bracket_image) build no
Fractions; apply and commutator divide only into their Polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .graded import GradedError, GradedSpace
from .linalg import Mat
from .complexes import Complex
from .poly import (
    Generators,
    Polynomial,
    basis_keys,
    key_degree,
    key_product,
    render_key,
    terms_product,
)


def key_matrix(src, tgt_index, image) -> Mat:
    """Matrix whose column j is image(src[j]) = ({key: int}, D), put over the
    lcm of the Ds (Mat.from_int_rows); tgt_index maps target keys to rows."""
    cols = [image(key) for key in src]
    L = lcm(*(D for _, D in cols))
    rows = [{} for _ in tgt_index]
    for col, (v, D) in enumerate(cols):
        f = L // D
        for kk, x in v.items():
            rows[tgt_index[kk]][col] = x * f
    return Mat.from_int_rows(len(rows), len(src), rows, L)


def int_sum(parts):
    """sum c v / D over parts (c, v, D), c an int or Fraction and v {key: int},
    as ({key: int} with no zeros, L), L the lcm of the c.denominator * D."""
    parts = list(parts)
    L = lcm(*(c.denominator * D for c, _, D in parts))
    out = {}
    for c, v, D in parts:
        f = c.numerator * (L // (c.denominator * D))
        for k, x in v.items():
            out[k] = out.get(k, 0) + f * x
    return {k: x for k, x in out.items() if x}, L


def _polynomial(gens, v, D) -> Polynomial:
    return Polynomial(gens, {k: Fraction(x, D) for k, x in v.items()})


class _GeneratorMap:
    """Map from source to target fixed by its generator images, of degree r.

    Each image must be a Polynomial over target's table, homogeneous of
    degree |g| + r; zero images are dropped.  The images are kept once more
    as int numerators over one denominator den (the lcm of their
    coefficients' denominators), which a subclass's apply_key extends to one
    monomial key; apply and the per-degree matrix both go through it.
    Immutable, so each degree's matrix is built once.
    """

    def __init__(self, source, target, degree: int, images, what: str):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.images = {}
        gens = source.gens
        for name, poly in images.items():
            i = gens.index(name)
            if not isinstance(poly, Polynomial):
                raise GradedError("%s image of %r must be a Polynomial" % (what, name))
            if poly.gens != target.gens:
                raise GradedError("%s image of %r is not over the target" % (what, name))
            if poly.terms:
                got, want = poly.is_homogeneous(), gens.degrees[i] + self.degree
                if got != want:
                    raise GradedError(
                        "%s image of %r has degree %s, expected %d" % (what, name, got, want)
                    )
                self.images[gens.names[i]] = poly
        self.den = lcm(*(c.denominator for p in self.images.values() for c in p.terms.values()))
        self._terms = {gens.index(n): {k: c.numerator * (self.den // c.denominator)
                                       for k, c in p.terms.items()}
                       for n, p in self.images.items()}
        self._matrices = {}

    def image_of(self, name: str) -> Polynomial:
        return self.images.get(name, Polynomial.zero(self.target.gens))

    def apply(self, poly: Polynomial) -> Polynomial:
        """Sum of c * apply_key(key) over poly's terms, in ints over one lcm."""
        return _polynomial(self.target.gens,
                           *int_sum((c, *self.apply_key(key)) for key, c in poly.terms.items()))

    def __call__(self, poly):
        return self.apply(poly)

    def _matrix(self, k: int) -> Mat:
        """Matrix from degree k to degree k + r, built once per degree."""
        if k not in self._matrices:
            self._matrices[k] = key_matrix(self.source.basis(k),
                                           self.target.basis_index(k + self.degree), self.apply_key)
        return self._matrices[k]


class Derivation(_GeneratorMap):
    """Degree-r derivation of a free graded-commutative algebra.

    Determined by generator images (homogeneous of degree |g| + r, or zero)
    and extended by D(ab) = D(a) b + (-1)^(r |a|) a D(b).  apply_key applies
    that rule to one monomial key: for each run g^e, e D(g) goes in front of
    the rest (the key with one g taken out) and is merged into it once by
    poly.key_product, with the sign (-1)^(r |left|) of D passing the factors
    left of it times the Koszul sign (-1)^(|left| |D(g)|) of the move.
    """

    def __init__(self, algebra: "FreeCDGA", degree: int, images):
        self.algebra = algebra
        super().__init__(algebra, algebra, degree, images, "derivation")

    def int_image(self, i: int):
        """The image of generator i as ({key: int}, den)."""
        return self._terms.get(i, {}), self.den

    def apply_key(self, key):
        """D(key) as ({key: int}, den): integer coefficients, no zeros, over den."""
        gens = self.algebra.gens
        out = {}
        prefix_degree = 0
        for j, (i, e) in enumerate(key):
            img = self._terms.get(i)
            if img is not None:
                # |left| = prefix_degree + (e - 1)|g|, so the two signs
                # together are (-1)^(|g| prefix_degree)
                c0 = -e if gens.odd[i] and prefix_degree % 2 else e
                rest = key[:j] + (((i, e - 1),) if e > 1 else ()) + key[j + 1:]
                for ikey, c in img.items():
                    s, k = key_product(gens, ikey, rest)
                    if s:
                        out[k] = out.get(k, 0) + (c0 * c if s > 0 else -c0 * c)
            prefix_degree += e * gens.degrees[i]
        return {k: c for k, c in out.items() if c}, self.den

    def matrix(self, k: int) -> Mat:
        """Matrix of the derivation from degree k to degree k + r."""
        return self._matrix(k)

    def bracket_image(self, other: "Derivation", i: int):
        """[self, other](g_i) = s(o(g_i)) - (-1)^(rs) o(s(g_i)) as ({key: int}, den),
        from apply_key on each term of the two integer images, over s.den * o.den."""
        sgn = -1 if (self.degree % 2 and other.degree % 2) else 1
        out = {}
        for s, o, f in ((self, other, 1), (other, self, -sgn)):
            for key, c in o.int_image(i)[0].items():
                for k, x in s.apply_key(key)[0].items():
                    out[k] = out.get(k, 0) + f * c * x
        return {k: x for k, x in out.items() if x}, self.den * other.den

    def commutator(self, other: "Derivation") -> "Derivation":
        """Graded commutator [self, other] = s o - (-1)^(rs) o s, a derivation."""
        gens = self.algebra.gens
        images = {name: _polynomial(gens, *self.bracket_image(other, i))
                  for i, name in enumerate(gens.names)}
        return Derivation(self.algebra, self.degree + other.degree, images)


class FreeCDGA:
    """Free graded-commutative algebra with a square-zero degree +1 derivation.

    Immutable (extended() returns a new one): bases and d matrices are built once per degree.
    """

    def __init__(self, gens, d_images, truncation: int = 8):
        self.gens = gens if isinstance(gens, Generators) else Generators(gens)
        self.truncation = int(truncation)
        self.differential = Derivation(self, 1, d_images or {})
        self._basis_cache = {}
        self._index_cache = {}
        for name in self.gens.names:
            dd = self.differential.apply(self.differential.image_of(name))
            if not dd.is_zero():
                raise GradedError(
                    "d o d is nonzero on generator %r: %s" % (name, dd)
                )

    # -- structure ---------------------------------------------------------

    def zero(self):
        return Polynomial.zero(self.gens)

    def one(self):
        return Polynomial.one(self.gens)

    def gen(self, name: str) -> Polynomial:
        return Polynomial.generator(self.gens, name)

    def d(self, poly: Polynomial) -> Polynomial:
        return self.differential.apply(poly)

    def basis(self, k: int):
        """The sorted keys of degree k, each degree built once from those below."""
        if k not in self._basis_cache:
            self._basis_cache[k] = basis_keys(self.gens, k, self._basis_cache)
        return self._basis_cache[k]

    def basis_index(self, k: int):
        if k not in self._index_cache:
            self._index_cache[k] = {
                key: i for i, key in enumerate(self.basis(k))
            }
        return self._index_cache[k]

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def vector(self, poly: Polynomial, k: int):
        """Coordinates of a homogeneous polynomial in the degree-k basis."""
        idx = self.basis_index(k)
        vec = [Fraction(0)] * len(idx)
        for key, c in poly.terms.items():
            if key_degree(self.gens, key) != k:
                raise GradedError("polynomial has a term outside degree %d" % k)
            vec[idx[key]] = c
        return vec

    def from_rows(self, k: int, mat: Mat):
        """The polynomials whose coordinates in the degree-k basis are mat's rows."""
        keys = self.basis(k)
        terms = [{} for _ in range(mat.m)]
        for i, j, x in mat.items():
            terms[i][keys[j]] = x
        return [Polynomial(self.gens, t) for t in terms]

    def d_matrix(self, k: int) -> Mat:
        return self.differential.matrix(k)

    def to_complex(self, window=None) -> Complex:
        """Degreewise complex of the algebra on [0, n] (default truncation)."""
        lo, hi = (0, self.truncation) if window is None else window
        labels = {}
        diffs = {}
        for k in range(lo, hi + 1):
            keys = self.basis(k)
            if keys:
                labels[k] = tuple(render_key(self.gens, key) for key in keys)
        for k in range(lo, hi):
            if self.dim(k) and self.dim(k + 1):
                mat = self.d_matrix(k)
                if not mat.is_zero():
                    diffs[k] = mat
        return Complex(GradedSpace(labels), diffs, validate=False)

    def is_minimal(self) -> bool:
        """Every differential image is decomposable (length >= 2 monomials)."""
        for name in self.gens.names:
            img = self.differential.image_of(name)
            for key in img.terms:
                if sum(e for _, e in key) < 2:
                    return False
        return True

    def is_simply_connected(self) -> bool:
        return all(d >= 2 for d in self.gens.degrees)

    def extended(self, new_gens, new_d_images) -> "FreeCDGA":
        """Hirsch-style extension: append generators, keep old differentials.

        Old polynomials transfer because generator indices are stable under
        appending; the new images may use every generator.
        """
        gens2 = self.gens.extended(new_gens)
        images = {name: Polynomial(gens2, dict(poly.terms))
                  for name, poly in [*self.differential.images.items(), *new_d_images.items()]}
        return FreeCDGA(gens2, images, truncation=self.truncation)


class CDGAMorphism(_GeneratorMap):
    """Algebra map determined by generator images, compatible with d.

    apply_key writes a monomial key as g rest, g its first generator, and
    takes f(g) f(rest) with one poly.terms_product; the image of every rest
    is kept (the map is immutable).  apply, matrix, compose and
    is_chain_map all go through it, so none multiplies Polynomials.
    """

    def __init__(self, source: FreeCDGA, target: FreeCDGA, images,
                 validate: bool = True):
        super().__init__(source, target, 0, images, "morphism")
        self._key_images = {(): ({(): 1}, 1)}
        if validate and not self.is_chain_map():
            raise GradedError("generator images do not commute with d")

    @classmethod
    def identity(cls, a: FreeCDGA) -> "CDGAMorphism":
        return cls(a, a, {n: a.gen(n) for n in a.gens.names}, validate=False)

    def apply_key(self, key):
        """f(key) as ({key: int} with no zeros, den**m), m the factors in key,
        or ({}, 1) if a factor maps to zero.  The rests not kept yet are
        multiplied up from the longest one that is, so no recursion."""
        kept, rests = self._key_images, []
        while key not in kept:
            rests.append(key)
            i, e = key[0]
            key = ((i, e - 1),) + key[1:] if e > 1 else key[1:]
        terms, D = kept[key]
        for key in reversed(rests):
            img = self._terms.get(key[0][0])
            if img is None or D == 1 and not terms:
                terms, D = {}, 1
            else:
                terms, D = terms_product(self.target.gens, img, terms), D * self.den
            kept[key] = terms, D
        return terms, D

    def is_chain_map(self) -> bool:
        for name in self.source.gens.names:
            lhs = self.apply(self.source.differential.image_of(name))
            rhs = self.target.d(self.image_of(name))
            if lhs != rhs:
                return False
        return True

    def matrix(self, k: int) -> Mat:
        return self._matrix(k)

    def compose(self, other: "CDGAMorphism") -> "CDGAMorphism":
        """self o other."""
        images = {
            name: self.apply(other.image_of(name))
            for name in other.source.gens.names
        }
        return CDGAMorphism(other.source, self.target, images, validate=False)
