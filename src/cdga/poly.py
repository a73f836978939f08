"""Free graded-commutative polynomials over Q.

Generators are an ordered table of (name, degree) with degree >= 1.  A
monomial key is a tuple of (generator_index, exponent) pairs, sorted by
generator index, exponents >= 1, and exponent == 1 whenever the generator
has odd degree (odd squares vanish).  A polynomial is a finite Q-linear
combination of monomial keys.

Monomial keys of equal degree are ordered lexicographically as tuples; that
order fixes every basis used downstream, so matrices and reports are
reproducible.

Every product goes through key_product, which merges two canonical keys run
by run without expanding exponents and returns the Koszul sign (0 when an
odd generator meets itself); terms_product (behind Polynomial.__mul__ on
Fractions and CDGAMorphism.apply_key on ints) and normalize_factors both use
it, so products have one sign routine.
"""

from __future__ import annotations

import unicodedata
from fractions import Fraction

from .graded import GradedError

Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


class Generators:
    """Ordered table of free graded-commutative generators."""

    def __init__(self, gens):
        names = []
        degrees = []
        for name, degree in gens:
            name = unicodedata.normalize("NFC", str(name))
            degree = int(degree)
            if degree < 1:
                raise GradedError(
                    "generator %r has degree %d; generators must have degree >= 1"
                    % (name, degree)
                )
            names.append(name)
            degrees.append(degree)
        if len(set(names)) != len(names):
            raise GradedError("duplicate generator names")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.odd = tuple(d % 2 for d in degrees)
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        name = unicodedata.normalize("NFC", name)
        if name not in self._index:
            raise GradedError("unknown generator %r" % name)
        return self._index[name]

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def extended(self, more):
        """New table with extra generators appended (existing order kept)."""
        return Generators(list(zip(self.names, self.degrees)) + list(more))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Generators)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __repr__(self):
        return "Generators(%r)" % list(zip(self.names, self.degrees))


def key_degree(gens: Generators, key) -> int:
    return sum(gens.degrees[i] * e for i, e in key)


def key_product(gens: Generators, a, b):
    """Product of the canonical keys a * b as (sign, key); sign 0 means zero.

    Merges the (index, exponent) runs: equal even generators add exponents,
    an odd generator met twice kills the product, and an odd run of b flips
    the sign once per odd run of a it passes (odd runs have exponent 1).
    """
    if not a or not b:
        return 1, a or b
    odd = gens.odd
    left = sum(odd[i] for i, _ in a)  # odd runs of a not yet merged
    out, sign, p, q = [], 1, 0, 0
    while p < len(a) and q < len(b):
        (i, e), (j, f) = a[p], b[q]
        if i < j:
            out.append(a[p])
            left -= odd[i]
            p += 1
        elif j < i:
            out.append(b[q])
            if odd[j] and left % 2:
                sign = -sign
            q += 1
        elif odd[i]:
            return 0, ()
        else:
            out.append((i, e + f))
            p += 1
            q += 1
    return sign, tuple(out) + a[p:] + b[q:]


def terms_product(gens: Generators, a, b):
    """Product of two term dicts {key: coefficient}, cancelled terms left out;
    the coefficients may be Fractions or ints (sums start at int 0)."""
    terms = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            s, key = key_product(gens, k1, k2)
            if s:
                terms[key] = terms.get(key, 0) + (c1 * c2 if s > 0 else -c1 * c2)
    return {k: c for k, c in terms.items() if c}


def normalize_factors(gens: Generators, factors, coeff=Q_ONE):
    """Sort a factor sequence into a canonical key, tracking the Koszul sign.

    `factors` is any iterable of (generator_index, exponent) pairs, in the
    order they are multiplied; they are folded into the key one run at a
    time with key_product.  Returns (coefficient, key); a vanishing product
    (odd generator squared) returns (0, ()).
    """
    coeff = Fraction(coeff)
    if coeff == 0:
        return Q_ZERO, ()
    sign, key = 1, ()
    for i, e in factors:
        e = int(e)
        if e < 0:
            raise GradedError("negative exponent on generator %r" % gens.names[i])
        s, key = key_product(gens, key, ((i, e),)) if e else (1, key)
        if not s or (gens.odd[i] and e >= 2):
            return Q_ZERO, ()
        sign *= s
    return coeff * sign, key


class Polynomial:
    """Q-linear combination of canonical monomial keys (immutable)."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Generators, terms=None):
        self.gens = gens
        clean = {}
        for key, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[key] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens):
        return cls(gens, {})

    @classmethod
    def one(cls, gens):
        return cls(gens, {(): Q_ONE})

    @classmethod
    def generator(cls, gens, name):
        i = gens.index(name)
        return cls(gens, {((i, 1),): Q_ONE})

    @classmethod
    def monomial(cls, gens, factors, coeff=Q_ONE):
        c, key = normalize_factors(gens, factors, coeff)
        return cls(gens, {key: c} if c else {})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self):
        """Degree if homogeneous (zero counts, returning None), else raises."""
        ds = {key_degree(self.gens, k) for k in self.terms}
        if not ds:
            return None
        if len(ds) > 1:
            raise GradedError("polynomial is not homogeneous: degrees %s" % sorted(ds))
        return ds.pop()

    def homogeneous_part(self, k: int) -> "Polynomial":
        return Polynomial(
            self.gens,
            {key: c for key, c in self.terms.items() if key_degree(self.gens, key) == k},
        )

    # -- arithmetic --------------------------------------------------------

    def _require_same_gens(self, other):
        if self.gens is not other.gens and self.gens != other.gens:
            raise GradedError("polynomials over different generator tables")

    def __add__(self, other):
        self._require_same_gens(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Q_ZERO) + c
        return Polynomial(self.gens, terms)

    def __sub__(self, other):
        self._require_same_gens(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Q_ZERO) - c
        return Polynomial(self.gens, terms)

    def __neg__(self):
        return Polynomial(self.gens, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return Polynomial(self.gens, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_gens(other)
        return Polynomial(self.gens, terms_product(self.gens, self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens.names, tuple(sorted(self.terms.items()))))

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            body = render_key(self.gens, key)
            if body == "1":
                chunk = str(c)
            elif c == 1:
                chunk = body
            elif c == -1:
                chunk = "-" + body
            else:
                chunk = "%s %s" % (c, body)
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    __repr__ = __str__


def render_key(gens: Generators, key) -> str:
    if not key:
        return "1"
    pieces = []
    for i, e in key:
        pieces.append(gens.names[i] if e == 1 else "%s^%d" % (gens.names[i], e))
    return "*".join(pieces)


def basis_keys(gens: Generators, degree: int):
    """All canonical monomial keys of the given total degree, sorted.

    Degree 0 has the single empty key; negative degrees are empty.  The
    recursion takes generators in order of degree (then index) and stops at
    the first one too large, so its work is bounded by the keys of degree
    <= degree, however many generators do not fit; each key's pairs are put
    back in index order.
    """
    if degree < 0:
        return []
    out = []
    order = sorted(range(len(gens.degrees)), key=gens.degrees.__getitem__)
    degrees = [gens.degrees[i] for i in order]

    def rec(pos, remaining, acc):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        for p in range(pos, len(order)):
            d = degrees[p]
            if d > remaining:
                break
            cap = 1 if d % 2 else remaining // d
            for e in range(1, cap + 1):
                acc.append((order[p], e))
                rec(p + 1, remaining - d * e, acc)
                acc.pop()

    rec(0, degree, [])
    out.sort()
    return out
