"""Graded vector spaces over Q, Koszul signs, and the graded Lie identities.

Degrees are signed integers.  Parity (for all sign purposes) is degree mod 2.
lie_violation is the one check of graded antisymmetry and graded Jacobi on a
bracket table; the free graded Lie algebras of cdga.free and the ungraded
Lie algebras of cdga.cartan (every degree 0) are both checked by it.
graded_commutator is the one graded commutator of per-degree operator
families: chain homotopies, Laplacians, the CCR and the Cartan identities.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


class GradedError(ValueError):
    pass


def koszul_sign(degrees, permutation) -> int:
    """Sign picked up by reordering graded elements.

    `permutation[j]` is the index (into `degrees`) of the element placed at
    position j, so the result order reads degrees[permutation[0]],
    degrees[permutation[1]], ...  Each inversion of two odd elements
    contributes a factor -1; even elements move freely.
    """
    n = len(degrees)
    if sorted(permutation) != list(range(n)):
        raise GradedError("not a permutation of 0..%d: %r" % (n - 1, permutation))
    sign = 1
    for j in range(n):
        for i in range(j):
            if permutation[i] > permutation[j]:
                if degrees[permutation[i]] % 2 and degrees[permutation[j]] % 2:
                    sign = -sign
    return sign


def combine(terms):
    """sum of c * combo over (c, combo) pairs of {index: coefficient} dicts, zeros dropped."""
    out = {}
    for c, combo in terms:
        for k, v in combo.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def graded_commutator(a, p, b, q, k):
    """[a, b]_k = a_(k+q) b_k - (-1)^(pq) b_(k+p) a_k, on degree k.

    a and b are families of maps of degrees p and q, each a function from a
    degree j to the matrix of its component on degree j (Complex.diff,
    GradedMap.comp, Derivation.matrix, dict.get); two odd families give
    their anticommutator.  Two products and one sum.
    """
    left, right = a(k + q) * b(k), b(k + p) * a(k)
    return left + right if p % 2 and q % 2 else left - right


def lie_violation(degrees, bracket, bound):
    """First basis pair or triple on which a bracket table is not graded Lie, else None.

    degrees[i] is the degree of e_i; bracket(i, j) returns [e_i, e_j] as
    {index: coefficient} with no zeros and is read once per pair.  Only
    pairs and triples of total degree <= bound are checked.  Returns the
    first pair i <= j with [e_i, e_j] != -(-1)^(|i||j|) [e_j, e_i], else the
    first triple i <= j <= k with a nonzero graded Jacobiator
    (-1)^(|i||k|) [i,[j,k]] + (-1)^(|j||i|) [j,[k,i]] + (-1)^(|k||j|) [k,[i,j]].
    Under antisymmetry, permuting a triple only changes the sign of its
    Jacobiator, so sorted triples suffice and a repeated even index gives
    zero; a repeated odd index stays, since [x,[x,x]] = 0 is a real
    condition for odd x.
    """
    table = {}

    def br(i, j):
        if (i, j) not in table:
            table[(i, j)] = bracket(i, j)
        return table[(i, j)]

    def sign(i, j):
        return -1 if degrees[i] % 2 and degrees[j] % 2 else 1

    for i, j in combinations_with_replacement(range(len(degrees)), 2):
        if degrees[i] + degrees[j] <= bound and br(i, j) != combine([(-sign(i, j), br(j, i))]):
            return i, j
    for i, j, k in combinations_with_replacement(range(len(degrees)), 3):
        if (i == j or j == k) and not degrees[j] % 2:
            continue  # a repeated even index: the Jacobiator vanishes by antisymmetry
        if degrees[i] + degrees[j] + degrees[k] <= bound and combine(
            (sign(a, c) * x, br(a, m))
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for m, x in br(b, c).items()
        ):
            return i, j, k
    return None


class GradedSpace:
    """Finite-dimensional graded space: an ordered label basis per degree."""

    def __init__(self, labels_by_degree):
        self._labels = {}
        for k, labels in labels_by_degree.items():
            labels = tuple(str(l) for l in labels)
            if len(set(labels)) != len(labels):
                raise GradedError("duplicate labels in degree %d" % k)
            if labels:
                self._labels[int(k)] = labels

    def degrees(self):
        return sorted(self._labels)

    def dim(self, k: int) -> int:
        return len(self._labels.get(k, ()))

    def labels(self, k: int):
        return self._labels.get(k, ())

    def index(self, k: int, label: str) -> int:
        return self._labels[k].index(label)

    def total_dim(self) -> int:
        return sum(len(v) for v in self._labels.values())

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self._labels == other._labels

    def __repr__(self):
        return "GradedSpace(%r)" % {k: list(v) for k, v in sorted(self._labels.items())}

    def items(self):
        return sorted(self._labels.items())
