"""Exact Hodge theory for complexes and the number-operator audit.

Given positive-definite rational Gram matrices per degree, the adjoint of
the differential is (d_k)* = G_k^{-1} d_k^T G_{k+1}, the Laplacian is
H_k = (d_k)* d_k + d_{k-1} (d_{k-1})*, and every degree splits orthogonally
into harmonic (+) exact (+) coexact parts with dim ker H_k equal to the
Betti number — all over Q, no square roots needed.  One elimination of
[G | I] per stored Gram gives Sylvester's test (the left block's pivots are
G's own) and G^{-1}, which InnerProduct keeps for the adjoints.

The second half implements the oscillator picture for a graded space with a
degree +1 boundary and (optionally) a cobracket: generators are doubled
with a partner one degree higher, the free graded-commutative algebra on
the doubled space carries d(g) = g' + (lifted boundary), d(g') = -(lifted
boundary), and with the Fock inner product <x a, b> = <a, J_x b> (J_x sums
the contractions iota_y weighted by <x, y>) the Laplacian restricted to
generators equals the small Laplacian of the boundary plus the length
operator N.  GradedChainData holds the boundary as a Complex and its Grams
as an InnerProduct, so the small Laplacian is laplacian().  One audit
builds every operator matrix (d, its linear and split parts, contractions,
multiplications) and every Gram inverse once; the Fock Grams and the
commutation check share the contractions, all adjoints go through
_adjoints and all anticommutators {x*, y} through _anticommutator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graded import GradedError, GradedSpace, combine
from .linalg import Mat, exact
from .complexes import Complex, GradedMap, InternalCheckError, betti_numbers
from .poly import Q_ONE, Q_ZERO, Generators, Polynomial, key_product
from .algebra import FreeCDGA, Derivation, key_matrix


class InnerProduct:
    """Per-degree symmetric positive-definite Gram matrices (default identity);
    check_grams keeps each checked Gram's inverse in `inverses` for adjoint()."""

    def __init__(self, grams=None):
        self.grams = {}
        self.inverses = {}
        for k, g in (grams or {}).items():
            if not isinstance(g, Mat):
                g = Mat.from_rows(g)
            self.grams[int(k)] = g

    @classmethod
    def identity(cls) -> "InnerProduct":
        return cls({})

    def gram(self, k: int, dim: int) -> Mat:
        if k in self.grams:
            g = self.grams[k]
            if g.m != dim or g.n != dim:
                raise GradedError(
                    "Gram matrix at degree %d has size %dx%d, expected %d"
                    % (k, g.m, g.n, dim)
                )
            return g
        return Mat.eye(dim)

    def check_grams(self, dim=None):
        """Require every stored Gram symmetric positive definite, in stored order.

        With dim (a function of the degree), each must also be dim(k) square.
        """
        for k, g in self.grams.items():
            if dim is not None:
                g = self.gram(k, dim(k))
            if g != g.transpose():
                raise GradedError("Gram matrix at degree %d is not symmetric" % k)
            inverse = g.positive_definite_inverse()
            if inverse is None:
                raise GradedError("Gram matrix at degree %d is not positive definite" % k)
            self.inverses[k] = inverse

    def validate_for(self, c: Complex):
        self.check_grams(c.dim)


def _adjoints(grams, *ops, inverses=()):
    """Adjoints G_k^{-1} op_k^T G_{k+1} of dicts {k: op_k} of degree +1 maps.

    grams maps degrees to Gram matrices; each inverse not in inverses is made
    once and shared by all the dicts.  Returns one dict {k: adjoint} per dict.
    """
    inverses = dict(inverses)
    out = []
    for op in ops:
        adj = {}
        for k, m in op.items():
            if k not in inverses:
                inverses[k] = grams[k].inv()
            adj[k] = inverses[k] * m.transpose() * grams[k + 1]
        out.append(adj)
    return out


def _anticommutator(x_adj, y, k):
    """{x*, y}_k = x*_k y_k + y_{k-1} x*_{k-1} on degree k.

    x_adj[j] is the adjoint of a degree +1 map x_j : C_j -> C_{j+1}, and y[j]
    is such a map too; zero-dimensional degrees need no special case.
    """
    return x_adj[k] * y[k] + y[k - 1] * x_adj[k - 1]


def adjoint(c: Complex, ip: InnerProduct) -> GradedMap:
    """Degree -1 map with component (d_k)* = G_k^{-1} d_k^T G_{k+1} at k+1."""
    ds = {k - 1: c.diff(k - 1) for k in c.support() if c.dim(k - 1)}
    grams = {j: ip.gram(j, c.dim(j)) for k in ds for j in (k, k + 1)}
    # a degree with no stored Gram has the identity, its own inverse
    identities = {j: g for j, g in grams.items() if j not in ip.grams}
    (adj,) = _adjoints(grams, ds, inverses={**identities, **ip.inverses})
    return GradedMap(c, c, -1, {k + 1: m for k, m in adj.items()})


def laplacian(c: Complex, ip: InnerProduct, k: int, adj: GradedMap = None) -> Mat:
    adj = adj or adjoint(c, ip)
    degrees = (k - 1, k)
    return _anticommutator(
        {j: adj.comp(j + 1) for j in degrees}, {j: c.diff(j) for j in degrees}, k
    )


def harmonic_space(c: Complex, ip: InnerProduct, k: int, adj: GradedMap = None):
    """Nullspace of the Laplacian, verified equal to ker d (intersect) ker d*."""
    adj = adj or adjoint(c, ip)
    H = laplacian(c, ip, k, adj)
    harms = H.nullspace()
    dk = c.diff(k)
    ak = adj.comp(k)
    for v in harms:
        if any(x != 0 for x in dk.apply(v)) or any(x != 0 for x in ak.apply(v)):
            raise InternalCheckError(
                "harmonic vector escapes ker d or ker d* at degree %d" % k
            )
    stacked = dk.vstack(ak)
    if stacked.n - stacked.rank() != len(harms):
        raise InternalCheckError(
            "ker Laplacian and ker d (intersect) ker d* differ at degree %d" % k
        )
    return harms


@dataclass
class HodgeDecomposition:
    degree: int
    harmonic: list
    exact: list
    coexact: list


def hodge_decomposition(c: Complex, ip: InnerProduct, k: int) -> HodgeDecomposition:
    """Orthogonal splitting C_k = harmonic (+) im d (+) im d*, fully verified."""
    adj = adjoint(c, ip)
    harms = harmonic_space(c, ip, k, adj)
    d_in = c.diff(k - 1)
    piv_in = d_in.pivots()
    exact = [[d_in[(i, j)] for i in range(c.dim(k))] for j in piv_in]
    a_in = adj.comp(k + 1)
    piv_co = a_in.pivots()
    coexact = [[a_in[(i, j)] for i in range(c.dim(k))] for j in piv_co]
    g = ip.gram(k, c.dim(k))

    def inner(u, v):
        gv = g.apply(v)
        return sum(a * b for a, b in zip(u, gv))

    pairs = ((harms, exact), (harms, coexact), (exact, coexact))
    if any(inner(u, v) for fam1, fam2 in pairs for u in fam1 for v in fam2):
        raise InternalCheckError("Hodge components are not orthogonal at degree %d" % k)
    total = len(harms) + len(exact) + len(coexact)
    if total != c.dim(k):
        raise InternalCheckError(
            "Hodge components do not fill degree %d (%d of %d)"
            % (k, total, c.dim(k))
        )
    betti = betti_numbers(c, (k, k))[k]
    if len(harms) != betti:
        raise InternalCheckError(
            "harmonic dimension %d differs from Betti number %d at degree %d"
            % (len(harms), betti, k)
        )
    return HodgeDecomposition(degree=k, harmonic=harms, exact=exact, coexact=coexact)


def harmonic_projection(c: Complex, ip: InnerProduct, k: int, vec):
    """(harmonic part, exact part, coexact part) of a degree-k vector."""
    dec = hodge_decomposition(c, ip, k)
    cols = dec.harmonic + dec.exact + dec.coexact
    A = Mat(len(cols), c.dim(k), cols).transpose()
    x = A.solve(list(vec))
    if x is None:
        raise InternalCheckError("Hodge basis failed to span degree %d" % k)
    h = len(dec.harmonic)
    e = len(dec.exact)

    def part(lo, hi):
        return A.apply([v if lo <= j < hi else Fraction(0) for j, v in enumerate(x)])

    return part(0, h), part(h, h + e), part(h + e, len(cols))


# -- graded Lie-type data for the oscillator audit --------------------------------


class GradedChainData:
    """Positively graded space with a degree +1 boundary and optional cobracket.

    `boundary[v]` maps basis names one degree up; `cobracket[v]` lists
    (a, b, coefficient) splits with deg a + deg b = deg v + 1.  An optional
    per-degree Gram matrix equips the space with an inner product.  The
    boundary is also `complex`, whose degree-p labels are the basis names of
    degree p in listing order, and the Grams are `inner`.  No basis name may
    be another's partner name (the name with a prime appended).
    """

    def __init__(self, elements, boundary=None, cobracket=None, grams=None):
        self.elements = [(str(n), int(d)) for n, d in elements]
        self._index = {n: i for i, (n, _) in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise GradedError("duplicate basis names")
        for n, d in self.elements:
            if d < 1:
                raise GradedError("basis element %r must have degree >= 1" % n)
            if n + "'" in self._index:
                raise GradedError("basis element %r has the name of the partner of %r" % (n + "'", n))
        self.boundary = {}
        for v, combo in (boundary or {}).items():
            self._require(v)
            clean = {}
            for w, coeff in combo.items():
                self._require(w)
                coeff = exact(coeff)
                if coeff:
                    if self.degree_of(w) != self.degree_of(v) + 1:
                        raise GradedError(
                            "boundary of %r must raise degree by one" % v
                        )
                    clean[w] = coeff
            if clean:
                self.boundary[v] = clean
        self.cobracket = {}
        for v, splits in (cobracket or {}).items():
            self._require(v)
            clean = []
            for a, b, coeff in splits:
                self._require(a)
                self._require(b)
                coeff = exact(coeff)
                if not coeff:
                    continue
                if self.degree_of(a) + self.degree_of(b) != self.degree_of(v) + 1:
                    raise GradedError(
                        "cobracket of %r violates the degree rule" % v
                    )
                clean.append((a, b, coeff))
            if clean:
                self.cobracket[v] = clean
        by_degree = {}
        for n, d in self.elements:
            by_degree.setdefault(d, []).append(n)
        space = GradedSpace(by_degree)
        rows = {}  # degree p: the row dicts of d_p
        for v, combo in self.boundary.items():
            p = self.degree_of(v)
            d_rows = rows.setdefault(p, [{} for _ in range(space.dim(p + 1))])
            for w, coeff in combo.items():
                d_rows[space.index(p + 1, w)][space.index(p, v)] = coeff
        diffs = {p: Mat.from_dicts(space.dim(p + 1), space.dim(p), r) for p, r in rows.items()}
        self.complex = Complex(space, diffs, validate=False)
        self.inner = InnerProduct(grams)
        self._validate()

    def _require(self, name):
        if name not in self._index:
            raise GradedError("unknown basis element %r" % name)

    def degree_of(self, name) -> int:
        return self.elements[self._index[name]][1]

    def _validate(self):
        # boundary squares to zero
        c = self.complex
        for p in c.degrees():
            if not (c.diff(p + 1) * c.diff(p)).is_zero():
                raise GradedError("boundary does not square to zero at degree %d" % p)
        self.inner.validate_for(c)
        # co-Leibniz compatibility when both structures are present:
        # cobracket(boundary v) = (boundary (x) 1 + sign 1 (x) boundary)(cobracket v)
        if self.cobracket and self.boundary:
            bd, cob = self.boundary, self.cobracket
            for v, _ in self.elements:
                lhs = combine((x * y, {(a, b): 1}) for w, x in bd.get(v, {}).items()
                              for a, b, y in cob.get(w, []))
                rhs = combine(
                    [(x * y, {(w, b): 1}) for a, b, y in cob.get(v, []) for w, x in bd.get(a, {}).items()]
                    + [(-x * y if self.degree_of(a) % 2 else x * y, {(a, w): 1})
                       for a, b, y in cob.get(v, []) for w, x in bd.get(b, {}).items()])
                if lhs != rhs:
                    raise GradedError(
                        "cobracket is not compatible with the boundary at %r" % v
                    )


def _doubled(data: GradedChainData, truncation: int):
    """(doubled_algebra(data, truncation), linear images, split images).

    The linear part of d is v' plus the lifted boundary on g_v and minus the
    lifted boundary of partners on v'; the split part is the rest, built from
    the cobracket.  The differential of the algebra is their sum.
    """
    nL = len(data.elements)
    names = [n for n, _ in data.elements] + [n + "'" for n, _ in data.elements]
    degrees = [d for _, d in data.elements] + [d + 1 for _, d in data.elements]
    gens = Generators(list(zip(names, degrees)))

    def mono(factors, coeff=Q_ONE):
        return Polynomial.monomial(gens, factors, coeff)

    lin, split = {}, {}
    for i, (v, _) in enumerate(data.elements):
        g, partner = names[i], names[nL + i]
        lin[g] = mono([(nL + i, 1)])
        lin[partner] = split[g] = split[partner] = Polynomial.zero(gens)
        for w, coeff in data.boundary.get(v, {}).items():
            j = data._index[w]
            lin[g] += mono([(j, 1)], coeff)
            lin[partner] += mono([(nL + j, 1)], -coeff)
        for a, b, coeff in data.cobracket.get(v, []):
            ia, ib = data._index[a], data._index[b]
            half = Fraction(coeff, 2)
            sgn = -1 if data.degree_of(a) % 2 else 1
            split[g] += mono([(ia, 1), (ib, 1)], half)
            split[partner] += mono([(nL + ia, 1), (ib, 1)], -half)
            split[partner] += mono([(ia, 1), (nL + ib, 1)], -sgn * half)
    images = {n: lin[n] + split[n] for n in names}
    return FreeCDGA(gens, images, truncation=truncation), lin, split


def doubled_algebra(data: GradedChainData, truncation: int = 6) -> FreeCDGA:
    """Free graded-commutative algebra on the doubled generator space.

    Each basis element v of degree p contributes g_v (degree p) and a
    partner v' (degree p+1); d(g_v) = v' + lifted boundary + split terms,
    d(v') = -lifted boundary of partners - the coadjoint image of the
    split terms (the unique extension making d square to zero).
    """
    return _doubled(data, truncation)[0]


def _multiplication(alg: FreeCDGA, y: int, k: int) -> Mat:
    """Matrix of multiplication by generator y from degree k."""
    def image(key):
        sign, prod = key_product(alg.gens, ((y, 1),), key)
        return {prod: sign} if sign else {}, 1

    return key_matrix(alg.basis(k), alg.basis_index(k + alg.gens.degrees[y]), image)


class FockInnerProduct:
    """Fock inner product on monomials of a doubled algebra, from contractions.

    Generators pair through the underlying Gram (partners inherit the Gram
    of their unbarred originals).  A product pairs by <x a, b> = <a, J_x b>
    with J_x = sum_y <x, y> iota_y, where the contraction iota_y is the
    derivation of degree -|y| sending y to 1 and every other generator to 0.
    A basis key is x times its rest with sign +1 when x is its first (lowest
    index) factor, so the rows of G_k with first factor x are the rows of
    G_{k-|x|} at the rests times J_x from degree k.  For the identity Gram
    this weights a monomial by the product of factorials of its
    even-generator multiplicities.  Each contraction matrix is built once,
    by contraction(), which the audit's commutation check shares.
    """

    def __init__(self, data: GradedChainData, algebra: FreeCDGA):
        self.data = data
        self.algebra = algebra
        space = data.complex.space
        # each doubled generator's (is a partner, underlying degree, position)
        self.place = [(bar, p, space.index(p, v)) for bar in (False, True) for v, p in data.elements]
        # the nonzero pairings (y, <x, y>) of each doubled generator x
        self._pairs = []
        for bar, p, r in self.place:
            g = data.inner.gram(p, space.dim(p))
            self._pairs.append([(y, g[(r, s)]) for y, (bar_y, q, s) in enumerate(self.place)
                                if (bar_y, q) == (bar, p) and g[(r, s)]])
        one = Polynomial.one(algebra.gens)
        self._iotas = [Derivation(algebra, -deg, {name: one})
                       for name, deg in zip(algebra.gens.names, algebra.gens.degrees)]
        self._gram_cache = {}

    def contraction(self, y: int, k: int) -> Mat:
        """Matrix of the contraction iota_y from degree k, built once."""
        return self._iotas[y].matrix(k)

    def gram(self, k: int) -> Mat:
        if k not in self._gram_cache:
            alg, degs = self.algebra, self.algebra.gens.degrees
            basis = alg.basis(k)
            n = len(basis)
            g = Mat.eye(n) if k == 0 else Mat.zero(n, n)  # degree 0 is the empty key alone
            # rows[x][pos]: position of the rest of the key at pos whose first factor is x
            rows = {}
            for pos, key in enumerate(basis if k else ()):
                (x, e), rest = key[0], key[1:]
                if e > 1:
                    rest = ((x, e - 1),) + rest
                rows.setdefault(x, [None] * n)[pos] = alg.basis_index(k - degs[x])[rest]
            for x, idx in rows.items():
                j_x = Mat.zero(alg.dim(k - degs[x]), n)
                for y, c in self._pairs[x]:
                    j_x += self.contraction(y, k).scale(c)
                g += self.gram(k - degs[x]).select_rows(idx) * j_x
            self._gram_cache[k] = g
        return self._gram_cache[k]


@dataclass
class NumberOperatorReport:
    ok: bool
    truncation: int
    generator_identity: dict
    ccr_ok: bool
    cross_terms_zero: bool
    laplacian_commutes: bool
    failures: list = field(default_factory=list)


def number_operator_check(data: GradedChainData, truncation: int = 6) -> NumberOperatorReport:
    """Audit: on the doubled algebra, H restricted to generators is H' + N.

    H is the Fock Laplacian {d, d*}; H' is the small Laplacian of the
    boundary on the underlying space (partners inherit the copy one degree
    down); N is the length operator, identity on generators.  The canonical
    commutation relations between contraction and multiplication operators
    and the vanishing of linear/split cross terms are verified alongside.
    Every operator matrix and every Gram inverse is built once per call.
    """
    t = truncation
    alg, lin_images, split_images = _doubled(data, t)
    fock = FockInnerProduct(data, alg)
    failures = []

    grams = {k: fock.gram(k) for k in range(-1, t + 2)}
    for k in range(0, t + 2):
        if grams[k] != grams[k].transpose():
            failures.append("Fock Gram is not symmetric at degree %d" % k)

    # d = d_lin + d_split and the adjoints of all three, degree by degree
    d = {k: alg.d_matrix(k) for k in range(-1, t + 1)}
    lin_d = Derivation(alg, 1, lin_images)
    split_d = Derivation(alg, 1, split_images)
    d_lin = {k: lin_d.matrix(k) for k in range(-1, t)}
    d_split = {k: split_d.matrix(k) for k in range(-1, t)}
    for k in range(0, t):
        if d_lin[k] + d_split[k] != d[k]:
            raise InternalCheckError(
                "linear/split decomposition of d fails at degree %d" % k
            )
    d_adj, lin_adj, split_adj = _adjoints(grams, d, d_lin, d_split)
    laps = {k: _anticommutator(d_adj, d, k) for k in range(0, t + 1)}

    # small Laplacian per underlying degree
    c = data.complex
    adj = adjoint(c, data.inner)
    small = {p: laplacian(c, data.inner, p, adj) for p in c.degrees()}

    # in degree k the generator columns of H must be those of N + H'
    generator_identity = {}
    for k in range(1, t + 1):
        basis = alg.basis(k)
        gens = [(pos, fock.place[key[0][0]]) for pos, key in enumerate(basis)
                if len(key) == 1 and key[0][1] == 1]
        if not gens:
            continue
        # row i is column pos_i of H; its entry at generator j is H[(pos_j, pos_i)]
        want = Mat.from_dicts(len(gens), len(basis), [
            {pos_j: small[p_i][(r_j, r_i)] + (Q_ONE if pos_j == pos_i else Q_ZERO)
             for pos_j, (bar_j, p_j, r_j) in gens if (bar_j, p_j) == (bar_i, p_i)}
            for pos_i, (bar_i, p_i, r_i) in gens
        ])
        generator_identity[k] = laps[k].transpose().select_rows([pos for pos, _ in gens]) == want
        if not generator_identity[k]:
            failures.append("generator identity fails at degree %d" % k)

    # canonical commutation relations: contraction against multiplication
    names, degs = alg.gens.names, alg.gens.degrees
    iota = fock.contraction
    mult = {
        (y, k): _multiplication(alg, y, k)
        for y in range(len(names))
        for k in range(-max(degs, default=0), t - degs[y] + 1)
    }
    ccr_ok = True
    for x, xname in enumerate(names):
        dx = degs[x]
        for y, yname in enumerate(names):
            dy = degs[y]
            for k in range(0, t - dy + 1):
                if k + dy - dx < 0 or k + dy - dx > t:
                    continue
                left = iota(x, k + dy) * mult[y, k]
                right = mult[y, k - dx] * iota(x, k)
                comm = left + right if dx % 2 and dy % 2 else left - right
                want = Mat.eye(comm.n) if x == y else Mat.zero(comm.m, comm.n)
                if comm != want:
                    ccr_ok = False
                    failures.append(
                        "commutation relation fails for (%s, %s) at degree %d"
                        % (xname, yname, k)
                    )

    # cross terms between the linear part and the split part of d
    cross_zero = True
    for k in range(0, t):
        cross = _anticommutator(lin_adj, d_split, k) + _anticommutator(
            split_adj, d_lin, k
        )
        if not cross.is_zero():
            cross_zero = False
            failures.append("linear/split cross terms survive at degree %d" % k)

    # Laplacian commutes with d
    lap_comm = True
    for k in range(0, t):
        if laps[k + 1] * d[k] != d[k] * laps[k]:
            lap_comm = False
            failures.append("[H, d] != 0 at degree %d" % k)

    return NumberOperatorReport(
        ok=not failures,
        truncation=t,
        generator_identity=generator_identity,
        ccr_ok=ccr_ok,
        cross_terms_zero=cross_zero,
        laplacian_commutes=lap_comm,
        failures=failures,
    )
