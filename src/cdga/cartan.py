"""Cartan calculus: Chevalley-Eilenberg and Weil algebras of a Lie algebra.

A finite-dimensional Lie algebra over Q is given by structure constants.
Both functors produce a FreeCDGA together with contraction operators iota_a
(degree -1) and coadjoint operators theta_a (degree 0), packaged with the
differential as a CartanOps bundle whose five defining operator identities
can be verified exactly (on generators, which suffices for derivations, and
again degreewise as matrices).

Conventions, with [X_i, X_j] = sum_k c^k_ij X_k:

* Chevalley-Eilenberg: generators e^k of degree 1,
  d e^k = -(1/2) sum_ij c^k_ij e^i e^j.
* Weil: connection generators a^k (degree 1) and curvatures F^k (degree 2),
  d a^k = F^k - (1/2) sum_ij c^k_ij a^i a^j,
  d F^k = - sum_ij c^k_ij a^i F^j,
  iota_a(a^k) = delta, iota_a(F^k) = 0, theta_a = coadjoint on both rows.

Both models are built by the same two routines: _structure_sum writes every
structure-constant sum (quadratic d, d F^k, each theta row) and _cartan_ops
puts iota_a and theta_a on each row of n generators.  verify takes each
bracket [s, o](g) from Derivation.bracket_image, on integer images, and
compares it with sum_k c_k ops_k(g) by cross-multiplying the denominators.
verify_matrices and integrate_homotopy take every degreewise bracket
([d, iota_a] = theta_a, [theta_a, d] = 0, theta_X = [d, iota_X] and
{d, h} = 1 - exp theta_X) from graded.graded_commutator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .graded import GradedError, GradedSpace, combine, graded_commutator, lie_violation
from .linalg import Mat, exact
from .complexes import Complex, ChainMap, InternalCheckError
from .poly import Generators, Polynomial, basis_keys
from .algebra import FreeCDGA, Derivation, CDGAMorphism, int_sum, key_matrix


class LieData:
    """Lie algebra over Q by structure constants, validated on construction."""

    def __init__(self, names, brackets):
        self.names = [str(n) for n in names]
        if len(set(self.names)) != len(self.names):
            raise GradedError("duplicate Lie basis names")
        self.n = len(self.names)
        self._c = {}  # [x_i, x_j] for every listed pair (i, j) and its reverse
        for (i, j), combo in brackets.items():
            i, j = int(i), int(j)
            clean = {k: v for k, v in ((int(k), exact(v)) for k, v in combo.items()) if v}
            if not {i, j, *clean} <= set(range(self.n)):
                raise GradedError(
                    "bracket [%d,%d] names an index outside 0..%d" % (i, j, self.n - 1)
                )
            self._c[(i, j)] = clean
        for (i, j), combo in list(self._c.items()):
            self._c.setdefault((j, i), {k: -v for k, v in combo.items()})
        bad = lie_violation([0] * self.n, self.bracket, 0)
        if bad:
            raise GradedError(
                "brackets [%d,%d] and [%d,%d] are not antisymmetric" % (bad + bad[::-1])
                if len(bad) == 2 else "Jacobi identity fails on basis triple (%d,%d,%d)" % bad
            )

    def c(self, i, j, k) -> Fraction:
        return self._c.get((i, j), {}).get(k, Fraction(0))

    def bracket(self, i, j):
        return dict(self._c.get((i, j), {}))

    @cached_property
    def generating_set(self):
        """Basis indices whose elements generate g as a Lie algebra, increasing.

        The basis is walked in order, and index i is kept when x_i lies outside
        the span of the right-normed brackets [x_g1, [x_g2, ..., x_gr]] of the
        indices g kept so far.  That span is the subalgebra they generate; it
        is grown by applying ad x_g, for every kept g, to every spanning vector
        until nothing new appears, a vector being new when it adds a pivot
        (Mat.pivots).  The walk stops once the span is all of g; the empty
        basis gives ().
        """
        n = self.n
        kept, span, applied = [], [], []  # applied[t]: kept indices applied to span[t]

        def grow(v):
            """Append the vector v ({index: Fraction}) to span if it lies outside it."""
            if len(Mat.from_dicts(len(span) + 1, n, span + [v]).pivots()) > len(span):
                span.append(v)
                applied.append(0)
                return True
            return False

        for i in range(n):
            if len(span) == n:
                break
            if not grow({i: 1}):
                continue
            kept.append(i)
            t = 0
            while t < len(span) < n:
                while applied[t] < len(kept) and len(span) < n:
                    g = kept[applied[t]]
                    applied[t] += 1
                    grow(combine((x, self._c.get((g, j), {})) for j, x in span[t].items()))
                t += 1
        return tuple(kept)

    # -- builtins -----------------------------------------------------------

    @classmethod
    def abelian(cls, n: int) -> "LieData":
        return cls(["x%d" % (i + 1) for i in range(n)], {})

    @classmethod
    def solvable2(cls) -> "LieData":
        """The nonabelian 2-dimensional algebra: [x1, x2] = x2."""
        return cls(["x1", "x2"], {(0, 1): {1: 1}})

    @classmethod
    def sl(cls, n: int) -> "LieData":
        """sl(n) on the matrix units E_ij (i != j), then H_i = E_ii - E_(i+1)(i+1)."""
        units = [(i, j) for i in range(n) for j in range(n) if i != j]
        mats = [{u: 1} for u in units] + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]

        def coords(m):
            """A traceless matrix {(row, column): int} in that basis: the
            coefficient of H_i is the sum of the first i diagonal entries."""
            out = {b: m[u] for b, u in enumerate(units) if m.get(u)}
            h = 0
            for i in range(n - 1):
                h += m.get((i, i), 0)
                if h:
                    out[len(units) + i] = h
            return out

        def commutator(x, y):
            out = {}
            for (r, s), u in x.items():
                for (t, v), w in y.items():
                    if s == t:
                        out[(r, v)] = out.get((r, v), 0) + u * w
                    if v == r:
                        out[(t, s)] = out.get((t, s), 0) - u * w
            return out

        brackets = {(i, j): coords(commutator(mats[i], mats[j]))
                    for i in range(len(mats)) for j in range(i + 1, len(mats))}
        names = ["E%d_%d" % (i + 1, j + 1) for i, j in units] + ["H%d" % i for i in range(1, n)]
        return cls(names, {ij: c for ij, c in brackets.items() if c})

    @classmethod
    def cross3(cls) -> "LieData":
        """The simple 3-dimensional algebra with cyclic brackets
        [x1,x2]=x3, [x2,x3]=x1, [x3,x1]=x2."""
        return cls(
            ["x1", "x2", "x3"],
            {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
        )


@dataclass
class CartanOps:
    """A CDGA with contraction and coadjoint operators for each Lie direction."""

    algebra: FreeCDGA
    lie: LieData
    iota: list
    theta: list
    kind: str = "custom"

    @property
    def d(self) -> Derivation:
        return self.algebra.differential

    def verify(self):
        """Check the five operator identities exactly; returns failures.

        All operators involved are derivations, so agreement on generators
        is agreement everywhere; each identity is evaluated on every
        generator and reported by name.
        """
        failures = []
        n = self.lie.n

        def same(s, o, ops, coefs, label):
            """Record label unless [s, o] = sum_k coefs[k] ops_k on every generator,
            comparing the integer images v / D and w / E as v E = w D."""
            for i, g in enumerate(self.algebra.gens.names):
                v, D = s.bracket_image(o, i)
                w, E = int_sum((c, *ops[k].int_image(i)) for k, c in coefs.items())
                if {k: x * E for k, x in v.items()} != {k: x * D for k, x in w.items()}:
                    failures.append("%s fails on generator %s" % (label, g))
                    return

        for a in range(n):
            same(self.d, self.iota[a], self.theta, {a: 1}, "[d, iota_%d] = theta_%d" % (a, a))
        for a in range(n):
            for b in range(a, n):
                same(self.iota[a], self.iota[b], self.iota, {}, "[iota_%d, iota_%d] = 0" % (a, b))
        for name, ops in (("iota", self.iota), ("theta", self.theta)):
            for a in range(n):
                for b in range(n):
                    same(self.theta[a], ops[b], ops, self.lie.bracket(a, b),
                         "[theta_%d, %s_%d] = %s_[.,.]" % (a, name, b, name))
        for a in range(n):
            same(self.theta[a], self.d, self.theta, {}, "[theta_%d, d] = 0" % a)
        return failures

    def verify_matrices(self, window):
        """Degreewise matrix form of the same identities on [lo, hi]."""
        lo, hi = window
        d = self.algebra.d_matrix
        failures = []
        for k in range(lo, hi + 1):
            for a in range(self.lie.n):
                theta = self.theta[a].matrix
                if graded_commutator(d, 1, self.iota[a].matrix, -1, k) != theta(k):
                    failures.append("matrix [d, iota_%d] != theta at degree %d" % (a, k))
                if not graded_commutator(theta, 0, d, 1, k).is_zero():
                    failures.append("matrix [theta_%d, d] != 0 at degree %d" % (a, k))
        return failures


def _combination(gens, terms):
    """sum c p over the (c, p) in terms with c nonzero, a Polynomial over gens."""
    return sum((p.scale(c) for c, p in terms if c), Polynomial.zero(gens))


def _structure_sum(lie: LieData, k: int, terms, gens) -> Polynomial:
    """-sum c(i, j, k) p over the (i, j, p) in terms, a Polynomial over gens.

    Every structure-constant formula of the two models is one of these sums:
    the quadratic part of d, d F^k, and theta_a on a generator row.
    """
    return _combination(gens, ((-lie.c(i, j, k), p) for i, j, p in terms))


def _quadratic_terms(gens, n, shift=0, upper=True):
    """(i, j, x_i x_{shift+j}) for i < j (upper) or all i, j < n."""
    return [(i, j, Polynomial.monomial(gens, ((i, 1), (shift + j, 1))))
            for i in range(n) for j in range(i + 1 if upper else 0, n)]


def _cartan_ops(lie: LieData, algebra: FreeCDGA, rows, kind: str) -> CartanOps:
    """iota_a and theta_a on an algebra whose generators come in rows of n.

    rows lists the offset of each row; iota_a sends generator a of the
    first row to 1 and every other generator to 0, and theta_a acts on each
    row by the coadjoint action theta_a x^k = -sum_b c(a, b, k) x^b.
    """
    gens, n = algebra.gens, lie.n
    row_gens = {r: [Polynomial.generator(gens, gens.names[r + b]) for b in range(n)]
                for r in rows}
    iota = [Derivation(algebra, -1, {gens.names[a]: Polynomial.one(gens)})
            for a in range(n)]
    theta = [
        Derivation(algebra, 0, {
            gens.names[r + k]: _structure_sum(
                lie, k, [(a, b, row_gens[r][b]) for b in range(n)], gens)
            for k in range(n) for r in rows
        })
        for a in range(n)
    ]
    return CartanOps(algebra=algebra, lie=lie, iota=iota, theta=theta, kind=kind)


def chevalley_eilenberg(lie: LieData, truncation: int = 8) -> CartanOps:
    """Cochains on the Lie algebra: degree-1 generators, quadratic d."""
    gens = Generators([(name, 1) for name in lie.names])
    quadratic = _quadratic_terms(gens, lie.n)
    d_images = {name: _structure_sum(lie, k, quadratic, gens)
                for k, name in enumerate(lie.names)}
    return _cartan_ops(lie, FreeCDGA(gens, d_images, truncation=truncation), (0,), "ce")


def weil_algebra(lie: LieData, truncation: int = 8) -> CartanOps:
    """Connection-curvature model: acyclic carrier of the Cartan operators."""
    n = lie.n
    gens = Generators([("a%d" % (k + 1), 1) for k in range(n)]
                      + [("F%d" % (k + 1), 2) for k in range(n)])
    quadratic = _quadratic_terms(gens, n)
    a_times_f = _quadratic_terms(gens, n, shift=n, upper=False)
    d_images = {}
    for k in range(n):
        d_images[gens.names[k]] = (Polynomial.generator(gens, gens.names[n + k])
                                   + _structure_sum(lie, k, quadratic, gens))
        d_images[gens.names[n + k]] = _structure_sum(lie, k, a_times_f, gens)
    return _cartan_ops(lie, FreeCDGA(gens, d_images, truncation=truncation), (0, n), "weil")


def weil_contraction_witness(ops: CartanOps):
    """Odd derivation K with K(a) = 0, K(F^k) = a^k, and the linear part of d.

    Against the linear part of the Weil differential (a -> F, F -> 0) the
    anticommutator of K is the generator-length operator in (a, F); against
    the full d it is the word length in (a, da) (weil_contraction_failures).
    """
    if ops.kind != "weil":
        raise GradedError("contraction witness is specific to the Weil model")
    n = ops.lie.n
    alg = ops.algebra
    images_k = {}
    images_lin = {}
    for i in range(n):
        a_name = alg.gens.names[i]
        f_name = alg.gens.names[n + i]
        images_k[f_name] = alg.gen(a_name)
        images_lin[a_name] = alg.gen(f_name)
    K = Derivation(alg, -1, images_k)
    d_lin = Derivation(alg, 1, images_lin)
    return K, d_lin


def weil_contraction_failures(ops: CartanOps):
    """Certify that the Weil complex is Q in degree 0 and acyclic above; returns failures.

    With K from weil_contraction_witness and C = [d, K] = dK + Kd for the
    full d, three checks on each connection generator a^k:
    * d a^k = F^k plus terms in the a alone, so (a, da) are free generators;
    * C(a^k) = a^k and C(d a^k) = d a^k, so the derivation C is the word
      length in (a, da), and [d, C] = [[d, d], K] / 2 = 0.
    A cocycle x of degree > 0 is then d(K C^-1 x), every word in it having
    positive length, so the only cohomology is the constants.
    """
    K, _ = weil_contraction_witness(ops)
    alg, d, n = ops.algebra, ops.d, ops.lie.n
    C = d.commutator(K)
    failures = []
    for k, a in enumerate(alg.gens.names[:n]):
        da, curvature = d.image_of(a), ((n + k, 1),)
        if da.terms.get(curvature) != 1 or any(i >= n for key in da.terms if key != curvature
                                                for i, _ in key):
            failures.append("d %s is not %s plus terms in the connection alone"
                            % (a, alg.gens.names[n + k]))
        elif C.image_of(a) != alg.gen(a):
            failures.append("[d, K] does not fix %s" % a)
        elif C.apply(da) != da:
            failures.append("[d, K] does not fix d %s" % a)
    return failures


def length_operator(algebra: FreeCDGA) -> "Derivation":
    """Degree-0 derivation acting as (number of generator factors)."""
    return Derivation(
        algebra,
        0,
        {name: algebra.gen(name) for name in algebra.gens.names},
    )


# -- basic subcomplex -----------------------------------------------------------------


@dataclass
class BasicComplexData:
    """The basic complex; the Weil complex on [0, top] (ambient) and the
    inclusion into it are built when first read.  invariants holds, per
    degree, the curvature keys and a Mat of the invariant rows over them."""

    complex: Complex
    algebra: FreeCDGA
    top: int
    invariants: dict

    @cached_property
    def ambient(self) -> Complex:
        return self.algebra.to_complex(window=(0, self.top))

    @cached_property
    def inclusion(self) -> ChainMap:
        mats = {}
        for k, (fkeys, basis) in self.invariants.items():
            findex = {key: i for i, key in enumerate(fkeys)}
            columns = basis.transpose()
            mats[k] = columns.select_rows([findex.get(key) for key in self.algebra.basis(k)])
        return ChainMap(self.complex, self.ambient, mats, validate=False)


def basic_subcomplex(ops: CartanOps, window) -> BasicComplexData:
    """The basic subcomplex of the Weil model: S(F)^g, with d = 0 (Cartan).

    iota_a sends a^b to delta_ab and kills every curvature F, so the joint
    kernel of the iota_a is the polynomial algebra S(F); the basic part is
    the joint kernel of the theta_a on S(F), taken degreewise on [lo, hi+1]
    on the keys of the n curvatures alone, each degree's keys built from
    those below (one dict of lower degrees for the whole window).  theta is a representation of g,
    [theta_a, theta_b] = theta_[a,b], so the theta_a of a Lie generating set
    (LieData.generating_set) already have that joint kernel, and only theirs
    are stacked.  On S(F), d = sum_i a^i theta_i, so d vanishes exactly on
    the invariants of every theta_i; that is certified on [lo, hi] by
    applying d to each invariant key by key, whether or not theta_i was
    stacked.
    """
    if ops.kind != "weil":
        raise GradedError("the basic subcomplex is computed in the Weil model")
    lo, hi = window
    alg = ops.algebra
    n, names = ops.lie.n, alg.gens.names
    for a in range(n):
        for b, name in enumerate(names):
            got, want = ops.iota[a].image_of(name), alg.one() if a == b else alg.zero()
            if got != want:
                raise InternalCheckError("iota_%d sends %s to %s, not %s" % (a, name, got, want))
            if b >= n and any(i < n for key in ops.theta[a].image_of(name).terms
                              for i, _ in key):
                raise InternalCheckError("theta_%d sends %s out of S(F)" % (a, name))
    curvatures = Generators(zip(names[n:], alg.gens.degrees[n:]))
    generators = ops.lie.generating_set
    labels, invariants, lower = {}, {}, {}
    for k in range(lo, hi + 2):
        fkeys = [tuple((i + n, e) for i, e in key) for key in basis_keys(curvatures, k, lower)]
        findex = {key: i for i, key in enumerate(fkeys)}
        blocks = [key_matrix(fkeys, findex, ops.theta[a].apply_key) for a in generators]
        basis = Mat.zero(0, len(fkeys)).vstack(*blocks).kernel()
        if not basis.m:
            continue
        images = (int_sum((x, *ops.d.apply_key(fkeys[j])) for _, j, x in row)[0]
                  for _, row in groupby(basis.items(), itemgetter(0)))
        if k <= hi and any(images):
            raise InternalCheckError("basic subspace is not closed under d at degree %d" % k)
        labels[k] = tuple("b%d_%d" % (k, i) for i in range(basis.m))
        invariants[k] = (fkeys, basis)
    basic = Complex(GradedSpace(labels), {}, validate=False)
    return BasicComplexData(complex=basic, algebra=alg, top=hi + 1, invariants=invariants)


# -- classifying maps ----------------------------------------------------------------


@dataclass
class ClassifyingMapReport:
    morphism: CDGAMorphism
    curvatures: list
    flat: bool
    theta_equivariant: bool
    failures: list


def classifying_map(weil_ops: CartanOps, target_ops: CartanOps,
                    connection) -> ClassifyingMapReport:
    """Algebra map out of the Weil model induced by a connection.

    `connection` lists, per Lie direction k, a degree-1 element A_k of the
    target with iota_i(A_k) = delta_ik; the map sends a^k to A_k and F^k to
    the curvature d A_k + (1/2) sum c^k_ij A_i A_j.  A connection failing
    the contraction condition is rejected with the failing pair; theta-
    equivariance of the result is verified and reported.
    """
    if weil_ops.kind != "weil":
        raise GradedError("classifying maps start from the Weil model")
    lie = weil_ops.lie
    n = lie.n
    tgt = target_ops.algebra
    if len(connection) != n:
        raise GradedError(
            "connection must list %d degree-1 elements" % n
        )
    for k, A in enumerate(connection):
        if not A.is_zero() and A.is_homogeneous() != 1:
            raise GradedError("connection entry %d is not of degree 1" % k)
    one = Polynomial.one(tgt.gens)
    for i in range(n):
        for k in range(n):
            got = target_ops.iota[i].apply(connection[k])
            want = one if i == k else Polynomial.zero(tgt.gens)
            if got != want:
                raise GradedError(
                    "not a connection: iota_%d applied to entry %d gives %s"
                    % (i, k, got)
                )
    products = [(i, j, connection[i] * connection[j])
                for i in range(n) for j in range(i + 1, n)]
    curvatures = [tgt.d(connection[k]) - _structure_sum(lie, k, products, tgt.gens)
                  for k in range(n)]
    images = {}
    for k in range(n):
        images[weil_ops.algebra.gens.names[k]] = connection[k]
        images[weil_ops.algebra.gens.names[n + k]] = curvatures[k]
    morphism = CDGAMorphism(weil_ops.algebra, tgt, images)
    failures = []
    for i in range(n):
        for k in range(n):
            lhs = target_ops.iota[i].apply(curvatures[k])
            if not lhs.is_zero():
                failures.append(
                    "iota_%d of curvature %d is nonzero" % (i, k)
                )
            got = target_ops.theta[i].apply(connection[k])
            want = _structure_sum(lie, k, [(i, b, connection[b]) for b in range(n)], tgt.gens)
            if got != want:
                failures.append(
                    "theta_%d equivariance fails on connection entry %d" % (i, k)
                )
    flat = all(F.is_zero() for F in curvatures)
    return ClassifyingMapReport(
        morphism=morphism,
        curvatures=curvatures,
        flat=flat,
        theta_equivariant=not failures,
        failures=failures,
    )


def weil_to_ce_projection(weil_ops: CartanOps, ce_ops: CartanOps) -> ClassifyingMapReport:
    """The flat Maurer-Cartan connection A_k = e^k on the Lie cochains."""
    connection = [ce_ops.algebra.gen(name) for name in ce_ops.lie.names]
    return classifying_map(weil_ops, ce_ops, connection)


# -- integration of a flow -------------------------------------------------------------


@dataclass
class IntegratedHomotopyReport:
    window: tuple
    homotopy: dict
    exp_theta: dict
    nilpotency_index: dict


def _nilpotent_series(T: Mat, dim: int):
    """(nilpotency index, exp T, phi(T)) of a nilpotent dim x dim matrix T,
    phi(T) = sum_{m>=1} T^(m-1) / m!, or None when T is not nilpotent."""
    power, exp_t, phi, fact = Mat.eye(dim), Mat.eye(dim), Mat.zero(dim, dim), 1
    for m in range(1, dim + 2):
        fact *= m
        phi = phi + power.scale(Fraction(1, fact))
        power = power * T
        if power.is_zero():
            return m, exp_t, phi
        exp_t = exp_t + power.scale(Fraction(1, fact))
    return None


def integrate_homotopy(ops: CartanOps, coefficients, window) -> IntegratedHomotopyReport:
    """Exact integration of the flow of theta_X = [d, iota_X] for X = sum c_a X_a.

    Requires theta_X nilpotent degreewise (else the exponential leaves Q and
    the input is rejected).  Returns h with d h + h d = id - exp(theta_X),
    built as h = -phi(iota_X d) iota_X = -sum_{m>=1} (iota_X d)^{m-1} iota_X / m!,
    and verifies both that identity and the factorization
    exp(d iota_X) exp(iota_X d) = exp(d iota_X) + exp(iota_X d) - id
    entrywise on the window.  coefficients is a list of n rationals or a
    dict from directions 0..n-1 to rationals; any other direction is refused.
    """
    lo, hi = window
    alg = ops.algebra
    n = ops.lie.n
    if isinstance(coefficients, dict):
        for a in coefficients:
            if a not in range(n):
                raise GradedError("flow direction %r is not in 0..%d" % (a, n - 1))
        coefficients = [coefficients.get(a, 0) for a in range(n)]
    coefficients = [exact(c) for c in coefficients]
    if len(coefficients) != n:
        raise GradedError("flow needs %d coefficients" % n)
    iota_x = Derivation(alg, -1, {
        g: _combination(alg.gens, zip(coefficients, (op.image_of(g) for op in ops.iota)))
        for g in alg.gens.names
    })

    d, iota = alg.d_matrix, iota_x.matrix
    homotopy, exp_theta, nilp = {}, {}, {}
    for k in range(lo, hi + 2):
        series = _nilpotent_series(graded_commutator(d, 1, iota, -1, k), alg.dim(k))
        if series is None:
            raise GradedError("theta of the flow is not nilpotent at degree %d; "
                              "cannot integrate over Q" % k)
        nilp[k], exp_theta[k], _ = series
    for k in range(lo, hi + 2):
        # h_k is valued in degree k-1, where iota d acts
        series = _nilpotent_series(iota(k) * d(k - 1), alg.dim(k - 1))
        if series is None:
            raise GradedError("flow is not nilpotent below degree %d; cannot integrate" % k)
        homotopy[k] = -(series[2] * iota(k))
    for k in range(lo, hi + 1):
        dim = alg.dim(k)
        if graded_commutator(d, 1, homotopy.get, -1, k) != Mat.eye(dim) - exp_theta[k]:
            raise InternalCheckError("integrated homotopy identity fails at degree %d" % k)
        A, B = d(k - 1) * iota(k), iota(k + 1) * d(k)
        if not (A * B).is_zero() or not (B * A).is_zero():
            raise InternalCheckError("flow components fail to annihilate each other at degree %d" % k)
        eA, eB = (_nilpotent_series(T, dim)[1] for T in (A, B))
        if eA * eB != eA + eB - Mat.eye(dim):
            raise InternalCheckError("exponential factorization fails at degree %d" % k)
    return IntegratedHomotopyReport(
        window=(lo, hi),
        homotopy={k: homotopy[k] for k in range(lo, hi + 1)},
        exp_theta={k: exp_theta[k] for k in range(lo, hi + 1)},
        nilpotency_index={k: nilp[k] for k in range(lo, hi + 1)},
    )
