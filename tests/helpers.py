"""Shared test utilities: seeded random objects with independently known answers.

Random complexes are assembled from elementary summands whose homology is
known by construction, then conjugated by random unimodular changes of
basis; the expected Betti numbers ride along.  The rank oracle here is a
separate row-reduction written against plain lists so that the library's
linear algebra is never used to check itself.
"""

from fractions import Fraction
import itertools
from math import comb
import random

from cdga import (
    ChainMap, Complex, Derivation, GradedSpace, HomologySpace, Mat, Polynomial,
    WeakEquivalenceReport, betti_numbers, induced_on_homology, mapping_cone,
)


# -- independent rank oracle ---------------------------------------------------------


def oracle_rank(rows):
    """Rank of a matrix given as a list of lists, by plain Gaussian elimination.

    Deliberately independent of cdga.linalg: operates on copied lists with
    partial pivoting by first nonzero entry.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def oracle_leading_minors(rows):
    """The leading principal minors of a square matrix given as a list of lists.

    Each minor is a determinant by its own Fraction elimination (a row swap
    flips the sign), independent of cdga.linalg.
    """
    minors = []
    for s in range(1, len(rows) + 1):
        a = [[Fraction(x) for x in row[:s]] for row in rows[:s]]
        det = Fraction(1)
        for c in range(s):
            r = next((r for r in range(c, s) if a[r][c]), None)
            if r is None:
                det = Fraction(0)
                break
            if r != c:
                a[c], a[r] = a[r], a[c]
                det = -det
            det *= a[c][c]
            for i in range(c + 1, s):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        minors.append(det)
    return minors


def mat_rows(m):
    return [[m[(i, j)] for j in range(m.n)] for i in range(m.m)]


def oracle_betti(c):
    """Betti numbers recomputed from scratch: dim - rank(out) - rank(in)."""
    out = {}
    for k in c.support():
        din = oracle_rank(mat_rows(c.diff(k - 1)))
        dout = oracle_rank(mat_rows(c.diff(k)))
        out[k] = c.dim(k) - din - dout
    return out


# -- reference series and operator brackets -------------------------------------------


def oracle_basis(degrees, n):
    """{k: sorted monomial keys of degree k} for 0 <= k <= n on generators of these
    degrees, without cdga.poly: every exponent vector with total degree <= n (odd
    exponents 0 or 1) by itertools.product, one generator at a time, then each
    vector's nonzero exponents as (index, exponent) pairs."""
    vectors = [((), 0)]
    for d in degrees:
        vectors = [(v + (e,), k + d * e)
                   for (v, k), e in itertools.product(vectors, range(2 if d % 2 else n // d + 1))
                   if k + d * e <= n]
    out = {k: [] for k in range(n + 1)}
    for v, k in vectors:
        out[k].append(tuple((i, e) for i, e in enumerate(v) if e))
    return {k: sorted(keys) for k, keys in out.items()}


def gc_series_per_generator(counts, n):
    """Coefficients of t^0..t^n in prod (1 + t^d)^c (odd d) (1 - t^d)^-c (even d),
    one in-place pass per generator: the reference for the binomial route."""
    series = [1] + [0] * n if n >= 0 else []
    for d, c in counts.items():
        for _ in range(c):
            if d % 2:
                for k in range(n, d - 1, -1):
                    series[k] += series[k - d]
            else:
                for k in range(d, n + 1):
                    series[k] += series[k - d]
    return dict(enumerate(series))


def oracle_free_lie_dims(degrees, n):
    """{k: dim L_k} for 1 <= k <= n of the free graded Lie algebra on generators
    of these degrees, by PBW read backwards: U(L) has the words' series, and
    is S(L_even) (x) Lambda(L_odd).  Its own word count and binomial products,
    without cdga.free; a negative rank raises ValueError."""
    words = [1] + [0] * n
    for k in range(1, n + 1):
        words[k] = sum(words[k - d] for d in degrees if d <= k)
    series = [1] + [0] * n  # the series of U on the ranks found so far
    ranks = {}
    for k in range(1, n + 1):
        ranks[k] = c = words[k] - series[k]
        if c < 0:
            raise ValueError("rank %d in degree %d" % (c, k))
        if c:
            factor = [comb(c, j) if k % 2 else comb(c + j - 1, j) for j in range(n // k + 1)]
            series = [sum(factor[j] * series[i - k * j] for j in range(i // k + 1))
                      for i in range(n + 1)]
    return ranks


def reference_commutator(s, o):
    """[s, o] = s o - (-1)^(|s||o|) o s on every generator, by Polynomial arithmetic."""
    sgn = -1 if (s.degree % 2 and o.degree % 2) else 1
    images = {name: s.apply(o.image_of(name)) - o.apply(s.image_of(name)).scale(sgn)
              for name in s.algebra.gens.names}
    return Derivation(s.algebra, s.degree + o.degree, images)


def reference_verify(ops):
    """The failure list of CartanOps.verify, from reference_commutator and
    Polynomial sums: same identities, same order, same messages."""
    failures = []
    n, gens = ops.lie.n, ops.algebra.gens

    def same(op, group, coefs, label):
        for g in gens.names:
            want = sum((group[k].image_of(g).scale(c) for k, c in coefs.items()),
                       Polynomial.zero(gens))
            if op.image_of(g) != want:
                failures.append("%s fails on generator %s" % (label, g))
                return

    for a in range(n):
        same(reference_commutator(ops.d, ops.iota[a]), ops.theta, {a: 1},
             "[d, iota_%d] = theta_%d" % (a, a))
    for a in range(n):
        for b in range(a, n):
            same(reference_commutator(ops.iota[a], ops.iota[b]), ops.iota, {},
                 "[iota_%d, iota_%d] = 0" % (a, b))
    for name, group in (("iota", ops.iota), ("theta", ops.theta)):
        for a in range(n):
            for b in range(n):
                same(reference_commutator(ops.theta[a], group[b]), group, ops.lie.bracket(a, b),
                     "[theta_%d, %s_%d] = %s_[.,.]" % (a, name, b, name))
    for a in range(n):
        same(reference_commutator(ops.theta[a], ops.d), ops.theta, {}, "[theta_%d, d] = 0" % a)
    return failures


def oracle_graded_commutator(dims, a, p, b, q, k):
    """Block (k+p+q, k) of A B - (-1)^(pq) B A, dense Fraction rows.

    a and b are families {j: dense rows of the map from degree j} of degrees
    p and q; A and B are the square matrices on the direct sum of every
    degree in dims ({degree: dimension}) with those maps as their blocks, so
    each degree shift is read off the block layout, not written out."""
    offset, size = {}, 0
    for j in sorted(dims):
        offset[j], size = size, size + dims[j]

    def total(family, r):
        out = [[Fraction(0)] * size for _ in range(size)]
        for j, rows in family.items():
            for i, row in enumerate(rows):
                for t, x in enumerate(row):
                    out[offset[j + r] + i][offset[j] + t] = Fraction(x)
        return out

    A, B = total(a, p), total(b, q)
    sign = -1 if p % 2 and q % 2 else 1
    C = [[x - sign * y for x, y in zip(r, s)]
         for r, s in zip(_dense_mul(A, B, size), _dense_mul(B, A, size))]
    top, col = offset[k + p + q], offset[k]
    return [row[col:col + dims[k]] for row in C[top:top + dims[k + p + q]]]


def _dense_mul(a, b, p):
    """a (rows of length len(b)) times b (len(b) rows of length p), as lists."""
    out = []
    for row in a:
        acc = [Fraction(0)] * p
        for t, x in enumerate(row):
            if x:
                acc = [u + x * v for u, v in zip(acc, b[t])]
        out.append(acc)
    return out


def oracle_integrated_flow(dim, d, iota, lo, hi):
    """(homotopy, exp_theta, nilpotency_index) of a flow on [lo, hi] from the series.

    d(k) and iota(k) are the dense rows of d_k and iota_k; theta_k =
    d_(k-1) iota_k + iota_(k+1) d_k, exp_theta_k = sum theta_k^m / m!, the
    index is the least m >= 1 with theta_k^m = 0, and h_k = -sum_{m>=1}
    (iota_k d_(k-1))^(m-1) iota_k / m!.  Plain Fraction lists, no cdga.linalg."""
    def plus(a, b, c=1):
        return [[x + c * y for x, y in zip(r, s)] for r, s in zip(a, b)]

    def eye(n):
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    homotopy, exp_theta, index = {}, {}, {}
    for k in range(lo, hi + 1):
        n, below = dim(k), dim(k - 1)
        theta = plus(_dense_mul(d(k - 1), iota(k), n), _dense_mul(iota(k + 1), d(k), n))
        power, total, m, fact = eye(n), eye(n), 0, 1
        while True:
            m += 1
            fact *= m
            power = _dense_mul(power, theta, n)
            if not any(any(row) for row in power):
                break
            if m >= n:
                raise ValueError("theta is not nilpotent at degree %d" % k)
            total = plus(total, [[x / fact for x in row] for row in power])
        exp_theta[k], index[k] = total, m
        iota_d = _dense_mul(iota(k), d(k - 1), below)
        left, h, m, fact = eye(below), [[Fraction(0)] * n for _ in range(below)], 0, 1
        while any(any(row) for row in left):
            if m > below:
                raise ValueError("iota d is not nilpotent at degree %d" % (k - 1))
            m += 1
            fact *= m
            h = plus(h, [[x / fact for x in row] for row in _dense_mul(left, iota(k), n)], -1)
            left = _dense_mul(left, iota_d, below)
        homotopy[k] = h
    return homotopy, exp_theta, index


# -- random complexes with known homology --------------------------------------------


def random_unimodular(rng, n):
    """Product of a random unit upper and unit lower triangular integer matrix."""
    u = [{i: 1} for i in range(n)]
    lo = [{i: 1} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u[i][j] = Fraction(rng.randint(-2, 2))
            lo[j][i] = Fraction(rng.randint(-2, 2))
    return Mat.from_dicts(n, n, u) * Mat.from_dicts(n, n, lo)


def random_complex(rng, max_span=6, max_dim=5, lo_range=(-2, 3)):
    """A random complex together with its Betti numbers known by construction.

    Built as a direct sum of elementary pieces - single summands (surviving
    homology) and two-term identity pieces spanning consecutive degrees
    (acyclic) - then conjugated degreewise by unimodular integer matrices.
    Returns (complex, expected_betti_dict).
    """
    lo = rng.randint(*lo_range)
    span = rng.randint(1, max_span)
    degrees = list(range(lo, lo + span))
    free = {k: rng.randint(0, 2) for k in degrees}
    pairs = {}
    for k in degrees:
        if k + 1 not in free:
            continue
        # room at k (free and incoming tails already fixed) and at k+1
        room = min(
            max_dim - free[k] - pairs.get(k - 1, 0),
            max_dim - free[k + 1],
        )
        pairs[k] = rng.randint(0, max(0, min(2, room)))
    dims = {
        k: free[k] + pairs.get(k, 0) + pairs.get(k - 1, 0) for k in degrees
    }
    labels = {
        k: ["v%d_%d" % (k, i) for i in range(dims[k])]
        for k in degrees
        if dims[k] > 0
    }
    space = GradedSpace(labels)
    # standard-basis differential: at degree k the basis is ordered as
    # [free gens | pair heads (going to k+1) | pair tails (arrived from k-1)]
    diffs = {}
    for k in degrees:
        if k + 1 not in dims or dims[k] == 0 or dims[k + 1] == 0:
            continue
        rows = [{} for _ in range(dims[k + 1])]
        heads_start = free[k]
        tails_start = free[k + 1] + pairs.get(k + 1, 0)
        for i in range(pairs.get(k, 0)):
            rows[tails_start + i][heads_start + i] = Fraction(1)
        d = Mat.from_dicts(dims[k + 1], dims[k], rows)
        if not d.is_zero():
            diffs[k] = d
    base = Complex(space, diffs)
    # conjugate by unimodular matrices degreewise
    P = {k: random_unimodular(rng, dims[k]) for k in degrees if dims.get(k, 0)}
    Pinv = {k: P[k].inv() for k in P}
    new_diffs = {}
    for k, d in diffs.items():
        new_diffs[k] = P[k + 1] * d * Pinv[k]
    twisted = Complex(space, new_diffs)
    expected = {k: free[k] for k in degrees if dims.get(k, 0)}
    return twisted, expected


def random_chain_map(rng, a, b):
    """A random chain map a -> b sampled from the full solution space.

    The chain condition is linear in the entries of the components, so the
    solution space is the nullspace of the stacked constraint matrix; a
    random rational combination of that basis is returned.
    """
    degrees = sorted(set(a.support()) | set(b.support()))
    if not degrees:
        return ChainMap(a, b, {})
    ks = list(range(min(degrees) - 1, max(degrees) + 2))
    offsets = {}
    total = 0
    for k in ks:
        offsets[k] = total
        total += b.dim(k) * a.dim(k)
    if total == 0:
        return ChainMap(a, b, {})

    def var(k, i, j):
        return offsets[k] + i * a.dim(k) + j

    constraints = []
    for k in ks[:-1]:
        # d_b f_k - f_{k+1} d_a = 0, an equation in degree k+1 x a.dim(k)
        db = b.diff(k)
        da = a.diff(k)
        for r in range(b.dim(k + 1)):
            for cdx in range(a.dim(k)):
                row = [Fraction(0)] * total
                for s in range(b.dim(k)):
                    if db[(r, s)]:
                        row[var(k, s, cdx)] += db[(r, s)]
                for s in range(a.dim(k + 1)):
                    if da[(s, cdx)]:
                        row[var(k + 1, r, s)] -= da[(s, cdx)]
                if any(row):
                    constraints.append(row)
    if constraints:
        basis = Mat.from_rows(constraints).nullspace()
    else:
        basis = [
            [Fraction(1 if i == j else 0) for i in range(total)]
            for j in range(total)
        ]
    sol = [Fraction(0)] * total
    for vec in basis:
        w = Fraction(rng.randint(-3, 3))
        if w:
            sol = [x + w * y for x, y in zip(sol, vec)]
    comps = {}
    for k in ks:
        if b.dim(k) == 0 or a.dim(k) == 0:
            continue
        rows = [{j: sol[var(k, i, j)] for j in range(a.dim(k)) if sol[var(k, i, j)]}
                for i in range(b.dim(k))]
        if any(rows):
            comps[k] = Mat.from_dicts(b.dim(k), a.dim(k), rows)
    return ChainMap(a, b, comps)


def with_identity_block_negated(cx, c):
    """cx, a cone of c or a cylinder of a map out of c, with the identity block
    of each d_m negated (rows 0 .. dim c_(m+1) - 1, from column dim c_m on):
    the construction with that one sign flipped, built unvalidated."""
    diffs = {}
    for m, d in cx.d.items():
        lo, n = c.dim(m), c.dim(m + 1)
        rows = [{} for _ in range(d.m)]
        for i, j, x in d.items():
            rows[i][j] = -x if i < n and lo <= j < lo + n else x
        diffs[m] = Mat.from_dicts(d.m, d.n, rows)
    return Complex(cx.space, diffs, validate=False)


def random_posdef_gram(rng, n):
    """M^T M plus a positive diagonal: symmetric positive definite."""
    m = Mat.from_dicts(n, n, [{j: Fraction(rng.randint(-2, 2)) for j in range(n)}
                              for _ in range(n)])
    diagonal = Mat.from_dicts(n, n, [{i: Fraction(rng.randint(1, 3))} for i in range(n)])
    return m.transpose() * m + diagonal


# -- weak equivalences and minimal-model certificates ---------------------------------


def oracle_weak_equivalence(f, window=None):
    """is_weak_equivalence's report with route one by cohomology classes: H^k(f)
    is an isomorphism when both HomologySpaces have one Betti number and the
    matrix of induced_on_homology has full rank.  The window rules, the cone
    route and the report are the library's; the oracle for the rank route."""
    sup = sorted(set(f.source.support()) | set(f.target.support()))
    if window is None:
        if not sup:
            return WeakEquivalenceReport(True, (0, 0), {}, {}, True)
        lo, hi = min(sup) - 1, max(sup) + 1
        cone_hi = hi
    else:
        lo, hi = window
        cone_hi = hi - 1
    iso = {}
    for k in range(lo, hi + 1):
        hs, ht = HomologySpace(f.source, k), HomologySpace(f.target, k)
        iso[k] = hs.betti == ht.betti and induced_on_homology(f, k, hs, ht).rank() == hs.betti
    cone_betti = betti_numbers(mapping_cone(f), (lo, cone_hi))
    h_ok, c_ok = all(iso.values()), not any(cone_betti.values())
    assert window is not None or h_ok == c_ok, "the two routes disagree on the full support"
    return WeakEquivalenceReport(h_ok and c_ok, (lo, hi), iso, cone_betti, h_ok == c_ok)


def recomputed_certificate(mm):
    """The two-route check of mm's comparison map on the window (0, n), route one
    by cohomology classes, from a chain map built afresh on [0, n + 2]: the
    oracle for `certify`."""
    n = mm.truncation
    f = ChainMap(mm.model.to_complex((0, n + 2)), mm.input_algebra.to_complex((0, n + 2)),
                 {k: mm.morphism.matrix(k) for k in range(n + 3)})
    return oracle_weak_equivalence(f, window=(0, n))
