"""Seeded input documents whose answers are forced by construction.

Standard library only, and independent of ``cdga``: no expected value here
is computed by the library under test.  Each function returns the document
(a JSON-ready dict) together with the facts the construction forces, in the
style of ``docs/oracles.md``:

* Lie algebras are fixed algebras after a signed permutation of the basis,
  an isomorphism, so every cohomological answer is that of the fixed algebra.
* Complexes are direct sums of elementary pieces (a lone summand adds 1 to
  its Betti number, a two-term identity piece adds 0) conjugated degreewise
  by unimodular integer matrices, which changes entries but no Betti number.
* Gram matrices are ``U^T D U`` with ``U`` unimodular and ``D`` a positive
  diagonal, so they are symmetric positive definite.
* Chain maps are the inclusion of a complex into itself plus acyclic pieces,
  conjugated on both sides, so they are weak equivalences.

Input sizes are fixed per function; the seed changes entries, signs and
names, never the amount of structure.
"""

from __future__ import annotations

import random
from fractions import Fraction

CROSS3 = (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
SOLVABLE2 = (2, {(0, 1): {1: 1}})


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def nonzero_rational(rng) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


# -- small exact matrix helpers (lists of lists of Fraction) ------------------


def matmul(a, b):
    if not a or not b:
        return [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(a):
    """Gauss-Jordan inverse of a square invertible matrix."""
    n = len(a)
    r = [list(row) + e for row, e in zip(a, eye(n))]
    for col in range(n):
        piv = next(i for i in range(col, n) if r[i][col])
        r[col], r[piv] = r[piv], r[col]
        pv = r[col][col]
        r[col] = [x / pv for x in r[col]]
        for i in range(n):
            if i != col and r[i][col]:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[col])]
    return [row[n:] for row in r]


def rank(rows):
    """Rank by plain Gaussian elimination (used by the answer checks)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rk][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def unimodular(rng, n, spread=2):
    """Unit upper times unit lower triangular integer matrix: determinant 1."""
    up = eye(n)
    lo = eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            up[i][j] = Fraction(rng.randint(-spread, spread))
            lo[j][i] = Fraction(rng.randint(-spread, spread))
    return matmul(up, lo)


def posdef_gram(rng, n):
    """Symmetric positive definite U^T D U: U unimodular, D a fixed positive diagonal.

    The seed only draws U, so the determinant (that of D) and the size of the
    entries do not change with it.
    """
    u = unimodular(rng, n, spread=1)
    d = [Fraction(2 + i % 3, 1 + i % 2) for i in range(n)]
    du = [[d[i] * x for x in row] for i, row in enumerate(u)]
    return matmul(transpose(u), du)


def to_json_matrix(a):
    return [[fmt(x) for x in row] for row in a]


# -- Lie algebras -------------------------------------------------------------------


def signed_permuted_lie(rng, base, comment):
    """A Lie document isomorphic to `base` by a seeded signed permutation.

    New basis y_i = s_i x_pi(i); then [y_i, y_j] has coefficient
    s_i s_j s_k c(pi(i), pi(j), pi(k)) on y_k.
    """
    n, consts = base
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([-1, 1]) for _ in range(n)]

    def c(i, j, k):
        if (i, j) in consts:
            return consts[(i, j)].get(k, 0)
        if (j, i) in consts:
            return -consts[(j, i)].get(k, 0)
        return 0

    names = ["x%d" % (i + 1) for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            combo = {}
            for k in range(n):
                v = signs[i] * signs[j] * signs[k] * c(perm[i], perm[j], perm[k])
                if v:
                    combo[names[k]] = v
            if combo:
                brackets["%s,%s" % (names[i], names[j])] = combo
    return {"schema": "cdga.lie/1", "kind": "lie", "comment": comment,
            "basis": names, "brackets": brackets}


# -- CDGAs --------------------------------------------------------------------------


def nonminimal_s2xs2(rng, truncation=12):
    """S^2 x S^2 plus a contractible pair, with a seeded rational c != 0.

    a, b in degree 2; p, q in degree 3 with dp = a^2, dq = b^2; u in degree 3
    and v in degree 4 with du = v + c ab and dv = 0.  The substitution
    v' = v + c ab makes (u, v') a contractible pair, so the minimal model is
    that of S^2 x S^2: two generators in degree 2, two in degree 3.
    """
    c = nonzero_rational(rng)
    doc = {
        "schema": "cdga.cdga/1",
        "kind": "cdga",
        "comment": "S2 x S2 plus the contractible pair (u, v + c ab), c = %s" % fmt(c),
        "generators": [["a", 2], ["b", 2], ["p", 3], ["q", 3], ["u", 3], ["v", 4]],
        "differential": {"p": "a^2", "q": "b^2",
                         "u": "v %s %s a b" % ("+" if c > 0 else "-", fmt(abs(c)))},
        "truncation": truncation,
    }
    return doc, {"generator_degrees": {"2": 2, "3": 2}, "certified_through": truncation - 1}


def bad_square_cdga(rng):
    """d(dz) = c x^3 != 0: the document must be rejected with exit 1."""
    c = nonzero_rational(rng)
    return {
        "schema": "cdga.cdga/1",
        "kind": "cdga",
        "generators": [["x", 2], ["y", 3], ["z", 4]],
        "differential": {"y": "x^2", "z": "%s x y" % fmt(abs(c))},
        "truncation": 8,
    }


def schema_invalid_cdga(rng):
    """A generator degree written as a string: a schema violation, exit 2."""
    return {
        "schema": "cdga.cdga/1",
        "kind": "cdga",
        "generators": [["x", str(2 * rng.randint(1, 3))]],
        "differential": {},
    }


# -- complexes ----------------------------------------------------------------------


def structured_complex(free, pairs):
    """Dims and standard differentials of a direct sum of elementary pieces.

    At degree k the basis is [free | pair heads (to k+1) | pair tails (from k-1)].
    """
    degrees = sorted(free)
    dims = {k: free[k] + pairs.get(k, 0) + pairs.get(k - 1, 0) for k in degrees}
    diffs = {}
    for k in degrees:
        if pairs.get(k, 0) == 0:
            continue
        d = [[Fraction(0)] * dims[k] for _ in range(dims[k + 1])]
        tails = free[k + 1] + pairs.get(k + 1, 0)
        for i in range(pairs[k]):
            d[tails + i][free[k] + i] = Fraction(1)
        diffs[k] = d
    return dims, diffs


def conjugate(diffs, change):
    """d_k -> P_{k+1} d_k P_k^{-1} for per-degree unimodular P."""
    inv = {k: inverse(p) for k, p in change.items()}
    return {k: matmul(matmul(change[k + 1], d), inv[k]) for k, d in diffs.items()}


def _body(dims, diffs, prefix):
    body = {"degrees": {str(k): ["%s%d_%d" % (prefix, k, i) for i in range(n)]
                        for k, n in sorted(dims.items())}}
    if diffs:
        body["differential"] = {str(k): to_json_matrix(d) for k, d in sorted(diffs.items())}
    return body


def twisted_complex(rng, free, pairs):
    """Returns (complex body, expected Betti numbers) for the given structure."""
    dims, diffs = structured_complex(free, pairs)
    change = {k: unimodular(rng, n) for k, n in dims.items()}
    return _body(dims, conjugate(diffs, change), "c"), dict(free)


def complex_doc(body, comment):
    return {"schema": "cdga.complex/1", "kind": "complex", "comment": comment,
            "complex": body}


def gram_doc(rng, dims):
    return {"schema": "cdga.gram/1", "kind": "gram",
            "grams": {str(k): to_json_matrix(posdef_gram(rng, n)) for k, n in sorted(dims.items())}}


def quasi_iso_map(rng, free, pairs, extra):
    """A weak equivalence f: A -> B = A + (acyclic pieces), twisted on both sides.

    Returns (map document, facts) where the facts are the Betti numbers of
    A (= those of B) and the total dimensions of A and B.
    """
    dims_a, d_a = structured_complex(free, pairs)
    zero = {k: 0 for k in free}
    dims_e, d_e = structured_complex(zero, extra)
    dims_b = {k: dims_a[k] + dims_e[k] for k in free}
    d_b = {}
    for k in free:
        if k in d_a or k in d_e:
            blk = [[Fraction(0)] * dims_b[k] for _ in range(dims_b[k + 1])]
            for i, row in enumerate(d_a.get(k, [])):
                blk[i][:dims_a[k]] = row
            for i, row in enumerate(d_e.get(k, [])):
                blk[dims_a[k + 1] + i][dims_a[k]:] = row
            d_b[k] = blk
    p = {k: unimodular(rng, n) for k, n in dims_a.items() if n}
    q = {k: unimodular(rng, n) for k, n in dims_b.items() if n}
    comps = {}
    for k in free:
        if dims_a[k] and dims_b[k]:
            incl = [[Fraction(int(i == j)) for j in range(dims_a[k])] for i in range(dims_b[k])]
            comps[str(k)] = to_json_matrix(matmul(matmul(q[k], incl), inverse(p[k])))
    doc = {
        "schema": "cdga.complex/1",
        "kind": "complex",
        "comment": "weak equivalence by construction",
        "map": {
            "source": _body({k: n for k, n in dims_a.items() if n}, conjugate(d_a, p), "s"),
            "target": _body({k: n for k, n in dims_b.items() if n}, conjugate(d_b, q), "t"),
            "components": comps,
        },
    }
    facts = {"betti": {k: v for k, v in free.items() if dims_a[k]},
             "dim_source": sum(dims_a.values()), "dim_target": sum(dims_b.values())}
    return doc, facts


# -- graded space for the number-operator audit ----------------------------------


def glie_doc(rng):
    """Four elements p (1), q (2), r (2), s (3) with a zero-square boundary.

    b(p) = alpha q + sigma alpha r, b(q) = gamma s, b(r) = -sigma gamma s with
    sigma = +-1, so b(b(p)) = (alpha gamma - alpha gamma) s = 0.
    The Gram in degree 2 is [[a, e], [e, c]] with a c > e^2, a > 0; degrees 1
    and 3 get a positive scalar.  The magnitudes are fixed and the seed draws
    signs only, so the size of the numbers in the exact arithmetic, and with
    it the amount of work, does not change with the seed.
    """
    def signed(value):
        return rng.choice([-1, 1]) * value

    alpha, gamma = signed(Fraction(2, 3)), signed(Fraction(3, 4))
    sigma = rng.choice([-1, 1])
    a, c, g1, g3 = Fraction(5, 2), Fraction(7, 2), Fraction(3, 2), Fraction(9, 2)
    e = signed(Fraction(1, 3))
    return {
        "schema": "cdga.glie/1",
        "kind": "glie",
        "basis": [["p", 1], ["q", 2], ["r", 2], ["s", 3]],
        "boundary": {"p": {"q": fmt(alpha), "r": fmt(sigma * alpha)},
                     "q": {"s": fmt(gamma)}, "r": {"s": fmt(-sigma * gamma)}},
        "cobracket": {},
        "gram": {"1": to_json_matrix([[g1]]),
                 "2": to_json_matrix([[a, e], [e, c]]),
                 "3": to_json_matrix([[g3]])},
    }


def free_lie_generators(rng):
    """Three generators of degrees 1, 1, 2 under seeded names and order."""
    gens = [("g%d" % rng.randint(0, 999), d) for d in (1, 1, 2)]
    gens = [("%s_%d" % (name, i), d) for i, (name, d) in enumerate(gens)]
    rng.shuffle(gens)
    return gens


def tensor_dims(degrees, n):
    """Number of words of each total degree <= n in letters of the given degrees."""
    dims = [1] + [0] * n
    for k in range(1, n + 1):
        dims[k] = sum(dims[k - d] for d in degrees if d <= k)
    return dims


def pbw_dims(lie_dims, n):
    """dim U(L)_k <= n from the dims of L: symmetric on even, exterior on odd."""
    series = [1] + [0] * n
    for d, count in lie_dims.items():
        for _ in range(count):
            if d % 2:
                for k in range(n, d - 1, -1):
                    series[k] += series[k - d]
            else:
                for k in range(d, n + 1):
                    series[k] += series[k - d]
    return series


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))
