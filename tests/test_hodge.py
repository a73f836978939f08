from fractions import Fraction as F
from itertools import permutations
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdga import (
    Complex,
    GradedChainData,
    GradedError,
    GradedSpace,
    HomologySpace,
    InnerProduct,
    Mat,
    adjoint,
    chevalley_eilenberg,
    doubled_algebra,
    harmonic_projection,
    harmonic_space,
    hodge_decomposition,
    laplacian,
    number_operator_check,
    LieData,
)
from cdga.graded import koszul_sign
from cdga.hodge import FockInnerProduct
from cdga.poly import Polynomial

from helpers import oracle_leading_minors, random_complex, random_posdef_gram, random_unimodular


def test_inner_product_validation():
    ip = InnerProduct.identity()
    assert ip.gram(3, 2) == Mat.eye(2)
    bad = InnerProduct({0: Mat.from_rows([[0]])})
    c = Complex(GradedSpace({0: ["a"]}), {})
    with pytest.raises(GradedError):
        bad.validate_for(c)
    asym = InnerProduct({0: Mat.from_rows([[1, 2], [0, 1]])})
    c2 = Complex(GradedSpace({0: ["a", "b"]}), {})
    with pytest.raises(GradedError):
        asym.validate_for(c2)


def test_adjoint_identity_gram_is_transpose():
    sp = GradedSpace({0: ["a"], 1: ["b"]})
    c = Complex(sp, {0: Mat.from_rows([[F(2)]])})
    adj = adjoint(c, InnerProduct.identity())
    assert adj.comp(1) == Mat.from_rows([[F(2)]])


def test_adjoint_squares_to_zero():
    rng = random.Random(19)
    for _ in range(10):
        c, _ = random_complex(rng)
        adj = adjoint(c, InnerProduct.identity())
        for k in c.support():
            m = adj.comp(k - 1) * adj.comp(k)
            assert m.is_zero()


def test_harmonic_dimension_is_betti():
    rng = random.Random(29)
    for _ in range(30):
        c, expected = random_complex(rng)
        ip = InnerProduct.identity()
        for k in c.support():
            hs = harmonic_space(c, ip, k)
            assert len(hs) == expected.get(k, HomologySpace(c, k).betti)


def test_identity_grams_are_not_inverted_and_only_the_laplacian_kernel_is_listed(monkeypatch):
    # an identity Gram is its own inverse, and ker d (intersect) ker d* is
    # counted by a rank, so the harmonic basis is the one nullspace built
    rng = random.Random(31)
    for _ in range(10):
        c, expected = random_complex(rng)
        betti = {k: expected.get(k, HomologySpace(c, k).betti) for k in c.support()}
        calls = []
        with monkeypatch.context() as m:
            inv, nullspace = Mat.inv, Mat.nullspace
            m.setattr(Mat, "inv", lambda self: calls.append("inv") or inv(self))
            m.setattr(Mat, "nullspace", lambda self: calls.append("nullspace") or nullspace(self))
            ip = InnerProduct.identity()
            adj = adjoint(c, ip)
            for k in c.support():
                assert len(harmonic_space(c, ip, k, adj)) == betti[k]
        assert calls == ["nullspace"] * len(betti)


def test_hodge_decomposition_three_way():
    rng = random.Random(31)
    for _ in range(15):
        c, _ = random_complex(rng)
        ip = InnerProduct.identity()
        for k in c.support():
            dec = hodge_decomposition(c, ip, k)
            assert len(dec.harmonic) + len(dec.exact) + len(dec.coexact) == c.dim(k)


def test_hodge_with_random_posdef_gram():
    rng = random.Random(37)
    for _ in range(10):
        c, expected = random_complex(rng)
        grams = {k: random_posdef_gram(rng, c.dim(k)) for k in c.support()}
        ip = InnerProduct(grams)
        ip.validate_for(c)
        for k in c.support():
            hs = harmonic_space(c, ip, k)
            assert len(hs) == HomologySpace(c, k).betti


def test_harmonic_projection_reassembles():
    rng = random.Random(41)
    c, _ = random_complex(rng)
    ip = InnerProduct.identity()
    for k in c.support():
        if c.dim(k) == 0:
            continue
        vec = [F(rng.randint(-3, 3)) for _ in range(c.dim(k))]
        h, e, co = harmonic_projection(c, ip, k, vec)
        total = [a + b + g for a, b, g in zip(h, e, co)]
        assert total == vec


def test_laplacian_commutes_with_d():
    rng = random.Random(43)
    for _ in range(10):
        c, _ = random_complex(rng)
        ip = InnerProduct.identity()
        adj = adjoint(c, ip)
        for k in c.support():
            left = laplacian(c, ip, k + 1, adj) * c.diff(k)
            right = c.diff(k) * laplacian(c, ip, k, adj)
            assert left == right


def test_laplacian_on_ce_complex():
    ops = chevalley_eilenberg(LieData.cross3())
    c = ops.algebra.to_complex((0, 3))
    ip = InnerProduct.identity()
    for k in range(4):
        hs = harmonic_space(c, ip, k)
        assert len(hs) == HomologySpace(c, k).betti


def test_graded_chain_data_validation():
    GradedChainData(elements=[("p", 1), ("q", 2)], boundary={"p": {"q": F(2)}})
    with pytest.raises(GradedError):
        # boundary must raise degree by exactly one
        GradedChainData(elements=[("p", 1), ("q", 3)], boundary={"p": {"q": F(1)}})
    with pytest.raises(GradedError):
        # should square to zero
        GradedChainData(
            elements=[("p", 1), ("q", 2), ("r", 3)],
            boundary={"p": {"q": F(1)}, "q": {"r": F(1)}},
        )
    with pytest.raises(GradedError):
        # cobracket degree rule: |a| + |b| = |v| + 1
        GradedChainData(
            elements=[("p", 1), ("v", 3)],
            cobracket={"v": [("p", "p", F(1))]},
        )


def test_doubled_algebra_squares_to_zero_with_cobracket():
    data = GradedChainData(
        elements=[("p", 1), ("q", 2), ("v", 2)],
        cobracket={"v": [("p", "q", F(1))]},
    )
    alg = doubled_algebra(data, truncation=5)
    assert alg.gens.names == ("p", "q", "v", "p'", "q'", "v'")
    assert alg.gens.degrees == (1, 2, 2, 2, 3, 3)


def test_fock_inner_product_factorials():
    # identity gram: a monomial of k copies of one even partner pairs with
    # itself to k!
    data = GradedChainData(elements=[("p", 1)])
    alg = doubled_algebra(data, truncation=7)
    fock = FockInnerProduct(data, alg)
    # degree 2k is spanned by (p')^k for the even partner p' of odd p
    g2 = fock.gram(2)
    assert g2 == Mat.from_rows([[F(1)]])
    g4 = fock.gram(4)
    assert g4 == Mat.from_rows([[F(2)]])
    g6 = fock.gram(6)
    assert g6 == Mat.from_rows([[F(6)]])


def test_number_operator_families():
    # family: pure boundary
    data = GradedChainData(
        elements=[("p", 1), ("q", 2)], boundary={"p": {"q": F(3)}}
    )
    rep = number_operator_check(data, truncation=5)
    assert rep.ok, rep.failures
    # family: everything zero
    data2 = GradedChainData(elements=[("u", 2), ("w", 3)])
    rep2 = number_operator_check(data2, truncation=5)
    assert rep2.ok, rep2.failures
    assert all(rep2.generator_identity.values())


def test_number_operator_ccr():
    data = GradedChainData(elements=[("p", 1), ("q", 2)])
    rep = number_operator_check(data, truncation=5)
    assert rep.ccr_ok
    assert rep.cross_terms_zero
    assert rep.laplacian_commutes


def test_number_operator_reports_the_ccr_a_scaled_contraction_breaks(monkeypatch):
    # contractions doubled: [iota_x, mu_y] = 2 delta_xy fails on every diagonal
    # pair, while the doubled Fock Grams keep the generator identity, the cross
    # terms and [H, d] = 0
    contraction = FockInnerProduct.contraction
    monkeypatch.setattr(FockInnerProduct, "contraction",
                        lambda self, y, k: contraction(self, y, k).scale(2))
    data = GradedChainData(
        [("p", 1), ("q", 2), ("r", 2), ("s", 3)],
        boundary={"p": {"q": F(2, 3), "r": F(-2, 3)}, "q": {"s": F(3, 4)}, "r": {"s": F(3, 4)}},
        grams={1: [[F(3, 2)]], 2: [[F(5, 2), F(1, 3)], [F(1, 3), F(7, 2)]], 3: [[F(9, 2)]]},
    )
    rep = number_operator_check(data, truncation=3)
    assert (rep.ok, rep.ccr_ok, rep.cross_terms_zero, rep.laplacian_commutes) == (False, False, True, True)
    assert rep.generator_identity == {1: True, 2: True, 3: True}
    assert rep.failures == ["commutation relation fails for (%s, %s) at degree %d" % (x, x, k)
                            for x, top in (("p", 2), ("q", 1), ("r", 1), ("s", 0),
                                           ("p'", 1), ("q'", 0), ("r'", 0))
                            for k in range(top + 1)]


def test_positive_definite_check_agrees_with_leading_minors():
    rng = random.Random(47)
    cases = [Mat.eye(2).scale(-1), Mat.from_rows([[0, 1], [1, 0]]), Mat.eye(0)]
    for _ in range(200):
        n = rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        sym = Mat.from_rows([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)])
        cases.append(sym + Mat.eye(n).scale(rng.randint(0, 6)))
    seen = set()
    for g in cases:
        minors = [Mat(s, s, [row[:s] for row in g.rows[:s]]).det() for s in range(1, g.n + 1)]
        posdef = all(m > 0 for m in minors)
        seen.add(posdef)
        if posdef:
            InnerProduct({0: g}).check_grams()
        else:
            with pytest.raises(GradedError, match="not positive definite"):
                InnerProduct({0: g}).check_grams()
    assert seen == {True, False}
    # -I_2 has a positive determinant and is still refused
    assert Mat.eye(2).scale(-1).det() > 0


def _congruent_gram(rng, signs):
    """P^T diag P for a random unimodular P and a diagonal of these signs: by
    Sylvester's law of inertia it is positive definite, indefinite or singular
    exactly as the signs say."""
    n = len(signs)
    p = random_unimodular(rng, n)
    diagonal = Mat.from_dicts(n, n, [{i: s * rng.randint(1, 3)} for i, s in enumerate(signs)])
    return p.transpose() * diagonal * p


def test_gram_elimination_agrees_with_leading_minors_and_keeps_the_inverse():
    rng = random.Random(53)
    cases = [("positive definite", Mat.eye(0))]
    for _ in range(30):
        n = rng.randint(1, 4)
        cases.append(("positive definite", random_posdef_gram(rng, n)))
        cases.append(("positive definite", _congruent_gram(rng, [1] * n)))
        cases.append(("singular", _congruent_gram(rng, [1] * (n - 1) + [0])))
        if n > 1:
            cases.append(("indefinite", _congruent_gram(rng, [1] * (n - 1) + [-1])))
    for kind, g in cases:
        assert g == g.transpose()
        verdict = all(m > 0 for m in oracle_leading_minors(g.rows))
        assert verdict == (kind == "positive definite")
        ip = InnerProduct({0: g})
        if not verdict:
            with pytest.raises(GradedError) as exc:
                ip.check_grams()
            assert str(exc.value) == "Gram matrix at degree 0 is not positive definite"
            assert ip.inverses == {}
            continue
        ip.check_grams()
        assert ip.inverses[0] == g.inv()
        # the adjoint read through the kept inverse is G_0^-1 d^T G_1, built afresh
        h = random_posdef_gram(rng, rng.randint(1, 3))
        d = Mat(h.n, g.n, [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(g.n)]
                           for _ in range(h.n)])
        c = Complex(GradedSpace({0: ["a%d" % i for i in range(g.n)],
                                 1: ["b%d" % i for i in range(h.n)]}), {0: d})
        ip = InnerProduct({0: g, 1: h})
        ip.validate_for(c)
        assert set(ip.inverses) == {0, 1}
        assert adjoint(c, ip).comp(1) == g.inv() * d.transpose() * h
    assert {kind for kind, _ in cases} == {"positive definite", "indefinite", "singular"}
    with pytest.raises(GradedError) as exc:
        InnerProduct({2: Mat.from_rows([[1, 2], [0, 1]])}).check_grams()
    assert str(exc.value) == "Gram matrix at degree 2 is not symmetric"
    assert Mat.from_rows([[1, 0]]).positive_definite_inverse() is None


def test_number_operator_report_with_a_cobracket():
    # today's answers with a nonzero cobracket; this records behaviour, it
    # does not claim a cobracket should break the generator identity
    data = GradedChainData(
        elements=[("p", 1), ("q", 2), ("v", 2)],
        cobracket={"v": [("p", "q", F(1))]},
    )
    rep = number_operator_check(data, truncation=5)
    assert rep.ok is False
    assert rep.truncation == 5
    assert rep.generator_identity == {1: True, 2: False, 3: False}
    assert rep.ccr_ok is True
    assert rep.cross_terms_zero is False
    assert rep.laplacian_commutes is True
    assert rep.failures == [
        "generator identity fails at degree 2",
        "generator identity fails at degree 3",
        "linear/split cross terms survive at degree 3",
    ]
    odd = GradedChainData(
        elements=[("p", 1), ("q", 1), ("r", 1)],
        cobracket={"p": [("q", "r", F(2))]},
    )
    rep = number_operator_check(odd, truncation=5)
    assert rep.ok is False
    assert rep.generator_identity == {1: False, 2: False}
    assert (rep.ccr_ok, rep.cross_terms_zero, rep.laplacian_commutes) == (True, False, True)
    assert rep.failures == [
        "generator identity fails at degree 1",
        "generator identity fails at degree 2",
        "linear/split cross terms survive at degree 2",
        "linear/split cross terms survive at degree 3",
        "linear/split cross terms survive at degree 4",
    ]


def test_number_operator_inverts_each_gram_once_and_multiplies_no_polynomials(monkeypatch):
    data = GradedChainData(
        elements=[("p", 1), ("q", 2), ("r", 2), ("s", 3)],
        boundary={
            "p": {"q": F(2, 3), "r": F(-2, 3)},
            "q": {"s": F(3, 4)},
            "r": {"s": F(3, 4)},
        },
        grams={1: [[F(3, 2)]], 2: [[F(5, 2), F(1, 3)], [F(1, 3), F(7, 2)]], 3: [[F(9, 2)]]},
    )
    inverted = []
    products = []
    inv, mul = Mat.inv, Polynomial.__mul__
    monkeypatch.setattr(Mat, "inv", lambda self: inverted.append(self) or inv(self))
    monkeypatch.setattr(
        Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b)
    )
    rep = number_operator_check(data, truncation=5)
    assert rep.ok, rep.failures
    assert products == []
    # every inverted matrix is a distinct Gram (Fock degrees -1..6, underlying 0..4)
    assert len({id(g) for g in inverted}) == len(inverted) <= 8 + 5


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_number_operator_identity_holds_on_random_cobracket_free_data(seed):
    # d^2 = 0 by construction (a twisted sum of elementary pieces in degrees
    # 1..3); most degrees get a random positive-definite Gram, which makes the
    # small Laplacian non-symmetric, so a transposed comparison would fail
    rng = random.Random(seed)
    c, _ = random_complex(rng, max_span=3, max_dim=3, lo_range=(1, 1))
    elements = [(v, k) for k in c.support() for v in c.labels(k)]
    assume(0 < len(elements) <= 5)
    boundary = {}
    for k in c.support():
        for i, j, x in c.diff(k).items():
            boundary.setdefault(c.labels(k)[j], {})[c.labels(k + 1)[i]] = x
    grams = {k: random_posdef_gram(rng, c.dim(k)) for k in c.support() if rng.random() < 0.8}
    data = GradedChainData(elements, boundary, grams=grams)
    assert data.complex == c
    rep = number_operator_check(data, truncation=5)
    assert rep.ok, rep.failures
    assert rep.generator_identity and all(rep.generator_identity.values())


def test_graded_chain_data_refuses_a_basis_name_that_is_a_partner_name():
    with pytest.raises(GradedError) as err:
        GradedChainData(elements=[("p", 1), ("q", 2), ("p'", 2)])
    assert str(err.value) == "basis element \"p'\" has the name of the partner of 'p'"


def test_graded_chain_data_checks_co_leibniz():
    # delta(cobracket v) = (delta (x) 1 - 1 (x) delta)(cobracket v) for odd a:
    # delta v = w and cobracket v = a (x) u with delta u = c force cobracket w = -a (x) c
    elements = [("a", 1), ("u", 2), ("v", 2), ("c", 3), ("w", 3)]
    boundary = {"u": {"c": F(1)}, "v": {"w": F(1)}}
    GradedChainData(elements, boundary, {"v": [("a", "u", F(1))], "w": [("a", "c", F(-1))]})
    with pytest.raises(GradedError, match="not compatible with the boundary at 'v'"):
        GradedChainData(elements, boundary, {"v": [("a", "u", F(1))], "w": [("a", "c", F(1))]})


def _dense_glie(rng):
    """Two odd and two even basis elements with dense positive-definite Grams."""
    grams = {}
    for p in (1, 2):
        c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        a, b = abs(c) + rng.randint(1, 4), abs(c) + rng.randint(1, 4)
        grams[p] = [[a, c], [c, b]]
    elements = [("a", 1), ("b", 1), ("c", 2), ("e", 2)]
    boundary = {"a": {"c": F(rng.randint(-2, 2)), "e": F(rng.randint(-2, 2))}}
    return GradedChainData(elements, boundary, grams=grams), grams


def _fock_gram_by_bijections(elements, grams, alg, k):
    """<a_1..a_n, b_1..b_n> = sum over bijections s of sign(s) prod <a_i, b_s(i)>.

    sign(s) is the Koszul sign of reordering b into b_s(1)..b_s(n); v pairs
    with w, and v' with w', through the Gram of their common degree.
    """
    n = len(elements)

    def pair(i, j):
        (v, p), (w, q) = elements[i % n], elements[j % n]
        if (i < n) != (j < n) or p != q:
            return F(0)
        labels = [u for u, d in elements if d == p]
        return F(grams[p][labels.index(v)][labels.index(w)])

    flat = [[i for i, e in key for _ in range(e)] for key in alg.basis(k)]
    rows = []
    for a in flat:
        row = []
        for b in flat:
            total = F(0)
            if len(a) == len(b):
                for s in permutations(range(len(b))):
                    term = F(koszul_sign([alg.gens.degrees[y] for y in b], s))
                    for x, j in zip(a, s):
                        term *= pair(x, b[j])
                    total += term
            row.append(total)
        rows.append(row)
    return Mat(len(rows), len(rows), rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fock_gram_agrees_with_the_sum_over_bijections(seed):
    data, grams = _dense_glie(random.Random(seed))
    alg = doubled_algebra(data, truncation=6)
    fock = FockInnerProduct(data, alg)
    for k in range(0, 7):
        assert fock.gram(k) == _fock_gram_by_bijections(data.elements, grams, alg, k), k


def test_fock_gram_oracle_sees_a_dropped_contraction_sign(monkeypatch):
    # the contraction by the odd generator b loses its Koszul signs
    contraction = FockInnerProduct.contraction

    def unsigned(self, y, k):
        m = contraction(self, y, k)
        return Mat(m.m, m.n, [[abs(x) for x in r] for r in m.rows]) if y == 1 else m

    monkeypatch.setattr(FockInnerProduct, "contraction", unsigned)
    data, grams = _dense_glie(random.Random(0))
    alg = doubled_algebra(data, truncation=6)
    fock = FockInnerProduct(data, alg)
    assert any(fock.gram(k) != _fock_gram_by_bijections(data.elements, grams, alg, k)
               for k in range(0, 7))
