"""Operator matrices of derivations and morphisms against a Fraction reference.

Derivation and CDGAMorphism hold their generator images as integer
numerators over one denominator.  The reference here never does: it
multiplies the images out with Polynomial products, term by term, and reads
each column with FreeCDGA.vector, so every coefficient stays a Fraction.
The images are drawn with several distinct denominators, over odd and even
generators, and the source degrees include powers and keys of mixed length.
Both kinds of map also go through one image check and keep one matrix per
degree, which the last tests pin.
"""

from fractions import Fraction as F
import random

import pytest

from cdga import (
    CDGAMorphism,
    Derivation,
    FockInnerProduct,
    FreeCDGA,
    GradedChainData,
    GradedError,
    Generators,
    Mat,
    Polynomial,
    doubled_algebra,
)

# distinct denominators, so the lcm of an image set is never one of them
COEFFS = [F(1, 2), F(2, 3), F(5, 6), F(-3, 4), F(7, 5), F(-1), F(2)]


def algebra(gens):
    return FreeCDGA(gens, {}, truncation=8)


def random_poly(rng, alg, k, density=0.5):
    """A nonzero polynomial of degree k, or zero when the degree is empty."""
    keys = alg.basis(k)
    picked = [key for key in keys if rng.random() < density] or keys[:1]
    return Polynomial(alg.gens, {key: rng.choice(COEFFS) for key in picked})


def random_images(rng, src, tgt, shift):
    return {name: random_poly(rng, tgt, d + shift) for name, d in zip(src.gens.names, src.gens.degrees)}


def factors(key):
    """The generator indices of a canonical key, one per factor, in order."""
    return [i for i, e in key for _ in range(e)]


def monomial(alg, idx):
    out = Polynomial.one(alg.gens)
    for i in idx:
        out = out * Polynomial.generator(alg.gens, alg.gens.names[i])
    return out


def ref_derivation(alg, images, r, poly):
    """D(poly) by the graded Leibniz rule on each term's factor sequence."""
    out = Polynomial.zero(alg.gens)
    for key, c in poly.terms.items():
        idx = factors(key)
        for j, i in enumerate(idx):
            sign = -1 if r * sum(alg.gens.degrees[g] for g in idx[:j]) % 2 else 1
            image = images.get(alg.gens.names[i], Polynomial.zero(alg.gens))
            out = out + (monomial(alg, idx[:j]) * image * monomial(alg, idx[j + 1:])).scale(c * sign)
    return out


def ref_morphism(src, tgt, images, poly):
    """f(poly) as the product of the generator images of each term's factors."""
    out = Polynomial.zero(tgt.gens)
    for key, c in poly.terms.items():
        term = Polynomial.one(tgt.gens).scale(c)
        for i in factors(key):
            term = term * images[src.gens.names[i]]
        out = out + term
    return out


def ref_matrix(src, tgt, k, shift, apply):
    """Mat whose columns are the vectors of apply(basis monomial) in tgt."""
    m = tgt.dim(k + shift)
    cols = [tgt.vector(apply(Polynomial(src.gens, {key: 1})), k + shift) for key in src.basis(k)]
    return Mat(m, len(cols), [list(row) for row in zip(*cols)] or [[]] * m)


def same(mat, ref):
    assert mat == ref and hash(mat) == hash(ref)
    assert mat.rows == ref.rows


def odd_even_algebra():
    return algebra(Generators([("x", 1), ("y", 1), ("z", 2), ("w", 3), ("u", 2)]))


@pytest.mark.parametrize("seed", range(12))
def test_derivation_matrix_apply_and_commutator_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    alg = odd_even_algebra()
    r, s = rng.choice([-1, 0, 1, 2]), rng.choice([-1, 1, 2])
    im1, im2 = random_images(rng, alg, alg, r), random_images(rng, alg, alg, s)
    D, E = Derivation(alg, r, im1), Derivation(alg, s, im2)
    assert D.den > 1
    for k in range(7):
        same(D.matrix(k), ref_matrix(alg, alg, k, r, lambda p: ref_derivation(alg, im1, r, p)))
    bracket = D.commutator(E)
    sgn = -1 if r * s % 2 else 1
    for k in range(1, 6):
        p = random_poly(rng, alg, k)
        assert D.apply(p) == ref_derivation(alg, im1, r, p)
        want = ref_derivation(alg, im1, r, ref_derivation(alg, im2, s, p)) \
            - ref_derivation(alg, im2, s, ref_derivation(alg, im1, r, p)).scale(sgn)
        assert bracket.apply(p) == want
        if 0 <= k + r + s <= 7:
            assert bracket.matrix(k).apply(alg.vector(p, k)) == alg.vector(want, k + r + s)


@pytest.mark.parametrize("seed", range(12))
def test_morphism_matrix_apply_and_compose_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    # degree 4 holds a^2, ab, b^2 (two factors) and c (one), degree 6 holds
    # three and two factors: their columns sit over den**2 and den, den**3 and den**2
    src = algebra(Generators([("a", 2), ("b", 2), ("e", 3), ("c", 4), ("h", 5)]))
    tgt = odd_even_algebra()
    third = algebra(Generators([("p", 2), ("q", 3), ("s", 4)]))
    fim, gim = random_images(rng, src, tgt, 0), random_images(rng, third, src, 0)
    f, g = CDGAMorphism(src, tgt, fim), CDGAMorphism(third, src, gim)
    assert f.den > 1
    for k in range(8):
        same(f.matrix(k), ref_matrix(src, tgt, k, 0, lambda p: ref_morphism(src, tgt, fim, p)))
    fg = f.compose(g)

    def ref_fg(q):
        return ref_morphism(src, tgt, fim, ref_morphism(third, src, gim, q))

    for k in range(2, 8):
        p, q = random_poly(rng, src, k), random_poly(rng, third, k)
        assert f.apply(p) == ref_morphism(src, tgt, fim, p)
        assert fg.apply(q) == ref_fg(q)
        same(fg.matrix(k), ref_matrix(third, tgt, k, 0, ref_fg))


def test_morphism_columns_over_den_and_den_squared_share_one_matrix():
    # f(c) is over den = 6, f(a^2) over 36: one column each in degree 4
    src = algebra(Generators([("a", 2), ("c", 4)]))
    tgt = algebra(Generators([("z", 2), ("t", 4)]))
    z, t = (Polynomial.generator(tgt.gens, n) for n in ("z", "t"))
    f = CDGAMorphism(src, tgt, {"a": z.scale(F(1, 2)), "c": t.scale(F(5, 6)) + (z * z).scale(F(2, 3))})
    assert f.den == 6
    assert f.apply_key(((0, 2),)) == ({((0, 2),): 9}, 36)
    assert f.apply_key(((1, 1),)) == ({((0, 2),): 4, ((1, 1),): 5}, 6)
    # basis of degree 4: a^2, c; target z^2, t
    assert f.matrix(4) == Mat.from_rows([[F(1, 4), F(2, 3)], [0, F(5, 6)]])


# each kind of generator map on one algebra, with the degree r of its images
MAPS = {
    "derivation": (lambda a, images: Derivation(a, 1, images), 1),
    "morphism": (lambda a, images: CDGAMorphism(a, a, images, validate=False), 0),
}


@pytest.mark.parametrize("what", sorted(MAPS))
def test_derivations_and_morphisms_share_one_image_check(what):
    make, r = MAPS[what]
    a = algebra(Generators([("x", 2), ("y", 3)]))
    # an image of the right degree over another table is refused, not re-indexed
    foreign = Polynomial.generator(Generators([("z", 2 + r), ("w", 2 + r)]), "w")
    with pytest.raises(GradedError, match="^%s image of 'x' is not over the target$" % what):
        make(a, {"x": foreign})
    with pytest.raises(GradedError, match="^%s image of 'y' must be a Polynomial$" % what):
        make(a, {"y": "x"})
    with pytest.raises(GradedError, match="^%s image of 'x' has degree 4, expected %d$" % (what, 2 + r)):
        make(a, {"x": a.gen("x") * a.gen("x")})
    image = Polynomial(a.gens, {a.basis(3 + r)[0]: F(1, 2)})
    f = make(a, {"x": a.zero(), "y": image})
    assert f.images == {"y": image} and f.den == 2
    assert f.image_of("x") == a.zero()


def test_operator_matrices_are_cached_once_on_their_map():
    gens = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(gens, "x")
    a = FreeCDGA(gens, {"y": x * x}, truncation=8)
    for k in range(-1, 9):
        assert a.d_matrix(k) is a.differential.matrix(k)
    f = CDGAMorphism.identity(a)
    assert f.matrix(4) is f.matrix(4) and f.matrix(4) == Mat.eye(a.dim(4))
    data = GradedChainData(elements=[("p", 1), ("q", 2)], boundary={"p": {"q": F(1, 2)}})
    fock = FockInnerProduct(data, doubled_algebra(data, truncation=5))
    for y in range(4):
        for k in range(6):
            assert fock.contraction(y, k) is fock.contraction(y, k)
