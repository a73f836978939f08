from fractions import Fraction as F

import pytest

from cdga import (
    CDGAMorphism,
    Derivation,
    FreeCDGA,
    Generators,
    GradedError,
    Polynomial,
    certify,
    minimal_model,
    quadratic_part,
)


def odd_sphere(n, truncation=9):
    gens = Generators([("e", n)])
    return FreeCDGA(gens, {}, truncation=truncation)


def even_sphere(truncation=9):
    gens = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(gens, "x")
    return FreeCDGA(gens, {"y": x * x}, truncation=truncation)


def projective_plane(truncation=9):
    gens = Generators([("x", 2), ("y", 5)])
    x = Polynomial.generator(gens, "x")
    return FreeCDGA(gens, {"y": x * x * x}, truncation=truncation)


def test_derivation_leibniz():
    gens = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(gens, "x")
    alg = FreeCDGA(gens, {"y": x * x}, truncation=8)
    d = alg.differential
    y = Polynomial.generator(gens, "y")
    assert d(x * y) == x * (x * x)
    # graded Leibniz with the odd factor first: d(y x) = d(y) x - y d(x)
    assert d(y * x) == (x * x) * x


def test_cdga_rejects_bad_square():
    gens = Generators([("x", 2), ("y", 3), ("z", 4)])
    x = Polynomial.generator(gens, "x")
    with pytest.raises(GradedError):
        # d(z) = y with d(y) = x^2 has d(d(z)) = x^2 != 0
        FreeCDGA(
            gens,
            {"y": x * x, "z": Polynomial.generator(gens, "y")},
            truncation=8,
        )


def test_morphism_validation():
    a = even_sphere()
    ident = CDGAMorphism.identity(a)
    assert ident.is_chain_map()
    gens = a.gens
    x = Polynomial.generator(gens, "x")
    with pytest.raises(GradedError):
        # sending y to 0 but keeping x breaks the chain condition
        CDGAMorphism(a, a, {"x": x, "y": Polynomial.zero(gens)})


def test_minimal_model_odd_sphere():
    mm = minimal_model(odd_sphere(3))
    assert mm.already_minimal
    ranks = mm.homotopy_ranks()
    assert ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k != 3)
    assert mm.certified_through == 8
    assert mm.certificate.is_equivalence


def test_minimal_model_even_sphere():
    mm = minimal_model(even_sphere())
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 3))


def test_minimal_model_projective_plane():
    mm = minimal_model(projective_plane())
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[5] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 5))


def test_minimal_model_of_non_minimal_input():
    gens = Generators([("x", 2), ("y", 3), ("c", 3), ("a", 4)])
    x = Polynomial.generator(gens, "x")
    a = Polynomial.generator(gens, "a")
    alg = FreeCDGA(gens, {"y": x * x, "c": a}, truncation=8)
    mm = minimal_model(alg)
    assert not mm.already_minimal
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 3))
    assert mm.model.is_minimal()
    assert mm.morphism.is_chain_map()
    assert mm.certificate.is_equivalence


def test_minimal_model_of_positively_acyclic_input():
    gens = Generators([("u", 4), ("v", 3)])
    u = Polynomial.generator(gens, "u")
    alg = FreeCDGA(gens, {"v": u}, truncation=8)
    mm = minimal_model(alg)
    assert mm.model.gens.names == ()
    assert all(v == 0 for v in mm.homotopy_ranks().values())


def test_minimal_model_rejects_non_simply_connected():
    gens = Generators([("t", 1)])
    alg = FreeCDGA(gens, {}, truncation=6)
    with pytest.raises(GradedError):
        minimal_model(alg)


def test_certify_and_table():
    mm = minimal_model(even_sphere())
    rep = certify(mm)
    assert rep.is_equivalence
    table = mm.homotopy_ranks()
    assert table[2] == 1 and table[3] == 1


def test_quadratic_part():
    # whitehead square pattern: d(z) = x * y is already quadratic
    gens = Generators([("x", 2), ("y", 2), ("z", 3)])
    x = Polynomial.generator(gens, "x")
    y = Polynomial.generator(gens, "y")
    alg = FreeCDGA(gens, {"z": x * y}, truncation=8)
    q = quadratic_part(alg)
    assert q.differential.image_of("z") == x * y


def test_product_of_spheres():
    # S^3 x S^5: two closed odd generators
    gens = Generators([("e", 3), ("f", 5)])
    alg = FreeCDGA(gens, {}, truncation=9)
    mm = minimal_model(alg)
    ranks = mm.homotopy_ranks()
    assert ranks[3] == 1 and ranks[5] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (3, 5))


def test_wedge_like_interaction():
    # one even class whose square is killed late: S^4-like with y7
    gens = Generators([("x", 4), ("y", 7)])
    x = Polynomial.generator(gens, "x")
    alg = FreeCDGA(gens, {"y": x * x}, truncation=9)
    mm = minimal_model(alg)
    ranks = mm.homotopy_ranks()
    assert ranks[4] == 1 and ranks[7] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (4, 7))
