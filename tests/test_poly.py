from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cdga import (
    CDGAMorphism,
    Derivation,
    FreeCDGA,
    Generators,
    ParseError,
    Polynomial,
    basis_keys,
    koszul_sign,
    parse_polynomial,
)
from cdga.graded import GradedError
from cdga.poly import key_product, normalize_factors


def gens_xy():
    return Generators([("x", 1), ("y", 1), ("z", 2)])


def test_generators_basics():
    g = gens_xy()
    assert g.names == ("x", "y", "z")
    assert g.degree(2) == 2
    assert g.index("y") == 1
    with pytest.raises(GradedError):
        Generators([("x", 0)])
    with pytest.raises(GradedError):
        Generators([("x", 1), ("x", 2)])


def test_odd_square_vanishes():
    g = gens_xy()
    x = Polynomial.generator(g, "x")
    assert (x * x).is_zero()


def test_graded_commutativity():
    g = gens_xy()
    x = Polynomial.generator(g, "x")
    y = Polynomial.generator(g, "y")
    z = Polynomial.generator(g, "z")
    assert x * y == (y * x).scale(-1)
    assert x * z == z * x
    assert (z * z).is_homogeneous() == 4


def test_polynomial_arithmetic_and_str():
    g = gens_xy()
    x = Polynomial.generator(g, "x")
    y = Polynomial.generator(g, "y")
    p = x * y.scale(F(3, 2)) + Polynomial.one(g) - Polynomial.one(g)
    assert p == x * y.scale(F(3, 2))
    assert p.is_homogeneous() == 2
    assert "3/2" in str(p)
    assert str(Polynomial.zero(g)) == "0"


def test_homogeneous_parts():
    g = gens_xy()
    x = Polynomial.generator(g, "x")
    z = Polynomial.generator(g, "z")
    p = x + z
    with pytest.raises(GradedError):
        p.is_homogeneous()
    assert p.homogeneous_part(1) == x
    assert p.homogeneous_part(2) == z
    assert p.homogeneous_part(5).is_zero()


def test_basis_keys_canonical_order():
    g = gens_xy()
    b2 = basis_keys(g, 2)
    # degree 2: x*y, z  (x^2 = y^2 = 0)
    assert len(b2) == 2
    assert b2 == sorted(b2)
    b3 = basis_keys(g, 3)
    # degree 3: x*z, y*z
    assert len(b3) == 2


def test_parser_round_trip():
    g = gens_xy()
    p = parse_polynomial(g, "3/2 x*y + z")
    x = Polynomial.generator(g, "x")
    y = Polynomial.generator(g, "y")
    z = Polynomial.generator(g, "z")
    assert p == x * y.scale(F(3, 2)) + z
    # reparse of the rendering is the identity
    assert parse_polynomial(g, str(p)) == p


def test_parser_collects_like_terms_with_koszul_sign():
    g = gens_xy()
    # y*x = -x*y for two odd generators, so the difference is 3/2 x*y
    p = parse_polynomial(g, "1/2 x*y − y*x")
    x = Polynomial.generator(g, "x")
    y = Polynomial.generator(g, "y")
    assert p == (x * y).scale(F(3, 2))


def test_parser_juxtaposition_and_powers():
    g = gens_xy()
    z = Polynomial.generator(g, "z")
    assert parse_polynomial(g, "z^2") == z * z
    assert parse_polynomial(g, "2z^2") == (z * z).scale(2)
    assert parse_polynomial(g, "z z") == z * z
    assert parse_polynomial(g, "0").is_zero()
    assert parse_polynomial(g, "-z") == z.scale(-1)


@pytest.mark.parametrize("text, message, line, col", [
    ("x ? y", "unexpected character '?'", 1, 3),
    # a bad character anywhere is reported before an error earlier in the text
    ("x + + y\n  $", "unexpected character '$'", 2, 3),
    ("x y 2", "expected '+', '-' or end of expression", 1, 5),
    ("x/2", "expected '+', '-' or end of expression", 1, 2),
    ("1/x", "expected a denominator after '/'", 1, 3),
    ("x +\n 1/0", "zero denominator", 2, 4),
    ("x + w", "unknown generator 'w'", 1, 5),
    ("2xy", "unknown generator 'xy'", 1, 2),
    ("x ^", "expected an exponent after '^'", 1, 4),
    ("z^0", "exponent must be positive", 1, 3),
    ("x * 2", "expected a generator after '*'", 1, 5),
    ("x *", "expected a generator after '*'", 1, 4),
    ("", "expected a term", 1, 1),
    ("x + ", "expected a term", 1, 5),
    ("x +\n\t- y", "expected a term", 2, 2),
    # NATURAL is ASCII digits: a superscript two starts a name, an Arabic-Indic
    # three starts no token
    ("x^\u00b2", "expected an exponent after '^'", 1, 3),
    ("\u0663 x^2", "unexpected character '\u0663'", 1, 1),
])
def test_parser_errors_carry_position(text, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse_polynomial(gens_xy(), text)
    assert (str(ei.value), ei.value.line, ei.value.col) == (
        "line %d, column %d: %s" % (line, col, message), line, col)


def test_parser_odd_square_is_zero():
    g = gens_xy()
    assert parse_polynomial(g, "x^2").is_zero()
    assert parse_polynomial(g, "x*x").is_zero()


# -- properties of the key product and the Leibniz rule ---------------------------


@st.composite
def generator_tables(draw):
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return Generators([("g%d" % i, d) for i, d in enumerate(degrees)])


def canonical_keys(gens):
    exps = [st.integers(0, 1 if gens.odd[i] else 2) for i in range(len(gens))]
    return st.tuples(*exps).map(lambda es: tuple((i, e) for i, e in enumerate(es) if e))


@st.composite
def homogeneous_polys(draw, gens, degree=None):
    """(degree, polynomial) with small integer coefficients on basis_keys."""
    k = draw(st.integers(0, 5)) if degree is None else degree
    keys = basis_keys(gens, k)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(keys), max_size=len(keys)))
    return k, Polynomial(gens, dict(zip(keys, coeffs)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_printed_polynomials_parse_back_to_themselves(data):
    # mixed degrees over odd and even generators, with signed fractional
    # coefficients and constant terms (the empty key)
    gens = data.draw(generator_tables())
    terms = data.draw(st.dictionaries(
        canonical_keys(gens),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        max_size=6,
    ))
    p = Polynomial(gens, terms)
    assert parse_polynomial(gens, str(p)) == p


def oracle_product(gens, factors):
    """(sign, key) of a factor sequence: stable sort signed by koszul_sign."""
    flat = [i for i, e in factors for _ in range(e)]
    if any(gens.odd[i] and flat.count(i) > 1 for i in flat):
        return 0, ()
    order = sorted(range(len(flat)), key=lambda p: (flat[p], p))
    sign = koszul_sign([gens.degrees[i] for i in flat], order)
    return sign, tuple((i, flat.count(i)) for i in sorted(set(flat)))


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_key_product_sign_is_the_koszul_sign(data):
    gens = data.draw(generator_tables())
    a = data.draw(canonical_keys(gens))
    b = data.draw(canonical_keys(gens))
    assert key_product(gens, a, b) == oracle_product(gens, a + b)
    runs = data.draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.integers(1, 2)),
                              max_size=6))
    sign, key = oracle_product(gens, runs)
    assert normalize_factors(gens, runs, F(3)) == (F(3 * sign), key)


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_products_are_graded_commutative_and_associative(data):
    gens = data.draw(generator_tables())
    (da, a), (db, b), (_, c) = [data.draw(homogeneous_polys(gens)) for _ in range(3)]
    assert a * b == (b * a).scale((-1) ** (da * db))
    assert (a * b) * c == a * (b * c)


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_derivations_obey_the_graded_leibniz_rule(data):
    gens = data.draw(generator_tables())
    r = data.draw(st.integers(-1, 2))
    images = {name: data.draw(homogeneous_polys(gens, d + r))[1]
              for name, d in zip(gens.names, gens.degrees)}
    algebra = FreeCDGA(gens, {}, truncation=8)
    D = Derivation(algebra, r, images)
    (da, a), (_, b) = [data.draw(homogeneous_polys(gens)) for _ in range(2)]
    assert D(a * b) == D(a) * b + (a * D(b)).scale((-1) ** (r * da))
    assert D.matrix(da).apply(algebra.vector(a, da)) == algebra.vector(D(a), da + r)


def product_reference(f, poly):
    """f(poly) multiplied out with Polynomial products, term by term."""
    out = Polynomial.zero(f.target.gens)
    for key, c in poly.terms.items():
        term = Polynomial.one(f.target.gens).scale(c)
        for i, e in key:
            for _ in range(e):
                term = term * f.image_of(f.source.gens.names[i])
        out = out + term
    return out


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_morphisms_match_the_polynomial_product_reference(data):
    source, target, third = (FreeCDGA(data.draw(generator_tables()), {}, truncation=8)
                             for _ in range(3))

    def images(src, tgt):
        return {name: data.draw(homogeneous_polys(tgt.gens, d))[1]
                for name, d in zip(src.gens.names, src.gens.degrees)}

    f = CDGAMorphism(source, target, images(source, target))
    g = CDGAMorphism(third, source, images(third, source))
    (da, a), (db, b) = [data.draw(homogeneous_polys(source.gens)) for _ in range(2)]
    assert f(a) == product_reference(f, a)
    assert f(a * b) == f(a) * f(b)
    assert f.matrix(da).apply(source.vector(a, da)) == target.vector(f(a), da)
    _, c = data.draw(homogeneous_polys(third.gens))
    assert f.compose(g)(c) == product_reference(f, product_reference(g, c))


def test_morphism_matrix_multiplies_no_polynomials(monkeypatch):
    gens = Generators([("x", 2), ("y", 3), ("z", 3)])
    x, y, z = (Polynomial.generator(gens, n) for n in ("x", "y", "z"))
    a = FreeCDGA(gens, {"y": x * x}, truncation=10)
    f = CDGAMorphism(a, a, {"x": x.scale(2), "y": y.scale(4) + z, "z": z})
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda p, q: products.append(1) or mul(p, q))
    mats = {k: f.matrix(k) for k in range(11)}
    assert products == []
    monkeypatch.undo()
    for k, mat in mats.items():
        for col, key in enumerate(a.basis(k)):
            image = product_reference(f, Polynomial(gens, {key: 1}))
            assert [row[col] for row in mat.rows] == a.vector(image, k)
