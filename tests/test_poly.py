from fractions import Fraction as F

import pytest

from cdga import Generators, ParseError, Polynomial, basis_keys, parse_polynomial
from cdga.graded import GradedError


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


def test_parser_errors_carry_position():
    g = gens_xy()
    with pytest.raises(ParseError) as ei:
        parse_polynomial(g, "x + w")
    assert ei.value.line == 1 and ei.value.col == 5
    with pytest.raises(ParseError):
        parse_polynomial(g, "x ^")
    with pytest.raises(ParseError):
        parse_polynomial(g, "")
    with pytest.raises(ParseError):
        parse_polynomial(g, "x + ")
    with pytest.raises(ParseError):
        parse_polynomial(g, "1/0")


def test_parser_odd_square_is_zero():
    g = gens_xy()
    assert parse_polynomial(g, "x^2").is_zero()
    assert parse_polynomial(g, "x*x").is_zero()
