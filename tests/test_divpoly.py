"""Tests for the alternative division polynomials and their Newton data."""

from fractions import Fraction

import pytest

from padic_cartan.divpoly import (
    build_gk,
    coefficient_valuations,
    format_table,
    newton_polygon_of,
    root_valuation_partition,
)
from padic_cartan.errors import NormalizationError, PrecisionError, UnsupportedPrimeError
from padic_cartan.padic import INFINITY, PadicScalar


def test_structure_level_one():
    poly = build_gk(11, 3, PadicScalar.from_rational(1, 11, 6), 1)
    assert poly.support == (1, 11, 121)
    assert poly.degree == 121
    assert poly.coefficient(121).as_padic_scalar().lift_fraction() == 1
    assert poly.coefficient(1).as_padic_scalar().lift_fraction() == -11
    assert poly.coefficient(11).valuation() == Fraction(5, 3)
    # Absent exponents return the zero element.
    assert poly.coefficient(2).is_exact_zero


def test_coefficient_valuations_level_two():
    poly = build_gk(11, 3, PadicScalar.from_rational(1, 11, 6), 2)
    assert coefficient_valuations(poly) == [
        (1, 2),
        (11, Fraction(8, 3)),
        (121, 1),
        (1331, Fraction(5, 3)),
        (14641, 0),
    ]


@pytest.mark.parametrize("v_alpha_inv", [0, 1, 2])
def test_valuation_shift_moves_only_odd_rows(v_alpha_inv):
    alpha_inv = PadicScalar.from_rational(11**v_alpha_inv, 11, 8)
    poly = build_gk(11, 3, alpha_inv, 1)
    vals = dict(coefficient_valuations(poly))
    assert vals[1] == 1
    assert vals[121] == 0
    assert vals[11] == 1 + v_alpha_inv + Fraction(2, 3)


def test_newton_polygon_vertices():
    poly = build_gk(11, 3, PadicScalar.from_rational(1, 11, 6), 2)
    np = newton_polygon_of(poly)
    assert np.zero_root_multiplicity == 1
    assert np.vertices == ((1, Fraction(2)), (121, Fraction(1)), (14641, Fraction(0)))


def test_root_valuation_partition_matches_closed_form():
    for p, e in ((5, 3), (7, 4), (11, 6)):
        for k in (1, 2):
            poly = build_gk(p, e, PadicScalar.from_rational(1, p, 6), k)
            want = [(INFINITY, 1)] + [
                (Fraction(1, p ** (2 * i) * (p**2 - 1)), p ** (2 * i) * (p**2 - 1))
                for i in range(k)
            ]
            assert root_valuation_partition(poly) == want


def test_cm_polynomial_has_even_support_and_same_partition():
    poly = build_gk(11, 3, 0, 2)
    assert poly.support == (1, 121, 14641)
    assert poly.coefficient(121).as_padic_scalar().lift_fraction() == -11
    assert poly.coefficient(1).as_padic_scalar().lift_fraction() == 121
    assert root_valuation_partition(poly) == [
        (INFINITY, 1),
        (Fraction(1, 120), 120),
        (Fraction(1, 14520), 14520),
    ]


def test_int_alpha_inverse_is_embedded():
    poly = build_gk(11, 3, 1, 1)
    assert poly.coefficient(11).valuation() == Fraction(5, 3)


def test_rejections():
    ok = PadicScalar.from_rational(1, 11, 6)
    with pytest.raises(UnsupportedPrimeError):
        build_gk(9, 3, 0, 1)
    with pytest.raises(NormalizationError, match="^no Eisenstein normalization for e=5$"):
        build_gk(11, 5, ok, 1)
    with pytest.raises(NormalizationError) as refused:
        build_gk(5, 4, PadicScalar.from_rational(1, 5, 6), 1)
    assert str(refused.value) == "e=4 does not divide p+1=6; reduction is not supersingular"
    with pytest.raises(ValueError):
        build_gk(11, 3, ok, 0)
    with pytest.raises(PrecisionError):
        build_gk(11, 3, PadicScalar.zero_to_precision(11, 4), 1)
    with pytest.raises(ValueError):
        build_gk(11, 3, PadicScalar.from_rational(Fraction(1, 11), 11, 6), 1)
    with pytest.raises(TypeError):
        build_gk(11, 3, "unit", 1)
    with pytest.raises(TypeError):
        build_gk(11, 3, PadicScalar.from_rational(1, 7, 6), 1)


def test_format_table():
    poly = build_gk(11, 3, PadicScalar.from_rational(1, 11, 6), 1)
    lines = format_table(poly).splitlines()
    assert lines[0] == "# g over Q_11(pi_3), degree 121"
    assert lines[1] == "exponent\tvaluation\tcoefficient"
    assert lines[2].startswith("1\t1\t")
    assert lines[3].startswith("11\t5/3\t")
    assert lines[4] == "121\t0\t1"
    assert len(lines) == 5
