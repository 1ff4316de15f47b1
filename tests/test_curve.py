"""Tests for Weierstrass models: invariants, reduction type, L-normalization."""

from fractions import Fraction

import pytest

from padic_cartan.curve import (
    GOOD_ORDINARY,
    GOOD_SUPERSINGULAR,
    MULTIPLICATIVE,
    WeierstrassCurve,
    good_model_over_L,
    hasse_residue,
    minimal_model,
    quadratic_twist,
    semistability_defect,
)
from padic_cartan.eisenstein import EisensteinElement
from padic_cartan.errors import (
    NormalizationError,
    SingularCurveError,
    UnsupportedPrimeError,
)
from padic_cartan.padic import INFINITY, PadicScalar, vp


def test_rejects_bad_primes():
    with pytest.raises(UnsupportedPrimeError):
        WeierstrassCurve(3, 1, 1)
    with pytest.raises(UnsupportedPrimeError):
        WeierstrassCurve(4, 1, 1)
    with pytest.raises(UnsupportedPrimeError):
        WeierstrassCurve(2, 1, 1)


def test_rejects_singular_models():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(11, 0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(11, -3, 2)  # 4*(-27) + 27*4 = 0


def test_invariant_identities():
    c = WeierstrassCurve(11, Fraction(5, 7), 9)
    assert c.discriminant == -16 * (4 * c.a**3 + 27 * c.b**2)
    # j and j - 1728 share the discriminant denominator identity.
    assert c.j_invariant - c.j_minus_1728 == 1728
    assert c.j_minus_1728 == Fraction(1728 * 432) * c.b**2 / c.discriminant


def test_invariant_valuations_deep_ramification_example():
    c = WeierstrassCurve(11, 11**3, 11**2)
    assert c.v_discriminant == 4
    assert c.v_j == 5
    assert c.v_j_minus_1728 == 0


def test_minimal_model_scales_down():
    c = WeierstrassCurve(11, 11**4, 11**6)
    m = minimal_model(c)
    assert (m.a, m.b) == (1, 1)
    assert m.v_discriminant == 0


def test_minimal_model_scales_up_non_integral():
    c = WeierstrassCurve(11, Fraction(1, 11**4), 0)
    m = minimal_model(c)
    assert (m.a, m.b) == (1, 0)
    c2 = WeierstrassCurve(11, 0, Fraction(1, 11**6))
    assert minimal_model(c2).b == 1


def test_minimal_model_fixed_point():
    c = WeierstrassCurve(11, 11**3, 11**2)
    assert minimal_model(c) is c


def test_quadratic_twist_preserves_j():
    c = WeierstrassCurve(11, 2, 3)
    t = quadratic_twist(c, 11)
    assert (t.a, t.b) == (121 * 2, 11**3 * 3)
    assert t.j_invariant == c.j_invariant
    with pytest.raises(ValueError):
        quadratic_twist(c, 0)


@pytest.mark.parametrize(
    "a, b, vdisc, defect",
    [
        (11**2, 11, 2, 6),
        (11, 11**2, 3, 4),
        (11**3, 11**2, 4, 3),
        (11**3, 11**4, 8, 3),
        (11**3, 11**5, 9, 4),
        (11**4, 11**5, 10, 6),
    ],
)
def test_semistability_defect_table(a, b, vdisc, defect):
    data = semistability_defect(WeierstrassCurve(11, a, b))
    assert data.v_min_discriminant == vdisc
    assert data.defect == defect
    assert data.potential_type == GOOD_SUPERSINGULAR
    assert data.supersingular


def test_semistability_defect_reduces_first():
    # Non-minimal model: same defect as its minimal model.
    c = WeierstrassCurve(11, 11**7, 11**8)
    data = semistability_defect(c)
    assert data.v_min_discriminant == 4
    assert data.defect == 3
    assert (data.minimal.a, data.minimal.b) == (11**3, 11**2)


def test_hasse_residue_values():
    # (x^3 + 1)^2 has no x^4 term mod 5: supersingular.
    assert hasse_residue(0, 1, 5) == 0
    # (x^3 + x + 1)^5 has x^10 coefficient 20 over Z: ordinary at 11.
    assert hasse_residue(1, 1, 11) == 20 % 11
    with pytest.raises(ValueError):
        hasse_residue(Fraction(1, 11), 1, 11)


def test_good_reduction_branches_use_hasse():
    ss = semistability_defect(WeierstrassCurve(5, 0, 1))
    assert ss.defect == 1 and ss.supersingular
    assert ss.potential_type == GOOD_SUPERSINGULAR
    ord_ = semistability_defect(WeierstrassCurve(11, 1, 1))
    assert ord_.defect == 1 and not ord_.supersingular
    assert ord_.potential_type == GOOD_ORDINARY


def test_quadratic_defect_uses_twisted_hasse():
    data = semistability_defect(WeierstrassCurve(11, 0, 11**3))
    assert data.defect == 2
    assert data.supersingular
    assert data.potential_type == GOOD_SUPERSINGULAR


def test_multiplicative_defects():
    # 4 + 27*9 = 247 = 13*19, so v(j) = -1.
    one = semistability_defect(WeierstrassCurve(13, 1, 3))
    assert one.potential_type == MULTIPLICATIVE
    assert one.defect == 1 and not one.supersingular
    two = semistability_defect(quadratic_twist(WeierstrassCurve(13, 1, 3), 13))
    assert two.potential_type == MULTIPLICATIVE
    assert two.defect == 2


def test_good_model_over_L_deep_ramification_example():
    c = WeierstrassCurve(11, 11**3, 11**2)
    model = good_model_over_L(c, 3)
    # u = pi_3: A_L = p*pi^2 and B_L = 1, both exact.
    assert model.b.as_padic_scalar().lift_fraction() == 1
    assert model.b.pi_precision() == INFINITY
    assert model.a.coords[2].lift_fraction() == 11
    assert model.a.valuation() == Fraction(5, 3)
    assert model.b.valuation() == 0


def test_good_model_over_L_e4():
    c = WeierstrassCurve(11, 11, 11**2)  # v(disc) = 3, defect 4
    model = good_model_over_L(c, 4)
    assert model.a.valuation() == 0
    assert model.b.valuation() == Fraction(2, 4)


def test_good_model_scales_unit_denominators_exactly():
    c = WeierstrassCurve(11, Fraction(11**3, 5), 11**2)
    assert c.v_discriminant == 4
    model = good_model_over_L(c, 3)
    assert model.a.pi_precision() == model.b.pi_precision() == INFINITY
    assert model.a.valuation() == Fraction(5, 3)
    # lam = 5 and u = pi_3: the pi-monomials of (5**4 a, 5**6 b) over u**4, u**6.
    want = [
        EisensteinElement.pi_monomial(PadicScalar.from_rational(q, 11, INFINITY), power, 3)
        for q, power in ((5**4 * c.a, -4), (5**6 * c.b, -6))
    ]
    assert list(model) == want
    # pi**3 = -11: A_L = 5**3 * 11 * pi**2 and B_L = 5**6.
    assert model.a.coords[2].lift_fraction() == 5**3 * 11
    assert model.b.as_padic_scalar().lift_fraction() == 5**6


def test_good_model_rejections():
    c = WeierstrassCurve(11, 11**3, 11**2)
    with pytest.raises(NormalizationError):
        good_model_over_L(c, 5)
    with pytest.raises(NormalizationError):
        good_model_over_L(c, 4)  # defect is 3
    with pytest.raises(NormalizationError):
        good_model_over_L(WeierstrassCurve(13, 1, 3), 3)  # multiplicative
    with pytest.raises(NormalizationError):
        # defect 3 but 3 does not divide 13 + 1: ordinary, no L-model
        good_model_over_L(WeierstrassCurve(13, 13**3, 13**2), 3)


def test_vp_utility_on_curve():
    c = WeierstrassCurve(11, 11**3, 11**2)
    assert c.v(Fraction(11, 5)) == 1
    assert c.v(0) == INFINITY
    assert vp(Fraction(5, 11), 11) == -1
