"""Tests for Weierstrass models: invariants, reduction type, L-normalization."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

import padic_cartan.curve as curve_module
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


def test_hasse_residue_values(monkeypatch):
    # (x^3 + 1)^2 has no x^4 term mod 5: supersingular.
    assert hasse_residue(0, 1, 5) == 0
    # (x^3 + x + 1)^5 has x^10 coefficient 20 over Z: ordinary at 11.
    assert hasse_residue(1, 1, 11) == 20 % 11
    with pytest.raises(ValueError):
        hasse_residue(Fraction(1, 11), 1, 11)

    # Priced from p before the table: 3999971 and 4000037 are consecutive primes
    # on either side of 2 * _HASSE_BUDGET + 1, and every loop of curve.py fails.
    def no_loop(*args):
        raise AssertionError("the table loop ran")

    assert (3999971 - 1) // 2 <= curve_module._HASSE_BUDGET < (4000037 - 1) // 2
    monkeypatch.setattr(curve_module, "range", no_loop, raising=False)
    for p, M in ((4000037, 2000018), (10**9 + 7, 500000003)):
        with pytest.raises(ValueError, match=rf"^the Hasse invariant at p = {p} needs {M} "):
            hasse_residue(1, 1, p)
        with pytest.raises(ValueError, match=rf"needs {M} factorials mod p, over the budget"):
            semistability_defect(WeierstrassCurve(p, 1, 1))  # defect 1: the Hasse test
    with pytest.raises(AssertionError, match="the table loop ran"):  # within the budget
        hasse_residue(1, 1, 3999971)


def _hasse_by_factorial_table(a, b, p):
    """The x**(p-1) coefficient mod p, one multinomial per term from a table of
    the factorials 0!, ..., ((p-1)/2)! mod p."""
    M = (p - 1) // 2
    fact = [1] * (M + 1)
    for i in range(1, M + 1):
        fact[i] = fact[i - 1] * i % p
    total = 0
    for i in range((p + 2) // 4, (p - 1) // 3 + 1):
        j, k = p - 1 - 3 * i, 2 * i - M
        term = fact[M] * pow(fact[i] * fact[j] * fact[k], -1, p) * pow(a, j, p) * pow(b, k, p)
        total = (total + term) % p
    return total


def test_hasse_residue_matches_the_factorial_table_and_the_expansion():
    rng = random.Random(27)
    primes = [q for q in range(5, 6000) if all(q % d for d in range(2, int(q**0.5) + 1))]
    for n in range(300):
        p = rng.choice(primes[:40] if n % 3 == 0 else primes)
        a, b = (rng.choice((0, rng.randrange(1, p))) + p * rng.randrange(-50, 50)
                for _ in range(2))
        den = rng.choice((1, 2, 7)) if p != 7 else 1
        residues = [(c * pow(den, -1, p)) % p for c in (a, b)]
        want = _hasse_by_factorial_table(*residues, p)
        assert hasse_residue(Fraction(a, den), Fraction(b, den), p) == want, (a, b, den, p)
        if p < 200:
            assert want == _hasse_by_expansion(*residues, p)


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


# (p, v(a), v(b), kind) of the shallow-batch corpus shapes that have a good model
# over L: integral lifts, CM lifts (a = 0 or b = 0), the canonical-subgroup gate,
# small primes, and unit and p-power denominators; None is an exact 0.
_L_SHAPES = (
    (11, 3, 2, None), (11, 4, 4, None), (11, 5, 4, None), (11, 4, 2, None), (11, 2, 1, None),
    (11, 5, 5, None), (11, 1, 3, None), (11, 3, 6, None), (11, None, 2, None),
    (11, None, 1, None), (11, 1, None, None), (11, 3, None, None), (11, 2, 2, None),
    (11, 3, 4, None), (11, 1, 2, None), (5, 3, 2, None), (7, 1, 3, None), (5, 2, 1, None),
    (11, 3, 2, "unit_den"), (11, 2, 1, "unit_den"), (11, 1, 3, "p_den"), (11, 5, 4, "p_den"),
)


def test_good_model_matches_the_public_route():
    # The model's forms, repr and JSON against from_rational(...).mul_pi_power(...)
    # on one seeded curve of each shape, drawn as the corpus draws them, either sign.
    from padic_cartan.classifier import _eisenstein_json

    def unit(p):
        return rng.choice((1, -1)) * (rng.randrange(1, p) + p * rng.randrange(p * p // 2, p * p))

    rng, seen = random.Random(26), set()
    for p, va, vb, kind in _L_SHAPES:
        a = Fraction(0) if va is None else Fraction(unit(p) * p**va)
        b = Fraction(0) if vb is None else Fraction(unit(p) * p**vb)
        if kind == "unit_den":
            a, b = a / rng.choice((2, 3, 7, 97)), b / rng.choice((4, 13, 19, 89))
        elif kind == "p_den":
            a, b = a / p**4, b / p**6
        c = WeierstrassCurve(p, a, b)
        e = c.reduction.defect
        model = good_model_over_L(c, e)
        minimal, s = c.reduction.minimal, e * c.reduction.v_min_discriminant // 12
        lam = minimal.a.denominator * minimal.b.denominator // gcd(minimal.a.denominator,
                                                                   minimal.b.denominator)
        want = [EisensteinElement.from_rational(q, p, e, INFINITY).mul_pi_power(-k * s)
                for q, k in ((lam**4 * minimal.a, 4), (lam**6 * minimal.b, 6))]
        for got, ref in zip(model, want):
            assert (got.form, repr(got), _eisenstein_json(got)) == (
                ref.form, repr(ref), _eisenstein_json(ref)), (p, a, b)
        seen |= {f"e={e}", kind or "integral"}
        seen |= {"a = 0"} if a == 0 else {"b = 0"} if b == 0 else set()
        seen |= {"negative"} if a < 0 or b < 0 else set()
    assert seen == {"e=3", "e=4", "e=6", "integral", "unit_den", "p_den", "a = 0", "b = 0",
                    "negative"}


def test_good_model_rejections():
    c = WeierstrassCurve(11, 11**3, 11**2)
    with pytest.raises(NormalizationError):
        good_model_over_L(c, 5)
    with pytest.raises(NormalizationError):
        good_model_over_L(c, 4)  # defect is 3
    with pytest.raises(NormalizationError):
        good_model_over_L(WeierstrassCurve(13, 1, 3), 3)  # multiplicative
    with pytest.raises(NormalizationError) as refused:
        # defect 3 but 3 does not divide 13 + 1: ordinary, no L-model
        good_model_over_L(WeierstrassCurve(13, 13**3, 13**2), 3)
    assert str(refused.value) == "e=3 does not divide p+1=14; reduction is not supersingular"


def test_vp_utility_on_curve():
    assert vp(Fraction(11, 5), 11) == 1
    assert vp(0, 11) == INFINITY
    assert vp(Fraction(5, 11), 11) == -1


def _hasse_by_expansion(a, b, p):
    """x**(p-1) coefficient of (x**3 + a x + b)**((p-1)/2) mod p, by expansion."""
    poly = [1]
    for _ in range((p - 1) // 2):
        out = [0] * (len(poly) + 3)
        for i, c in enumerate(poly):
            for j, t in ((0, b), (1, a), (3, 1)):
                out[i + j] = (out[i + j] + c * t) % p
        poly = out
    return poly[p - 1]


def _reference_reduction(c):
    """ReductionData fields restated from vp of the Fraction invariants."""
    p = c.prime
    scales = [vp(c.a, p) // 4] if c.a else []
    scales += [vp(c.b, p) // 6] if c.b else []
    s = Fraction(p) ** min(scales)
    a, b = c.a / s**4, c.b / s**6
    vmin = vp(-16 * (4 * a**3 + 27 * b**2), p)
    if vp(c.j_invariant, p) < 0:
        return (a, b), (1 if vp(a, p) == 0 else 2), vmin, MULTIPLICATIVE, False
    defect = 12 // gcd(12, vmin)
    if defect in (3, 4, 6):
        ss = (p + 1) % defect == 0
    else:
        good = (a, b) if defect == 1 else _reference_reduction(
            WeierstrassCurve(p, p**2 * a, p**3 * b))[0]
        residues = [q.numerator * pow(q.denominator, -1, p) % p for q in good]
        ss = _hasse_by_expansion(*residues, p) == 0
    return (a, b), defect, vmin, (GOOD_SUPERSINGULAR if ss else GOOD_ORDINARY), ss


def _oracle_draws(rng, p):
    """Seeded (a, b) over Q_p in the shapes the integer valuations must handle."""
    def unit():
        return rng.choice((-1, 1)) * rng.randrange(1, p**3) * rng.choice((1, p + 1))

    def prime_to_p():
        while True:
            d = rng.randrange(2, 10**4)
            if d % p:
                return d

    draws = []
    for _ in range(40):
        va, vb = rng.randrange(-8, 13), rng.randrange(-8, 13)
        a, b = unit() * Fraction(p) ** va, unit() * Fraction(p) ** vb
        draws += [(a, b), (a, 0), (0, b)]  # lifts, p-power denominators, a = 0, b = 0
        draws.append((a / prime_to_p(), b / prime_to_p()))  # unit denominators
        # 4a**3 + 27b**2 = 27 delta (4 s**3 + delta) for a = -3s**2, b = 2s**3 + delta:
        # 3v(a) = 2v(b), and v(disc) exceeds their minimum when v(delta) > 3v(s).
        s = unit() * Fraction(p) ** rng.randrange(-3, 4) / rng.choice((1, prime_to_p()))
        delta = unit() * Fraction(p) ** (3 * vp(s, p) + rng.randrange(0, 9))
        draws.append((-3 * s**2, 2 * s**3 + delta))
        u = rng.randrange(1, p)  # multiplicative: v(j) < 0 with v(a) = 0
        draws.append((-3 * u**2, 2 * u**3 + p ** rng.randrange(1, 5) * unit()))
    return draws


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23])
def test_integer_invariants_match_the_fraction_definitions(p):
    rng = random.Random(2200 + p)
    for a, b in _oracle_draws(rng, p):
        c = WeierstrassCurve(p, a, b)
        assert (c.v_a, c.v_b) == (vp(c.a, p), vp(c.b, p))
        assert c.v_discriminant == vp(c.discriminant, p), (p, a, b)
        assert c.v_j == vp(c.j_invariant, p), (p, a, b)
        assert c.v_j_minus_1728 == vp(c.j_minus_1728, p), (p, a, b)
        (ma, mb), defect, vmin, kind, ss = _reference_reduction(c)
        m = minimal_model(c)
        assert (m.a, m.b) == (ma, mb), (p, a, b)
        assert m.v_discriminant == vp(m.discriminant, p) == vmin
        data = semistability_defect(c)
        assert (data.minimal.a, data.minimal.b) == (ma, mb)
        assert (data.defect, data.v_min_discriminant, data.potential_type, data.supersingular) == (
            defect, vmin, kind, ss), (p, a, b)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 23])
def test_singular_scalings_raise_with_the_discriminant_message(p):
    rng = random.Random(2300 + p)
    for u in [1, -1, p, Fraction(1, p), Fraction(p**2, 7 if p != 7 else 5)] + [
        Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**3)) * p ** rng.randrange(-5, 6)
        for _ in range(20)
    ]:
        a, b = -3 * Fraction(u) ** 2, 2 * Fraction(u) ** 3
        message = f"discriminant vanishes for a={a}, b={b}"
        with pytest.raises(SingularCurveError, match=f"^{re.escape(message)}$"):
            WeierstrassCurve(p, a, b)
