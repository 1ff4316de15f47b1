"""Tests for the two formal-group-logarithm routes and their agreement."""

import functools
import math
import random
from fractions import Fraction

import pytest

from padic_cartan.curve import WeierstrassCurve, good_model_over_L
from padic_cartan.eisenstein import EisensteinElement
from padic_cartan.errors import NormalizationError, PrecisionError
from padic_cartan.formal_log import (
    hasse_invariant,
    odd_coefficient_valuation,
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from padic_cartan.padic import INFINITY, PadicScalar


A, B = Fraction(2, 7), Fraction(-3, 5)


def test_low_index_closed_forms():
    assert yasuda_coefficient_exact(A, B, 1) == 1
    assert yasuda_coefficient_exact(A, B, 3) == 0
    assert yasuda_coefficient_exact(A, B, 5) == 2 * A / 5
    assert yasuda_coefficient_exact(A, B, 7) == 3 * B / 7
    assert yasuda_coefficient_exact(A, B, 9) == 2 * A**2 / 3
    assert yasuda_coefficient_exact(A, B, 11) == 20 * A * B / 11


@pytest.mark.parametrize("r", [1, 3, 5, 7, 9, 13, 19, 25, 11**4, 11**4 + 4])
def test_exact_route_with_a_zero_coefficient(r):
    # A = 0 leaves the m = 0 term: d_r = C(3n, n) B**n / r when r = 6n + 1.
    # B = 0 leaves the n = 0 term: d_r = C(2m, m) A**m / r when r = 4m + 1.
    N = (r - 1) // 2
    want_a0 = math.comb(N, N // 3) * B ** (N // 3) / r if N % 3 == 0 else 0
    want_b0 = math.comb(N, N // 2) * A ** (N // 2) / r if N % 2 == 0 else 0
    assert yasuda_coefficient_exact(0, B, r) == want_a0
    assert yasuda_coefficient_exact(A, 0, r) == want_b0


def test_even_or_nonpositive_indices_rejected():
    for bad in (0, -1, 2, 6):
        with pytest.raises(ValueError):
            yasuda_coefficient_exact(A, B, bad)
        with pytest.raises(ValueError):
            yasuda_coefficient(
                PadicScalar.from_rational(1, 5, 8),
                PadicScalar.from_rational(1, 5, 8),
                bad,
                4,
            )


def test_series_route_matches_exact_route():
    rng = random.Random(7)
    for _ in range(5):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if -16 * (4 * a**3 + 27 * b**2) == 0:
            continue
        prefix = series_inversion_logarithm(a, b, 31)
        assert len(prefix) == 32
        for r in range(1, 32, 2):
            assert prefix.d(r) == yasuda_coefficient_exact(a, b, r)
        for r in range(2, 32, 2):
            assert prefix.d(r) == 0


def test_series_route_matches_bounded_route_over_Qp():
    p = 11
    a = PadicScalar.from_rational(4, p, 8)
    b = PadicScalar.from_rational(9, p, 8)
    prefix = series_inversion_logarithm(a, b, 41)
    for r in range(1, 42, 2):
        assert prefix.d(r) == yasuda_coefficient(a, b, r, 8)


def test_series_caps():
    with pytest.raises(ValueError):
        series_inversion_logarithm(A, B, 501)
    with pytest.raises(ValueError):
        series_inversion_logarithm(A, B, 0)
    # force=True bypasses the cap gate (kept small here for speed)
    assert series_inversion_logarithm(A, B, 5, force=True).d(5) == 2 * A / 5


def test_exact_route_cap():
    with pytest.raises(ValueError):
        yasuda_coefficient_exact(A, B, 2 * 10**4 + 3)


def test_unit_coefficients_hit_generic_cap():
    a = PadicScalar.from_rational(1, 5, 8)
    b = PadicScalar.from_rational(2, 5, 8)
    with pytest.raises(PrecisionError):
        yasuda_coefficient(a, b, 6003, 8)


def test_precision_zero_coefficient_rejected():
    a = PadicScalar.zero_to_precision(5, 3)
    b = PadicScalar.from_rational(1, 5, 8)
    with pytest.raises(PrecisionError):
        yasuda_coefficient(a, b, 5, 4)


def test_hasse_invariant_is_p_times_dp():
    rng = random.Random(3)
    for p in (5, 7, 11):
        for _ in range(4):
            a = Fraction(rng.randint(-9, 9))
            b = Fraction(rng.randint(-9, 9))
            if -16 * (4 * a**3 + 27 * b**2) == 0:
                continue
            assert hasse_invariant(a, b, p) == p * yasuda_coefficient_exact(a, b, p)


def test_hasse_invariant_typed_inputs():
    a = PadicScalar.from_rational(1, 11, 6)
    b = PadicScalar.from_rational(1, 11, 6)
    h = hasse_invariant(a, b)
    assert isinstance(h, PadicScalar)
    assert h.is_congruent(hasse_invariant(Fraction(1), Fraction(1), 11) % 11**6)
    with pytest.raises(ValueError):
        hasse_invariant(a, b, 13)


def test_cm_coefficients_vanish_on_both_routes():
    prefix = series_inversion_logarithm(Fraction(0), Fraction(1), 25)
    for r in range(1, 26, 2):
        want = yasuda_coefficient_exact(0, 1, r)
        assert prefix.d(r) == want
        if ((r - 1) // 2) % 3:
            assert want == 0
    zero = EisensteinElement.zero(11, 3)
    one = EisensteinElement.from_rational(1, 11, 3, INFINITY)
    assert yasuda_coefficient(zero, one, 5, 12).is_exact_zero


def test_first_log_coefficient_of_normalized_L_model():
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    d_p = yasuda_coefficient(model.a, model.b, 11, 12)
    assert d_p.pi_precision() == INFINITY
    assert d_p.coords[2].lift_fraction() == 20
    assert d_p.valuation() == Fraction(2, 3)


def test_odd_coefficient_valuation_predictions():
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    assert odd_coefficient_valuation(model.a, model.b, 0) == Fraction(2, 3)
    assert odd_coefficient_valuation(model.a, model.b, 1) == Fraction(-1, 3)
    d_p3 = yasuda_coefficient(model.a, model.b, 11**3, 12)
    assert d_p3.valuation() == Fraction(-1, 3)


def test_odd_coefficient_valuation_e4_and_cm():
    model = good_model_over_L(WeierstrassCurve(11, 11, 11**2), 4)
    assert odd_coefficient_valuation(model.a, model.b, 0) == Fraction(-1, 2)
    zero = EisensteinElement.zero(11, 3)
    one = EisensteinElement.from_rational(1, 11, 3, INFINITY)
    assert odd_coefficient_valuation(zero, one, 2) == INFINITY


def test_odd_coefficient_valuation_rejections():
    one3 = EisensteinElement.from_rational(1, 11, 3, INFINITY)
    pi2 = EisensteinElement.pi_monomial(
        PadicScalar.from_rational(11, 11, INFINITY), 2, 3
    )
    with pytest.raises(ValueError):
        odd_coefficient_valuation(one3, one3, -1)
    with pytest.raises(NormalizationError):
        odd_coefficient_valuation(one3, pi2, 0)  # v(B_L) != 0 with e = 3
    one4 = EisensteinElement.from_rational(1, 11, 4, INFINITY)
    pi4 = EisensteinElement.pi_monomial(
        PadicScalar.from_rational(1, 11, INFINITY), 1, 4
    )
    with pytest.raises(NormalizationError):
        odd_coefficient_valuation(pi4, one4, 0)  # v(A_L) != 0 with e = 4


@functools.lru_cache(maxsize=None)
def _multinomial(N, m, n):
    """N! / ((m + 2n)! m! n!) as an exact integer."""
    return math.comb(N, m) * math.comb(N - m, n)


def _oracle_sum(A, B, j, target):
    """d_r for r = p**j from unreduced powers A**m * B**n, and its precision.

    Only terms whose valuation bound m*v(A) + n*v(B) - v_p(r) already reaches
    the target are left out (multinomials are integral), so the sum is the true
    d_r modulo pi**target, or in full when nothing was left out.  Returns the
    sum and the pi-precision it supports.
    """
    e, p = A.ram_index, A.prime
    wA, wB = int(e * A.valuation()), int(e * B.valuation())  # pi-digits
    r = p**j
    N = (r - 1) // 2
    total = EisensteinElement.zero(p, e)
    left_out = False
    for m in range((2 * N) % 3, N // 2 + 1, 3):
        n = (N - 2 * m) // 3
        if m * wA + n * wB - e * j >= target:
            left_out = True
            continue
        total = total + _multinomial(N, m, n) * (A**m) * (B**n) / r
    supported = total.pi_precision()
    return total, (min(supported, target) if left_out else supported)


@pytest.mark.parametrize(
    "a, b, e",
    [
        (11**3, 11**2, 3),
        (4 * 11**3 + 11**5, 2 * 11**2, 3),
        (11, 11**2, 4),
        (7 * 11**3, 3 * 11**6, 4),
        (5 * 11**2, 11, 6),
        (11**5, 7 * 11**5, 6),
        (Fraction(11**3, 7), Fraction(11**2, 5), 3),  # unit denominators
    ],
)
def test_bounded_sum_matches_exact_powers(a, b, e):
    p = 11
    model = good_model_over_L(WeierstrassCurve(p, a, b), e)
    exact_inputs = model.a.pi_precision() == model.b.pi_precision() == INFINITY
    bounded = 0
    for target in (2, e + 1, 12):
        for j in range(2, 6):
            got = yasuda_coefficient(model.a, model.b, p**j, target)
            want, supported = _oracle_sum(model.a, model.b, j, target)
            prec = got.pi_precision()
            # Never claims more than the exact sum supports, never less than
            # the target allows.
            assert prec <= supported, (target, j, prec, supported)
            assert prec >= min(supported, target), (target, j, prec, supported)
            if prec == INFINITY:
                assert (got - want).is_exact_zero
            else:
                assert got.is_congruent(want, prec)
                bounded += 1
    if exact_inputs:
        assert bounded  # the reduced-precision path was exercised
