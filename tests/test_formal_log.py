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
    _admissible_pairs,
    hasse_invariant,
    odd_coefficient_valuation,
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from padic_cartan.padic import INFINITY, PadicScalar, multinomial_exact, multinomial_padic


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


def _per_term_sum(A, B, r):
    """d_r as the plain multinomial sum over Fractions, no integral model."""
    N = (r - 1) // 2
    total = Fraction(0)
    for m in range(N // 2 + 1):
        n, rest = divmod(N - 2 * m, 3)
        if rest == 0:
            total += math.comb(N, m) * math.comb(N - m, n) * A**m * B**n
    return total / r


@pytest.mark.parametrize(
    "a, b",
    [
        (Fraction(-17, 23), Fraction(5, 37)),  # the benchmark's denominators
        (Fraction(11, 29), Fraction(-7, 31)),
        (Fraction(-4, 31), Fraction(-9, 23)),
        (Fraction(3, 11**4), Fraction(-5, 11**6)),  # p-power denominators
        (0, Fraction(-89, 29)),  # a = 0
        (Fraction(73, 37), 0),  # b = 0
        (-3, -7),
    ],
)
def test_exact_route_matches_per_term_sum(a, b):
    # Every odd r <= 301, with the indices that admit no pair or one pair.
    for r in range(1, 302, 2):
        assert yasuda_coefficient_exact(a, b, r) == _per_term_sum(Fraction(a), Fraction(b), r), r


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
    curves = [
        (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
         Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        for _ in range(5)
    ]
    curves += [
        (Fraction(3, 4), Fraction(-5, 8)),  # denominators sharing factors
        (Fraction(-7, 4), Fraction(1, 8)),
        (Fraction(3, 11**4), Fraction(-5, 11**6)),  # p-power denominators
        (Fraction(-2, 11**3), Fraction(7, 11)),
        (0, Fraction(-89, 29)),  # a = 0
        (Fraction(73, 31), 0),  # b = 0
        (5, -17),  # plain ints
        (-1331, -121),
    ]
    for a, b in curves:
        if 4 * Fraction(a) ** 3 + 27 * Fraction(b) ** 2 == 0:
            continue
        prefix = series_inversion_logarithm(a, b, 121)
        assert len(prefix) == 122
        for r in range(1, 122, 2):
            got = prefix.d(r)
            assert type(got) is Fraction and got == yasuda_coefficient_exact(a, b, r), (a, b, r)
        for r in range(0, 122, 2):
            assert type(prefix.d(r)) is Fraction and prefix.d(r) == 0, (a, b, r)
    # One curve at r = 501, past the default cap, with the benchmark's denominators.
    a, b = Fraction(-17, 23), Fraction(5, 37)
    prefix = series_inversion_logarithm(a, b, 501, force=True)
    for r in range(1, 502, 2):
        assert prefix.d(r) == yasuda_coefficient_exact(a, b, r), r


@pytest.mark.parametrize(
    "a, b, lam",
    [
        (Fraction(2, 7), Fraction(-3, 5), 3),  # integer lam
        (Fraction(2, 7), Fraction(-3, 5), Fraction(2, 3)),
        (Fraction(3), Fraction(-5), Fraction(1, 11)),  # (3/11^4, -5/11^6)
        (Fraction(0), Fraction(7, 2), Fraction(-5, 4)),
    ],
)
def test_weighted_homogeneity_over_Q(a, b, lam):
    # t -> lam*t maps (a, b) to (lam^4 a, lam^6 b) and d_r to lam^(r-1) d_r.
    scaled_a, scaled_b = lam**4 * a, lam**6 * b
    prefix = series_inversion_logarithm(a, b, 61)
    scaled = series_inversion_logarithm(scaled_a, scaled_b, 61)
    for r in range(1, 62, 2):
        assert scaled.d(r) == lam ** (r - 1) * prefix.d(r), r
        want = lam ** (r - 1) * yasuda_coefficient_exact(a, b, r)
        assert yasuda_coefficient_exact(scaled_a, scaled_b, r) == want, r
    assert any(prefix.d(r) != 0 for r in range(3, 62, 2))


def test_series_route_matches_bounded_route_over_Qp():
    p = 11
    a = PadicScalar.from_rational(4, p, 8)
    b = PadicScalar.from_rational(9, p, 8)
    prefix = series_inversion_logarithm(a, b, 41)
    for r in range(1, 42, 2):
        assert prefix.d(r) == yasuda_coefficient(a, b, r, 8)


@pytest.mark.parametrize(
    "a, b, e",
    [(5 * 11**3 + 11**4, 3 * 11**2, 3), (11, 2 * 11**3, 4), (2 * 11**4, 3 * 11, 6)],
)
def test_series_route_matches_bounded_route_over_L(a, b, e):
    # Exact L coordinates cannot be divided by a p-free r, so the good model
    # is truncated first; 30 pi-digits leave both routes above the target.
    model = good_model_over_L(WeierstrassCurve(11, a, b), e)
    A, B = model.a.truncate_pi(30), model.b.truncate_pi(30)
    prefix = series_inversion_logarithm(A, B, 119)
    nonzero = 0
    for r in range(1, 120, 2):
        got, want = prefix.d(r), yasuda_coefficient(A, B, r, 12)
        assert min(got.pi_precision(), want.pi_precision()) >= 12, r
        assert got.is_congruent(want, 12), (r, got, want)
        nonzero += not want.is_congruent(0, 12)
    assert nonzero > 10


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


def _no_work(*args, **kwargs):
    raise AssertionError("forbidden arithmetic ran")


def test_work_budget_refuses_before_any_arithmetic(monkeypatch):
    # Example 1 at k = 67 (beta to pi^200): d_{p^135} at ~410 pi-digits.
    a_l, b_l = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", _no_work)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_padic", _no_work)
    monkeypatch.setattr(EisensteinElement, "__pow__", _no_work)
    monkeypatch.setattr(EisensteinElement, "__mul__", _no_work)
    with pytest.raises(PrecisionError, match="budget"):
        yasuda_coefficient(a_l, b_l, 11**135, 2)


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


def test_cm_lift_past_the_exact_multinomial_cap():
    # A = 0 leaves the single term (m, n) = (0, N/3); A**0 = 1 must not take
    # v(A) = inf into the term's valuation.
    p, r = 23, 23**4
    model = good_model_over_L(WeierstrassCurve(p, 0, 2 * p**2), 3)
    assert model.a.is_exact_zero and model.b.as_padic_scalar().lift_fraction() == 2
    got = yasuda_coefficient(model.a, model.b, r, 4)
    N = (r - 1) // 2
    n = N // 3
    want = Fraction(math.comb(N, n) * 2**n, r)  # C(N; 2n, 0, n) = C(N, n)
    assert got.is_congruent(EisensteinElement.from_rational(want, p, 3, INFINITY), 4)
    assert not got.is_congruent(0, 4)


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


def test_truncated_sums_take_no_exact_multinomial(monkeypatch):
    # d at r = 11**3 (N = 665, under the exact cap) drops terms, so each
    # multinomial is needed only to a few digits.
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", _no_work)
    got = yasuda_coefficient(model.a, model.b, 11**3, 4)
    want, supported = _oracle_sum(model.a, model.b, 3, 4)
    assert supported == got.pi_precision() == 4 and got.is_congruent(want, 4)


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


# -- pi-digit bookkeeping against Fraction valuations ------------------------


def _pairs_by_fractions(N, vA, vB, threshold):
    """_admissible_pairs on Fraction valuations (v = pi-digits / e)."""
    if vA == INFINITY and vB == INFINITY:
        return [], False
    if vA == INFINITY:
        return ([(0, N // 3)] if N % 3 == 0 else []), False
    if vB == INFINITY:
        return ([(N // 2, 0)] if N % 2 == 0 else []), False
    all_pairs = [(m, (N - 2 * m) // 3) for m in range(N // 2 + 1) if (N - 2 * m) % 3 == 0]
    if vA == 0 and vB == 0:
        return all_pairs, False
    if 3 * vA < 2 * vB:
        all_pairs.reverse()  # increasing m*vA + n*vB
    out, over = [], 0
    for m, n in all_pairs:
        if m * vA + n * vB > threshold:
            over += 1
            if over == 2:
                return out, True
        out.append((m, n))
    return out, False


def _v(n, p):
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _grid(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        e = rng.choice((1, 3, 4, 6))
        wA, wB = (rng.choice([INFINITY] + list(range(3 * e))) for _ in range(2))
        yield e, rng.randrange(1, 400), wA, wB, rng.randrange(1, 3 * e + 3), rng.randrange(3)


def test_admissible_pairs_in_pi_digits_match_fractions():
    for e, N, wA, wB, target, vr in _grid(13, 400):
        vA, vB = (w if w == INFINITY else Fraction(w, e) for w in (wA, wB))
        want = _pairs_by_fractions(N, vA, vB, Fraction(target, e) + vr)
        assert _admissible_pairs(N, wA, wB, target + e * vr) == want, (e, N, wA, wB, target, vr)


def test_kept_terms_and_digits_match_fractions(monkeypatch):
    # Which multinomials a sum takes, and to how many p-digits, against the
    # same bookkeeping in Fractions: v(term) = v(C) + m v(A) + n v(B) - v(r),
    # kept below target / e, to ceil(target / e - v(term)) digits.
    calls = []

    def padic(N, parts, p, digits):
        calls.append((parts, digits))
        return multinomial_padic(N, parts, p, digits)

    def exact(N, parts):
        calls.append((parts, None))
        return multinomial_exact(N, parts)

    monkeypatch.setattr("padic_cartan.formal_log.multinomial_padic", padic)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", exact)
    p, rng, truncated = 5, random.Random(17), 0
    for e, N, wA, wB, target, vr in _grid(19, 400):
        if wA == INFINITY or wB == INFINITY or wA == wB == 0:
            continue
        r = 2 * N + 1
        A, B = (
            PadicScalar(p, rng.randrange(1, p), w, INFINITY) if e == 1
            else EisensteinElement.pi_monomial(PadicScalar(p, rng.randrange(1, p), 0, INFINITY), w, e)
            for w in (wA, wB)
        )
        pairs, dropped = _pairs_by_fractions(N, Fraction(wA, e), Fraction(wB, e),
                                             Fraction(target, e) + _v(r, p))
        kept = []
        for m, n in pairs:
            v_term = (_v(_multinomial(N, m, n), p) + Fraction(m * wA + n * wB, e) - _v(r, p))
            if v_term >= Fraction(target, e):
                dropped = True
            else:
                kept.append(((m + 2 * n, m, n), max(1, math.ceil(Fraction(target, e) - v_term))))
        if not dropped:
            kept = [(parts, None) for parts, _ in kept]
        calls.clear()
        yasuda_coefficient(A, B, r, target)
        assert calls == kept, (e, N, wA, wB, target)
        truncated += dropped and bool(kept)
    assert truncated >= 20
