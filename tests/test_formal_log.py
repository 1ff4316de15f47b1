"""Tests for the two formal-group-logarithm routes and their agreement."""

import collections
import functools
import math
import random
import re
from fractions import Fraction

import pytest

from padic_cartan.curve import WeierstrassCurve, good_model_over_L
from padic_cartan.eisenstein import EisensteinElement
from padic_cartan.errors import NormalizationError, PrecisionError
from padic_cartan.formal_log import (
    _square_step,
    _sum_plan,
    hasse_invariant,
    odd_coefficient_valuation,
    recurrence_logarithm,
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from padic_cartan.padic import (
    INFINITY, PadicScalar, _coordinate, multinomial_exact, multinomial_padic)


A, B = Fraction(2, 7), Fraction(-3, 5)


def test_yasuda_coefficient_refuses_mixed_fields():
    # A is 1 over Q_11(pi_3); B lies over another prime, another e, or is a scalar.
    one = EisensteinElement.from_rational(1, 11, 3, INFINITY)
    others = (EisensteinElement.from_rational(2, 13, 3, INFINITY),
              EisensteinElement.from_rational(2, 11, 4, INFINITY),
              PadicScalar.from_rational(2, 11, INFINITY))
    plans = _sum_plan.cache_info()
    for other in others:
        for A, B in ((one, other), (other, one)):
            with pytest.raises(ValueError, match="^mixed fields$"):
                yasuda_coefficient(A, B, 7, 4)
    assert _sum_plan.cache_info() == plans  # refused before any plan is read
    assert yasuda_coefficient(one, one + 1, 7, 4).prime == 11


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
        # lcm(den a, den b) < den a * den b: shared primes and prime powers
        (Fraction(5, 12), Fraction(-7, 18)),
        (Fraction(1, 8), Fraction(1, 27)),
        (Fraction(2, 49), Fraction(-3, 343)),
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
        (Fraction(5, 12), Fraction(-7, 18)),
        (Fraction(1, 8), Fraction(1, 27)),
        (Fraction(2, 49), Fraction(-3, 343)),
        (Fraction(1, 6), Fraction(1, 6)),
        (Fraction(10**20 + 7, 6), Fraction(3 - 10**20, 6)),  # huge numerators
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


def test_recurrence_prefix_matches_the_exact_sum():
    # Every odd r <= 501 against the per-r sum: seeded curves, a = 0, b = 0 (whose
    # g_N step from g_(N-2), on a = 0, integers and one- and two-prime denominators),
    # plain and negative integers, coprime and shared denominators.
    rng = random.Random(31)
    curves = [(Fraction(rng.randint(-99, 99), rng.choice((23, 29, 31, 37))),
               Fraction(rng.randint(-99, 99), rng.choice((23, 29, 31, 37)))) for _ in range(3)]
    curves += [(0, Fraction(-89, 29)), (Fraction(73, 31), 0), (5, -17), (-1331, -121),
               (Fraction(5, 12), Fraction(-7, 18)), (Fraction(-3, 11**4), Fraction(5, 11**6)),
               (Fraction(1, 6), Fraction(1, 6))]
    curves += [(a, 0) for a in (0, 1, -7, 1331, Fraction(-83, 23), Fraction(5, 12),
                                Fraction(-3, 11**4), Fraction(rng.randint(-99, 99), 29))]
    for a, b in curves:
        prefix = recurrence_logarithm(a, b, 501)
        assert len(prefix) == 502
        for r in range(1, 502, 2):
            assert prefix.d(r) == yasuda_coefficient_exact(a, b, r), (a, b, r)
        assert all(type(d) is Fraction for d in prefix.coefficients)
        assert all(prefix.d(r) == 0 for r in range(0, 502, 2))
    assert recurrence_logarithm(Fraction(2, 7), Fraction(-3, 5), 1).coefficients == (0, 1)


def test_recurrence_takes_the_sum_where_its_leading_coefficient_vanishes(monkeypatch):
    # P0 = 2N(2N-1) B (27 B^2 (2N-3) - 2 A^3 (N-1)) vanishes at N = 3 for
    # (A, B) = (9, 6), as 27*36*3 = 2*729*2, and at every N when B = 0, where
    # g_N = C(N, N/2) A^(N/2) is stepped from g_(N-2) and the sum is never asked.
    assert 27 * 6**2 * 3 == 2 * 9**3 * 2
    asked = []

    def oracle(A, B, r):
        asked.append(r)
        return yasuda_coefficient_exact(A, B, r)

    monkeypatch.setattr("padic_cartan.formal_log.yasuda_coefficient_exact", oracle)
    for (a, b), fallback in (((9, 6), [1, 3, 5, 7]), ((Fraction(-3, 4), 0), [])):
        asked.clear()
        prefix = recurrence_logarithm(a, b, 121)
        assert asked == fallback, (a, b)
        for r in range(1, 122, 2):
            assert prefix.d(r) == yasuda_coefficient_exact(a, b, r), (a, b, r)
    assert any(recurrence_logarithm(9, 6, 121).d(r) for r in (7, 9, 11))


def test_recurrence_fails_loudly_on_a_wrong_start(monkeypatch):
    # 1/5 more on d_5 is lam^2 more on g_2, which breaks the division by P0 at once.
    def off_by_one(A, B, r):
        return yasuda_coefficient_exact(A, B, r) + Fraction(r == 5, 5)

    monkeypatch.setattr("padic_cartan.formal_log.yasuda_coefficient_exact", off_by_one)
    with pytest.raises(ArithmeticError, match="g_3 of"):
        recurrence_logarithm(Fraction(2, 7), Fraction(-3, 5), 21)


def test_graded_series_on_one_sided_denominators():
    # Only den(a) or only den(b) above 1: every carry is a power of one of them.
    for a, b in ((Fraction(-83, 29), 7), (-5, Fraction(91, 37)), (Fraction(1, 6), 1)):
        prefix = series_inversion_logarithm(a, b, 501, force=True)
        assert prefix == recurrence_logarithm(a, b, 501)
        for r in range(1, 502, 2):
            assert prefix.d(r) == yasuda_coefficient_exact(a, b, r), (a, b, r)


def _cubic_series(a, b, n_terms):
    """(d_0..d_n_terms, z_0..z_s) over Q by the plain loop of the cubic
    z = 1 + A u^2 z^2 + B u^3 z^3, with no grading and no Riccati step."""
    z, z2, z3, d = [], [], [], [Fraction(0)] * (n_terms + 1)
    for s in range((n_terms + 1) // 2):
        a_s = a * z2[s - 2] if s >= 2 else 0
        b_s = b * z3[s - 3] if s >= 3 else 0
        z.append(a_s + b_s if s else Fraction(1))
        z2.append(sum(z[i] * z[s - i] for i in range(s + 1)))
        z3.append(sum(z[i] * z2[s - i] for i in range(s + 1)))
        c6 = 3 * (s + 2) * a_s + 2 * (2 * s + 3) * b_s
        d[2 * s + 1] = Fraction(c6) / (6 * (2 * s + 1)) if s else Fraction(1)
    return d, z


def _riccati_curves(seed):
    rng = random.Random(seed)
    shared = [(Fraction(rng.randint(-99, 99), d), Fraction(rng.randint(-99, 99), d))
              for d in (6, 12, 36, 11**2)]
    huge = [(Fraction(rng.randrange(-10**20, 10**20), rng.randint(1, 40)),
             Fraction(rng.randrange(-10**20, 10**20), rng.randint(1, 40))) for _ in range(3)]
    ints = [(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9) or 1)) for _ in range(2)]
    return [(Fraction(0), Fraction(-89, 29)), (Fraction(73, 31), Fraction(0)),
            (Fraction(0), Fraction(0)), (Fraction(1, 6), Fraction(1, 6)), *shared, *huge, *ints]


@pytest.mark.parametrize("n_terms", [1, 2, 3, 4, 5, 7, 41, 151])
def test_series_route_over_Q_matches_the_plain_cubic_loop(n_terms):
    # The Q route takes z from the Riccati step on graded integers (z_s = A (z^2)_(s-2)
    # when B = 0); the reference takes it from the cubic over Fractions.
    for a, b in _riccati_curves(43):
        want, _ = _cubic_series(a, b, n_terms)
        got = series_inversion_logarithm(a, b, n_terms, force=True).coefficients
        assert got == tuple(want) and all(type(d) is Fraction for d in got), (a, b)


def _times(x, y, top=60):  # the product of two coefficient lists through u^top
    return [sum(x[i] * y[k - i] for i in range(k + 1) if i < len(x) and k - i < len(y))
            for k in range(top + 1)]


def test_cubic_series_solves_the_riccati_equation():
    # Q z' + P2 z^2 + P1 z + P0 = 0 through u^60, the equation the Q route steps:
    # z' = -G_u/G_z mod G for G = B u^3 z^3 + A u^2 z^2 - z + 1, Q = -disc_z(G)/u^2.
    for A, B in _riccati_curves(60):
        _, z = _cubic_series(A, B, 123)  # z_0..z_61
        D = 4 * A**3 + 27 * B**2
        Q = [0, -4 * B, -A * A, 18 * A * B, D]
        P2, P1 = [0, 0, -A * B, -9 * B * B], [-6 * B, -2 * A * A, 15 * A * B, D]
        P0 = [6 * B, 2 * A * A]
        dz = [k * z[k] for k in range(1, len(z))]
        terms = _times(Q, dz), _times(P2, _times(z, z)), _times(P1, z), P0 + [0] * 59
        assert [sum(t) for t in zip(*terms)] == [0] * 61, (A, B)
        assert A == B == 0 or any(_times(P1, z))  # not 0 = 0 term by term


def test_cubic_series_squared_solves_the_linear_equation():
    # y = z^2: u^2 Q1 y' = 2(A + 9Bu)(z - 1 - A u^2 y) - 2u P1 y - 2u P0 z through
    # u^60 (Q = u Q1), and its u^(t+1) coefficient, the Q route's linear step for y_t.
    for A, B in _riccati_curves(60):
        _, z = _cubic_series(A, B, 123)  # z_0..z_61
        y, D = _times(z, z, 61), 4 * A**3 + 27 * B**2
        lhs = _times([0, 0, -4 * B, -A * A, 18 * A * B, D], [k * y[k] for k in range(1, 62)])
        w = [z[k] - (k == 0) - (A * y[k - 2] if k >= 2 else 0) for k in range(61)]
        terms = (_times([2 * A, 18 * B], w), _times([0, 12 * B, 4 * A * A, -30 * A * B, -2 * D], y),
                 _times([0, -12 * B, -4 * A * A], z))
        assert lhs == [sum(t) for t in zip(*terms)], (A, B)
        assert A == B == 0 or any(lhs)  # not 0 = 0 term by term
        y_ = [0, 0, 0] + y  # y_k at k + 3, zero below y_0
        for t in range(1, 59):
            assert 4 * B * (t + 3) * y[t] == -(
                2 * A * z[t + 1] + 6 * B * z[t] - 4 * A * A * z[t - 1] + A * A * (t + 1) * y[t - 1]
                - 6 * A * B * (3 * t + 2) * y_[t + 1] - D * (t - 1) * y_[t]), (A, B, t)


def test_b_zero_takes_the_catalan_closed_form():
    # z = 1 + A u^2 z^2: z_2k = Cat_k A^k, and 6 c_s = (3s+6) z_s, so d_(4k+1) =
    # (2k+2) Cat_k A^k / (2 (4k+1)) and d_(4k+3) = 0.
    curves = [(a, b) for a, b in _riccati_curves(43) if b == 0]
    assert len(curves) == 2
    for a, b in curves:
        cat = [math.comb(2 * k, k) // (k + 1) * a**k for k in range(126)]
        _, z = _cubic_series(a, b, 151)
        assert z == [0 if s % 2 else cat[s // 2] for s in range(76)], a
        d = series_inversion_logarithm(a, b, 501, force=True)
        for r in range(1, 502, 2):
            k = r // 4
            assert d.d(r) == (Fraction((2 * k + 2) * cat[k], 2 * r) if r % 4 == 1 else 0), (a, r)


def test_linear_step_fails_loudly_on_a_wrong_start(monkeypatch):
    # (z^2)_1 = 0 read as 1 moves the numerator of y_2 by -3 A^2 (carried), which
    # breaks the division by 4B(t+3) at once.
    def wrong_y1(t, z, y, *rest):
        return _square_step(t, z, [y[0], 1, *y[2:]], *rest)

    assert series_inversion_logarithm(Fraction(2, 7), Fraction(-3, 5), 21).d(21)
    monkeypatch.setattr("padic_cartan.formal_log._square_step", wrong_y1)
    with pytest.raises(ArithmeticError, match=r"^\(z\^2\)_2: the linear step does not divide$"):
        series_inversion_logarithm(Fraction(2, 7), Fraction(-3, 5), 21)


def test_series_route_over_Q_matches_the_recurrence_at_the_cap():
    for a, b in _riccati_curves(43):
        assert series_inversion_logarithm(a, b, 501) == recurrence_logarithm(a, b, 501), (a, b)


@pytest.mark.parametrize(
    "a, b, lam",
    [
        (Fraction(2, 7), Fraction(-3, 5), 3),  # lam not a square, as the last four
        # lam = s^2 is t -> s*t: (s^4 a, s^6 b), d_r -> s^(r-1) d_r
        (Fraction(2, 7), Fraction(-3, 5), Fraction(4, 9)),
        (Fraction(3), Fraction(-5), Fraction(1, 121)),  # (3/11^4, -5/11^6)
        (Fraction(0), Fraction(7, 2), Fraction(25, 16)),
        (Fraction(2, 7), Fraction(-3, 5), 9),
        # lam not a square: no t -> s*t gives these
        (Fraction(2, 7), Fraction(-3, 5), 2),
        (Fraction(11, 29), Fraction(-7, 31), Fraction(5, 7)),
        (Fraction(5, 12), Fraction(-7, 18), -1),  # the twist (a, -b)
        (Fraction(0), Fraction(-89, 29), -1),
    ],
)
def test_weighted_homogeneity_over_Q(a, b, lam):
    # u = t^2 -> lam*u maps (a, b) to (lam^2 a, lam^3 b) and d_r to
    # lam^((r-1)/2) d_r, as every term has weight 2m + 3n = (r-1)/2; the exact
    # sum and its recurrence rest on this with lam = lcm(den a, den b), and the
    # series keeps each weight-s coefficient times den(a)^(s//2) den(b)^(s//3).
    scaled_a, scaled_b = lam**2 * a, lam**3 * b
    prefix = series_inversion_logarithm(a, b, 61)
    scaled = series_inversion_logarithm(scaled_a, scaled_b, 61)
    for r in range(1, 62, 2):
        assert scaled.d(r) == lam ** (r // 2) * prefix.d(r), r
        want = lam ** (r // 2) * yasuda_coefficient_exact(a, b, r)
        assert yasuda_coefficient_exact(scaled_a, scaled_b, r) == want, r
    assert any(prefix.d(r) != 0 for r in range(3, 62, 2))
    if lam == -1:  # the sign (-1)^((r-1)/2) shows on some nonzero d_r
        assert any(scaled.d(r) == -prefix.d(r) != 0 for r in range(3, 62, 2))


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
    # The series route divides exact L coordinates by 6(2s+1), which has no
    # exact expansion, so the good model is truncated first; 30 pi-digits
    # leave both routes above the target.
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


def _embed(q, p, e, prec):
    if e == 1:
        return PadicScalar.from_rational(q, p, prec)
    return EisensteinElement.from_rational(q, p, e, prec)


@pytest.mark.parametrize("e", [1, 3, 4, 6])
def test_exact_inputs_at_a_p_free_index(e):
    # 1/r' has no exact expansion for the p-free part r' of r, so exact inputs
    # give d_r mod pi**target; where r' divides the exact sum, d_r stays exact.
    p, rng, seen = 11, random.Random(e), collections.Counter()
    curves = [(1, 2), (0, 3), (5, 0), (-4, 7)] + [
        (rng.randrange(-99, 99), rng.randrange(-99, 99)) for _ in range(4)]
    for a, b in curves:
        A, B = _embed(a, p, e, INFINITY), _embed(b, p, e, INFINITY)
        for r in (3, 5, 7, 13, 33, 35, 55, 77, 99, 363):
            for target in (1, e + 1, 3 * e):
                got = yasuda_coefficient(A, B, r, target)
                want = yasuda_coefficient_exact(a, b, r)
                prec = got.abs_precision if e == 1 else got.pi_precision()
                if prec == INFINITY:  # no term dropped, and r' divides the sum
                    assert (got - _embed(want, p, e, INFINITY)).is_exact_zero, (a, b, r)
                    seen["exact"] += 1
                    continue
                assert got.is_congruent(_embed(want, p, e, target), target), (a, b, r, target)
                assert target <= prec < target + e, (a, b, r, target, got)
                seen["p-free"] += want.denominator // p**_v(want.denominator, p) > 1
    assert yasuda_coefficient(_embed(1, p, e, INFINITY), _embed(2, p, e, INFINITY), 33, 4) == 87750
    assert seen["exact"] >= 20 and seen["p-free"] >= 50, seen


@pytest.mark.parametrize(
    "a, b, e",
    [(5 * 11**3 + 11**4, 3 * 11**2, 3), (11, 2 * 11**3, 4), (2 * 11**4, 3 * 11, 6)],
)
def test_exact_good_model_at_a_p_free_index_matches_the_truncated_model(a, b, e):
    # The truncated model is the series route's (test above); the exact one
    # now gives the same d_r mod pi**target at every p-free r as well.
    model = good_model_over_L(WeierstrassCurve(11, a, b), e)
    cut = [x.truncate_pi(30) for x in model]
    for r in range(1, 120, 2):
        got = yasuda_coefficient(model.a, model.b, r, 12)
        assert got.pi_precision() >= 12, r
        assert got.is_congruent(yasuda_coefficient(*cut, r, 12), 12), r


def test_series_caps():
    # One limit with the CLI's --r-max: 501 runs without force, 502 is refused.
    assert series_inversion_logarithm(A, B, 501).d(501) == yasuda_coefficient_exact(A, B, 501)
    with pytest.raises(ValueError, match="beyond the oracle cap 501"):
        series_inversion_logarithm(A, B, 502)
    with pytest.raises(ValueError):
        series_inversion_logarithm(A, B, 0)
    # force=True bypasses the cap gate (kept small here for speed)
    assert series_inversion_logarithm(A, B, 5, force=True).d(5) == 2 * A / 5


@pytest.mark.parametrize("route", [recurrence_logarithm, series_inversion_logarithm])
@pytest.mark.parametrize("n_terms", [0, -1])
def test_both_prefix_routes_refuse_an_empty_prefix(route, n_terms):
    with pytest.raises(ValueError, match="^need at least one coefficient$"):
        route(A, B, n_terms)
    assert route(A, B, 1).coefficients == (0, 1)


def test_a_rational_beside_a_scalar_is_refused_by_type_on_both_routes():
    x = PadicScalar.from_rational(3, 11, 5)
    for y in (0, Fraction(1, 2)):
        message = f"^unsupported coefficient type {type(y).__name__}$"
        for A, B in ((x, y), (y, x)):
            with pytest.raises(TypeError, match=message):
                yasuda_coefficient(A, B, 11, 4)
            with pytest.raises(TypeError, match=message):
                series_inversion_logarithm(A, B, 5)


_Q11 = PadicScalar.from_rational(3, 11, 5)
_MIXED_PAIRS = [  # (A, B, error type, message) of every typed route
    (_Q11, EisensteinElement.from_rational(2, 11, 3, 5), ValueError, "mixed fields"),
    (_Q11, PadicScalar.from_rational(2, 13, 5), ValueError, "mixed fields"),
    (EisensteinElement.from_rational(1, 11, 3, 5), EisensteinElement.from_rational(1, 11, 4, 5),
     ValueError, "mixed fields"),
    (1, _Q11, TypeError, "unsupported coefficient type int"),
    (_Q11, 1, TypeError, "unsupported coefficient type int"),
]


@pytest.mark.parametrize("route", [
    lambda A, B: yasuda_coefficient(A, B, 7, 4),
    lambda A, B: series_inversion_logarithm(A, B, 9),
    lambda A, B: hasse_invariant(A, B),
    lambda A, B: odd_coefficient_valuation(A, B, 0),
], ids=["yasuda", "series", "hasse", "odd_valuation"])
@pytest.mark.parametrize("A, B, error, message", _MIXED_PAIRS,
                         ids=["scalar_L", "two_primes", "e3_e4", "int_number", "number_int"])
def test_typed_routes_share_one_coefficient_pair_rule(route, A, B, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        route(A, B)


def test_recurrence_refuses_past_the_exact_cap_before_any_term(monkeypatch):
    from padic_cartan import formal_log

    def no_term(*args):
        raise AssertionError("a coefficient was computed before the refusal")

    monkeypatch.setattr(formal_log, "yasuda_coefficient_exact", no_term)
    for b in (0, 1):  # b = 0: P0 vanishes, so every g_N would come from the per-r route
        for n_terms, top in ((20003, 20003), (20004, 20003), (10**6, 999_999)):
            with pytest.raises(ValueError, match=f"^index {top} too large for the exact path$"):
                recurrence_logarithm(1, b, n_terms)
    monkeypatch.undo()
    # At a lowered cap the last index inside it still runs, and the next is refused.
    monkeypatch.setattr(formal_log, "_EXACT_MULTINOMIAL_CAP", 3)
    assert recurrence_logarithm(1, 1, 8).d(7) == yasuda_coefficient_exact(1, 1, 7)
    with pytest.raises(ValueError, match="^index 9 too large for the exact path$"):
        recurrence_logarithm(1, 1, 9)


def test_exact_route_cap():
    with pytest.raises(ValueError):
        yasuda_coefficient_exact(A, B, 2 * 10**4 + 3)


def test_unit_coefficients_past_index_6001_match_the_per_term_sum():
    # Unit sums past r = 6001 are answered, finite or exact; 6003 is prime to 5.
    want = _per_term_sum(Fraction(1), Fraction(2), 6003)
    for precision in (8, INFINITY):
        a = PadicScalar.from_rational(1, 5, precision)
        b = PadicScalar.from_rational(2, 5, precision)
        got = yasuda_coefficient(a, b, 6003, 8)
        assert got.abs_precision >= 8
        assert got.is_congruent(PadicScalar.from_rational(want, 5, 8), 8)


def test_multi_term_sums_over_exact_inputs_are_certified_to_the_target():
    # Exact inputs whose sum keeps more than one term and drops none take the
    # p-adic walk: d_r certified mod pi**target, never exact, against the oracle
    # over Q.  Units (3, 5) over Q_11 to p^8; and the p = 5 divisors d_(p**2k) of
    # beta (target 4, none dropped at k = 1), on good models (a pi**(-4s),
    # b pi**(-6s)): each term has weight 2N, so d_r scales by pi**(-2sN).
    a, b = (PadicScalar.from_rational(u, 11, INFINITY) for u in (3, 5))
    for r in (6001, 20001):
        assert _sum_plan(11, 1, r // 2, 0, 0, 0, 8)[1:] == (False, False)  # kept all, not exact
        got = yasuda_coefficient(a, b, r, 8)
        assert 8 <= got.abs_precision < INFINITY
        want = PadicScalar.from_rational(yasuda_coefficient_exact(3, 5, r), 11, 8)
        assert got.is_congruent(want, 8)
    for a, b in ((375, 1250), (250, 1250)):
        curve = WeierstrassCurve(5, a, b)
        model, s = good_model_over_L(curve, 3), curve.reduction.v_min_discriminant // 4
        for k in (1, 2, 3):
            r = 5 ** (2 * k)
            got = yasuda_coefficient(model.a, model.b, r, 4)
            want = EisensteinElement.from_rational(yasuda_coefficient_exact(a, b, r), 5, 3,
                                                   INFINITY).mul_pi_power(-2 * s * (r // 2))
            assert 4 <= got.pi_precision() < INFINITY, (a, b, k)
            assert got.is_congruent(want, 4), (a, b, k)


@pytest.mark.parametrize("height, r", [(400, 6001), (100, 20001)])
def test_exact_powers_of_tall_units_are_priced_before_any_is_taken(monkeypatch, height, r):
    # Units with `height`-digit numerators take the p-adic walk, cut to the working
    # precision before any power: answered, against the oracle over Q on the units
    # mod p**9 (r is prime to 11, so d_r mod p**8 reads no more of them).
    from padic_cartan import formal_log

    units = [k * 10 ** (height - 1) + u for k, u in ((1, 3), (2, 7))]  # 2 and 5 mod 11
    a, b = (PadicScalar.from_rational(u, 11, INFINITY) for u in units)
    got = yasuda_coefficient(a, b, r, 8)
    want = yasuda_coefficient_exact(*(u % 11**9 for u in units), r)
    assert got.abs_precision >= 8 and got.is_congruent(PadicScalar.from_rational(want, 11, 8), 8)
    # Over p, B's exact powers are taken whole and keep every bit: at r = 1001 (N = 500,
    # v_11(r) = 1, v(B) = -1) the plan alone passes, the bits are priced, and the sum
    # is refused before any power.
    monkeypatch.setattr(formal_log, "_power", _no_work)
    a, b = (PadicScalar.from_rational(Fraction(k * 10 ** (20 * height - 1) + u, d), 11, INFINITY)
            for k, u, d in ((1, 3, 1), (2, 7, 11)))
    assert len(_sum_plan(11, 1, 500, 1, 0, -1, 8)[0]) > 1
    with pytest.raises(PrecisionError, match="budget"):
        yasuda_coefficient(a, b, 1001, 8)


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


@pytest.mark.parametrize("j", [5, 6, 7])
@pytest.mark.parametrize("e", [1, 3])
def test_work_budget_prices_the_digits_of_non_integral_sums(monkeypatch, e, j):
    # v(A) = -1/e: the first kept terms of d_(11**j) need ~N/(2e) p-digits,
    # so the estimate refuses before any arithmetic; priced at the working
    # precision, the sum ran for minutes.
    unit = PadicScalar(11, 1, 0, 10)
    A = unit.shift(-1) if e == 1 else EisensteinElement.pi_monomial(unit, -1, e)
    B = unit if e == 1 else EisensteinElement.from_scalar(unit, e)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", _no_work)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_padic", _no_work)
    for cls in (EisensteinElement, PadicScalar):
        monkeypatch.setattr(cls, "__pow__", _no_work)
        monkeypatch.setattr(cls, "__mul__", _no_work)
    with pytest.raises(PrecisionError, match="budget"):
        yasuda_coefficient(A, B, 11**j, 2)


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
    with pytest.raises(ValueError, match="p is needed for rational coefficients"):
        hasse_invariant(1, 2)


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
    # A = B = 0 leaves only d_1 = 1, the pair (0, 0) with A**0 * B**0 = 1.
    assert yasuda_coefficient(zero, zero, 1, 12) == 1
    assert yasuda_coefficient(zero, zero, 7, 12).is_exact_zero


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
    _check_bounded_sums(good_model_over_L(WeierstrassCurve(11, a, b), e))


def test_bounded_sum_matches_exact_powers_on_inexact_inputs():
    # Good models are exact; cut one to 24 pi-digits for the inexact-A_L path.
    model = good_model_over_L(WeierstrassCurve(11, Fraction(11**3, 7), Fraction(11**2, 5)), 3)
    _check_bounded_sums([x.truncate_pi(24) for x in model])


def _check_bounded_sums(model):
    A, B = model
    p, e = A.prime, A.ram_index
    exact_inputs = A.pi_precision() == B.pi_precision() == INFINITY
    bounded = 0
    for target in (2, e + 1, 12):
        for j in range(2, 6):
            got = yasuda_coefficient(A, B, p**j, target)
            want, supported = _oracle_sum(A, B, j, target)
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


# -- the sum plan against Fraction valuations --------------------------------


def _v(n, p):
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _grid(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        e = rng.choice((1, 3, 4, 6))
        # INFINITY: an exactly zero coefficient; 0: a unit; < 0: not integral.
        wA, wB = (rng.choice([INFINITY, 0] + list(range(-e, 3 * e))) for _ in range(2))
        yield e, rng.randrange(1, 400), wA, wB, rng.randrange(1, 3 * e + 3)


def _coefficient(p, e, w, rng):
    """A random unit to 40 p-digits times pi**w, v = w / e (exactly 0 at INFINITY)."""
    if w == INFINITY:
        return PadicScalar.exact_zero(p) if e == 1 else EisensteinElement.zero(p, e)
    unit = PadicScalar(p, rng.randrange(1, p), 0, 40)
    return unit.shift(w) if e == 1 else EisensteinElement.pi_monomial(unit, w, e)


def _plan_by_fractions(p, e, N, vr, wA, wB, target):
    """The sum's kept ((m + 2n, m, n), p-digits), dropped flag and work estimate,
    over every pair, in Fraction valuations (v = pi-digits / e).  A kept term
    costs max(digits, working)**2 * p * log_p(N+1); a dropped pair whose power
    alone stays below the target (one the walk visits) p * log_p(N+1)."""
    vA, vB = (w if w == INFINITY else Fraction(w, e) for w in (wA, wB))
    goal = Fraction(target, e)
    working = math.ceil(goal + vr + 1)  # p-digits of A and B reduced for powers
    kept, dropped, cost = [], False, 0
    for m in range(N // 2 + 1):
        n, rest = divmod(N - 2 * m, 3)
        if rest or (m and vA == INFINITY) or (n and vB == INFINITY):
            continue  # no pair, or an exactly zero term
        v_power = (m and m * vA) + (n and n * vB)
        v_term = _v(_multinomial(N, m, n), p) + v_power - vr
        if v_term >= goal:
            dropped = True
            cost += p * math.log(N + 1, p) if v_power < goal + vr else 0
        else:
            digits = math.ceil(goal - v_term)
            kept.append(((m + 2 * n, m, n), digits))
            cost += max(digits, working) ** 2 * p * math.log(N + 1, p)
    return kept, dropped, cost


def test_kept_terms_and_digits_match_fractions(monkeypatch):
    # Which terms a sum keeps, to how many p-digits, whether it drops a term and
    # whether the budget refuses it, against the same bookkeeping in Fractions:
    # v(term) = v(C) + m v(A) + n v(B) - v(r), kept below target / e, to
    # ceil(target / e - v(term)) digits.  A cold sum that keeps a term takes one
    # multinomial, the least m's: exact when it keeps one term and drops none,
    # else to the most digits a kept term needs.  Exactly zero, unit and
    # non-integral coefficients included.
    calls = []

    def padic(N, parts, p, digits):
        calls.append((parts, digits))
        return multinomial_padic(N, parts, p, digits)

    def exact(N, parts):
        calls.append((parts, None))
        return multinomial_exact(N, parts)

    monkeypatch.setattr("padic_cartan.formal_log.multinomial_padic", padic)
    monkeypatch.setattr("padic_cartan.formal_log.multinomial_exact", exact)
    budget = 10**6  # about a tenth of the grid's sums cost more
    monkeypatch.setattr("padic_cartan.formal_log._WORK_BUDGET", budget)
    p, rng, seen = 5, random.Random(17), collections.Counter()
    for e, N, wA, wB, target in _grid(19, 400):
        r = 2 * N + 1
        key = (p, e, N, _v(r, p), wA, wB, target)
        A, B = (_coefficient(p, e, w, rng) for w in (wA, wB))
        kept, dropped, cost = _plan_by_fractions(*key)
        _sum_plan.cache_clear()  # a cached plan takes no multinomial
        calls.clear()
        if cost > budget:
            with pytest.raises(PrecisionError, match="budget"):
                yasuda_coefficient(A, B, r, target)
            assert calls == [], key
            seen["refused"] += 1
            continue
        yasuda_coefficient(A, B, r, target)
        first = min(kept, key=lambda k: k[0][1], default=None)
        top = max((digits for _, digits in kept), default=None)
        one_exact = not dropped and len(kept) < 2
        assert calls == ([] if first is None else [(first[0], None if one_exact else top)]), key
        terms, got_dropped, exact = _sum_plan(*key)  # the plan just cached
        assert sorted((m, n) for m, n, _ in terms) == sorted((m, n) for (_, m, n), _ in kept)
        assert got_dropped == dropped and exact == one_exact, key
        if not exact:  # each term's multinomial form carries its own digits
            assert sorted((m, n, x[0][3]) for m, n, x in terms) == sorted(
                (m, n, digits) for (_, m, n), digits in kept), key
        seen["truncated"] += dropped and bool(kept)
        seen["zero"] += INFINITY in (wA, wB)
        seen["unit"] += wA == wB == 0
        seen["negative"] += min(wA, wB) < 0
        seen["several kept, none dropped"] += not dropped and len(kept) > 1
    assert seen["truncated"] >= 20 and seen["refused"] >= 20 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("p", [5, 11])
@pytest.mark.parametrize("e", [1, 3, 4, 6])
def test_walked_multinomials_match_the_per_term_reference(p, e):
    # A plan takes one multinomial and steps by _ratio to each other kept term,
    # through the dropped pairs between: each term against multinomial_padic per
    # term at its digits, found by either walk direction, whether the plan drops
    # a term or not.  An exact plan keeps at most one term.
    rng, seen = random.Random(10 * p + e), collections.Counter()
    for case in range(150):  # units, which drop by v(C) alone; 3 v(A) >= 2 v(B); and <
        wA = 0 if case % 3 == 0 else rng.randrange(3 * e if case % 3 == 1 else e)
        wB = [0, rng.randrange(3 * wA // 2 + 1), 3 * wA // 2 + 1 + rng.randrange(e)][case % 3]
        N = rng.choice((rng.randrange(1, 400), (p ** rng.randrange(2, 4) - 1) // 2))
        target = rng.randrange(1, 6 * e + 8)
        try:
            terms, dropped, exact = _sum_plan(p, e, N, _v(2 * N + 1, p), wA, wB, target)
        except PrecisionError:
            continue
        assert not exact or len(terms) < 2, (N, terms)
        for m, n, x in terms:
            if not exact:
                assert x == multinomial_padic(N, (m + 2 * n, m, n), p, x[0][3]).form, (N, m, n)
        ms = [m for m, _, _ in terms]
        seen["up" if 3 * wA >= 2 * wB else "down"] += len(ms) > 1
        seen["dropped" if dropped else "none dropped"] += len(ms) > 1
        seen["dropped between"] += any(j - i > 3 for i, j in zip(ms, ms[1:]))
    assert len(seen) == 5 and min(seen.values()) >= 3, seen


# -- the cached sum plan -------------------------------------------------------


def _shared_shape_models(seed):
    """Good models over L in groups that share (p, e, v(A_L), v(B_L)) and
    differ in their units.  4 does not divide 17 + 1, so p = 17 has no e = 4."""
    rng = random.Random(seed)
    # (e, v(a), v(b)): v(disc) = 4, 3 and 2 give the defects 3, 4 and 6.
    shapes = [(3, 3, 2), (3, 2, 2), (4, 1, 2), (4, 1, 3), (6, 1, 1), (6, 3, 1)]
    for p in (11, 17):
        for e, va, vb in shapes:
            if (p + 1) % e:
                continue
            for _ in range(2):
                a = rng.choice((-1, 1)) * rng.randrange(1, p) * p**va
                b = rng.choice((-1, 1)) * rng.randrange(1, p) * p**vb
                yield p, e, good_model_over_L(WeierstrassCurve(p, a, b), e)


def _digits(x):
    return [(c.unit, c.valuation, c.abs_precision) for c in x.coords]


def test_cached_plans_give_the_cold_result_and_the_oracle_sum():
    cases = [(p, e, model, j, target)
             for p, e, model in _shared_shape_models(14)
             for j in range(2, 6) for target in (2, e + 1)]
    cold = []
    for p, e, model, j, target in cases:
        _sum_plan.cache_clear()
        cold.append(_digits(yasuda_coefficient(model.a, model.b, p**j, target)))
    _sum_plan.cache_clear()
    for p, e, model, j, target in cases:  # fill the cache
        yasuda_coefficient(model.a, model.b, p**j, target)
    before = _sum_plan.cache_info()
    for (p, e, model, j, target), want in zip(cases, cold):
        got = yasuda_coefficient(model.a, model.b, p**j, target)
        assert _digits(got) == want, (p, e, model, j, target)
    after = _sum_plan.cache_info()
    assert after.hits - before.hits == len(cases) and after.misses == before.misses
    assert after.currsize < len(cases)  # models of one shape share their plans
    for (p, e, model, j, target), digits in zip(cases, cold):
        if p**j > 10**6:  # the oracle's exact multinomials at 17**5 take ~3 s each
            continue
        got = EisensteinElement(p, e, [PadicScalar(p, u, v, N) for u, v, N in digits])
        want, supported = _oracle_sum(model.a, model.b, j, target)
        assert got.pi_precision() == min(supported, target), (p, e, model, j, target)
        assert got.is_congruent(want, got.pi_precision())


def test_over_budget_key_is_refused_every_time_and_never_cached():
    a_l, b_l = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    size = _sum_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PrecisionError, match="budget"):
            yasuda_coefficient(a_l, b_l, 11**135, 2)
        assert _sum_plan.cache_info().currsize == size


# -- the integer-form sum against the element-level loop ----------------------


def _element_level_sum(A, B, r, target):
    """(d_r, dropped) by the element-level loop that the integer form replaced:
    the same plan, each multinomial wrapped as a PadicScalar, or an exact one
    taken per term; A and B cut coordinate by coordinate (exact zeros kept
    exact) before their powers; sum(coeff * A**m * B**n) / r with the public
    operators; then cut to the target when a term was dropped."""
    e = A.ram_index if isinstance(A, EisensteinElement) else 1
    p = A.prime

    def cut(x, pi_digits, keep_exact_zeros):
        coords = [c if keep_exact_zeros and c.is_exact_zero
                  else c.reduce_abs_precision(-((i - pi_digits) // e))
                  for i, c in enumerate(x.coords if e > 1 else (x,))]
        return EisensteinElement(p, e, coords) if e > 1 else coords[0]

    wA, wB = (v if v == INFINITY else int(e * v)
              for v in (x.valuation() if e > 1 else x.valuation for x in (A, B)))
    vr = _v(r, p)
    terms, dropped, exact = _sum_plan(p, e, (r - 1) // 2, vr, wA, wB, target)
    if not exact and wA >= 0 and wB >= 0:
        working = target + e * vr + e
        A, B = cut(A, working, True), cut(B, working, True)
    total = 0 * A
    for m, n, form in terms:  # each multinomial's one-entry form; an exact one taken here
        C = (multinomial_exact((r - 1) // 2, (m + 2 * n, m, n)) if exact
             else _coordinate(p, 1, form))
        total = total + C * (A**m) * (B**n)
    total = total / r
    return (cut(total, target, False) if dropped else total), dropped


def _oracle_case(rng):
    """(A, B, r, target, kinds): seeded coefficients over Q_p or L, exact or
    to finite precision, pi-monomials or general elements, v in pi-digits
    from -1 (or exactly 0) up; r a power of p, or with a p-free part when the
    coefficients are inexact (exact ones give d_r mod pi**target there)."""
    p, e, exact = rng.choice((5, 7, 11)), rng.choice((1, 3, 4, 6)), rng.random() < 0.4

    def scalar(v):
        unit = rng.randrange(1, p**6)
        unit = rng.choice((1, -1)) * (unit + (unit % p == 0))
        return PadicScalar(p, unit, v, INFINITY if exact else v + rng.randrange(1, 10))

    def coefficient(kind):
        if kind == "zero":
            return PadicScalar.exact_zero(p) if e == 1 else EisensteinElement.zero(p, e)
        w = rng.randrange(-1, 3 * e)
        if e == 1:
            return scalar(w)
        if kind == "monomial":
            return EisensteinElement.pi_monomial(scalar(0), w, e)
        coords = [PadicScalar.exact_zero(p) if rng.random() < 0.25
                  else scalar(-((i - w) // e) + rng.randrange(2)) for i in range(e)]
        coords[w % e] = scalar(w // e)  # the lead, at pi-digit w
        return EisensteinElement(p, e, coords)

    kinds = [rng.choice(("zero", "monomial", "general", "general")) for _ in range(2)]
    j = rng.randrange(4)
    r = p**j if exact else rng.choice((p**j, 3 * p**j, 2 * rng.randrange(100) + 1))
    target = rng.randrange(1, 3 * e + 3)
    return (*(coefficient(k) for k in kinds), r, target,
            {"exact" if exact else "finite", f"e={e}", *kinds,
             "p-power" if r == p**_v(r, p) else "p-free"})


def _coords(x):
    return [(c.unit, c.valuation, c.abs_precision)
            for c in (x.coords if isinstance(x, EisensteinElement) else (x,))]


def test_integer_form_sum_matches_the_element_level_loop():
    # Every coordinate's (unit, valuation, abs_precision), or the refusal, of
    # yasuda_coefficient against _element_level_sum on seeded inputs.
    rng, seen = random.Random(18), collections.Counter()
    for _ in range(300):
        A, B, r, target, kinds = _oracle_case(rng)
        try:
            want, dropped = _element_level_sum(A, B, r, target)
        except PrecisionError as exc:  # a budget or cap refusal, raised by the plan
            with pytest.raises(PrecisionError, match=re.escape(str(exc))):
                yasuda_coefficient(A, B, r, target)
            continue
        got = yasuda_coefficient(A, B, r, target)
        assert type(got) is type(want) and _coords(got) == _coords(want), (A, B, r, target)
        seen.update(kinds | {"dropped" if dropped else "kept all"})
    assert len(seen) == 13 and min(seen.values()) >= 50, seen
