import math
import random
from fractions import Fraction

import pytest

from padic_cartan.errors import PrecisionError, UnsupportedPrimeError
from padic_cartan.padic import (
    INFINITY,
    PadicScalar,
    check_odd_prime,
    factorial_unit,
    multinomial_exact,
    multinomial_padic,
    multinomial_valuation,
    newton_polygon,
    val_binomial_prime_power,
    val_factorial,
    vp,
)


def test_check_odd_prime_rejects_bad_inputs():
    for bad in (1, 2, 4, 9, 15, -7, 0):
        with pytest.raises(UnsupportedPrimeError):
            check_odd_prime(bad)
    assert check_odd_prime(10**9 + 7) == 10**9 + 7


def test_vp_on_ints_and_fractions():
    assert vp(0, 5) == INFINITY
    assert vp(50, 5) == 2
    assert vp(-50, 5) == 2
    assert vp(Fraction(3, 25), 5) == -2
    assert vp(Fraction(125, 7), 5) == 3


def test_val_factorial_matches_direct_count():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice((5, 7, 11, 13))
        n = rng.randrange(1, 3000)
        assert val_factorial(n, p) == vp(math.factorial(n), p)
    assert val_factorial(0, 5) == 0


def test_val_binomial_prime_power_exhaustive():
    # j - v_p(a) against the literal binomial, all a, small prime powers.
    for p in (5, 7, 11):
        for j in range(0, 4):
            for a in range(1, p**j + 1):
                want = vp(math.comb(p**j, a), p)
                assert val_binomial_prime_power(j, a, p) == want


def test_val_binomial_prime_power_rejects_out_of_range():
    with pytest.raises(ValueError):
        val_binomial_prime_power(2, 0, 5)
    with pytest.raises(ValueError):
        val_binomial_prime_power(2, 26, 5)
    with pytest.raises(ValueError):
        val_binomial_prime_power(-1, 1, 5)


def _unit_oracle(n, p, digits):
    f = math.factorial(n)
    return f // p ** vp(f, p) % p**digits


def test_factorial_unit_matches_math_factorial():
    # (11, 8), (5, 12) and (23, 6) are past 2**26, beyond any p**digits-entry
    # table; n stays small enough for math.factorial.
    rng = random.Random(11)
    for p, digits in ((5, 4), (11, 3), (3, 10), (11, 8), (5, 12), (23, 6)):
        ns = [*range(100), 541, *(rng.randrange(3000) for _ in range(40))]
        ns += [p**j + d for j in range(1, 5) for d in (-1, 0, 1) if p**j + d <= 3000]
        for n in ns:
            assert factorial_unit(n, p, digits) == _unit_oracle(n, p, digits), (n, p)


def test_factorial_unit_past_the_old_table_cap():
    # A p**digits-entry table refused this request (11**8 > 2**26 entries).
    assert factorial_unit(100, 11, 8) == _unit_oracle(100, 11, 8)


def test_factorial_unit_rejects_negative_n():
    with pytest.raises(ValueError):
        factorial_unit(-1, 5, 2)


def test_multinomial_padic_matches_exact():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice((5, 7, 11))
        n = rng.randrange(1, 4000)
        cut = sorted(rng.randrange(0, n + 1) for _ in range(2))
        parts = (cut[0], cut[1] - cut[0], n - cut[1])
        exact = multinomial_exact(n, parts)
        got = multinomial_padic(n, parts, p, 4)
        v = vp(exact, p)
        assert got.valuation == v
        assert multinomial_valuation(n, parts, p) == v
        assert got.unit == (exact // p**v) % p**4


def test_multinomial_padic_matches_exact_at_twelve_digits():
    rng = random.Random(12)
    for _ in range(30):
        p = rng.choice((5, 11, 23))
        n = rng.randrange(1, 3000)
        cut = sorted(rng.randrange(0, n + 1) for _ in range(2))
        parts = (cut[0], cut[1] - cut[0], n - cut[1])
        exact = multinomial_exact(n, parts)
        got = multinomial_padic(n, parts, p, 12)
        v = vp(exact, p)
        assert (got.valuation, got.abs_precision) == (v, v + 12)
        assert got.unit == (exact // p**v) % p**12


def test_multinomial_rejects_bad_partitions():
    with pytest.raises(ValueError):
        multinomial_valuation(5, (2, 2), 5)
    with pytest.raises(ValueError):
        multinomial_exact(5, (6, -1))


# -- PadicScalar ---------------------------------------------------------------


def test_from_rational_normalizes():
    x = PadicScalar.from_rational(Fraction(50, 3), 5, 6)
    assert x.valuation == 2
    # 2/3 = 2 * inverse(3) mod 5**4
    assert x.unit == 2 * pow(3, -1, 5**4) % 5**4
    assert x.abs_precision == 6

    z = PadicScalar.from_rational(0, 5, 3)
    assert z.is_exact_zero


def test_from_rational_exact_requires_p_free_unit_denominator():
    x = PadicScalar.from_rational(Fraction(7, 25), 5, INFINITY)
    assert x.valuation == -2 and x.unit == 7
    with pytest.raises(PrecisionError):
        PadicScalar.from_rational(Fraction(1, 3), 5, INFINITY)


def test_public_constructors_still_validate():
    # Arithmetic skips the prime check; the public entry points keep it.
    for bad in (4, 9):
        with pytest.raises(UnsupportedPrimeError):
            PadicScalar(bad, 1, 0, 3)
    with pytest.raises(UnsupportedPrimeError):
        PadicScalar.from_rational(1, 15, 3)
    with pytest.raises(ValueError):
        PadicScalar(5, 1, 0, 2.5)


def test_constructor_normalizes_unit_and_precision():
    x = PadicScalar(5, 50, 0, 4)
    assert (x.valuation, x.unit) == (2, 2)
    # Relative precision <= 0 collapses to a precision zero.
    y = PadicScalar(5, 50, 3, 4)
    assert y.is_precision_zero and y.abs_precision == 4


def test_zero_flavors_are_distinct():
    exact = PadicScalar.exact_zero(5)
    bounded = PadicScalar.zero_to_precision(5, 3)
    assert exact.is_exact_zero and not exact.is_precision_zero
    assert bounded.is_precision_zero and not bounded.is_exact_zero
    assert exact.is_zero_to_precision() and bounded.is_zero_to_precision()
    assert bounded.valuation_floor() == 3
    assert exact.valuation_floor() == INFINITY


def test_addition_tracks_precision():
    p = 7
    x = PadicScalar.from_rational(3, p, 5)
    y = PadicScalar.from_rational(4, p, 2)
    s = x + y
    # 3 + 4 = 7 gains a factor of p; precision capped by the weaker summand.
    assert (s.valuation, s.unit, s.abs_precision) == (1, 1, 2)
    t = PadicScalar.from_rational(5, p, 2) + PadicScalar.from_rational(3, p, 5)
    assert t.abs_precision == 2 and t.is_congruent(8)


def test_addition_of_exact_values_stays_exact():
    p = 11
    x = PadicScalar.from_rational(20, p, INFINITY)
    y = PadicScalar.from_rational(2, p, INFINITY)
    s = x + y
    assert s.abs_precision == INFINITY
    assert s.lift_fraction() == 22
    d = x - x
    assert d.is_exact_zero
    # Negative, mixed and cancelling valuations, against Fraction arithmetic.
    pairs = [
        (Fraction(3, 121), Fraction(5, 11)),
        (Fraction(-7, 1331), 242),
        (Fraction(1, 11), Fraction(-1, 11) + 11**3),
        (Fraction(-5, 11**4), Fraction(5, 11**4)),
    ]
    for u, w in pairs:
        a = PadicScalar.from_rational(u, p, INFINITY)
        b = PadicScalar.from_rational(w, p, INFINITY)
        for got, want in (
            (a + b, a.lift_fraction() + b.lift_fraction()),
            (a - b, a.lift_fraction() - b.lift_fraction()),
        ):
            assert got.abs_precision == INFINITY, (u, w)
            assert got.lift_fraction() == want, (u, w)
            assert got.is_exact_zero == (want == 0), (u, w)


def test_multiplication_and_shift():
    p = 5
    x = PadicScalar.from_rational(Fraction(2, 5), p, 3)
    y = PadicScalar.from_rational(15, p, 4)
    z = x * y
    assert z.valuation == 0 and z.residue() == 6 % 5
    assert x.shift(2).valuation == 1
    assert (x * 0).is_exact_zero
    assert (x * Fraction(5)).valuation == 0


def test_inverse_round_trip():
    p = 7
    x = PadicScalar.from_rational(Fraction(12, 7), p, 5)
    one = x * x.inverse()
    assert one.residue() == 1 and one.valuation == 0
    assert one.is_congruent(1)


def test_inverse_of_exact_monomial_is_exact():
    p = 7
    x = PadicScalar.from_rational(49, p, INFINITY)
    inv = x.inverse()
    assert inv.abs_precision == INFINITY and inv.lift_fraction() == Fraction(1, 49)
    y = PadicScalar.from_rational(-7, p, INFINITY)
    assert y.inverse().lift_fraction() == Fraction(-1, 7)


def test_exact_division_by_dividing_unit():
    x = PadicScalar.from_rational(-20, 7, INFINITY)
    half = x / 2
    assert half.abs_precision == INFINITY and half.lift_fraction() == -10
    assert (x * Fraction(3, 4)).lift_fraction() == -15
    with pytest.raises(PrecisionError):
        x / 8  # 20/8 = 5/2 is not an exact 7-adic integer


def test_inverse_of_exact_composite_unit_raises():
    # 1/3 has no finite 7-adic expansion; exactness cannot survive.
    x = PadicScalar.from_rational(3, 7, INFINITY)
    with pytest.raises(PrecisionError):
        x.inverse()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PadicScalar.zero_to_precision(5, 3).inverse()
    with pytest.raises(ZeroDivisionError):
        PadicScalar.exact_zero(5).inverse()


def test_pow_and_division():
    p = 11
    x = PadicScalar.from_rational(3, p, 6)
    assert (x**3).is_congruent(27)
    assert (x**0).lift_fraction() == 1
    assert (x**-1 * x).is_congruent(1)
    q = PadicScalar.from_rational(6, p, 6) / PadicScalar.from_rational(2, p, 6)
    assert q.is_congruent(3)
    assert (x / 3).is_congruent(1)


def test_equality_is_congruence_at_shared_precision():
    p = 5
    x = PadicScalar.from_rational(2, p, 2)
    y = PadicScalar.from_rational(2 + 25, p, 2)
    z = PadicScalar.from_rational(2 + 25, p, 3)
    assert x == y
    assert x == z  # shared window is O(5^2)
    assert not (PadicScalar.from_rational(3, p, 2) == x)


def test_repr_formats():
    p = 11
    assert repr(PadicScalar.exact_zero(p)) == "0"
    assert repr(PadicScalar.zero_to_precision(p, 4)) == "O(11^4)"
    assert repr(PadicScalar.from_rational(Fraction(59003, 11), p, 4)) == (
        "59003*11^-1 + O(11^4)"
    )
    assert repr(PadicScalar.from_rational(20, p, INFINITY)) == "20"


def test_reduce_abs_precision():
    x = PadicScalar.from_rational(3 + 125, 5, 5)
    cut = x.reduce_abs_precision(2)
    assert cut.abs_precision == 2 and cut.unit == 3
    assert x.reduce_abs_precision(9) is x


# -- Newton polygons -------------------------------------------------------------


def test_newton_polygon_dense_input():
    np = newton_polygon([2, 1, 0])
    assert np.vertices == ((0, Fraction(2)), (2, Fraction(0)))
    assert np.segments == ((Fraction(-1), 2),)
    assert np.zero_root_multiplicity == 0
    assert np.degree == 2
    assert np.root_valuations() == [(Fraction(1), 2)]


def test_newton_polygon_sparse_with_infinite_points():
    pts = [(0, INFINITY), (1, 1), (11, Fraction(5, 3)), (121, 0)]
    np = newton_polygon(pts)
    assert np.zero_root_multiplicity == 1
    assert np.vertices == ((1, Fraction(1)), (121, Fraction(0)))
    assert np.root_valuations() == [(INFINITY, 1), (Fraction(1, 120), 120)]


def test_newton_polygon_rejects_bad_points():
    with pytest.raises(ValueError):
        newton_polygon([(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        newton_polygon([(-1, 1)])
    with pytest.raises(ValueError):
        newton_polygon([(0, INFINITY)])


def test_newton_polygon_two_segments():
    # Valuations 2, 0 at exponents 0,1 then flat to 3: slopes -2 and 0.
    np = newton_polygon([(0, 2), (1, 0), (3, 0)])
    assert np.segments == ((Fraction(-2), 1), (Fraction(0), 2))
    assert np.root_valuations() == [(Fraction(2), 1), (Fraction(0), 2)]


def _key(x):
    return (x.unit, x.valuation, x.abs_precision)


def _scaled_by_fractions(x, q):
    """x * q through Fraction arithmetic on the lift: the oracle for int scaling."""
    p = x.prime
    if x.is_exact_zero:
        return PadicScalar.exact_zero(p)
    if x.is_precision_zero:
        return PadicScalar.zero_to_precision(p, x.abs_precision + vp(q, p))
    N = x.abs_precision + vp(q, p) if x.abs_precision != INFINITY else INFINITY
    return PadicScalar.from_rational(x.lift_fraction() * q, p, N)  # raises if not exact


@pytest.mark.parametrize("p", [5, 11])
def test_int_scaling_matches_fraction_arithmetic(p):
    xs = [
        PadicScalar.from_rational(-2 * 3 * p**2, p, INFINITY),
        PadicScalar.from_rational(Fraction(1, p), p, INFINITY),
        PadicScalar(p, 1234567, -2, 6),
        PadicScalar(p, 98, 3, 5),
        PadicScalar.exact_zero(p),
        PadicScalar.zero_to_precision(p, 4),
    ]
    rs = [sign * u * p**j for sign in (1, -1) for u in (1, 2, 3, 6) for j in (0, 1, 3)]
    checked = refused = 0
    for x in xs:
        for r in rs:
            assert _key(x * r) == _key(_scaled_by_fractions(x, r)), (x, r)
            try:
                want = _scaled_by_fractions(x, Fraction(1, r))
            except PrecisionError:
                # Exact unit over a p-free part that does not divide it.
                with pytest.raises(PrecisionError):
                    x / r
                refused += 1
                continue
            assert _key(x / r) == _key(want), (x, r)
            checked += 1
    assert checked and refused


def test_exact_division_by_non_dividing_unit_raises():
    x = PadicScalar.from_rational(5 * 7**3, 7, INFINITY)
    with pytest.raises(PrecisionError):
        x / 3
    with pytest.raises(PrecisionError):
        x / (-3 * 7**2)
    assert _key(x / (-5 * 7)) == (-1, 2, INFINITY)
