import importlib.util
import math
import random
import sys
import types
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from padic_cartan import padic
from padic_cartan.curve import WeierstrassCurve
from padic_cartan.errors import PrecisionError, UnsupportedPrimeError
from padic_cartan.padic import (
    INFINITY,
    PadicScalar,
    _normal,
    check_odd_prime,
    factorial_unit,
    is_prime,
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


# The least strong pseudoprimes to the prime bases to 37 and to 41 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def test_miller_rabin_refuses_composites_with_no_small_factor():
    # No trial divisor (the primes <= 41) divides the last four, so the witness
    # loop must refuse them; 3215031751 = 151 * 751 * 28351 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7, PSI12 to every prime base to 37.
    for composite in (41**2, 41 * 43, 43**2, 43 * 47, 151 * 751 * 28351, PSI12):
        assert not is_prime(composite)
        with pytest.raises(UnsupportedPrimeError):
            check_odd_prime(composite)
    with pytest.raises(UnsupportedPrimeError, match="^p must be an odd prime > 3$"):
        WeierstrassCurve(PSI12, 1, 1)
    for prime in (1000003, 3999971, 2**61 - 1):
        assert check_odd_prime(prime) == prime
    assert not is_prime(0) and not is_prime(1)


def test_primality_past_psi13_is_refused_before_any_round(monkeypatch):
    def no_pow(*args):
        raise AssertionError("a Miller-Rabin round ran")

    monkeypatch.setattr(padic, "pow", no_pow, raising=False)
    for n in (PSI13, PSI13 + 6, 2**89 - 1):  # none has a factor <= 41; the last is prime
        with pytest.raises(UnsupportedPrimeError, match=f"^cannot certify {n} as prime$"):
            is_prime(n)
        with pytest.raises(UnsupportedPrimeError, match=f"^cannot certify {n} as prime$"):
            WeierstrassCurve(n, 1, 1)
    assert not is_prime(2 * PSI13) and not is_prime(41 * PSI13)  # trial division decides


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
    with pytest.raises(ValueError, match="factorial of negative -1"):
        val_factorial(-1, 11)


def test_val_factorial_matches_the_digit_sum_form_on_deep_arguments():
    # Legendre's other form, (n - s_p(n)) / (p - 1) with s_p the base-p digit sum,
    # on n = (p**j - 1) // 2, whose j digits are all (p - 1) / 2: the shape of the
    # Yasuda indices N = (p**(2k+1) - 1) / 2.
    def digit_sum(n, p):
        total = 0
        while n:
            n, digit = divmod(n, p)
            total += digit
        return total

    for p in (5, 11, 29):
        for j in [*range(1, 30), 100, 1000, 3000, 6000, 6001]:
            n = (p**j - 1) // 2
            s = digit_sum(n, p)
            assert s == j * (p - 1) // 2
            assert val_factorial(n, p) == (n - s) // (p - 1), (p, j)


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


@lru_cache(maxsize=None)
def _reference_block_polynomials(p, digits):
    """F_j(x) = prod_{i <= p**j, p ∤ i} (x + i) mod p**digits, for 1 <= j < digits.

    F_j is cut to degree < ceil(digits / j), exact at any x divisible by p**j;
    F_(j+1)(x) = prod_{t < p} F_j(x + t*p**j).
    """
    P = p**digits
    poly = [1] + [0] * (digits - 1)
    for i in range(1, p):  # F_1, one factor (x + i) at a time
        poly = [(i * c + (poly[k - 1] if k else 0)) % P for k, c in enumerate(poly)]
    blocks = [()]
    while len(blocks) < digits:
        blocks.append(tuple(poly))
        product = [1] + [0] * (-(-digits // len(blocks)) - 1)
        for t in range(p):
            shift, shifted = t * p ** (len(blocks) - 1), list(poly)
            for lo in range(len(shifted) - 1):  # F_j(x + shift), synthetic division
                for k in range(len(shifted) - 2, lo - 1, -1):
                    shifted[k] = (shifted[k] + shift * shifted[k + 1]) % P
            product = [sum(product[i] * shifted[k - i] for i in range(k + 1)) % P
                       for k in range(len(product))]
        poly = product
    return tuple(blocks)


def _reference_factorial_unit(n, p, digits):
    """The unit of n! mod p**digits with a base-p digit a_j costing a_j evaluations of
    the block F_j, and the units digit one factor at a time."""
    P = p**digits
    blocks = _reference_block_polynomials(p, digits)
    out = 1
    while n:
        q, m = divmod(n, P)
        out, x, step = (-out if q % 2 else out), 0, P
        for poly in reversed(blocks[1:]):
            step //= p
            count, m = divmod(m, step)
            for _ in range(count):
                value = 0
                for c in reversed(poly):
                    value = (value * x + c) % P
                out, x = out * value % P, x + step
        for i in range(x + 1, x + m + 1):
            out = out * i % P
        n //= p
    return out % P


def test_factorial_unit_matches_the_block_by_block_reference():
    # One evaluation per digit against a_j evaluations of F_j per digit, on n up to
    # about p**70 and on n = p**j + c for c in -3..3, past math.factorial's reach.
    rng = random.Random(30)
    cases = []
    for _ in range(150):
        p, j = rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31)), rng.randrange(71)
        digits = rng.randrange(1, 41)
        cases += [(rng.randrange(p**j + 1), p, digits),
                  (max(0, p**j + rng.randrange(-3, 4)), p, digits)]
    for n, p, digits in cases:
        assert factorial_unit(n, p, digits) == _reference_factorial_unit(n, p, digits), (n, p)


def test_factorial_unit_reads_the_first_rows_of_a_larger_table(monkeypatch):
    # A D-digit table serves every d < D: its first d rows, each read below degree
    # ceil(d/(j+1)), give what a fresh d-digit table and the block-by-block reference give.
    rng = random.Random(47)
    for p in (5, 11, 29):
        for _ in range(4):
            D = rng.randrange(2, 25)
            d = rng.randrange(1, D)
            ns = [rng.randrange(p**D, p ** (D + 3)), rng.randrange(p ** (2 * D)),
                  p**D + rng.randrange(-3, 4), rng.randrange(p**d), 0]
            monkeypatch.setattr(padic, "_block_tables", {})
            factorial_unit(1, p, D)
            read = [factorial_unit(n, p, d) for n in ns]
            assert len(padic._block_tables[p]) == D, (p, D, d)  # read, not rebuilt
            padic._block_tables.clear()
            assert read == [factorial_unit(n, p, d) for n in ns], (p, D, d)
            assert len(padic._block_tables[p]) == d
            assert read == [_reference_factorial_unit(n, p, d) for n in ns], (p, D, d)


def test_a_cold_deep_certificate_builds_at_most_two_tables(monkeypatch):
    # Its sums ask for 41, 43, 40 and 42 digits at p = 11: one table is built at 41 and
    # grown once, to 43, which the last two read; it is the one table kept.
    from padic_cartan import formal_log, volkov

    built, build = [], padic._block_polynomials

    def counted(p, digits):
        built.append((p, digits))
        return build(p, digits)

    monkeypatch.setattr(padic, "_block_polynomials", counted)
    monkeypatch.setattr(padic, "_block_tables", {})
    formal_log._sum_plan.cache_clear()
    volkov.hodge_parameters(WeierstrassCurve(11, 11**3, 11**2), precision=124)
    assert built == [(11, 41), (11, 43)]
    assert list(padic._block_tables) == [11] and len(padic._block_tables[11]) == 43


def test_block_tables_hold_at_most_the_bound_of_primes(monkeypatch):
    # The prime first built leaves first; growing a table keeps its prime's place.
    monkeypatch.setattr(padic, "_block_tables", {})
    primes = (5, 7, 11, 13, 17, 19)
    for i, p in enumerate(primes):
        factorial_unit(10**6, p, 3)
        factorial_unit(10**6, primes[max(0, i - 1)], 4)
        assert len(padic._block_tables) <= padic._TABLE_PRIMES
    assert list(padic._block_tables) == list(primes[-padic._TABLE_PRIMES:])
    assert len(padic._block_tables[17]) == 4 and len(padic._block_tables[19]) == 3


def _microbench(monkeypatch):
    """tools/microbench.py as a module; the path it puts first is restored after the test."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    path = Path(__file__).resolve().parent.parent / "tools" / "microbench.py"
    spec = importlib.util.spec_from_file_location("microbench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_microbench_cold_keys_empty_the_block_tables(monkeypatch):
    # Every .cold key calls cold_clear's function first: it empties the per-prime
    # tables, the sum plans and the beta plans, clears an older tree's lru_cache, and
    # refuses a tree whose tables or beta plans it cannot reach rather than time them warm.
    from padic_cartan import formal_log, volkov
    from padic_cartan.curve import WeierstrassCurve, good_model_over_L

    microbench = _microbench(monkeypatch)
    clear = microbench.cold_clear(formal_log, padic, volkov)
    factorial_unit(10**6, 11, 5)
    formal_log.yasuda_coefficient(PadicScalar(11, 3, 0, 8), PadicScalar(11, 5, 0, 8), 61, 4)
    volkov.beta_from_logarithm(good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3), 2)
    assert padic._block_tables and formal_log._sum_plan.cache_info().currsize
    assert volkov._beta_plan.cache_info().currsize
    clear()
    assert padic._block_tables == {} and formal_log._sum_plan.cache_info().currsize == 0
    assert volkov._beta_plan.cache_info().currsize == 0
    older = types.SimpleNamespace(__name__="older.padic", factorial_unit=factorial_unit,
                                  _block_polynomials=lru_cache(maxsize=64)(lambda p, d: ()))
    older._block_polynomials(11, 4)
    before = types.SimpleNamespace(__name__="older.volkov")  # a tree without beta plans
    microbench.cold_clear(formal_log, older, before)()
    assert older._block_polynomials.cache_info().currsize == 0
    with pytest.raises(RuntimeError, match="no block table to clear"):
        microbench.cold_clear(formal_log, types.SimpleNamespace(
            __name__="other.padic", factorial_unit=factorial_unit), volkov)
    uncached = types.SimpleNamespace(__name__="other.volkov", _beta_plan=lambda *key: None)
    with pytest.raises(RuntimeError, match="^other.volkov has _beta_plan but no cache_clear$"):
        microbench.cold_clear(formal_log, padic, uncached)


def test_factorial_unit_past_the_old_table_cap():
    # A p**digits-entry table refused this request (11**8 > 2**26 entries).
    assert factorial_unit(100, 11, 8) == _unit_oracle(100, 11, 8)


def test_factorial_unit_rejects_negative_n():
    with pytest.raises(ValueError):
        factorial_unit(-1, 5, 2)
    with pytest.raises(ValueError, match="need at least one digit"):  # and no digit
        factorial_unit(5, 11, 0)


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


def test_exact_floor_past_the_float_range_is_refused_by_name():
    # An exact entry's precision is the float inf minus its floor, so a floor past
    # sys.float_info.max cannot be held: a ValueError naming the valuation, not an
    # OverflowError.  Finite precisions, and floors at the edge, are kept.
    top = int(sys.float_info.max)
    for unit, v, named in ((1, 10**400, 10**400), (3, -10**400, -10**400),
                           (1, top + 1, top + 1), (11, top, top + 1)):  # normalized: v + 1
        with pytest.raises(ValueError, match=f"^valuation {named} puts an exact floor past"):
            PadicScalar(11, unit, v, INFINITY)
    assert repr(PadicScalar(11, 7, top, INFINITY)) == f"7*11^{top}"
    assert repr(PadicScalar(11, 7, -top, INFINITY)) == f"7*11^{-top}"
    v = 10**400
    assert repr(PadicScalar(11, 7, v - 5, v)) == f"7*11^{v - 5} + O(11^{v})"  # finite precision


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
    with pytest.raises(TypeError):
        x**0.5


def test_equality_is_congruence_at_shared_precision():
    p = 5
    x = PadicScalar.from_rational(2, p, 2)
    y = PadicScalar.from_rational(2 + 25, p, 2)
    z = PadicScalar.from_rational(2 + 25, p, 3)
    assert x == y
    assert x == z  # shared window is O(5^2)
    assert not (PadicScalar.from_rational(3, p, 2) == x)
    # Over two primes the difference is refused, so they compare unequal.
    eleven, thirteen = PadicScalar.from_rational(3, 11, 5), PadicScalar.from_rational(3, 13, 5)
    assert eleven.__eq__(thirteen) is NotImplemented
    assert not eleven == thirteen and eleven != thirteen


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
    assert repr(np) == ("NewtonPolygon(vertices=[(0, Fraction(2, 1)), (1, Fraction(0, 1)), "
                        "(3, Fraction(0, 1))], segments=[(slope -2, len 1), (slope 0, len 2)])")
    with pytest.raises(AttributeError):
        np.degree = 4
    assert np.degree == 3 and np == newton_polygon([(0, 2), (1, 0), (3, 0)])  # value ==
    assert np != newton_polygon([(0, 2), (1, 1), (3, 0)])


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


def test_normal_form_matches_fraction_valuations():
    # Units carrying p**0 .. p**1000, of both signs, at random precisions: the
    # valuation and unit are those of the rational unit * p**valuation, and
    # vp reads k off the integer and off Fractions with it on either side.
    rng, stripped = random.Random(31), 0
    for p in (5, 11):
        for k in [*range(40), *(rng.randrange(40, 1000) for _ in range(40)), 1000]:
            unit = rng.choice((1, -1)) * (rng.randrange(1, p**12) * p + rng.randrange(1, p)) * p**k
            valuation = rng.randrange(-5, 5)
            N = rng.choice((INFINITY, valuation + rng.randrange(0, k + 20)))
            lift = Fraction(unit) * Fraction(p) ** valuation
            v, free = k + valuation, rng.randrange(1, p**6) * p + rng.randrange(1, p)
            assert vp(unit, p) == k and vp(lift, p) == v, (p, k, valuation)
            assert vp(Fraction(free, unit), p) == -k == -vp(Fraction(unit, free), p), (p, k)
            assert vp(Fraction(unit, p ** (k + 3)), p) == -3, (p, k)
            if v >= N:
                want = (0, INFINITY)
            elif N == INFINITY:
                want = (int(lift / Fraction(p) ** v), v)
            else:
                want = (int(lift / Fraction(p) ** v) % p ** (N - v), v)
            assert _normal(p, unit, valuation, N) == want, (p, k, valuation, N)
            stripped += want[0] != 0 and k > 0
    assert stripped >= 50
    assert _normal(5, 0, 3, INFINITY) == _normal(5, 0, 3, 7) == (0, INFINITY)
