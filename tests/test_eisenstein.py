"""Tests for arithmetic in L = Q_p(pi_e) with pi_e**e = -p."""

import random
from fractions import Fraction

import pytest

from padic_cartan.eisenstein import EisensteinElement
from padic_cartan.errors import CosetViolationError, PrecisionError
from padic_cartan.padic import INFINITY, PadicScalar


def exact(value, p=11):
    return PadicScalar.from_rational(value, p, INFINITY)


def test_constructor_validation():
    with pytest.raises(ValueError):
        EisensteinElement(11, 5, [PadicScalar.exact_zero(11)] * 5)
    with pytest.raises(ValueError):
        EisensteinElement(11, 3, [PadicScalar.exact_zero(11)] * 2)
    with pytest.raises(ValueError):
        EisensteinElement(11, 3, [0, 1, 2])
    with pytest.raises(ValueError):
        EisensteinElement(11, 3, [PadicScalar.exact_zero(7)] * 3)


def test_elements_are_immutable():
    x = EisensteinElement.zero(11, 3)
    with pytest.raises(AttributeError):
        x.prime = 13


def test_pi_cubed_is_minus_p():
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    assert (pi**3).as_padic_scalar().lift_fraction() == -11
    assert (pi**6).as_padic_scalar().lift_fraction() == 121


def test_pi_monomial_negative_power():
    inv = EisensteinElement.pi_monomial(exact(1), -1, 3)
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    assert (inv * pi).as_padic_scalar().lift_fraction() == 1
    # pi^-1 = -pi^2/p lands in coordinate 2 with scalar valuation -1.
    assert inv.coords[2].lift_fraction() == Fraction(-1, 11)


def test_pi_monomial_wraps_with_sign():
    m = EisensteinElement.pi_monomial(exact(1), 4, 4)
    assert m.as_padic_scalar().lift_fraction() == -11
    m2 = EisensteinElement.pi_monomial(exact(1), 8, 4)
    assert m2.as_padic_scalar().lift_fraction() == 121


def test_pi_precision_is_min_over_coordinates():
    coords = [
        PadicScalar.from_rational(1, 11, 4),
        PadicScalar.from_rational(1, 11, 2),
        PadicScalar.exact_zero(11),
    ]
    x = EisensteinElement(11, 3, coords)
    assert x.pi_precision() == 7  # min(3*4+0, 3*2+1); exact coords do not bound
    assert EisensteinElement.zero(11, 3).pi_precision() == INFINITY


def test_valuation_visible():
    x = EisensteinElement.pi_monomial(PadicScalar.from_rational(11, 11, 5), 2, 3)
    assert x.valuation() == Fraction(5, 3)
    assert x.valuation_floor() == Fraction(5, 3)


def test_valuation_ambiguous_raises():
    coords = [
        PadicScalar.zero_to_precision(11, 1),
        PadicScalar.from_rational(11**2, 11, 5),
        PadicScalar.exact_zero(11),
    ]
    x = EisensteinElement(11, 3, coords)
    with pytest.raises(PrecisionError):
        x.valuation()
    assert x.valuation_floor() == 1


def test_valuation_of_precision_zero_raises():
    x = EisensteinElement(11, 3, [PadicScalar.zero_to_precision(11, 2)] * 3)
    assert x.is_zero_to_precision()
    assert x.valuation_floor() == 2
    with pytest.raises(PrecisionError):
        x.valuation()


def test_valuation_of_exact_zero_is_infinite():
    assert EisensteinElement.zero(11, 3).valuation() == INFINITY


def test_as_padic_scalar_checks_higher_coordinates():
    x = EisensteinElement.from_rational(7, 11, 3, 4)
    assert x.as_padic_scalar().lift_fraction() == 7
    y = x + EisensteinElement.pi_monomial(exact(1), 1, 3)
    with pytest.raises(CosetViolationError):
        y.as_padic_scalar()


def test_truncate_pi_per_coordinate():
    x = EisensteinElement(11, 3, [PadicScalar.from_rational(1, 11, 9)] * 3)
    t = x.truncate_pi(7)
    assert t.pi_precision() == 7
    assert [c.abs_precision for c in t.coords] == [3, 2, 2]


def test_multiplication_reduces_pi_powers():
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    cube = (1 + pi) ** 3
    # (1 + pi)^3 = 1 + 3 pi + 3 pi^2 + pi^3 = -10 + 3 pi + 3 pi^2
    assert [c.lift_fraction() for c in cube.coords] == [-10, 3, 3]


def test_scalar_operations_broadcast():
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    x = 2 * pi + 1
    assert x.coords[0].lift_fraction() == 1
    assert x.coords[1].lift_fraction() == 2
    assert (x * 3).coords[1].lift_fraction() == 6
    r = 1 - pi
    assert r.coords[0].lift_fraction() == 1
    assert r.coords[1].lift_fraction() == -1
    # A p-free denominator cannot survive exact coordinates.
    with pytest.raises(PrecisionError):
        x - Fraction(1, 2)
    y = EisensteinElement.from_rational(3, 11, 3, 4) * Fraction(1, 2)
    assert y.coords[0].is_congruent(PadicScalar.from_rational(Fraction(3, 2), 11, 4))


def test_mul_pi_power_round_trip():
    x = EisensteinElement(
        11,
        3,
        [
            PadicScalar.from_rational(5, 11, 6),
            PadicScalar.from_rational(7, 11, 6),
            PadicScalar.from_rational(9, 11, 6),
        ],
    )
    back = x.mul_pi_power(5).mul_pi_power(-5)
    for a, b in zip(back.coords, x.coords):
        assert a.lift_fraction() == b.lift_fraction()
        assert a.abs_precision == b.abs_precision
    assert x.mul_pi_power(3) == x * exact(-11)


def test_inverse_round_trip():
    x = EisensteinElement(
        11,
        3,
        [
            PadicScalar.from_rational(2, 11, 5),
            PadicScalar.from_rational(3, 11, 5),
            PadicScalar.exact_zero(11),
        ],
    )
    res = x * x.inverse()
    assert res.is_congruent(1, pi_digits=15)  # full input precision retained


def test_inverse_of_exact_monomial_is_exact():
    m = EisensteinElement.pi_monomial(exact(-11), 4, 3)
    inv = m.inverse()
    assert inv.pi_precision() == INFINITY
    assert (m * inv).as_padic_scalar().lift_fraction() == 1


def test_inverse_of_exact_non_monomial_raises():
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    with pytest.raises(PrecisionError):
        (1 + pi).inverse()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        EisensteinElement.zero(11, 3).inverse()
    with pytest.raises(PrecisionError):
        EisensteinElement(11, 3, [PadicScalar.zero_to_precision(11, 3)] * 3).inverse()


def test_division_short_circuits_exact_zero_numerator():
    zero = EisensteinElement.zero(11, 3)
    pi = EisensteinElement.pi_monomial(exact(1), 1, 3)
    # The divisor is an exact non-monomial, so inverting it would raise;
    # the zero numerator must win without attempting the inversion.
    q = zero / (1 + pi)
    assert q.is_exact_zero
    with pytest.raises(ZeroDivisionError):
        zero / zero


def test_division_round_trip():
    num = EisensteinElement.from_rational(7, 11, 3, 6)
    den = EisensteinElement(
        11,
        3,
        [
            PadicScalar.from_rational(1, 11, 6),
            PadicScalar.from_rational(4, 11, 6),
            PadicScalar.exact_zero(11),
        ],
    )
    q = num / den
    assert (q * den).is_congruent(num, pi_digits=18)


def test_congruence_windows():
    x = EisensteinElement.from_rational(5, 11, 3, 4)
    y = x + EisensteinElement.pi_monomial(exact(11**2), 1, 3)
    assert x.is_congruent(y, pi_digits=7)
    assert not x.is_congruent(y, pi_digits=8)
    assert x.is_congruent(5)


def test_equality_is_congruence():
    x = EisensteinElement.from_rational(5, 11, 3, 2)
    assert x == 5 + 2 * 11**2
    assert x != 6


@pytest.mark.parametrize("other", ["5", None, 5.0, [5]])
def test_equality_with_foreign_operands_is_false(other):
    l_five = EisensteinElement.from_rational(5, 11, 3, 2)
    qp_five = PadicScalar.from_rational(5, 11, 2)
    for x in (l_five, qp_five):
        assert not x == other and x != other
        assert not other == x and other != x
        assert x == 5 and x == Fraction(5 + 2 * 11**2) and x != 6 and x != Fraction(5, 2)
    assert l_five == qp_five and qp_five == l_five
    with pytest.raises(TypeError):
        l_five.is_congruent(other)


def test_repr_forms():
    assert repr(EisensteinElement.zero(11, 3)) == "0"
    assert repr(EisensteinElement.pi_monomial(exact(20), 2, 3)) == "20*pi^2"
    x = EisensteinElement(
        11,
        3,
        [
            PadicScalar.exact_zero(11),
            PadicScalar.from_rational(2, 11, 1),
            PadicScalar.exact_zero(11),
        ],
    )
    assert repr(x) == "(2 + O(11^1))*pi"
    pz = EisensteinElement(11, 3, [PadicScalar.zero_to_precision(11, 1)] * 3)
    assert repr(pz) == "O(11^1) + O(11^1)*pi + O(11^1)*pi^2"


def test_embedding_matches_target_precision():
    s = EisensteinElement.from_rational(5, 11, 3, 2) + 1
    assert s.coords[0].abs_precision == 2
    t = EisensteinElement.zero(11, 3) + Fraction(1, 11)
    assert t.coords[0].abs_precision == INFINITY
    u = EisensteinElement.zero(11, 3) + PadicScalar.from_rational(3, 11, 4)
    assert u.coords[0].abs_precision == 4


# -- differential oracle for the product kernel -------------------------------


def _schoolbook_product(a, b):
    """a * b one coordinate pair at a time: PadicScalar *, (-t).shift(1) for
    pi**e = -p, and sequential +.  Shares no code with EisensteinElement.__mul__."""
    e, p = a.ram_index, a.prime
    acc = [PadicScalar.exact_zero(p)] * e
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            if x.is_exact_zero or y.is_exact_zero:
                continue
            k, term = i + j, x * y
            if k >= e:
                k, term = k - e, (-term).shift(1)
            acc[k] = acc[k] + term
    return acc


def _random_coordinate(rng, p):
    kind = rng.random()
    if kind < 0.15:
        return PadicScalar.exact_zero(p)
    if kind < 0.3:
        return PadicScalar.zero_to_precision(p, rng.randrange(-3, 8))
    v = rng.randrange(-3, 5)
    if kind < 0.5:
        return PadicScalar(p, rng.choice([1, -1]) * rng.randrange(1, p**4), v, INFINITY)
    return PadicScalar(p, rng.randrange(1, p**8), v, v + rng.randrange(1, 9))


def _random_pairs(count, seed=2024):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p, e = rng.choice((5, 11)), rng.choice((3, 4, 6))
        a, b = (
            EisensteinElement(p, e, [_random_coordinate(rng, p) for _ in range(e)])
            for _ in range(2)
        )
        out.append((a, b))
    return out


def _key(c):
    return (c.unit, c.valuation, c.abs_precision)


def _vp(q, p):
    """p-adic valuation of a nonzero Fraction."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _exact_product(x, y, p):
    """Product of two rational coordinate lists in Q(pi), pi**e = -p."""
    e = len(x)
    out = [Fraction(0)] * e
    for i in range(e):
        for j in range(e):
            k = i + j
            out[k % e] += x[i] * y[j] * (-p if k >= e else 1)
    return out


def _lifts(x):
    return [c.lift_fraction() for c in x.coords]


def _agrees_to_precision(got, exact, p):
    """Each coordinate's lift equals the exact value modulo its certified precision."""
    for c, q in zip(got.coords, exact):
        diff = c.lift_fraction() - q
        if c.abs_precision == INFINITY:
            assert diff == 0, (c, q)
        elif diff:
            assert _vp(diff, p) >= c.abs_precision, (c, q)


def test_product_kernel_matches_schoolbook_product():
    pairs = _random_pairs(400)
    coords = [c for a, b in pairs for c in a.coords + b.coords]
    # The set covers every coordinate shape the kernel distinguishes.
    assert any(c.is_exact_zero for c in coords)
    assert any(c.is_precision_zero for c in coords)
    assert any(c.unit and c.valuation < 0 for c in coords)
    assert any(c.unit and c.abs_precision == INFINITY for c in coords)
    assert any(c.unit and c.abs_precision != INFINITY for c in coords)
    for a, b in pairs:
        got = a * b
        want = _schoolbook_product(a, b)
        assert [_key(c) for c in got.coords] == [_key(c) for c in want], (a, b)
        _agrees_to_precision(got, _exact_product(_lifts(a), _lifts(b), a.prime), a.prime)


def test_inverse_and_powers_match_fraction_arithmetic():
    inverted = 0
    for a, _ in _random_pairs(150, seed=7):
        p, e = a.prime, a.ram_index
        exact = [Fraction(1)] + [Fraction(0)] * (e - 1)
        for n in range(5):
            _agrees_to_precision(a**n, exact, p)
            exact = _exact_product(exact, _lifts(a), p)
        try:
            inv = a.inverse()
        except (PrecisionError, ZeroDivisionError):
            continue
        inverted += 1
        # lift(a) lies in a's ball, so lift(a)**-1 is within pi**P of inv and
        # v(lift(a) * lift(inv) - 1) >= v(a) + P/e, P = inv.pi_precision().
        residual = _exact_product(_lifts(a), _lifts(inv), p)
        residual[0] -= 1
        P = inv.pi_precision()
        bound = INFINITY if P == INFINITY else a.valuation() + Fraction(P, e)
        for k, q in enumerate(residual):
            assert q == 0 or _vp(q, p) + Fraction(k, e) >= bound, (a, inv)
    assert inverted >= 40


def _exact_inverse(x, p):
    """The inverse of a nonzero coordinate list in Q(pi), pi**e = -p.

    Solves lift * y = 1 by Gauss-Jordan elimination over Fractions on the
    matrix whose column j is x * pi**j.
    """
    e = len(x)
    columns = [_exact_product(x, [Fraction(int(i == j)) for i in range(e)], p) for j in range(e)]
    rows = [[columns[j][i] for j in range(e)] + [Fraction(int(i == 0))] for i in range(e)]
    for c in range(e):
        pivot = next(r for r in range(c, e) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(e):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][e] / rows[i][i] for i in range(e)]


def test_inverse_is_certified_per_coordinate():
    # Every coordinate of a.inverse() equals the exact inverse of lift(a)
    # modulo the precision it claims: lift(a) lies in a's ball.
    inverted = 0
    for seed in range(5):
        for a, _ in _random_pairs(150, seed=seed):
            try:
                inv = a.inverse()
            except (PrecisionError, ZeroDivisionError):
                continue
            inverted += 1
            _agrees_to_precision(inv, _exact_inverse(_lifts(a), a.prime), a.prime)
    assert inverted >= 300


def test_powers_match_repeated_schoolbook_products():
    for a, _ in _random_pairs(100, seed=11):
        p, e = a.prime, a.ram_index
        want = [PadicScalar.from_rational(1, p, INFINITY)] + [PadicScalar.exact_zero(p)] * (e - 1)
        for n in range(13):
            assert [_key(c) for c in (a**n).coords] == [_key(c) for c in want], (a, n)
            want = _schoolbook_product(EisensteinElement(p, e, want), a)


def test_large_powers_match_object_level_squaring():
    # Square-and-multiply on EisensteinElement objects, one object per step.
    rng = random.Random(5)
    for e in (3, 4, 6):
        a = EisensteinElement(11, e, [PadicScalar(11, rng.randrange(1, 11**7), rng.randrange(0, 2), 7)
                                      for _ in range(e)])
        for n in (11**5 // 6 - 1, 11**5 // 6, 11**5 // 6 + 2):
            out, base, k = None, a, n
            while k:
                if k & 1:
                    out = base if out is None else out * base
                k >>= 1
                base = base * base
            assert [_key(c) for c in (a**n).coords] == [_key(c) for c in out.coords], (e, n)


def _geometric_inverse(a):
    """The inverse by the term-by-term tail 1 + w + ... + w**steps, steps the
    least with steps * v(w) beyond w's precision, truncated to that precision."""
    e = a.ram_index
    v = a.valuation()
    lead_i = int(e * v) % e
    inv_lead = EisensteinElement.pi_monomial(a.coords[lead_i].inverse(), -lead_i, e)
    w = 1 - a * inv_lead
    prec = w.pi_precision()
    if prec == INFINITY:
        return inv_lead
    steps = int(prec / (e * w.valuation_floor())) + 1
    term = w
    out = EisensteinElement.from_rational(1, a.prime, e, INFINITY) + w
    for _ in range(steps - 1):
        term = term * w
        out = out + term
    return out.truncate_pi(prec) * inv_lead


def test_doubling_inverse_matches_truncated_geometric_sum():
    compared = 0
    for a, _ in _random_pairs(150, seed=3):
        try:
            got = a.inverse()
        except (PrecisionError, ZeroDivisionError):
            continue
        compared += 1
        assert [_key(c) for c in got.coords] == [_key(c) for c in _geometric_inverse(a).coords], a
    assert compared >= 60
