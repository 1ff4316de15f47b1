"""Tests for arithmetic in L = Q_p(pi_e) with pi_e**e = -p."""

import collections
import random
import re
from fractions import Fraction
from functools import partial
from operator import add, mul, sub, truediv

import pytest

from padic_cartan.classifier import _eisenstein_json, _encode_exact, _scalar_json
from padic_cartan.eisenstein import EisensteinElement, _element, _product
from padic_cartan.errors import CosetViolationError, PrecisionError
from padic_cartan.padic import INFINITY, PadicScalar, power_by_squaring


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
    with pytest.raises(ValueError, match="^coordinates must be PadicScalars over the same p$"):
        EisensteinElement.from_scalar(5, 3)
    with pytest.raises(ValueError, match="^ramification index must be one of"):
        EisensteinElement.from_scalar(5, 5)


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
    with pytest.raises(CosetViolationError, match=r"^pi_e\*\*1 component 1 does not cancel$"):
        y.as_padic_scalar()
    # Coordinate 0 folded from pi**3 holds -7 in the form; the scalar reads it mod 11**4.
    seven = PadicScalar.from_rational(7, 11, 4)
    folded = EisensteinElement.pi_monomial(seven, 2, 3).mul_pi_power(1)
    assert folded.form == ((0, -7, 1, 4),)
    s = folded.as_padic_scalar()
    assert (s.unit, s.valuation, s.abs_precision) == (11**4 - 7, 1, 5)
    assert repr(s) == "14634*11^1 + O(11^5)" and s == -77
    # Zeros known to a precision cancel; a folded nonzero higher coordinate does not.
    z = folded + EisensteinElement(11, 3, [PadicScalar.exact_zero(11)]
                                   + [PadicScalar.zero_to_precision(11, 2)] * 2)
    assert repr(z.as_padic_scalar()) == "14634*11^1 + O(11^5)"
    w = EisensteinElement.pi_monomial(PadicScalar.from_rational(3, 11, 4), 5, 3)
    assert w.form == ((2, -3, 1, 4),)
    with pytest.raises(CosetViolationError,
                       match=r"^pi_e\*\*2 component 14638\*11\^1 \+ O\(11\^5\) does not cancel$"):
        w.as_padic_scalar()
    # The message names the least index, whatever the order of the form.
    v = EisensteinElement(11, 3, [exact(4), exact(5), exact(6)]).mul_pi_power(2)
    assert [t[0] for t in v.form] == [2, 0, 1]
    with pytest.raises(CosetViolationError,
                       match=r"^pi_e\*\*1 component -6\*11\^1 does not cancel$"):
        v.as_padic_scalar()


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
    with pytest.raises(ZeroDivisionError, match="^inverting zero$"):
        zero / zero


def test_exact_zero_dividend_is_one_rule_for_both_types():
    # x / y for a number y: the exact 0 over a y that is not zero to its precision
    # is the exact 0; over any other y it is x * y.inverse(), which raises as the
    # inverse does.  Both types share the one `/`.
    q_zero, l_zero = PadicScalar.exact_zero(5), EisensteinElement.zero(11, 3)
    seventy_seven = PadicScalar.from_rational(77, 5, INFINITY)  # exact, 1/77 has no expansion
    assert (q_zero / seventy_seven) is q_zero
    assert (q_zero / PadicScalar.from_rational(77, 5, 3)).is_exact_zero
    assert (EisensteinElement.zero(5, 4) / seventy_seven).is_exact_zero
    with pytest.raises(PrecisionError, match="^1/77 has no exact finite expansion"):
        PadicScalar.from_rational(2, 5, INFINITY) / seventy_seven
    for divisor in (PadicScalar.exact_zero(5), PadicScalar.zero_to_precision(5, 3)):
        for dividend in (q_zero, EisensteinElement.zero(5, 6)):
            with pytest.raises(ZeroDivisionError, match=r"^inverting a \(precision\) zero$"):
                dividend / divisor
    # Over L a zero known to p**4 may itself be 0: the quotient is not an exact 0.
    known_zero = EisensteinElement.from_scalar(PadicScalar.zero_to_precision(11, 4), 3)
    with pytest.raises(PrecisionError, match="^element is zero to precision"):
        l_zero / known_zero
    shared = {"__pow__", "__truediv__"}
    assert not shared & (set(vars(PadicScalar)) | set(vars(EisensteinElement)))


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
    # Over two ram indices the difference is refused, so they compare unequal.
    y = EisensteinElement.from_rational(5, 11, 4, 2)
    assert x.__eq__(y) is NotImplemented
    assert not x == y and x != y


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


def _scalar_texts(c):
    """The JSON fields and repr of a scalar from its unit, valuation and precision:
    the formula of the formatter that `_texts` replaced, and its lift as a Fraction."""
    p, unit, v, N = c.prime, c.unit, c.valuation, c.abs_precision
    if unit:
        body = f"{unit}" if v == 0 else f"{unit}*{p}^{v}"
        text = body if N == INFINITY else f"{body} + O({p}^{N})"
    else:
        text = "0" if N == INFINITY else f"O({p}^{N})"
    lift = unit * Fraction(p) ** v if unit else Fraction(0)
    return {"lift": str(lift), "precision": _encode_exact(N), "repr": text}


def _coordinate_texts(x):
    """The JSON fields and repr of x through its coordinates: a PadicScalar per
    coordinate, printed by `_scalar_texts` (the route the formatter replaced)."""
    coords, bits = [_scalar_texts(c) for c in x.coords], []
    for i, c in enumerate(coords):
        if c["repr"] == "0":
            continue
        inner = c["repr"]
        if " " in inner:
            inner = f"({inner})"
        bits.append(inner if i == 0 else f"{inner}*pi^{i}" if i > 1 else f"{inner}*pi")
    return {
        "coordinates": [c["lift"] for c in coords],
        "coordinate_precisions": [c["precision"] for c in coords],
        "pi_precision": _encode_exact(x.pi_precision()),
        "repr": " + ".join(bits) or "0",
    }


def test_json_and_repr_from_the_form_match_the_coordinates():
    seen = {"index order": 0, "finite -u": 0, "negative floor": 0, "precision zero": 0,
            "scalar finite -u": 0}
    for seed in range(20):
        for a, b in _random_pairs(150, seed=seed):
            for x in (a, -a, a * b, a.mul_pi_power(seed - 9), a.truncate_pi(seed - 3),
                      (-b).truncate_pi(2 * seed)):
                want = _coordinate_texts(x)
                assert _eisenstein_json(x) == want, x.form
                assert repr(x) == want["repr"], x.form
                indices = [t[0] for t in x.form]
                seen["index order"] += indices != sorted(indices)
                seen["finite -u"] += any(u < 0 and r != INFINITY for _, u, _, r in x.form)
                seen["negative floor"] += any(u and f < 0 for _, u, f, _ in x.form)
                seen["precision zero"] += any(not u for _, u, _, _ in x.form)
                # Scalars print through the same formatter: each coordinate, and its
                # negation and shift, which hold -u and a moved floor in their forms.
                for c in x.coords if seed < 5 else ():
                    for s in (c, -c, c.shift(seed - 9)):
                        want = _scalar_texts(s)
                        assert _scalar_json(s) == want, s.form
                        assert repr(s) == want["repr"], s.form
                        seen["scalar finite -u"] += any(u < 0 and r != INFINITY
                                                        for _, u, _, r in s.form)
    assert min(seen.values()) >= 1000, seen


def test_embedding_matches_target_precision():
    s = EisensteinElement.from_rational(5, 11, 3, 2) + 1
    assert s.coords[0].abs_precision == 2
    t = EisensteinElement.zero(11, 3) + Fraction(1, 11)
    assert t.coords[0].abs_precision == INFINITY
    u = EisensteinElement.zero(11, 3) + PadicScalar.from_rational(3, 11, 4)
    assert u.coords[0].abs_precision == 4


# -- differential oracle for the product kernel -------------------------------


# The references below restate the precision rules of Caruso, Roe and Vaccon,
# "Tracking p-adic precision" (2014), on Fractions, and call none of the
# package's arithmetic.  A coordinate is (lift, N): the rational it stands
# for, known modulo p**N; an exact zero is (0, INFINITY).


def _ref(c):
    return c.lift_fraction(), c.abs_precision


def _floor(p, lift, N):
    """The least valuation that lift + O(p**N) can have."""
    return _vp(lift, p) if lift else N


def _ref_key(p, lift, N):
    """(unit, valuation, abs_precision) of lift + O(p**N) in normal form, from vp."""
    if lift == 0 or _vp(lift, p) >= N:
        return 0, INFINITY, N
    v = _vp(lift, p)
    unit = Fraction(lift) / Fraction(p) ** v
    if N == INFINITY:
        assert unit.denominator == 1, lift  # an exact value carries an integer unit
        return int(unit), v, N
    P = p ** (N - v)
    return unit.numerator * pow(unit.denominator, -1, P) % P, v, N


def _ref_sum(xs):
    """A sum is the sum of the lifts, known to the least of the precisions."""
    return sum(lift for lift, _ in xs), min(N for _, N in xs)


def _ref_product(p, x, y):
    """A product is the product of the lifts, known to min(N_a + f_b, N_b + f_a)."""
    (la, Na), (lb, Nb) = x, y
    return la * lb, min(Na + _floor(p, lb, Nb), Nb + _floor(p, la, Na))


def _ref_element_product(p, xs, ys):
    """Coordinates of x * y in Q_p(pi), pi**e = -p: the coordinate products at
    i + j, folded from e on (times -p, one more digit), summed per index."""
    e = len(xs)
    terms = [[] for _ in range(e)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lift, N = _ref_product(p, x, y)
            terms[(i + j) % e].append((-p * lift, N + 1) if i + j >= e else (lift, N))
    return [_ref_sum(t) for t in terms]


def _ref_scaled(p, x, q):
    """x * q for an exact int or Fraction q: the lift times q, known to
    N + v(q); an exact unit that the p-free part of q's denominator does not
    divide has no exact finite expansion."""
    (lift, N), q = x, Fraction(q)
    if q == 0 or (lift == 0 and N == INFINITY):
        return Fraction(0), INFINITY
    den = q.denominator // p ** _vp(Fraction(q.denominator), p)
    if N == INFINITY and (lift / Fraction(p) ** _vp(lift, p)) % den:
        raise PrecisionError(f"1/{den} has no exact finite expansion; reduce precision first")
    return lift * q, N + _vp(q, p)


def _ref_inverse(p, x):
    """1/x, to the same relative precision: known to N - 2v."""
    lift, N = x
    if lift == 0:
        raise ZeroDivisionError("inverting a (precision) zero")
    v = _vp(lift, p)
    unit = abs(lift / Fraction(p) ** v)
    if N == INFINITY and unit != 1:
        raise PrecisionError(f"1/{unit} has no exact finite expansion; reduce precision first")
    return 1 / lift, N - 2 * v


def _ref_quotient(p, xs, y):
    """xs / y for a number y, coordinates xs: the exact 0 stays itself when y is not
    zero to its precision; otherwise each coordinate times 1/y."""
    if all(x == (0, INFINITY) for x in xs) and y[0]:
        return xs
    inverse = _ref_inverse(p, y)
    return [_ref_product(p, x, inverse) for x in xs]


def _ref_embedded(p, c, N):
    """An int or Fraction as `+` embeds it: known to N, the least precision of
    the other summand; exact only with a power of p as its denominator."""
    c = Fraction(c)
    den = c.denominator // p ** _vp(Fraction(c.denominator), p)
    if N == INFINITY and den != 1:
        raise PrecisionError(f"1/{den} has no exact finite expansion; give a finite precision")
    return c, N


def _ref_divided(p, x, q):
    if q == 0:
        raise ZeroDivisionError("division by zero")
    return _ref_scaled(p, x, 1 / Fraction(q))


def _ref_power(p, x, n):
    """x**n as repeated products, from the exact 1; of 1/x when n < 0."""
    base, out = (x if n >= 0 else _ref_inverse(p, x)), (Fraction(1), INFINITY)
    for _ in range(abs(n)):
        out = _ref_product(p, out, base)
    return out


def _ref_outcome(p, fn):
    """(the keys of the coordinates fn() lists, None) or (None, the error's
    type and message), as `_outcome` reports the package's result."""
    try:
        coords = fn()
    except (ArithmeticError, ValueError) as exc:
        return None, (type(exc), str(exc))
    return [_ref_key(p, *c) for c in coords], None


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
        want = _ref_element_product(a.prime, [_ref(c) for c in a.coords],
                                    [_ref(c) for c in b.coords])
        assert [_key(c) for c in got.coords] == [_ref_key(a.prime, *c) for c in want], (a, b)
        _agrees_to_precision(got, _exact_product(_lifts(a), _lifts(b), a.prime), a.prime)


def test_inverse_and_powers_match_fraction_arithmetic():
    inverted, refused = 0, collections.Counter()
    for a, _ in _random_pairs(150, seed=7):
        p, e = a.prime, a.ram_index
        exact = [Fraction(1)] + [Fraction(0)] * (e - 1)
        for n in range(5):
            _agrees_to_precision(a**n, exact, p)
            exact = _exact_product(exact, _lifts(a), p)
        try:
            inv = a.inverse()
        except (PrecisionError, ZeroDivisionError) as exc:
            for n in (1, 2):  # a negative power inverts first, with the inversion's error
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    a**-n
            refused[type(exc)] += 1
            continue
        inverted += 1
        for n in (1, 2, 3):
            assert a**-n == 1 / a**n, (a, n)
        # lift(a) lies in a's ball, so lift(a)**-1 is within pi**P of inv and
        # v(lift(a) * lift(inv) - 1) >= v(a) + P/e, P = inv.pi_precision().
        residual = _exact_product(_lifts(a), _lifts(inv), p)
        residual[0] -= 1
        P = inv.pi_precision()
        bound = INFINITY if P == INFINITY else a.valuation() + Fraction(P, e)
        for k, q in enumerate(residual):
            assert q == 0 or _vp(q, p) + Fraction(k, e) >= bound, (a, inv)
    assert inverted >= 40 and refused[PrecisionError] >= 40, refused
    for e in (3, 4, 6):
        x = EisensteinElement(11, e, [PadicScalar(11, 3 + i, i % 2, 9) for i in range(e)])
        assert x**-2 == 1 / x**2 and x**-2 * x**2 == 1
        with pytest.raises(ZeroDivisionError, match="^inverting zero$"):
            EisensteinElement.zero(11, e) ** -1
        with pytest.raises(PrecisionError, match="^element is zero to precision"):
            EisensteinElement.from_scalar(PadicScalar.zero_to_precision(11, 4), e) ** -3


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
        want = [(Fraction(1), INFINITY)] + [(Fraction(0), INFINITY)] * (e - 1)
        for n in range(13):
            assert [_key(c) for c in (a**n).coords] == [_ref_key(p, *c) for c in want], (a, n)
            want = _ref_element_product(p, want, [_ref(c) for c in a.coords])


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
    e, p = a.ram_index, a.prime
    v = a.valuation()
    lead_i = int(e * v) % e
    lead = PadicScalar(p, *_ref_key(p, *_ref_inverse(p, _ref(a.coords[lead_i]))))
    inv_lead = EisensteinElement.pi_monomial(lead, -lead_i, e)
    w = 1 - a * inv_lead
    prec = w.pi_precision()
    if prec == INFINITY:
        return inv_lead
    if w.valuation_floor() <= 0:  # the tail sum(w**j) would not converge
        raise PrecisionError("tail not contracting; precision too low")
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


def _monomial_coordinates(rng, p):
    """Exact units of either sign, finite-precision units and precision zeros."""
    v = rng.randrange(-3, 5)
    unit = rng.randrange(1, p**2)
    unit += unit % p == 0
    return [
        PadicScalar(p, unit, v, INFINITY),
        PadicScalar(p, -unit, v, INFINITY),
        PadicScalar(p, unit, v, v + rng.randrange(1, 9)),
        PadicScalar.zero_to_precision(p, rng.randrange(-3, 8)),
    ]


def test_monomial_powers_match_square_and_multiply():
    rng, p = random.Random(14), 11
    exponents = list(range(41)) + [p**5 // 6 - 1, p**5 // 6, p**5 // 6 + 1]
    negative_after_odd_folds = 0
    for e in (3, 4, 6):
        one, mul = [(0, 1, 0, INFINITY)], partial(_product, p, e)
        for i in range(e):
            for c in _monomial_coordinates(rng, p):
                a = EisensteinElement.pi_monomial(c, i, e)
                assert len(a.form) == 1
                for n in exponents:
                    want = _element(p, e, power_by_squaring(a.form, n, one, mul))
                    got = a**n
                    assert [_key(x) for x in got.coords] == [_key(x) for x in want.coords], (a, n)
                    if c.unit < 0 and (i * n // e) % 2:
                        negative_after_odd_folds += 1
    assert negative_after_odd_folds >= 100


def test_one_entry_products_match_the_fraction_rules():
    # Monomial times monomial, the shape of every Yasuda term, at every index pair
    # (PadicScalar products, e = 1, are checked in test_scalar_operators_match_the_fraction_rules).
    rng, counts = random.Random(24), {"fold": 0, "finite -u": 0, "precision zero": 0}
    for p in (5, 11):
        for e in (3, 4, 6):
            for i in range(e):
                for j in range(e):
                    for c in _monomial_coordinates(rng, p):
                        for d in _monomial_coordinates(rng, p):
                            a = EisensteinElement.pi_monomial(c, i, e)
                            b = -EisensteinElement.pi_monomial(d, j, e)  # a finite unit as -u
                            assert len(a.form) == 1 == len(b.form)
                            want = _ref_element_product(p, [_ref(x) for x in a.coords],
                                                        [_ref(x) for x in b.coords])
                            got = [_key(x) for x in (a * b).coords]
                            assert got == [_ref_key(p, *w) for w in want], (a, b)
                            (_, u, _, r), = b.form
                            counts["fold"] += i + j >= e
                            counts["finite -u"] += u < 0 and r != INFINITY
                            counts["precision zero"] += not (c.unit and d.unit)
    assert min(counts.values()) >= 200, counts


def _monomial_with_zeros(rng, p, e, i, exact):
    """A unit at pi**i, exact (+-1, 2 or -3) or finite, and at each other index an
    exact zero or a zero known to p**g, g from f - 1 to f + 4, f the unit's floor."""
    f = rng.randrange(-2, 3)
    if exact:
        lead = PadicScalar(p, rng.choice((1, -1, 2, -3)), f, INFINITY)
    else:
        unit = rng.randrange(1, p**6)
        lead = PadicScalar(p, unit + (unit % p == 0), f, f + rng.randrange(1, 8))
    zeros = [PadicScalar.exact_zero(p)] + [PadicScalar.zero_to_precision(p, g)
                                           for g in range(f - 1, f + 5)]
    return lead, EisensteinElement(p, e, [lead if j == i else rng.choice(zeros)
                                          for j in range(e)])


def test_monomial_inverses_match_the_geometric_tail():
    # A unit plus zeros known to some precision, as every divisor of the log route;
    # inverse() takes its closed form, the references sum the tail term by term.
    rng, outcomes = random.Random(25), {}
    for p in (5, 7, 11, 13):
        for e in (3, 4, 6):
            for i in range(e):
                for exact in (True, True, False, False, False) * 4:
                    lead, a = _monomial_with_zeros(rng, p, e, i, exact)
                    # the unit cut below, at or above its own digits: zeros listed after it
                    w = e * lead.valuation + i
                    b = EisensteinElement.pi_monomial(lead, i, e).truncate_pi(
                        rng.randrange(w - e, w + 6 * e))
                    for x in (a, b, EisensteinElement.pi_monomial(lead, i, e)):
                        got = _outcome(x.inverse)
                        try:
                            want = [_key(c) for c in _geometric_inverse(x).coords], None
                        except (PrecisionError, ZeroDivisionError) as exc:
                            want = None, (type(exc), str(exc))
                        assert got == want, x
                        if got[1] is None:
                            inv = x.inverse()
                            _agrees_to_precision(inv, _exact_inverse(_lifts(x), p), p)
                            seen = "exact" if inv.pi_precision() == INFINITY else "cut"
                        else:
                            seen = got[1][1].split(";")[0].split(":")[0]
                        outcomes[seen] = outcomes.get(seen, 0) + 1
    assert min(outcomes.values()) >= 50 and set(outcomes) == {
        "exact", "cut", "tail not contracting", "valuation ambiguous",
        "element is zero to precision", "1/2 has no exact finite expansion",
        "1/3 has no exact finite expansion"}, outcomes


# -- the element stores its integer form: oracles for +, - and the invariants ----


def _outcome(fn):
    """(the coordinate keys of fn(), None) or (None, the error's type and message)."""
    try:
        result = fn()
    except (ArithmeticError, ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))
    coords = result.coords if isinstance(result, EisensteinElement) else [result]
    return [_key(c) for c in coords], None


def _spread_and_cancelling_pairs():
    """Pairs with coordinate floors 0, 200 and 400 (cycled over the e indices), and
    pairs, exact or known past p**K, whose difference (and the sum with -b)
    cancels in every coordinate to a power p**K, K from 150 to 400."""
    rng, out = random.Random(26), []
    for p in (5, 11):
        for e in (3, 4, 6):
            for _ in range(5):
                def unit():
                    u = rng.choice((1, -1)) * rng.randrange(1, p**12)
                    return u + (u % p == 0)

                floors = [200 * (i % 3) for i in range(e)]
                a, b = (EisensteinElement(p, e, [PadicScalar(
                    p, unit(), f, rng.choice((INFINITY, f + rng.randrange(1, 13))))
                    for f in rng.sample(floors, e)]) for _ in range(2))
                out.append((a, b))
                K, exact = rng.randrange(150, 400), rng.random() < 0.5
                lifts = [unit() * Fraction(p) ** rng.randrange(-2, 3) for _ in range(e)]
                near = [q + unit() * p**K for q in lifts]
                a, b = (EisensteinElement(p, e, [PadicScalar.from_rational(
                    q, p, INFINITY if exact else K + rng.randrange(1, 20)) for q in qs])
                    for qs in (lifts, near))
                out += [(a, b), (a, -b)]
    return out


def test_kernel_sum_matches_coordinatewise_padic_addition():
    shapes, errors, cancelled = set(), 0, 0
    for pairs in [*map(partial(_random_pairs, 150), range(20)), _spread_and_cancelling_pairs()]:
        for a, b in pairs:
            cancelled += all(c.unit and c.valuation >= 150 for c in (a - b).coords)
            for c in a.coords + b.coords:
                shapes.add("exact zero" if c.is_exact_zero else "precision zero"
                           if c.is_precision_zero else "finite" if c.abs_precision != INFINITY
                           else "exact")
            p, xs, ys = a.prime, [_ref(c) for c in a.coords], [_ref(c) for c in b.coords]
            for op, sign in ((add, 1), (sub, -1)):
                want = _ref_outcome(
                    p, lambda: [_ref_sum([x, (sign * l, N)]) for x, (l, N) in zip(xs, ys)])
                assert _outcome(lambda: op(a, b)) == want, (a, b, op)
            assert _outcome(lambda: -a) == _ref_outcome(p, lambda: [(-l, N) for l, N in xs])
            least = min(N for _, N in xs)
            for c in (3, -p**2, Fraction(2, 7), Fraction(5, p), b.coords[0],
                      PadicScalar.from_rational(7, p, 3)):
                def summand():  # c in coordinate 0
                    return _ref(c) if isinstance(c, PadicScalar) else _ref_embedded(p, c, least)

                want = _ref_outcome(p, lambda: [_ref_sum([xs[0], summand()])] + xs[1:])
                assert _outcome(lambda: a + c) == want, (a, c)
                assert _outcome(lambda: c + a) == want, (a, c)
                errors += want[1] is not None
    assert shapes == {"exact zero", "precision zero", "finite", "exact"}
    assert errors >= 40  # p-free denominators against exact coordinates
    assert cancelled == 30
    x = EisensteinElement.from_rational(1, 5, 3, 4)
    with pytest.raises(ValueError, match="^mixed fields$"):
        x + EisensteinElement.from_rational(1, 11, 3, 4)
    with pytest.raises(ValueError, match="^mixed fields$"):
        x - EisensteinElement.from_rational(1, 5, 4, 4)
    with pytest.raises(ValueError, match="^mixed fields$"):
        x + PadicScalar.from_rational(1, 11, 4)
    with pytest.raises(PrecisionError, match="^1/2 has no exact finite expansion"):
        EisensteinElement.from_rational(1, 5, 3, INFINITY) + Fraction(1, 2)
    with pytest.raises(TypeError):
        x + "1"
    with pytest.raises(TypeError):
        x + 1.0


@pytest.mark.parametrize("other", ["1", None, 1.0, [1]])
def test_reflected_subtraction_of_a_foreign_operand_names_minus(other):
    for x in (EisensteinElement.from_rational(1, 5, 3, 4), PadicScalar.from_rational(1, 5, 4)):
        name = type(x).__name__
        with pytest.raises(TypeError, match=rf"for -: '{type(other).__name__}' and '{name}'$"):
            other - x
        with pytest.raises(TypeError, match=rf"for -: '{name}' and '{type(other).__name__}'$"):
            x - other


def _assert_normal_unit(c):
    """A scalar's unit lies in [0, p**r) and is prime to p when finite, whatever
    sign its form holds (an exact unit keeps its sign)."""
    if c.unit:
        r = c.abs_precision - c.valuation
        assert c.unit % c.prime and (r == INFINITY or 0 < c.unit < c.prime**r), c.form


def test_reflected_division_matches_the_inverse_times_the_numerator():
    inverted = 0
    for seed in range(5):
        for a, b in _random_pairs(150, seed=seed):
            p = a.prime
            for c in (3, -p**2, Fraction(2, 7), Fraction(-5, p), b.coords[0],
                      PadicScalar.from_rational(7, p, 3)):
                want = _outcome(lambda: a.inverse() * c)
                assert _outcome(lambda: c / a) == want, (a, c)
                inverted += want[1] is None
            s = b.coords[1]
            assert _outcome(lambda: 1 / s) == _outcome(lambda: s.inverse() * 1)
            with pytest.raises(ValueError, match="^mixed fields$"):  # 16 - p: the other prime
                PadicScalar.from_rational(1, 16 - p, 3) / a
    assert inverted >= 500


@pytest.mark.parametrize("other", ["1", 2.0, None, [1]])
def test_reflected_division_of_a_foreign_operand_names_slash(other):
    zero = PadicScalar.zero_to_precision(11, 3)
    for x in (EisensteinElement.from_rational(1, 5, 3, 4), PadicScalar.from_rational(1, 5, 4),
              zero, EisensteinElement.from_scalar(zero, 3)):
        name = type(x).__name__
        with pytest.raises(TypeError, match=rf"for /: '{type(other).__name__}' and '{name}'$"):
            other / x


def test_scalar_operators_match_the_fraction_rules():
    rng, errors, negated = random.Random(21), set(), 0
    for _ in range(1500):
        p = rng.choice((5, 11))
        x, y = _random_coordinate(rng, p), _random_coordinate(rng, p)
        rx, ry = _ref(x), _ref(y)
        q = rng.choice((0, 3, -p**2, 7 * p**3, Fraction(2, 7), Fraction(5, p),
                        Fraction(-3, 4 * p**2)))
        k, N = rng.randrange(-4, 5), rng.randrange(-3, 9)
        cases = [
            (lambda: x + y, lambda: _ref_sum([rx, ry])),
            (lambda: x - y, lambda: _ref_sum([rx, (-ry[0], ry[1])])),
            (lambda: -x, lambda: (-rx[0], rx[1])),
            (lambda: (-x).shift(k), lambda: (-rx[0] * Fraction(p) ** k, rx[1] + k)),
            (lambda: x.shift(k), lambda: (rx[0] * Fraction(p) ** k, rx[1] + k)),
            (lambda: x.reduce_abs_precision(N), lambda: (rx[0], min(rx[1], N))),
            (lambda: (-x).reduce_abs_precision(N), lambda: (-rx[0], min(rx[1], N))),
            (lambda: x * y, lambda: _ref_product(p, rx, ry)),
            (lambda: x / y, lambda: _ref_quotient(p, [rx], ry)[0]),
            (x.inverse, lambda: _ref_inverse(p, rx)),
            (lambda: x + q, lambda: _ref_sum([rx, _ref_embedded(p, q, rx[1])])),
            (lambda: q - x, lambda: _ref_sum([(-rx[0], rx[1]), _ref_embedded(p, q, rx[1])])),
            (lambda: x * q, lambda: _ref_scaled(p, rx, q)),
            (lambda: q * x, lambda: _ref_scaled(p, rx, q)),
            (lambda: x / q, lambda: _ref_divided(p, rx, q)),
            (lambda: q / x, lambda: _ref_scaled(p, _ref_inverse(p, rx), q)),
        ]
        cases += [(lambda n=n: x**n, lambda n=n: _ref_power(p, rx, n)) for n in range(-3, 7)]
        for got, want in cases:
            want = _ref_outcome(p, lambda: [want()])
            assert _outcome(got) == want, (x, y, q)
            if want[1]:
                errors.add(want[1])
            else:
                _assert_normal_unit(got())
                negated += any(u < 0 and r != INFINITY for _, u, _, r in got().form)
        assert x.reduce_abs_precision(x.abs_precision) is x
        assert x.reduce_abs_precision(INFINITY) is x
    # Zeros, exact non-units and p-free denominators against exact values all raise.
    assert {t for t, _ in errors} == {ZeroDivisionError, PrecisionError} and len(errors) >= 10
    assert negated >= 1000  # finite units stored as -u, read mod p**r
    with pytest.raises(ValueError, match="^mixed primes$"):
        PadicScalar.from_rational(1, 5, 3) * PadicScalar.from_rational(1, 11, 3)


def test_scaling_and_scalar_products_match_the_fraction_rules():
    # x * q, q * x and x / q for an int or Fraction q scale every coordinate;
    # by a scalar s they take each coordinate's product with s or with 1/s.
    errors = set()
    for seed in range(20):
        for a, b in _random_pairs(150, seed=seed):
            p, xs = a.prime, [_ref(c) for c in a.coords]
            scalars = (b.coords[0], PadicScalar.from_rational(7, p, 3), exact(3 * p, p))
            for q in (0, 3, -p**2, 7 * p**3, Fraction(2, 7), Fraction(5, p),
                      Fraction(-3, 4 * p**2)):
                want = _ref_outcome(p, lambda: [_ref_scaled(p, x, q) for x in xs])
                assert _outcome(lambda: a * q) == want == _outcome(lambda: q * a), (a, q)
                want = _ref_outcome(p, lambda: [_ref_divided(p, x, q) for x in xs])
                assert _outcome(lambda: a / q) == want, (a, q)
                errors.add(want[1])
            for s in scalars:
                want = _ref_outcome(p, lambda: [_ref_product(p, x, _ref(s)) for x in xs])
                assert _outcome(lambda: a * s) == want == _outcome(lambda: s * a), (a, s)
                want = _ref_outcome(p, lambda: _ref_quotient(p, xs, _ref(s)))
                assert _outcome(lambda: a / s) == want, (a, s)
                errors.add(want[1])
    # Zero divisors, and p-free denominators or exact non-unit divisors against exact values.
    assert {t for t, _ in errors - {None}} == {ZeroDivisionError, PrecisionError}
    x, y = EisensteinElement.from_rational(1, 5, 3, 4), PadicScalar.from_rational(2, 11, 4)
    for op in (mul, lambda u, v: v * u, truediv):
        with pytest.raises(ValueError, match="^mixed fields$"):
            op(x, y)
    # L ÷ L checks the field before it inverts the divisor or returns a zero numerator.
    for divisor in (EisensteinElement.from_rational(2, 11, 3, 4), EisensteinElement.zero(5, 4)):
        for numerator in (x, EisensteinElement.zero(5, 3)):
            with pytest.raises(ValueError, match="^mixed fields$"):
                numerator / divisor


def _assert_form_invariants(x):
    """The stored form keeps the invariants of `eisenstein`, and `coords`
    round-trips through the constructor."""
    p, e = x.prime, x.ram_index
    assert isinstance(x.form, tuple)
    indices = [t[0] for t in x.form]
    assert len(set(indices)) == len(indices) and all(0 <= i < e for i in indices), x.form
    for i, u, f, r in x.form:
        assert f != INFINITY, x.form  # an exact zero is absent
        if u:
            assert u % p and (r == INFINITY or r >= 1), x.form
        else:
            assert r == 0, x.form  # a zero known to p**f
    back = EisensteinElement(p, e, x.coords)
    assert [_key(c) for c in back.coords] == [_key(c) for c in x.coords]
    assert back.pi_precision() == x.pi_precision()
    assert back.is_exact_zero == x.is_exact_zero == (not x.form)


def test_every_result_keeps_the_form_invariants():
    from padic_cartan.formal_log import yasuda_coefficient

    rng, checked = random.Random(20), 0

    def check(fn):
        nonlocal checked
        try:
            x = fn()
        except (PrecisionError, ZeroDivisionError):
            return
        _assert_form_invariants(x)
        checked += 1

    for a, b in _random_pairs(150, seed=20):
        p, e = a.prime, a.ram_index
        for x in (a, b, EisensteinElement.zero(p, e), -a):
            _assert_form_invariants(x)
        check(lambda: EisensteinElement.from_rational(Fraction(rng.randrange(-99, 99), 7), p, e,
                                                      rng.choice((INFINITY, 3))))
        check(lambda: EisensteinElement.pi_monomial(b.coords[0], rng.randrange(-9, 9), e))
        for fn in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
                   lambda: a ** rng.randrange(6), a.inverse, lambda: a + 3,
                   lambda: a * Fraction(2, 3), lambda: a / 7,
                   lambda: a.mul_pi_power(rng.randrange(-9, 9)),
                   lambda: a.truncate_pi(rng.randrange(-3, 12)),
                   lambda: yasuda_coefficient(a, b, rng.choice((1, 3, 5, 11, p**2)),
                                              rng.randrange(1, 9))):
            check(fn)
    assert checked >= 1500


def test_exact_floors_at_the_float_edge_multiply_add_and_print():
    # An exact entry's precision is the float inf, which an int floor past the float
    # range cannot be added to: the kernel adds a floor only to a finite precision, so
    # exact operands near sys.float_info.max multiply, add, raise and print, in Q_p and
    # in L.  A JSON lift of such a coordinate would print its p**floor digit by digit,
    # so the JSON is checked on zeros known to such precisions, and the lifts and
    # precisions it reads on the rest.
    import sys

    from padic_cartan.padic import _texts

    top, zero = int(sys.float_info.max), PadicScalar.exact_zero(11)
    x, y = PadicScalar(11, 1, top, INFINITY), PadicScalar(11, 3, top - 2, INFINITY)
    z = PadicScalar(11, 5, top, top + 7)
    cases = [
        (x * x, f"1*11^{2 * top}"), (x**3, f"1*11^{3 * top}"), (x * y, f"3*11^{2 * top - 2}"),
        (x * z, f"5*11^{2 * top} + O(11^{2 * top + 7})"), (x + y, f"124*11^{top - 2}"),
        (x - y, f"118*11^{top - 2}"), (y - x, f"-118*11^{top - 2}"), (x - x, "0"),
        (x * 3, f"3*11^{top}"), (x * zero, "0"), (x * x + 0, f"1*11^{2 * top}"),
        (0 - x * x, f"-1*11^{2 * top}"),
    ]
    big = EisensteinElement(11, 3, [x, y, zero])
    monomial = EisensteinElement(11, 3, [zero, x, zero])
    square = f"1*11^{2 * top} + 6*11^{2 * top - 2}*pi + 9*11^{2 * top - 4}*pi^2"
    cases += [
        (big * big, square), (big**2, square), (big * x, f"1*11^{2 * top} + 3*11^{2 * top - 2}*pi"),
        (big + big, f"2*11^{top} + 6*11^{top - 2}*pi"), (big - big, "0"),
        (monomial * monomial, f"1*11^{2 * top}*pi^2"), (monomial**3, f"-1*11^{3 * top + 1}"),
        (monomial * big, f"1*11^{2 * top}*pi + 3*11^{2 * top - 2}*pi^2"),
    ]
    cases.append(((big * big).truncate_pi(5), "O(11^2) + O(11^2)*pi + O(11^1)*pi^2"))
    for value, text in cases:
        assert repr(value) == text
    assert (x * x).abs_precision == INFINITY and (big * big).pi_precision() == INFINITY
    assert x * x != 0 and big * big != 0  # an int is embedded to the least finite precision
    one = PadicScalar(11, 1, 0, INFINITY)
    with pytest.raises(PrecisionError, match="^cannot invert an exact non-monomial$"):
        EisensteinElement(11, 3, [one, x * x, zero]).inverse()
    lifts, precisions, _ = _texts(big * x)
    assert lifts == [(1, 2 * top), (3, 2 * top - 2), (0, 0)]
    assert precisions == [INFINITY, INFINITY, INFINITY]
    edge = x * PadicScalar.zero_to_precision(11, 5)  # a zero known to 11**(top + 5)
    assert _scalar_json(edge) == {"lift": "0", "precision": top + 5, "repr": f"O(11^{top + 5})"}
    element = EisensteinElement(11, 3, [PadicScalar(11, 7, 0, INFINITY), edge, zero])
    assert _eisenstein_json(element * element) == {
        "coordinates": ["49", "0", "0"],
        "coordinate_precisions": ["inf", top + 5, 2 * top + 10],
        "pi_precision": 3 * (top + 5) + 1, "repr": repr(element * element)}
