"""Tests for the deformation parameters: closed forms and the log route."""

import collections
import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

import padic_cartan
from padic_cartan import volkov
from padic_cartan.classifier import classify
from padic_cartan.curve import WeierstrassCurve, good_model_over_L
from padic_cartan.eisenstein import EisensteinElement
from padic_cartan.errors import (
    CanonicalSubgroupError,
    NormalizationError,
    PadicCartanError,
    PrecisionError,
)
from padic_cartan.formal_log import recurrence_logarithm, yasuda_coefficient
from padic_cartan.padic import INFINITY, PadicScalar
from padic_cartan.volkov import (
    ALPHA_INFINITY,
    adaptive_level,
    alpha_from_beta,
    alpha_inverse,
    beta_from_logarithm,
    beta_pi_digits,
    epsilon_sign,
    has_canonical_subgroup,
    hodge_parameters,
    stabilization_level,
    v_alpha_table,
    v_beta_closed_form,
)


def test_epsilon_sign():
    for v in (2, 3, 4):
        assert epsilon_sign(v) == 1
    for v in (8, 9, 10):
        assert epsilon_sign(v) == -1
    for v in (0, 6, 1, 5, 12):
        with pytest.raises(ValueError):
            epsilon_sign(v)


def test_v_beta_closed_form():
    assert v_beta_closed_form(3, 5, 0) == Fraction(4, 3)
    assert v_beta_closed_form(6, 1, 0) == Fraction(1, 6)
    assert v_beta_closed_form(4, 0, 1) == Fraction(1, 4)
    assert v_beta_closed_form(3, INFINITY, 0) == INFINITY
    assert v_beta_closed_form(4, 0, INFINITY) == INFINITY
    with pytest.raises(ValueError):
        v_beta_closed_form(5, 1, 1)


def test_v_alpha_table_entries():
    assert v_alpha_table(3, 4, 5, 0) == 0
    assert v_alpha_table(3, 4, 8, 0) == -1
    assert v_alpha_table(3, 8, 4, 0) == 2
    assert v_alpha_table(4, 3, 0, 3) == 0
    assert v_alpha_table(4, 9, 0, 3) == 2
    assert v_alpha_table(6, 2, 4, 0) == 0
    assert v_alpha_table(6, 10, 2, 0) == 1


def test_v_alpha_table_rejections():
    with pytest.raises(ValueError):
        v_alpha_table(3, 4, 4, 0)  # (5 - 4)/3 is not an integer
    with pytest.raises(ValueError):
        v_alpha_table(3, 2, 4, 0)  # v(Delta)=2 forces e=6
    with pytest.raises(ValueError):
        v_alpha_table(3, 4, INFINITY, 0)
    with pytest.raises(ValueError):
        v_alpha_table(4, 3, 0, INFINITY)
    with pytest.raises(ValueError):
        v_alpha_table(3, 5, 5, 0)


# (e, v(j), v(j - 1728)): e in {3, 6} read v(j), e = 4 reads v(j - 1728),
# each over 0..12, plus the CM cases.
_GATE_GRID = (
    [(e, v, 0) for e in (3, 6) for v in range(13)]
    + [(4, 0, v) for v in range(13)]
    + [(3, INFINITY, 0), (6, INFINITY, 0), (4, 0, INFINITY)]
)


def _canonical_by_j(e, v_j, v_jm):
    """The j-invariant form of the gate, written out independently."""
    return v_j in (1, 2) if e in (3, 6) else v_jm == 1


def test_has_canonical_subgroup():
    assert has_canonical_subgroup(3, 1, 0)
    assert has_canonical_subgroup(3, 2, 0)
    assert not has_canonical_subgroup(3, 3, 0)
    assert has_canonical_subgroup(4, 0, 1)
    assert not has_canonical_subgroup(4, 0, 2)
    with pytest.raises(ValueError):
        has_canonical_subgroup(5, 1, 1)
    for e, v_j, v_jm in _GATE_GRID:
        assert has_canonical_subgroup(e, v_j, v_jm) == _canonical_by_j(e, v_j, v_jm), (
            e, v_j, v_jm)


def test_stabilization_level():
    assert stabilization_level(3, 5, 0) == 1
    assert stabilization_level(3, 8, 0) == 2
    assert stabilization_level(6, 4, 0) == 1
    assert stabilization_level(4, 0, 3) == 1
    with pytest.raises(CanonicalSubgroupError):
        stabilization_level(3, 2, 0)
    with pytest.raises(ValueError):
        stabilization_level(3, INFINITY, 0)
    for e, v_j, v_jm in _GATE_GRID:
        v = v_j if e in (3, 6) else v_jm
        if _canonical_by_j(e, v_j, v_jm):
            with pytest.raises(CanonicalSubgroupError):
                stabilization_level(e, v_j, v_jm)
        elif v == INFINITY:
            with pytest.raises(ValueError):
                stabilization_level(e, v_j, v_jm)
        else:
            want = v_j // 3 if e in (3, 6) else v_jm // 2
            assert stabilization_level(e, v_j, v_jm) == want, (e, v_j, v_jm)


def test_closed_forms_in_pi_digits_match_the_fraction_statements():
    # v(beta) = v/d - 1/e with v = v(j), d = 3 for e in {3, 6} and v = v(j - 1728),
    # d = 2 for e = 4, restated in Fractions; the code works in e*v(beta).
    grid = list(range(-3, 16)) + [INFINITY]
    for e, d in ((3, 3), (4, 2), (6, 3)):
        for v_j in grid:
            for v_jm in grid:
                v = v_jm if e == 4 else v_j
                v_beta = INFINITY if v == INFINITY else Fraction(v, d) - Fraction(1, e)
                digits = v_beta if v_beta == INFINITY else int(e * v_beta)
                assert beta_pi_digits(e, v_j, v_jm) == digits
                assert v_beta_closed_form(e, v_j, v_jm) == v_beta
                assert adaptive_level(e, digits) == (
                    1 if v_beta == INFINITY else max(1, math.floor(v_beta - Fraction(1, e)) + 1))
                canonical = 0 < v_beta + Fraction(1, e) < 1
                assert has_canonical_subgroup(e, v_j, v_jm) == canonical, (e, v_j, v_jm)
                if canonical:
                    with pytest.raises(CanonicalSubgroupError):
                        stabilization_level(e, v_j, v_jm)
                elif v_beta == INFINITY:
                    with pytest.raises(ValueError):
                        stabilization_level(e, v_j, v_jm)
                else:
                    assert stabilization_level(e, v_j, v_jm) == math.floor(
                        v_beta + Fraction(1, e)), (e, v_j, v_jm)


def _example1_model():
    return good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)


def test_beta_invisible_at_level_one():
    beta = beta_from_logarithm(_example1_model(), 1)
    assert beta.is_zero_to_precision()
    assert beta.pi_precision() == 4


def test_beta_visible_at_level_two():
    p = 11
    beta = beta_from_logarithm(_example1_model(), 2)
    assert beta.pi_precision() == 7
    assert beta.valuation() == Fraction(4, 3)
    want = EisensteinElement.pi_monomial(
        PadicScalar.from_rational(2 * p, p, INFINITY), 1, 3
    )
    assert beta.is_congruent(want, pi_digits=7)


def test_beta_precision_is_capped_by_certificate():
    # The level fixes the certificate pi^(k*e+1); a lower precision is a cut of
    # it, the one hodge_parameters makes.
    model = _example1_model()
    beta = beta_from_logarithm(model, 2)
    low = beta.truncate_pi(5)
    assert beta.pi_precision() == 7 and low.pi_precision() == 5
    hodge = hodge_parameters(WeierstrassCurve(11, 11**3, 11**2), k=2, precision=5)
    assert hodge.certificate_pi_digits == 5 and hodge.beta.form == low.form
    with pytest.raises(ValueError):
        beta_from_logarithm(model, -1)


def test_hodge_parameters_refuses_a_precision_below_one(monkeypatch):
    def no_sum(*args):
        raise AssertionError("the log route ran before the refusal")

    monkeypatch.setattr(volkov, "beta_from_logarithm", no_sum)
    # At p = 5, e = 6 this refusal now comes before the ratio route's "needs e < p-1".
    for curve in (WeierstrassCurve(11, 11**3, 11**2), WeierstrassCurve(11, 0, 11**2),
                  WeierstrassCurve(5, 25, 5)):
        for precision in (0, -3):
            with pytest.raises(ValueError) as caught:
                hodge_parameters(curve, precision=precision)
            assert type(caught.value) is ValueError
            assert str(caught.value) == "precision must be >= 1 pi-digit"
    monkeypatch.undo()
    # precision -3 leaves k = -1 (ceil(-4/3) = -1), which is refused as before.
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        hodge_parameters(WeierstrassCurve(11, 11**3, 11**2), k=-1, precision=-3)


def test_beta_route_type_and_field_checks():
    with pytest.raises(TypeError):
        beta_from_logarithm((Fraction(1), Fraction(2)))
    one = EisensteinElement.from_rational(1, 13, 3, INFINITY)
    with pytest.raises(NormalizationError) as refused:
        beta_from_logarithm((one, one))
    assert str(refused.value) == "e=3 does not divide p+1=14; reduction is not supersingular"
    one6 = EisensteinElement.from_rational(1, 5, 6, INFINITY)
    with pytest.raises(NormalizationError):
        beta_from_logarithm((one6, one6))  # e = 6 >= p - 1 = 4


def test_alpha_from_beta_sentinels():
    zero = EisensteinElement.zero(11, 3)
    assert alpha_from_beta(zero, 1) is ALPHA_INFINITY
    a = alpha_from_beta(zero, -1)
    assert isinstance(a, PadicScalar) and a.is_exact_zero
    with pytest.raises(ValueError):
        alpha_from_beta(zero, 0)
    invisible = EisensteinElement(
        11, 3, [PadicScalar.zero_to_precision(11, 2)] * 3
    )
    with pytest.raises(PrecisionError):
        alpha_from_beta(invisible, 1)


def test_alpha_inverse_conventions():
    assert alpha_inverse(ALPHA_INFINITY, 11).is_exact_zero
    with pytest.raises(ValueError):
        alpha_inverse(ALPHA_INFINITY)
    assert alpha_inverse(PadicScalar.exact_zero(11)) is ALPHA_INFINITY
    x = PadicScalar.from_rational(11, 11, 5)
    assert alpha_inverse(x).valuation == -1


def test_hodge_parameters_deep_ramification_example():
    hodge = hodge_parameters(WeierstrassCurve(11, 11**3, 11**2))
    assert (hodge.prime, hodge.e) == (11, 3)
    assert hodge.k_used == 2  # adaptive: first window past e*v(beta) = 4
    assert hodge.certificate_pi_digits == 7
    assert hodge.epsilon == 1
    assert hodge.v_beta == Fraction(4, 3)
    assert hodge.beta.valuation() == Fraction(4, 3)
    assert hodge.v_alpha == 0
    assert hodge.alpha.valuation == 0
    assert hodge.alpha.residue() == 5


def test_hodge_parameters_e4_with_epsilon_plus():
    hodge = hodge_parameters(WeierstrassCurve(11, 11, 11**2))
    assert hodge.e == 4
    assert hodge.k_used == 1
    assert hodge.v_beta == Fraction(1, 4)
    assert hodge.beta.valuation() == Fraction(1, 4)
    assert hodge.epsilon == 1
    assert hodge.v_alpha == 1
    assert hodge.alpha.valuation == 1


def test_hodge_parameters_epsilon_minus_branch():
    # v(disc) = 8: a = p^4 keeps 4a^3 dominant, j has valuation 4.
    hodge = hodge_parameters(WeierstrassCurve(11, 11**4, 11**4))
    assert hodge.e == 3
    assert hodge.epsilon == -1
    assert hodge.v_beta == Fraction(1)
    assert hodge.v_alpha == 2
    assert hodge.alpha.valuation == 2
    assert alpha_from_beta(hodge.beta, -1).is_congruent(hodge.alpha)


def test_hodge_parameters_cm_cases():
    plus = hodge_parameters(WeierstrassCurve(11, 0, 11**2))
    assert plus.beta.is_exact_zero
    assert plus.alpha is ALPHA_INFINITY
    assert plus.v_beta == INFINITY and plus.v_alpha == -INFINITY
    assert plus.epsilon == 1
    minus = hodge_parameters(WeierstrassCurve(11, 0, 11**4))
    assert minus.beta.is_exact_zero
    assert minus.alpha.is_exact_zero
    assert minus.v_alpha == INFINITY and minus.epsilon == -1
    e4 = hodge_parameters(WeierstrassCurve(11, 11, 0))
    assert e4.e == 4 and e4.beta.is_exact_zero
    assert e4.alpha is ALPHA_INFINITY


def test_hodge_parameters_precision_request_raises_k():
    hodge = hodge_parameters(WeierstrassCurve(11, 11**3, 11**2), precision=10)
    assert hodge.k_used == 3
    assert hodge.certificate_pi_digits == 10
    assert hodge.beta.pi_precision() == 10


def test_hodge_parameters_rejects_wrong_defect():
    with pytest.raises(NormalizationError):
        hodge_parameters(WeierstrassCurve(11, 1, 1))  # good ordinary, e = 1
    with pytest.raises(NormalizationError):
        hodge_parameters(WeierstrassCurve(5, 25, 5))  # e = 6 >= p - 1


@pytest.mark.parametrize("tamper, message", [
    (lambda beta, k: EisensteinElement.zero(11, 3),
     "log route gives beta = 0 but closed form v(beta) = 4/3"),
    (lambda beta, k: EisensteinElement.zero(11, 3).truncate_pi(7),
     "beta invisible mod pi^7 contradicts closed form v(beta) = 4/3"),
    (lambda beta, k: beta.mul_pi_power(1), "log route v(beta) = 5/3 != closed form 4/3"),
    (lambda beta, k: beta + 1 if k == 1 else beta,
     "beta certificates at k=1 and k=2 disagree mod pi^4"),
])
def test_hodge_parameters_safety_gates_catch_a_tampered_log_route(monkeypatch, tamper, message):
    # v(beta) = 4/3 at the adaptive level k = 2, certified mod pi^7, with the
    # k - 1 = 1 cross-check mod pi^4: each gate meets a log route that breaks it.
    route = volkov.beta_from_logarithm

    def tampered(model, k=1):
        return tamper(route(model, k), k)

    monkeypatch.setattr(volkov, "beta_from_logarithm", tampered)
    with pytest.raises(PadicCartanError) as caught:
        hodge_parameters(WeierstrassCurve(11, 11**3, 11**2))
    assert type(caught.value) is PadicCartanError and str(caught.value) == message


def test_alpha_infinity_is_singleton():
    # `alpha is ALPHA_INFINITY` is how the library reads it, so a pickled or
    # copied sentinel must come back as the module's one instance.
    assert repr(ALPHA_INFINITY) == "ALPHA_INFINITY"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ALPHA_INFINITY, protocol)) is ALPHA_INFINITY
    assert copy.copy(ALPHA_INFINITY) is ALPHA_INFINITY
    assert copy.deepcopy(ALPHA_INFINITY) is ALPHA_INFINITY


def test_beta_becomes_visible_at_level_three():
    # v(beta) = 7/3 needs a pi^8 window, so k = 3 is the first level that
    # resolves it; k = 2 only certifies the vanishing seen in its window.
    hodge = hodge_parameters(WeierstrassCurve(11, 11**4, 11**2), k=3)
    assert hodge.k_used == 3
    assert hodge.beta.valuation() == Fraction(7, 3)
    assert hodge.alpha.valuation == -1


@pytest.mark.parametrize("precision", [31, 40])
@pytest.mark.parametrize("a, b", [
    (Fraction(1331, 5), 121),
    (1331, Fraction(121, 5)),
    (Fraction(11, 7), Fraction(121, 3)),  # e = 4
    (Fraction(605, 7), Fraction(11, 3)),  # e = 6
])
def test_unit_denominator_certificates_hold_every_digit(a, b, precision):
    curve = WeierstrassCurve(11, a, b)
    hodge = hodge_parameters(curve, precision=precision)
    assert hodge.beta.pi_precision() >= hodge.certificate_pi_digits == precision
    # Oracle: the minimal model embedded to 120 p-digits, far past every
    # certificate, then scaled by u = pi**s as in the good model.
    red = curve.reduction
    e, s = red.defect, red.defect * red.v_min_discriminant // 12
    model = [
        EisensteinElement.pi_monomial(PadicScalar.from_rational(q, 11, 120), -w * s, e)
        for q, w in ((red.minimal.a, 4), (red.minimal.b, 6))
    ]
    oracle = beta_from_logarithm(model, hodge.k_used).truncate_pi(precision)
    assert oracle.pi_precision() == precision
    assert hodge.beta.is_congruent(oracle, precision)


def _seeded_lifts(seed, primes=(11, 17)):
    """Potential e-lifts (p, e, a, b), e | p + 1: integral, with p-free
    denominators, and CM lifts with one coefficient exactly 0."""
    rng = random.Random(seed)
    # (e, v(a), v(b)), None for an exact 0: v(disc) = min(3 v(a), 2 v(b)).
    shapes = [
        (3, 3, 2), (3, 2, 2), (3, 4, 4), (3, None, 2), (3, None, 4),
        (4, 1, 2), (4, 1, 3), (4, 3, 5), (4, 1, None), (4, 3, None),
        (6, 1, 1), (6, 2, 1), (6, 4, 5), (6, None, 1), (6, None, 5),
    ]
    for p in primes:
        for e, va, vb in shapes:
            if (p + 1) % e:
                continue
            for den in (1, rng.choice((2, 3, 5, 7))):
                a, b = (
                    0 if v is None else Fraction(rng.choice((-1, 1)) * rng.randrange(1, p) * p**v, den)
                    for v in (va, vb)
                )
                yield p, e, a, b


def test_closed_form_v_beta_matches_the_deforming_coefficient():
    deforming = {3: "a", 4: "b", 6: "a"}
    unit = {"a": "b", "b": "a"}
    cases = 0
    for p, e, a, b in _seeded_lifts(15):
        curve = WeierstrassCurve(p, a, b)
        assert curve.reduction.defect == e, (p, a, b)
        model = good_model_over_L(curve, e)
        v_deforming = getattr(model, deforming[e]).valuation()
        assert getattr(model, unit[deforming[e]]).valuation() == 0, (p, a, b)
        want = INFINITY if v_deforming == INFINITY else v_deforming - Fraction(1, e)
        assert v_beta_closed_form(e, curve.v_j, curve.v_j_minus_1728) == want, (p, a, b)
        cases += 1
    assert cases == 2 * (15 + 10)


def test_certified_digits_agree_with_the_next_level():
    # Every certified digit of beta, at the default level and at a requested
    # precision up to 40, against beta one level deeper, which carries e more
    # (Caruso-Roe-Vaccon: a precision claim is checked by a computation that
    # carries more digits).  is_congruent also fails a beta that carries fewer
    # digits than its certificate.
    rng = random.Random(16)
    checked = 0
    for p, e, a, b in _seeded_lifts(16, primes=(11, 17, 23)):
        curve = WeierstrassCurve(p, a, b)
        model = good_model_over_L(curve, e)
        for precision in (None, rng.randrange(1, 41)):
            hodge = hodge_parameters(curve, precision=precision)
            deeper = beta_from_logarithm(model, hodge.k_used + 1)
            assert hodge.beta.is_congruent(deeper, hodge.certificate_pi_digits), (
                p, a, b, precision, hodge.k_used)
            checked += 1
    assert checked == 2 * 2 * (15 + 10 + 15)


def test_truncated_model_gives_the_sums_of_the_exact_model():
    # The truncated-model half of the certificate gate: each Yasuda sum of
    # beta_from_logarithm at levels 0, 1, 2 (targets t = 2 at r = p**(2k+1)
    # and 1 + e at p**(2k), guard e included), on the good model truncated to
    # t + e*v_p(r) + e pi-digits, agrees with the sum on the exact model mod
    # pi**t, and on every digit both claim.  A coefficient that the cut would
    # leave zero to precision (an exact 0 among them) stays exact, as such
    # inputs are refused by design.
    compared = 0
    for p, e, a, b in _seeded_lifts(16, primes=(11, 17, 23)):
        model = good_model_over_L(WeierstrassCurve(p, a, b), e)
        for k in range(3):
            for j, t in ((2 * k + 1, 2), (2 * k, 1 + e)):
                cut = [x.truncate_pi(t + e * j + e) for x in model]
                cut = [x if c.is_zero_to_precision() else c for x, c in zip(model, cut)]
                got, want = (yasuda_coefficient(*x, p**j, t) for x in (cut, model))
                assert min(got.pi_precision(), want.pi_precision()) >= t, (p, a, b, k, j)
                assert got.is_congruent(want), (p, a, b, k, j)
                compared += 1
    assert compared == 2 * (15 + 10 + 15) * 3 * 2


@pytest.mark.parametrize("p, a, b", [(11, 11**3, 11**2), (11, 0, 11**2), (11, 0, 11),
                                     (11, 11, 0), (23, 23**4, 23**2), (17, 17**3, 17**2)])
def test_level_price_is_at_most_the_divisor_sums_own(monkeypatch, p, a, b):
    # The price beta_from_logarithm reads before any sum is a lower bound: the
    # plan of d_(p^2k) prices a kept term at no less, so nothing answered is
    # refused.  A CM lift returns beta = 0 before it builds that divisor, so the
    # divisor is built here after the call (a cached plan charges nothing again).
    # A dropped pair (digits 0) is priced as one digit, and is left out.
    from padic_cartan import formal_log

    calls, real = [], formal_log._charge

    def charge(p, e, size, vr, target, digits=0, cost=0):
        total = real(p, e, size, vr, target, digits, cost)
        if digits:
            calls.append((vr, target, total - cost))
        return total

    curve = WeierstrassCurve(p, a, b)
    e = curve.reduction.defect
    model = good_model_over_L(curve, e)
    monkeypatch.setattr(formal_log, "_WORK_BUDGET", math.inf)
    monkeypatch.setattr(formal_log, "_charge", charge)
    for k in range(4):
        padic_cartan._clear_caches()
        calls.clear()
        beta_from_logarithm(model, k)
        yasuda_coefficient(model.a, model.b, p ** (2 * k), 1 + e)
        (vr, target, price), *plans = calls
        assert any(c[:2] == (vr, target) for c in plans)  # the divisor's sum keeps a term
        assert all(price <= cost for v, t, cost in plans if (v, t) == (vr, target))


# -- beta plans: the rescale against the route ---------------------------------

# (v(a), v(b)) of non-CM potential e-lifts by e: v(disc) = min(3 v(a), 2 v(b)).
_LIFT_SHAPES = {3: ((3, 2), (2, 2), (4, 4), (3, 4)), 4: ((1, 2), (1, 3), (3, 5)),
                6: ((1, 1), (2, 1), (4, 5))}


def _shape_twins(seed, primes, kinds=("lift", "unit_den", "p_den")):
    """(p, e, first, second): two seeded curves (a, b) of each shape and kind at each
    p, for every e in {3, 4, 6} with e | p + 1 and e < p - 1, the route's domain.
    unit_den divides a and b by integers prime to p, p_den scales by p**-4, p**-6."""
    rng = random.Random(seed)

    def unit(p):
        return rng.choice((-1, 1)) * (rng.randrange(1, p) + p * rng.randrange(p * p))

    def den(p):
        return rng.choice([d for d in (2, 3, 4, 7, 9) if d % p])

    for p in primes:
        for e, shapes in _LIFT_SHAPES.items():
            if (p + 1) % e or e >= p - 1:
                continue
            for va, vb in shapes:
                for kind in kinds:
                    twins = []
                    for _ in range(2):
                        a, b = Fraction(unit(p) * p**va), Fraction(unit(p) * p**vb)
                        if kind == "unit_den":
                            a, b = a / den(p), b / den(p)
                        elif kind == "p_den":
                            a, b = a / p**4, b / p**6
                        twins.append((a, b))
                    yield p, e, *twins


def _outcome(fn):
    """A result, or the error's type and message."""
    try:
        return fn()
    except Exception as exc:  # every refusal is compared by type and message
        return type(exc), str(exc)


def _without_plans(monkeypatch):
    monkeypatch.setattr(volkov, "_beta_plan", lambda *key: None)


def _shape(model):
    """(wA, wB): the pi-valuations of a model of one exact entry each."""
    return tuple(x.ram_index * x.form[0][2] + x.form[0][0] for x in model)


def _assert_same_beta(got, want, context):
    """Equal forms, so equal value at full precision and equal repr."""
    if isinstance(want, tuple):  # a refusal
        assert got == want, context
        return
    assert got.form == want.form and repr(got) == repr(want) and got == want, context


def test_rescaled_beta_equals_the_route_on_the_second_curve_of_each_shape(monkeypatch):
    # The first curve of a shape builds its plan (a hit for every later curve), and the
    # second reads it: its beta, or its refusal, must be the route's, at k = 0..3.
    volkov._beta_plan.cache_clear()
    planned = invisible = 0
    primes = (5, 7, 11, 13, 17, 19, 23, 29)
    for p, e, first, second in _shape_twins(50, primes):
        models = [good_model_over_L(WeierstrassCurve(p, *ab), e) for ab in (first, second)]
        for k in range(4):
            _outcome(lambda: beta_from_logarithm(models[0], k))
            hits = volkov._beta_plan.cache_info().hits
            got = _outcome(lambda: beta_from_logarithm(models[1], k))
            assert volkov._beta_plan.cache_info().hits == hits + 1, (p, e, second, k)
            plan = volkov._beta_plan(p, e, k, *_shape(models[1]))
            want = _outcome(lambda: volkov._beta_route(*models[1], k))
            _assert_same_beta(got, want, (p, e, second, k))
            if plan is not None:  # the route's unit, and so the rescaled one, reduced mod p**r
                assert all(0 <= u < p**r for _, u, _, r in got.form if u), (p, e, second, k)
            planned += plan is not None
            invisible += plan is not None and got.is_zero_to_precision()
    assert planned >= 100 and invisible >= 30, (planned, invisible)
    with_plans = [classify(p, *second).to_dict()
                  for p, _, _, second in _shape_twins(50, primes)]
    _without_plans(monkeypatch)
    assert with_plans == [classify(p, *second).to_dict()
                          for p, _, _, second in _shape_twins(50, primes)]


@pytest.mark.parametrize("p, a, b, k, why", [
    (11, 1331, 121, 0, "the numerator keeps no term"),
    (11, 242, 363, 0, "both sums exact"),
    (11, 242, 363, 1, "the divisor keeps two terms"),
    (11, 11, 121, 2, "two and four terms"),
    (5, 375, 1250, 0, "exact at p = 5"),
    (5, 375, 1250, 2, "three terms each"),
])
def test_shapes_without_a_plan_take_the_route(p, a, b, k, why):
    curve = WeierstrassCurve(p, a, b)
    model = good_model_over_L(curve, curve.reduction.defect)
    assert volkov._beta_plan(p, model.a.ram_index, k, *_shape(model)) is None, why
    assert beta_from_logarithm(model, k).form == volkov._beta_route(*model, k).form, why


def test_cm_lifts_look_up_no_plan():
    # An exact 0 coefficient is no exact entry: beta = 0 exactly, by the route.
    for p, a, b in ((11, 0, 3 * 11**2), (11, 0, 11), (11, 2 * 11, 0), (23, 0, 5 * 23**4)):
        curve = WeierstrassCurve(p, a, b)
        model = good_model_over_L(curve, curve.reduction.defect)
        before = volkov._beta_plan.cache_info()
        for k in range(3):
            assert beta_from_logarithm(model, k).is_exact_zero
        info = volkov._beta_plan.cache_info()
        assert (info.hits, info.misses) == (before.hits, before.misses)


def test_every_refusal_is_the_routes(monkeypatch):
    # The checks, the level's price, a sum over the budget while the plan is built, and
    # a divisor zero to precision: each raises the same type and message with and
    # without the beta plans.
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)

    def units(p, e, wA, wB):
        return tuple(EisensteinElement.from_scalar(PadicScalar(p, u, 0, INFINITY), e)
                     .mul_pi_power(w) for u, w in ((1, wA), (2, wB)))

    one13, one5 = (EisensteinElement.from_rational(1, p, e, INFINITY) for p, e in ((13, 3), (5, 6)))
    cases = [((Fraction(1), Fraction(2)), 1), ((one13, one13), 1), ((one5, one5), 1),
             (model, -1), (model, 200), (units(23, 3, 0, 0), 2), (units(11, 3, 9, 9), 1)]

    def refusals():
        return [_outcome(lambda: beta_from_logarithm(m, k)) for m, k in cases]

    volkov._beta_plan.cache_clear()
    with_plans = refusals()
    assert [kind for kind, _ in with_plans] == [
        TypeError, NormalizationError, NormalizationError, ValueError, PrecisionError,
        PrecisionError, PrecisionError]
    assert "over the budget" in with_plans[5][1] and "zero to precision" in with_plans[6][1]
    _without_plans(monkeypatch)
    assert refusals() == with_plans


def test_a_budget_patched_low_after_the_plan_was_built_still_refuses(monkeypatch):
    from padic_cartan import formal_log

    model = good_model_over_L(WeierstrassCurve(17, 2 * 17**3, 3 * 17**2), 3)
    beta = beta_from_logarithm(model, 2)
    assert volkov._beta_plan(17, 3, 2, *_shape(model)) is not None
    monkeypatch.setattr(formal_log, "_WORK_BUDGET", 10)
    with pytest.raises(PrecisionError, match=r"over the budget 1e\+01$"):
        beta_from_logarithm(model, 2)
    monkeypatch.undo()
    assert beta_from_logarithm(model, 2).form == beta.form


# -- independent oracles of the plans: the exact beta over Q, and twists ------------


def _exact_beta(curve, k):
    """beta at level k from d_r over Q.  The good model is (c_a pi**(-4s), c_b pi**(-6s)),
    c_a = lam**4 a and c_b = lam**6 b on the minimal model, and every term of d_r has
    4m + 6n = r - 1, so beta = pi**(e-1-s(p**(2k+1)-p**(2k))) q with q the ratio of
    d_(p**(2k+1)) to d_(p**2k) of (c_a, c_b), exact by `recurrence_logarithm`; embedded
    to k*e+1+e pi-digits."""
    p, red = curve.prime, curve.reduction
    e, minimal = red.defect, red.minimal
    s, lam = e * red.v_min_discriminant // 12, math.lcm(minimal.a.denominator,
                                                        minimal.b.denominator)
    d = recurrence_logarithm(lam**4 * minimal.a, lam**6 * minimal.b, p ** (2 * k + 1))
    q = d.d(p ** (2 * k + 1)) / d.d(p ** (2 * k))
    if q == 0:  # the CM lifts
        return EisensteinElement.zero(p, e)
    shift = e - 1 - s * (p ** (2 * k + 1) - p ** (2 * k))
    digits = -((shift - (k + 1) * e - 1) // e)  # e*digits + shift >= k*e + 1 + e
    return EisensteinElement.from_rational(q, p, e, digits).mul_pi_power(shift)


def _oracle_lifts():
    """(p, k, a, b): seeded lifts, CM lifts among them, at p = 5, 7, 11 (k = 1) and 5 (k = 2)."""
    rng = random.Random(55)
    shapes = {5: ((3, 3, 2), (3, 2, 2), (3, 4, 4), (3, None, 2), (3, 3, 4)),
              7: ((4, 1, 2), (4, 1, 3), (4, 3, 5), (4, 1, None), (4, 3, 6)),
              11: ((3, 3, 2), (3, 4, 4), (4, 1, 2), (4, 3, None), (6, 1, 1), (6, 4, 5))}
    draws = [(p, 1, shape) for p in (5, 7, 11) for shape in shapes[p]]
    draws += [(5, 2, shape) for shape in shapes[5][:4]]
    for p, k, (_, va, vb) in draws:
        a, b = (0 if v is None else Fraction(
            rng.choice((-1, 1)) * (rng.randrange(1, p) + p * rng.randrange(p)) * p**v,
            rng.choice((1, 2, 3))) for v in (va, vb))
        yield p, k, a, b


def test_beta_agrees_with_the_exact_beta_over_q_on_every_certified_digit():
    # Independent of the Yasuda walk, its drop rule, its cut and the plans: beta from
    # the sums over L (read off a plan where the shape has one) against the exact beta.
    seen = collections.Counter()
    for p, k, a, b in _oracle_lifts():
        curve = WeierstrassCurve(p, a, b)
        e, certificate = curve.reduction.defect, k * curve.reduction.defect + 1
        model = good_model_over_L(curve, e)
        beta, exact = beta_from_logarithm(model, k), _exact_beta(curve, k)
        assert beta.is_congruent(exact, certificate), (p, k, a, b)
        if exact.is_exact_zero:
            assert beta.is_exact_zero, (p, k, a, b)
            seen["cm"] += 1
            continue
        if beta.is_zero_to_precision():
            seen["invisible"] += 1
        else:
            assert beta.pi_precision() >= certificate, (p, k, a, b)
            seen["visible"] += 1
        seen["planned"] += volkov._beta_plan(p, e, k, *_shape(model)) is not None
    assert sum(seen[kind] for kind in ("cm", "invisible", "visible")) == 20
    assert min(seen.values()) >= 2, seen


def test_twists_scale_beta_and_alpha_by_the_legendre_symbol():
    # (u**2 a, u**3 b) keeps the valuation shape and moves only the units, so it runs the
    # rescale: beta and alpha times (u|p), every other field equal.  (u**4 a, u**6 b)
    # and (p**4 a, p**6 b) are the same curve: the same JSON.
    rng = random.Random(56)
    symbols = collections.Counter()
    curves = [(p, *ab) for p, _, first, second in _shape_twins(56, (11, 17, 23), ("lift",))
              for ab in (first, second)][::3]
    curves += [(11, 0, 5 * 11**2), (23, 7 * 23, 0)]
    for p, a, b in curves:
        u = rng.choice([n for n in range(2, 40) if n % p])
        symbol = 1 if pow(u, (p - 1) // 2, p) == 1 else -1
        base, twist = classify(p, a, b), classify(p, u**2 * a, u**3 * b)
        if base.hodge is not None:
            symbols[symbol] += 1
            assert repr(twist.hodge.beta) == repr(symbol * base.hodge.beta), (p, a, b, u)
            alpha = base.hodge.alpha
            if isinstance(alpha, PadicScalar):
                assert repr(twist.hodge.alpha) == repr(symbol * alpha), (p, a, b, u)
            else:
                assert twist.hodge.alpha is alpha, (p, a, b, u)
        rest = [report.to_dict() for report in (base, twist)]
        for d in rest:
            if d["hodge"] is not None:
                del d["hodge"]["beta"], d["hodge"]["alpha"]
        assert rest[0] == rest[1], (p, a, b, u)
        same = {json.dumps(classify(p, x, y).to_dict())
                for x, y in ((a, b), (u**4 * a, u**6 * b), (p**4 * a, p**6 * b))}
        assert len(same) == 1, (p, a, b, u)
    assert symbols[1] and symbols[-1], symbols
