"""Tests for the end-to-end classifier, index rules, and bound tables."""

import json
import math
import random
from fractions import Fraction

import pytest

from padic_cartan.classifier import (
    EXCLUDED_J_INVARIANT,
    FULL_LABEL,
    AdelicBound,
    _encode_exact,
    adelic_bound,
    classify,
    delta_correction,
    index_at_stabilization,
    per_prime_index_bound,
)
from padic_cartan.errors import (
    ExcludedJInvariantError,
    SingularCurveError,
    UnsupportedPrimeError,
)
from padic_cartan.curve import WeierstrassCurve
from padic_cartan.volkov import ALPHA_INFINITY, hodge_parameters


def test_index_rule_residue_two():
    for vdisc, want in ((2, 1), (3, 1), (4, 3), (8, 1), (9, 1), (10, 3)):
        e = 12 // math.gcd(12, vdisc)
        for p in (11, 29):
            assert index_at_stabilization(p, e, vdisc) == want


def test_index_rule_residue_five():
    for vdisc, want in ((2, 3), (3, 1), (4, 1), (8, 3), (9, 1), (10, 1)):
        e = 12 // math.gcd(12, vdisc)
        assert index_at_stabilization(23, e, vdisc) == want


def test_index_rule_other_residues_and_e4():
    for p in (13, 17, 19, 37):
        for vdisc in (2, 4, 8, 10):
            e = 12 // math.gcd(12, vdisc)
            assert index_at_stabilization(p, e, vdisc) == 1
    for p in (11, 23):
        assert index_at_stabilization(p, 4, 3) == 1
        assert index_at_stabilization(p, 4, 9) == 1


def test_index_rule_twist_invariance():
    # Twisting by p swaps v(disc) 4<->10 and 2<->8 (and e 3<->6).
    for p in (11, 23, 29, 13):
        assert index_at_stabilization(p, 3, 4) == index_at_stabilization(p, 6, 10)
        assert index_at_stabilization(p, 3, 8) == index_at_stabilization(p, 6, 2)


def test_classify_rejects_malformed_input():
    with pytest.raises(UnsupportedPrimeError):
        classify(9, 1, 1)
    with pytest.raises(SingularCurveError):
        classify(11, 0, 0)


def test_classify_multiplicative():
    report = classify(13, 1, 3)  # disc = -16 * 247, 247 = 13 * 19
    assert report.defect == 1
    assert report.reduction_type == "multiplicative"
    assert report.image_label == "out_of_scope(multiplicative_reduction)"
    assert report.index_at_level is None
    assert report.hodge is None
    assert report.canonical_subgroup is None
    assert report.hypotheses_checked == (("potentially_good_reduction", False),)
    twisted = classify(13, 169, 3 * 13**3)
    assert twisted.defect == 2
    assert twisted.image_label == "out_of_scope(multiplicative_reduction)"


def test_classify_ordinary_branches():
    report = classify(13, 13**3, 13**2)  # defect 3, but 3 does not divide 14
    assert report.defect == 3
    assert not report.supersingular
    assert report.image_label == "out_of_scope(ordinary_reduction)"
    assert report.canonical_subgroup is True
    assert report.hypotheses_checked == (("e|p+1", False),)
    good = classify(11, 1, 1)
    assert good.defect == 1
    assert good.image_label == "out_of_scope(ordinary_reduction)"
    assert good.hypotheses_checked == (("supersingular_reduction", False),)


def test_classify_good_supersingular_small_defect():
    report = classify(11, 0, 1)
    assert report.defect == 1 and report.supersingular
    assert report.image_label == FULL_LABEL
    assert report.index_at_level == 1
    assert report.n0 is None and report.hodge is None
    assert ("mod_p_image_in_Cns_plus (assumed)", True) in report.hypotheses_checked
    quad = classify(11, 0, 11**3)
    assert quad.defect == 2
    assert quad.image_label == FULL_LABEL
    small = classify(5, 0, 1)
    assert small.image_label == "out_of_scope(p_not_greater_than_7)"
    assert small.index_at_level is None


def test_classify_canonical_subgroup_gate():
    report = classify(11, 11, 11**2)
    assert report.defect == 4
    assert report.canonical_subgroup is True
    assert report.image_label == "out_of_scope(canonical_subgroup)"
    assert report.index_at_level is None
    assert report.hodge is not None
    assert report.hodge.v_beta == Fraction(1, 4)


def test_classify_small_prime_gate_with_hodge_data():
    report = classify(7, 7, 7**3)
    assert report.defect == 4
    assert report.canonical_subgroup is False
    assert report.image_label == "out_of_scope(p_not_greater_than_7)"
    assert report.hodge is not None
    assert ("p>7", False) in report.hypotheses_checked


def test_classify_small_prime_gate_without_hodge():
    # p = 5 with e = 6 is the one case where the beta route is undefined.
    report = classify(5, 25, 5)
    assert report.defect == 6
    assert report.hodge is None
    assert report.image_label == "out_of_scope(p_not_greater_than_7)"


def test_classify_cm_like_lifts():
    report = classify(11, 0, 121)
    assert report.defect == 3
    assert report.image_label == FULL_LABEL
    assert report.index_at_level == 3  # 11 = 2 mod 9 and v(disc) = 4
    assert report.hodge.beta.is_exact_zero
    assert report.hodge.alpha is ALPHA_INFINITY
    assert report.n0 is None
    assert ("beta_is_exactly_zero", True) in report.hypotheses_checked
    e4 = classify(11, 11, 0)
    assert e4.defect == 4
    assert e4.image_label == FULL_LABEL
    assert e4.index_at_level == 1


def test_classify_stabilization_gate():
    report = classify(11, 11**122, 11**2, k=1)
    assert report.defect == 3
    assert report.n0 == 120  # p**2 = 121 <= n0 + 1: theory does not apply
    assert report.image_label == "out_of_scope(p_not_greater_than_sqrt_n0_plus_1)"
    assert report.index_at_level is None
    assert ("p>sqrt(n0+1)", False) in report.hypotheses_checked


def test_classify_index3_image():
    report = classify(11, 11**3, 11**2)
    assert report.image_label == "preimage_of_index3_subgroup_level_1"
    assert report.index_at_level == 3
    assert report.n0 == 1
    assert report.hodge.k_used == 2
    assert report.hodge.alpha.residue() == 5


def test_classify_full_preimage_image():
    report = classify(23, 23**4, 23**2, k=1)
    assert report.image_label == "preimage_of_Cns_plus_level_2"
    assert report.index_at_level == 1
    assert report.n0 == 2
    # k = 1 cannot see v(beta) = 7/3; the report still carries the closed form.
    assert report.hodge.v_beta == Fraction(7, 3)
    assert report.hodge.alpha is None
    assert report.hodge.v_alpha == -1


def test_classify_e6_images():
    low = classify(11, 11**2, 11)
    assert low.defect == 6
    assert low.n0 == 1
    assert low.image_label == "preimage_of_Cns_plus_level_1"
    high = classify(23, 23**2, 23, k=1)
    assert high.image_label == "preimage_of_index3_subgroup_level_1"
    assert high.index_at_level == 3


def test_classify_precision_is_a_cap():
    report = classify(11, 11**3, 11**2, precision=100)
    assert report.hodge.certificate_pi_digits == 7  # k=2 window, not 100
    with pytest.raises(ValueError):
        classify(11, 11**3, 11**2, precision=2)


def test_classify_refuses_a_level_cap_below_one():
    for k_cap in (0, -5):
        with pytest.raises(ValueError, match="^the level cap must be at least 1"):
            classify(11, 11**3, 11**2, k_cap=k_cap)
    assert classify(11, 11**3, 11**2, k_cap=1).hodge.k_used == 1


@pytest.mark.parametrize("a, b", [(375, 1250), (250, 1250)])
def test_p5_lifts_whose_divisor_drops_no_term(a, b):
    # e = 3 at p = 5: the sum of d_(p**2) keeps three terms and drops none, so it
    # is certified to its target like any multi-term sum, and beta divides by it.
    report = classify(5, a, b)
    assert (report.defect, report.image_label) == (3, "out_of_scope(canonical_subgroup)")
    assert report.hodge.v_beta == 0 and report.hodge.beta.valuation() == 0
    curve = WeierstrassCurve(5, a, b)
    betas = [hodge_parameters(curve, k=k).beta for k in (1, 2, 3)]  # each checks k - 1
    assert betas[2].is_congruent(betas[0], 4) and betas[2].pi_precision() == 10


def test_classify_raises_nothing_on_a_seeded_sweep():
    # p < 60; v(a), v(b) in 0..6 or exactly 0; lifts, and unit and p denominators.
    rng = random.Random(29)
    primes = [p for p in range(5, 60) if all(p % q for q in range(2, p))]
    labels = set()
    for _ in range(3000):
        p = rng.choice(primes)
        a, b = (Fraction(0) if v is None else
                Fraction((rng.randrange(1, p) + p * rng.randrange(p * p)) * p**v)
                for v in (rng.choice((None, *range(7))), rng.choice((None, *range(7)))))
        kind = rng.choice(("lift", "unit_den", "p_den"))
        if kind == "unit_den":
            a /= rng.choice([d for d in range(2, 100) if d % p])
            b /= rng.choice([d for d in range(2, 100) if d % p])
        elif kind == "p_den":
            a, b = a / p**4, b / p**6
        if 4 * a**3 + 27 * b**2 != 0:
            labels.add(classify(p, a, b).image_label.split("_level_")[0])
    assert len(labels) == 7, labels


def test_report_dict_key_order_and_round_trip():
    report = classify(11, 11**3, 11**2)
    d = report.to_dict()
    assert list(d) == [
        "prime",
        "defect",
        "reduction_type",
        "supersingular",
        "v_min_discriminant",
        "canonical_subgroup",
        "n0",
        "image_label",
        "index_at_level",
        "hypotheses_checked",
        "hodge",
    ]
    assert list(d["hodge"]) == [
        "k_used",
        "certificate_pi_digits",
        "beta",
        "v_beta",
        "epsilon",
        "alpha",
        "v_alpha",
    ]
    assert d["hodge"]["v_beta"] == "4/3"
    assert d["hodge"]["v_alpha"] == 0
    assert len(d["hodge"]["beta"]["coordinates"]) == 3
    assert json.loads(json.dumps(d)) == d


def test_report_dict_cm_sentinels():
    d = classify(11, 0, 121).to_dict()
    assert d["hodge"]["alpha"] == "infinity"
    assert d["hodge"]["v_beta"] == "inf"
    assert d["hodge"]["v_alpha"] == "-inf"
    minus = classify(11, 0, 11**4).to_dict()
    assert minus["hodge"]["alpha"]["lift"] == "0"
    assert minus["hodge"]["v_alpha"] == "inf"
    with pytest.raises(ValueError, match="unexpected finite float 0.5"):
        _encode_exact(0.5)  # only the two infinities are floats in exact data


def test_per_prime_index_bound_rows():
    assert per_prime_index_bound(3, 1, mod_p_case="equal") == 9
    assert per_prime_index_bound(3, 2, mod_p_case="equal") == 81
    with pytest.raises(ValueError):
        per_prime_index_bound(3, 1)
    assert per_prime_index_bound(5, 1) == 30
    assert per_prime_index_bound(5, 2) == 250
    assert per_prime_index_bound(7, 1) == 147
    assert per_prime_index_bound(7, 2) == 1029
    assert per_prime_index_bound(11, 1) == 55
    assert per_prime_index_bound(11, 2) == 5 * 11**3
    assert per_prime_index_bound(13, 1) == 78


def test_per_prime_index_bound_rejections():
    with pytest.raises(ValueError):
        per_prime_index_bound(11, 0)
    with pytest.raises(ValueError):
        per_prime_index_bound(11, 1, mod_p_case="maybe")
    with pytest.raises(UnsupportedPrimeError):
        per_prime_index_bound(4, 1)
    with pytest.raises(ExcludedJInvariantError):
        per_prime_index_bound(5, 1, j_invariant=EXCLUDED_J_INVARIANT)
    assert per_prime_index_bound(5, 1, j_invariant=Fraction(1, 2)) == 30


def test_adelic_bound_values_and_monotonicity():
    at0 = adelic_bound(0)
    assert isinstance(at0, AdelicBound)
    assert at0.bound_a == pytest.approx(1.6e17 * 480.0**3.11, rel=1e-12)
    lo, hi = adelic_bound(100), adelic_bound(200)
    assert lo.bound_a < hi.bound_a
    assert lo.bound_b < hi.bound_b
    with pytest.raises(ValueError):
        adelic_bound(-1)
    with pytest.raises(ValueError):
        adelic_bound(float("nan"))


def test_delta_correction_values():
    assert delta_correction(0.0) == pytest.approx(0.6575, abs=1e-3)
    assert delta_correction(1.2e7) == pytest.approx(0.4404, abs=1e-3)
    assert delta_correction(1e9) < delta_correction(1e6)


def _seeded_curves(seed, count):
    """(p, a, b) across the classify gates: multiplicative, ordinary, good
    supersingular, e = 3, 4, 6 lifts, CM lifts (a or b exactly 0) and p-free
    denominators, at p = 5, 7, 11, 13, 17, 23."""
    rng = random.Random(seed)

    def unit(p):
        return rng.choice((-1, 1)) * (rng.randrange(1, p) + p * rng.randrange(0, p * p))

    curves = []
    while len(curves) < count:
        p = rng.choice((5, 7, 11, 13, 17, 23))
        if rng.random() < 0.1:  # multiplicative: v(c4) = 0, v(disc) > 0
            u = unit(p)
            a, b = Fraction(-3 * u * u), Fraction(2 * u**3 + p ** rng.randrange(1, 4) * unit(p))
        else:
            a, b = (
                Fraction(0) if v is None else Fraction(unit(p) * p**v)
                for v in (rng.choice((None, 0, 1, 2, 3, 4)), rng.choice((None, 0, 1, 2, 3, 5)))
            )
            if rng.random() < 0.3:
                a /= rng.choice((2, 3, 19, 29))
                b /= rng.choice((2, 3, 19, 29))
        if 4 * a**3 + 27 * b**2 != 0 and (a, b) != (0, 0):
            curves.append((p, a, b))
    return curves


def test_classify_is_invariant_under_weighted_scaling():
    # (u^4 a, u^6 b) is the same curve over Q_p (x -> u^2 x, y -> u^3 y).
    # u = p leaves the minimal model, hence the whole report, unchanged; a
    # unit u keeps every label and valuation, though beta's digits may move.
    kept = ("image_label", "n0", "index_at_level", "defect", "reduction_type")
    kept_hodge = ("v_beta", "epsilon", "v_alpha")
    rng = random.Random(3)
    gates = set()
    for p, a, b in _seeded_curves(3, 64):
        want = classify(p, a, b).to_dict()
        gates.add(want["image_label"])
        assert classify(p, p**4 * a, p**6 * b).to_dict() == want, (p, a, b)
        u = rng.choice((2, -3, Fraction(2, 3), Fraction(-29, 31)))  # units at every p
        got = classify(p, u**4 * a, u**6 * b).to_dict()
        assert {f: got[f] for f in kept} == {f: want[f] for f in kept}, (p, a, b, u)
        if want["hodge"] is None:
            assert got["hodge"] is None, (p, a, b, u)
        else:
            assert {f: got["hodge"][f] for f in kept_hodge} == {
                f: want["hodge"][f] for f in kept_hodge}, (p, a, b, u)
    assert len(gates) >= 4, gates


def test_classify_takes_the_curve_already_built(monkeypatch):
    from padic_cartan import classifier, cli

    curves = _seeded_curves(4, 48)
    want = [classify(p, a, b).to_dict() for p, a, b in curves]
    with pytest.raises(ValueError, match="^curve is not WeierstrassCurve"):
        classify(11, 11**3, 11**2, curve=WeierstrassCurve(11, 11**3, 2 * 11**2))

    def built_again(*args):
        raise AssertionError("classify built the curve again")

    monkeypatch.setattr(classifier, "WeierstrassCurve", built_again)
    for (p, a, b), report in zip(curves, want):
        assert classify(p, a, b, curve=WeierstrassCurve(p, a, b)).to_dict() == report
    # The CLI hands classify the curve it built to resolve the precision.
    assert cli.main(["classify", "--p", "11", "--a", "1331", "--b", "121", "--json"]) == 0
